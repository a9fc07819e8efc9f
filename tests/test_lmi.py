import numpy as np
import pytest

from ncspassive.errors import DimensionMismatch, UnboundVariable, VerificationFailed
from ncspassive.lmi import (
    AffineExpr,
    Indeterminate,
    LmiCertificate,
    LmiProblem,
    solve,
    verify,
    verify_dual,
)
from ncspassive.numerics import DefinitenessMargin, sym_eigvals


def scalar_lyapunov_problem(a: float) -> LmiProblem:
    prob = LmiProblem()
    prob.add_symmetric("P", 1, positive_definite=True)
    expr = AffineExpr([1], name="lyapunov")
    expr.add_term(0, 0, [[a]], "P", [[a]])
    expr.add_term(0, 0, [[-1.0]], "P", [[1.0]])
    prob.add_constraint(expr)
    return prob


class TestAffineExpr:
    def test_negated_variable(self):
        expr = AffineExpr([2])
        expr.add_term(0, 0, -np.eye(2), "P", np.eye(2))
        np.testing.assert_allclose(expr.assemble({"P": np.eye(2)}), -np.eye(2))

    def test_scalar_lyapunov_value(self):
        expr = AffineExpr([1])
        expr.add_term(0, 0, [[0.5]], "P", [[0.5]])
        expr.add_term(0, 0, [[-1.0]], "P", [[1.0]])
        np.testing.assert_allclose(expr.assemble({"P": [[1.0]]}), [[-0.75]])

    def test_scalar_dissipation_block(self):
        # x+ = 0.5 x + w, z = 0.5 x + w at P = 1, eta = 0.4 assembles to
        # diag(-0.75, -0.2) with a vanishing cross block.
        a, b, c, d, eta = 0.5, 1.0, 0.5, 1.0, 0.4
        expr = AffineExpr([1, 1], name="dissipation")
        expr.add_term(0, 0, [[a]], "P", [[a]])
        expr.add_term(0, 0, [[-1.0]], "P", [[1.0]])
        expr.add_term(0, 1, [[a]], "P", [[b]])
        expr.add_const(0, 1, [[-c]])
        expr.add_term(1, 1, [[b]], "P", [[b]])
        expr.add_const(1, 1, [[2.0 * eta - 2.0 * d]])
        np.testing.assert_allclose(
            expr.assemble({"P": [[1.0]]}), [[-0.75, 0.0], [0.0, -0.2]], atol=1e-15
        )

    def test_unbound_variable(self):
        expr = AffineExpr([1])
        expr.add_term(0, 0, [[1.0]], "P", [[1.0]])
        with pytest.raises(UnboundVariable):
            expr.assemble({})

    def test_off_diagonal_implies_transpose_partner(self):
        expr = AffineExpr([2, 1])
        expr.add_const(1, 0, [[1.0, 2.0]])
        m = expr.assemble({})
        np.testing.assert_allclose(m[2, :2], [1.0, 2.0])
        np.testing.assert_allclose(m[:2, 2], [1.0, 2.0])

    def test_symmetric_for_any_assignment(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            expr = AffineExpr([2, 3])
            expr.add_term(0, 1, rng.standard_normal((2, 2)), "V", rng.standard_normal((4, 3)))
            expr.add_term(1, 1, rng.standard_normal((3, 2)), "V", rng.standard_normal((4, 3)))
            v = rng.standard_normal((2, 4))
            m = expr.assemble({"V": v})
            np.testing.assert_allclose(m, m.T)

    def test_linearity_by_superposition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            expr = AffineExpr([3])
            expr.add_const(0, 0, rng.standard_normal((3, 3)))
            expr.add_term(0, 0, rng.standard_normal((3, 2)), "V", rng.standard_normal((2, 3)))
            expr.add_term(0, 0, rng.standard_normal((3, 2)), "V", rng.standard_normal((2, 3)),
                          weight=0.7)
            va = rng.standard_normal((2, 2))
            vb = rng.standard_normal((2, 2))
            base = expr.assemble({"V": np.zeros((2, 2))})
            lhs = expr.assemble({"V": va + vb}) - base
            rhs = (expr.assemble({"V": va}) - base) + (expr.assemble({"V": vb}) - base)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            expr = AffineExpr([2, 2])
            expr.add_term(0, 0, rng.standard_normal((2, 3)), "V", rng.standard_normal((4, 2)))
            expr.add_term(0, 1, rng.standard_normal((2, 3)), "V", rng.standard_normal((4, 2)))
            expr.add_term(1, 1, rng.standard_normal((2, 3)), "V", rng.standard_normal((4, 2)),
                          weight=-1.3)
            v0 = rng.standard_normal((3, 4))
            w = rng.standard_normal((4, 4))
            w = 0.5 * (w + w.T)

            def inner(v):
                return float(np.sum(w * expr.assemble({"V": v})))

            g = expr.grad("V", w, (3, 4))
            eps = 1e-6
            for i in range(3):
                for j in range(4):
                    dv = np.zeros((3, 4))
                    dv[i, j] = eps
                    fd = (inner(v0 + dv) - inner(v0 - dv)) / (2 * eps)
                    assert g[i, j] == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_block_dimension_checked(self):
        expr = AffineExpr([2, 1])
        with pytest.raises(DimensionMismatch):
            expr.add_const(0, 0, np.ones((1, 1)))


class TestSolve:
    def test_scalar_contraction_feasible(self):
        result = solve(scalar_lyapunov_problem(0.5))
        assert result.feasible
        p = float(result.assignment["P"][0, 0])
        assert 0.25 * p - p < 0

    def test_scalar_expansion_yields_indeterminate(self):
        result = solve(scalar_lyapunov_problem(2.0))
        assert isinstance(result, Indeterminate)
        # best effort is nonnegative: no feasible point exists
        assert result.best_value > -1e-9

    def test_refutation_carries_a_verified_dual(self):
        prob = scalar_lyapunov_problem(2.0)
        result = solve(prob)
        assert isinstance(result, Indeterminate)
        assert result.message.startswith("refuted")
        assert sorted(result.dual) == ["P_pos_def", "lyapunov"]
        assert verify_dual(prob, result.dual).passed

    def test_feasible_start_returns_after_zero_steps(self):
        # P = I already verifies 0.25 P - P < 0
        result = solve(scalar_lyapunov_problem(0.5))
        assert result.feasible
        assert result.iterations == 0
        np.testing.assert_array_equal(result.assignment["P"], [[1.0]])

    def test_variable_that_lowers_every_constraint(self):
        # V + 5 < 0: moving V and t together leaves the slack t - V - 5 fixed,
        # a direction along which the barrier is flat but t falls
        prob = LmiProblem()
        prob.add_symmetric("V", 1)
        expr = AffineExpr([1], name="shifted")
        expr.add_term(0, 0, [[1.0]], "V", [[1.0]])
        expr.add_const(0, 0, [[5.0]])
        prob.add_constraint(expr)
        result = solve(prob)
        assert result.feasible
        assert result.assignment["V"][0, 0] < -5.0

    def test_budget_exhaustion_gives_no_dual(self):
        result = solve(scalar_lyapunov_problem(2.0), max_iters=1)
        assert isinstance(result, Indeterminate)
        assert result.iterations == 1
        assert result.dual is None

    def test_start_outside_the_barrier_gives_no_dual(self):
        # at a = 1e8, t = lambda_max + 1 rounds onto lambda_max: the start's slack is not
        # positive definite in floating point, so no Newton step can be taken
        result = solve(scalar_lyapunov_problem(1e8))
        assert isinstance(result, Indeterminate)
        assert result.iterations == 0
        assert result.dual is None
        assert "outside its domain" in result.message

    def test_certificates_verify_by_construction(self):
        result = solve(scalar_lyapunov_problem(0.9))
        assert result.feasible
        report = verify(scalar_lyapunov_problem(0.9), result.assignment)
        assert report.passed

    def test_determinism_identical_bytes(self):
        r1 = solve(scalar_lyapunov_problem(0.8))
        r2 = solve(scalar_lyapunov_problem(0.8))
        assert r1.feasible and r2.feasible
        assert r1.assignment["P"].tobytes() == r2.assignment["P"].tobytes()
        assert r1.iterations == r2.iterations

    def test_unreferenced_variable_rejected(self):
        prob = LmiProblem()
        prob.add_symmetric("P", 2)
        prob.add_rectangular("Y", 1, 2)
        expr = AffineExpr([2])
        expr.add_term(0, 0, -np.eye(2), "P", np.eye(2))
        prob.add_constraint(expr)
        with pytest.raises(ValueError, match="never referenced"):
            solve(prob)


def random_feasible_problem(seed: int) -> LmiProblem:
    """Instance built around a sampled ground truth with slack >= 0.1."""
    rng = np.random.default_rng(seed)
    prob = LmiProblem()
    truth = {}
    n_sym = int(rng.integers(1, 3))
    for i in range(n_sym):
        d = int(rng.integers(1, 5))
        name = f"V{i}"
        pd = bool(rng.random() < 0.4)
        prob.add_symmetric(name, d, positive_definite=pd)
        g = rng.standard_normal((d, d))
        g = g + g.T
        if pd:
            g = g @ g.T / d + (0.2 + rng.random()) * np.eye(d)
        truth[name] = g
    if rng.random() < 0.5:
        rows, cols = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        prob.add_rectangular("R0", rows, cols)
        truth["R0"] = rng.standard_normal((rows, cols))
    for c in range(int(rng.integers(1, 4))):
        bd = int(rng.integers(1, 4))
        expr = AffineExpr([bd], name=f"c{c}")
        for name, value in truth.items():
            rows, cols = value.shape
            expr.add_term(0, 0, rng.standard_normal((bd, rows)), name,
                          rng.standard_normal((cols, bd)))
        lin = expr.assemble(truth)
        s = rng.standard_normal((bd, bd))
        s = s @ s.T + (0.1 + rng.random()) * np.eye(bd)
        expr.add_const(0, 0, -lin - s)
        prob.add_constraint(expr)
    # ground-truth check: strictly feasible with slack >= 0.1 by construction
    for _, expr in prob.constraints:
        if expr.name.startswith("c"):
            assert sym_eigvals(expr.assemble(truth))[-1] <= -0.1 + 1e-9
    return prob


class TestCompleteness:
    def test_desk_scale_success_rate(self):
        solved = 0
        total = 200
        for seed in range(total):
            result = solve(random_feasible_problem(seed))
            if result.feasible:
                solved += 1
        assert solved >= 0.95 * total, f"solved only {solved}/{total}"


class TestVerify:
    def test_zero_assignment_fails_positive_definiteness(self):
        prob = LmiProblem()
        prob.add_symmetric("P", 2, positive_definite=True)
        expr = AffineExpr([2], name="dummy")
        expr.add_term(0, 0, -np.eye(2), "P", np.eye(2))
        prob.add_constraint(expr)
        report = verify(prob, {"P": np.zeros((2, 2))})
        assert not report.passed

    def test_margin_perturbation_flips_a_tight_instance(self):
        # constraint: P - 1 < 0 held with a sliver of slack; nudging P up by
        # twice the margin magnitude must break it.
        margin = DefinitenessMargin()
        prob = LmiProblem(margin=margin)
        prob.add_symmetric("P", 1, positive_definite=True)
        expr = AffineExpr([1], name="cap")
        expr.add_term(0, 0, [[1.0]], "P", [[1.0]])
        expr.add_const(0, 0, [[-1.0]])
        prob.add_constraint(expr)

        thr = margin.threshold(np.zeros((1, 1)))  # approx -eps
        tight = {"P": np.array([[1.0 + 1.2 * thr]])}
        assert verify(prob, tight).passed
        bumped = {"P": tight["P"] + 2.0 * abs(thr) * np.eye(1)}
        report = verify(prob, bumped)
        assert not report.passed

    def test_certificate_construction_rejects_bad_assignment(self):
        prob = scalar_lyapunov_problem(0.5)
        with pytest.raises(VerificationFailed):
            LmiCertificate.build(prob, {"P": np.array([[-1.0]])})

    def test_constraint_dimension_mismatch_caught_at_add(self):
        prob = LmiProblem()
        prob.add_symmetric("P", 2)
        expr = AffineExpr([1])
        expr.add_term(0, 0, [[1.0]], "P", [[1.0]])
        with pytest.raises(DimensionMismatch):
            prob.add_constraint(expr)


def lyapunov_problem(a) -> LmiProblem:
    """A' P A - P < 0, P > 0 for a square A."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    prob = LmiProblem()
    prob.add_symmetric("P", n, positive_definite=True)
    expr = AffineExpr([n], name="lyapunov")
    expr.add_term(0, 0, a.T, "P", a)
    expr.add_term(0, 0, -np.eye(n), "P", np.eye(n))
    prob.add_constraint(expr)
    return prob


class TestVerifyDual:
    # For A = 2I the P-gradient of <W, 4P - P> + <S, -P> vanishes when S = 3W.
    def test_perron_multipliers_refute_an_expanding_loop(self):
        w = np.eye(2) / 8.0
        report = verify_dual(lyapunov_problem(2.0 * np.eye(2)),
                             {"lyapunov": w, "P_pos_def": 3.0 * w})
        assert report.passed

    def test_negative_eigenvalue_rejected(self):
        w = np.diag([0.5, -0.25])  # trace 1/4; every other check still holds
        report = verify_dual(lyapunov_problem(2.0 * np.eye(2)),
                             {"lyapunov": w, "P_pos_def": 3.0 * w})
        assert report.trace == pytest.approx(1.0)
        assert report.gradient_slack >= 0.0 and report.constant >= 0.0
        assert report.psd_slack < 0.0
        assert not report.passed

    def test_variables_must_cancel(self):
        # a contracting loop: the weighted constraints still depend on P
        report = verify_dual(scalar_lyapunov_problem(0.5),
                             {"lyapunov": [[0.25]], "P_pos_def": [[0.75]]})
        assert report.gradient_slack < 0.0
        assert not report.passed

    def test_zero_multipliers_rejected(self):
        report = verify_dual(scalar_lyapunov_problem(2.0),
                             {"lyapunov": [[0.0]], "P_pos_def": [[0.0]]})
        assert report.trace == 0.0
        assert not report.passed

    def test_multiplier_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            verify_dual(scalar_lyapunov_problem(2.0),
                        {"lyapunov": np.eye(2), "P_pos_def": [[0.75]]})
