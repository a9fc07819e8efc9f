import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_sweep_loop
from ncspassive import lmi
from ncspassive.analysis import passivity_problem, stability_problem
from ncspassive.errors import (
    DimensionMismatch,
    InvalidMatrix,
    UnboundVariable,
    VerificationFailed,
)
from ncspassive.lmi import (
    AffineExpr,
    Indeterminate,
    LmiCertificate,
    LmiProblem,
    solve,
    verify,
    verify_dual,
)
from ncspassive.model import Gain, LossModel, Plant, Schedule, mode_distribution
from ncspassive.numerics import DefinitenessMargin, fro_norm, sym_eigvals, symmetrize
from ncspassive.synthesis import build_synthesis_lmi

DATA = Path(__file__).parent / "data"


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


def duplicate_variable():
    prob = LmiProblem()
    prob.add_rectangular("Y", 1, 2)
    prob.add_symmetric("Y", 1)


def undeclared_variable():
    expr = AffineExpr([1], name="lyapunov")
    expr.add_term(0, 0, [[1.0]], "Q", [[1.0]])
    LmiProblem().add_constraint(expr)


@pytest.mark.parametrize("call,error,message", [
    (lambda: AffineExpr([0]), ValueError, "block dims must be positive, got (0,)"),
    (lambda: AffineExpr([1], name="e").add_const(1, 0, [[1.0]]), ValueError,
     "e const: block (1, 0) outside 1x1 grid"),
    (duplicate_variable, ValueError, "variable 'Y' already declared"),
    (undeclared_variable, UnboundVariable,
     "constraint 'lyapunov' references undeclared variable 'Q'"),
], ids=["empty-block", "block-outside-grid", "duplicate-variable", "undeclared-variable"])
def test_malformed_problem_is_refused_naming_its_part(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


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

    def test_a_stall_reports_the_residual_not_a_distance_to_the_infimum(self):
        # sweep plant 2's synthesis LMI at eta 0.1 and margin 0.05 stops on the
        # central-path gap at multipliers that cancel no variable
        plant, loss = random_sweep_loop(2)
        problem = build_synthesis_lmi(plant, mode_distribution(loss), 0.1, DefinitenessMargin(0.05))
        result = solve(problem)
        assert isinstance(result, Indeterminate) and result.dual is None
        assert result.iterations < lmi.MAX_ITERS
        assert "infimum" not in result.message
        found = re.search(r"stalled at t = (\S+), central-path gap (\S+), "
                          r"multipliers' gradient residual (\S+)$", result.message)
        assert found, result.message
        t, gap, residual = map(float, found.groups())
        assert gap <= lmi.STALL_GAP * (1.0 + abs(t))
        assert residual > lmi._dual_tolerance(problem.margin)

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


class TestCertificationScreen:
    """``_ruled_out`` skips ``certifies`` only where the slack's diagonal inverse proves it fails."""

    def test_screen_rules_out_only_points_that_miss_the_margin(self):
        rng = np.random.default_rng(16)
        margin, fired = DefinitenessMargin(), 0
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = q @ np.diag(10.0 ** rng.uniform(-6.0, 6.0, n)) @ q.T
            s = 0.5 * (s + s.T)
            li = np.linalg.inv(np.linalg.cholesky(s))
            inverse = li.T @ li  # as the barrier forms S^-1
            d = inverse.diagonal().max()
            edge = rng.choice([sym_eigvals(s)[0], 1.0 / d, lmi.SCREEN / d])
            t = float(edge * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 0.0)))
            if lmi._ruled_out(t, inverse):
                fired += 1
                m = t * np.eye(n) - s
                assert sym_eigvals(m)[-1] > margin.threshold(m)
        assert fired > 500

    def test_solver_never_screens_out_a_point_that_certifies(self, monkeypatch):
        # every visited point is screened and certified both, as without the screen
        screened, certifies, visits = lmi._ruled_out, lmi._Barrier.certifies, []

        def screen(t, z):
            visits.append([screened(t, z)])
            return False

        def certify(barrier, y, point, margin):
            visits[-1].append(certifies(barrier, y, point, margin))
            return visits[-1][-1]

        monkeypatch.setattr(lmi, "_ruled_out", screen)
        monkeypatch.setattr(lmi._Barrier, "certifies", certify)
        for seed in range(40):
            solve(random_feasible_problem(seed))
        for a in (0.9, 0.999, 1.001, 1.5):
            solve(scalar_lyapunov_problem(a))
        assert [True, True] not in visits
        assert [True, False] in visits and [False, True] in visits


def random_barrier(seed: int, radii: bool):
    """A problem with 1-4 constraints of unequal dims, off-diagonal terms, its barrier and last.

    Without ``radii`` the barrier is ``solve``'s (start I and 0, t above
    every lambda_max); with them it is ``_maximize``'s at margin 0.01, from
    a start where every form is at most -I, with a random slope per form.
    """
    rng = np.random.default_rng(seed)
    prob = LmiProblem(DefinitenessMargin(0.01))
    n, rows, cols = (int(v) for v in rng.integers(1, 4, 3))
    prob.add_symmetric("V", n)
    prob.add_rectangular("R", rows, cols)
    g = rng.standard_normal((n, n))
    start = {"V": g @ g.T + np.eye(n), "R": rng.standard_normal((rows, cols))}
    for c, d in enumerate(rng.permutation([1, 2, 3, 4])[: int(rng.integers(1, 5))]):
        split = [int(d)] if d == 1 or rng.random() < 0.3 else [1, int(d) - 1]
        expr = AffineExpr(split, name=f"c{c}")
        for r in range(len(split)):
            for col in range(r, len(split)):
                expr.add_term(r, col, rng.standard_normal((split[r], n)), "V",
                              rng.standard_normal((n, split[col])), weight=float(rng.uniform(-2, 2)))
                expr.add_term(r, col, rng.standard_normal((split[r], rows)), "R",
                              rng.standard_normal((cols, split[col])))
        w = rng.standard_normal((d, d))
        const = -(w @ w.T + np.eye(d)) - expr.assemble(start)
        edges = np.cumsum([0] + split)
        for r in range(len(split)):
            for col in range(r, len(split)):
                expr.add_const(r, col, const[edges[r]:edges[r + 1], edges[col]:edges[col + 1]])
        prob.add_constraint(expr)
    if not radii:
        start = {"V": np.eye(n), "R": np.zeros((rows, cols))}
        s0 = max(c.lambda_max for c in verify(prob, start).checks) + 1.0
        last = [np.eye(e.dim) for _, e in prob.constraints]
        return prob, lmi._Barrier(prob, start, last, s0), last
    slopes, rs = [], []
    for _, expr in prob.constraints:
        u = rng.standard_normal((expr.dim, expr.dim))
        slopes.append(0.5 * (u + u.T))
        m = expr.assemble(start)
        rs.append(0.5 * (0.01 * np.linalg.norm(m) - sym_eigvals(m)[-1] - 0.01))
    return prob, lmi._Barrier(prob, start, slopes, 0.0, rs), slopes


def block_dims(barrier) -> list:
    """Each constraint's dim, from the slack's diagonal blocks."""
    return [block.stop - block.start for block in barrier.blocks]


def per_constraint(barrier, y):
    """The barrier's value, gradient, Hessian and S_c^-1 at y, one constraint at a time."""
    k = len(y)
    value, grad, hess, inverses = 0.0, np.zeros(k), np.zeros((k, k)), []
    e2 = barrier.eps ** 2
    for c, (start, d) in enumerate(zip(barrier.starts, block_dims(barrier))):
        f = barrier.flat[:, start:start + d * d]
        s = (barrier.base[start:start + d * d] + y @ f).reshape(d, d)
        chol = np.linalg.cholesky(s)
        value -= 2.0 * np.log(np.diag(chol)).sum()
        li = np.linalg.inv(chol)
        g = (li @ f.reshape(k, d, d) @ li.T).reshape(k, -1)
        grad -= g[:, :: d + 1].sum(axis=1)
        hess += g @ g.T
        inverses.append(li.T @ li)
        if barrier.cones:
            h = barrier.dr[c]
            r = barrier.r0[c] + h @ y
            m = (s + (barrier.eps + r) * np.eye(d)).ravel()
            room = r * r - e2 * (m @ m)
            m_of = f + np.outer(h, np.eye(d).ravel())
            dr = 2.0 * (r * h - e2 * (m_of @ m))
            value -= np.log(room)
            grad -= dr / room
            hess += np.outer(dr, dr) / room ** 2 - 2.0 * (np.outer(h, h) - e2 * m_of @ m_of.T) / room
    return value, grad, hess, inverses


def inside(barrier, rng):
    """A random point in the barrier's domain, half way from y = 0 to its edge or nearer."""
    y = 0.3 * rng.standard_normal(barrier.q.shape[1])
    while barrier.factor(y) is None:
        y *= 0.5
    return 0.5 * y


class TestBlockDiagonalBarrier:
    """One block-diagonal slack per point matches the constraints taken one at a time."""

    @pytest.mark.parametrize("radii", [False, True], ids=["solve", "cones"])
    def test_value_gradient_and_hessian_match_a_per_constraint_reference(self, radii):
        rng = np.random.default_rng(19)
        for seed in range(40):
            prob, barrier, _ = random_barrier(seed, radii)
            assert len(set(block_dims(barrier))) == len(block_dims(barrier))  # unequal dims
            y = inside(barrier, rng)
            point, value = barrier.factor(y)
            grad, hess, z = barrier.derivatives(y, point)
            ref_value, ref_grad, ref_hess, inverses = per_constraint(barrier, y)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
            np.testing.assert_allclose(hess, ref_hess, rtol=1e-12, atol=1e-12 * np.abs(ref_hess).max())
            full = np.zeros_like(z)
            for block, inverse in zip(barrier.blocks, inverses):
                full[block, block] = inverse
            np.testing.assert_allclose(z, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())
            assert lmi._ruled_out(1.0, z) == any(inv.diagonal().max() >= lmi.SCREEN for inv in inverses)

    @pytest.mark.parametrize("radii", [False, True], ids=["solve", "cones"])
    def test_gradient_and_hessian_match_central_differences(self, radii):
        rng = np.random.default_rng(23)
        for seed in range(20):
            _, barrier, _ = random_barrier(seed, radii)
            y = inside(barrier, rng)
            grad, hess, _ = barrier.derivatives(y, barrier.factor(y)[0])
            h = 1e-6
            for j in range(len(y)):
                dy = np.zeros_like(y)
                dy[j] = h
                up, down = barrier.factor(y + dy), barrier.factor(y - dy)
                assert (up[1] - down[1]) / (2 * h) == pytest.approx(grad[j], rel=1e-6, abs=1e-6)
                column = (barrier.derivatives(y + dy, up[0])[0]
                          - barrier.derivatives(y - dy, down[0])[0]) / (2 * h)
                np.testing.assert_allclose(column, hess[:, j], rtol=1e-6,
                                           atol=1e-6 * max(1.0, np.abs(hess).max()))

    @pytest.mark.parametrize("radii", [False, True], ids=["solve", "cones"])
    def test_slacks_are_the_assembled_constraints(self, radii):
        rng = np.random.default_rng(29)
        for seed in range(20):
            prob, barrier, last = random_barrier(seed, radii)
            y = inside(barrier, rng)
            entries, _, cones = barrier.factor(y)[0]
            x, v = barrier.x(y), barrier.assignment(y)
            for c, ((_, expr), start, d) in enumerate(zip(prob.constraints, barrier.starts,
                                                           block_dims(barrier))):
                s = x[-1] * last[c] - expr.assemble(v)
                if radii:
                    s -= (barrier.eps + cones[0][c]) * np.eye(d)
                np.testing.assert_allclose(entries[start:start + d * d].reshape(d, d), s,
                                           rtol=1e-10, atol=1e-10 * np.abs(s).max())

    def test_certifies_is_the_per_constraint_cholesky_test(self):
        rng = np.random.default_rng(31)
        outcomes = set()
        for seed in range(40):
            prob, barrier, _ = random_barrier(seed, False)
            for _ in range(5):
                y = inside(barrier, rng)
                point = barrier.factor(y)[0]
                entries, t = point[0], barrier.x(y)[-1]
                expect = True
                for start, d in zip(barrier.starts, block_dims(barrier)):
                    m = t * np.eye(d) - entries[start:start + d * d].reshape(d, d)
                    try:
                        np.linalg.cholesky(prob.margin.threshold(m) * np.eye(d) - m)
                    except np.linalg.LinAlgError:
                        expect = False
                assert barrier.certifies(y, point, prob.margin) == expect
                outcomes.add(expect)
        assert outcomes == {True, False}

    def test_certifies_where_the_squares_of_a_block_overflow(self):
        # blocks with -1e200 on the diagonal and -1 off it certify, although their
        # squares overflow; with +1 in a diagonal corner they do not
        prob, barrier, _ = random_barrier(3, False)
        t = barrier.x(np.zeros(barrier.q.shape[1]))[-1]
        for corner, expect in ((-1e200, True), (1.0, False)):
            m = -np.ones(barrier.index.size)
            m[barrier.eye > 0] = -1e200
            m[0] = corner
            assert barrier.certifies(np.zeros(barrier.q.shape[1]), (t * barrier.eye - m, None, None),
                                     prob.margin) is expect

    def test_linear_part_is_assemble_at_each_unit_less_assemble_at_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dims = [int(d) for d in rng.integers(1, 4, int(rng.integers(1, 4)))]
            expr = AffineExpr(dims)
            shape = tuple(int(v) for v in rng.integers(1, 4, 2))
            for _ in range(4):
                r, c = (int(v) for v in rng.integers(0, len(dims), 2))
                expr.add_term(r, c, rng.standard_normal((dims[r], shape[0])), "V",
                              rng.standard_normal((shape[1], dims[c])), weight=float(rng.normal()))
                expr.add_term(r, c, rng.standard_normal((dims[r], 2)), "W",
                              rng.standard_normal((2, dims[c])))
                expr.add_const(r, c, rng.standard_normal((dims[r], dims[c])))
            zero = {"V": np.zeros(shape), "W": np.zeros((2, 2))}
            units = np.eye(shape[0] * shape[1]).reshape(-1, *shape)
            values = np.concatenate([units, rng.standard_normal((5, *shape))])
            linear = expr.linear("V", values)
            for value, part in zip(values, linear):
                expect = expr.assemble({**zero, "V": value}) - expr.assemble(zero)
                np.testing.assert_allclose(part, expect, atol=1e-12 * (1.0 + np.abs(expect).max()))
                np.testing.assert_array_equal(part, part.T)

    def test_dual_blocks_are_the_per_constraint_multipliers(self, monkeypatch):
        # the form's third row, a block of another dim, has the constant 1 on its
        # diagonal: no P makes it negative definite
        seen, derivatives = [], lmi._Barrier.derivatives

        def record(barrier, y, point):
            seen[:] = [barrier, point[0]]
            return derivatives(barrier, y, point)

        monkeypatch.setattr(lmi._Barrier, "derivatives", record)
        prob = LmiProblem()
        prob.add_symmetric("P", 2, positive_definite=True)
        expr = AffineExpr([2, 1], name="lyapunov")
        expr.add_term(0, 0, 2.0 * np.eye(2), "P", 2.0 * np.eye(2))
        expr.add_term(0, 0, -np.eye(2), "P", np.eye(2))
        expr.add_term(0, 1, np.ones((2, 2)), "P", np.ones((2, 1)), weight=0.1)
        expr.add_const(1, 1, [[1.0]])
        prob.add_constraint(expr)
        result = solve(prob)
        assert result.message.startswith("refuted") and verify_dual(prob, result.dual).passed
        barrier, entries = seen
        inverses = [np.linalg.inv(entries[s:s + d * d].reshape(d, d))
                    for s, d in zip(barrier.starts, block_dims(barrier))]
        total = sum(z.trace() for z in inverses)
        assert list(result.dual) == ["P_pos_def", "lyapunov"]
        for (name, _), z in zip(prob.constraints, inverses):
            assert result.dual[name].shape == z.shape
            np.testing.assert_allclose(result.dual[name], z / total, rtol=1e-8, atol=1e-12)

    def test_full_row_rank_skips_the_svd_and_only_rounding_changes(self, monkeypatch):
        for seed in range(20):
            prob = random_feasible_problem(seed)
            barrier = lmi._Barrier(prob, {n: np.eye(v.rows) if v.kind == "symmetric"
                                          else np.zeros(v.shape) for n, v in prob.variables.items()},
                                   [np.eye(e.dim) for _, e in prob.constraints], 1.0)
            if barrier.q.shape[0] == barrier.q.shape[1]:
                np.testing.assert_array_equal(barrier.q, np.eye(len(barrier.q)))
        results = [solve(random_feasible_problem(seed)) for seed in range(40)]
        monkeypatch.setattr(lmi, "FULL_RANK", 1.0)  # no Gram matrix passes: every basis takes the SVD
        for seed, result in enumerate(results):
            svd = solve(random_feasible_problem(seed))
            assert type(svd) is type(result)
            if result.feasible:
                for name, value in result.assignment.items():
                    np.testing.assert_allclose(svd.assignment[name], value, rtol=1e-6, atol=1e-6)

    def test_rank_deficient_basis_takes_the_svd(self, monkeypatch):
        # V1 and V2 enter only through V1 + V2, and V1 + V2 + 5 < 0 moves with t:
        # one slack direction of three coordinates
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        prob = LmiProblem()
        prob.add_symmetric("V1", 1)
        prob.add_symmetric("V2", 1)
        expr = AffineExpr([1], name="sum")
        expr.add_term(0, 0, [[1.0]], "V1", [[1.0]])
        expr.add_term(0, 0, [[1.0]], "V2", [[1.0]])
        expr.add_const(0, 0, [[5.0]])
        prob.add_constraint(expr)
        barrier = lmi._Barrier(prob, {"V1": np.eye(1), "V2": np.eye(1)}, [np.eye(1)], 7.0)
        assert calls and barrier.q.shape == (3, 1)
        result = solve(prob)
        assert result.feasible
        assert result.assignment["V1"][0, 0] + result.assignment["V2"][0, 0] < -5.0


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

    def test_a_wide_margin_does_not_widen_the_allowance(self, monkeypatch):
        # sweep plant 129's synthesis LMI at eta 0.1 and margin 0.05, and multipliers
        # whose gradient residual is 1e-2, stored from a barrier run under an allowance
        # of 5%, the margin: that allowance would pass them
        plant, loss = random_sweep_loop(129)
        dist = mode_distribution(loss)
        problem = build_synthesis_lmi(plant, dist, 0.1, DefinitenessMargin(0.05))
        stored = json.loads((DATA / "sweep129_wide_margin_dual.json").read_text())
        dual = {name: np.array(z) for name, z in stored.items()}
        with monkeypatch.context() as patch:
            patch.setattr(lmi, "_dual_tolerance", lambda margin: margin.epsilon_rel)
            assert dual is not None and verify_dual(problem, dual).passed
        report = verify_dual(problem, dual)
        assert report.gradient_slack < 0.0 and not report.passed
        # the allowance is the default margin's: the same report at margin 1e-8
        default = verify_dual(build_synthesis_lmi(plant, dist, 0.1), dual)
        assert (default.psd_slack, default.trace, default.gradient_slack, default.constant) == (
            report.psd_slack, report.trace, report.gradient_slack, report.constant)



def verify_reference(prob: LmiProblem, assignment: dict) -> list:
    """(name, lambda_max, threshold, norm) per constraint: one eigvalsh and np.linalg.norm each."""
    eps = prob.margin.epsilon_rel
    out = []
    for name, expr in prob.constraints:
        m = expr.assemble(assignment)
        norm = float(np.linalg.norm(m))
        out.append((name, float(np.linalg.eigvalsh(m)[-1]), -eps * (1.0 + norm), norm))
    return out


def verify_dual_reference(prob: LmiProblem, multipliers: dict) -> tuple:
    """verify_dual's four fields, one multiplier, eigensolve and norm at a time."""
    eps = prob.margin.epsilon_rel
    psd_slack, trace, constant, grads = np.inf, 0.0, 0.0, {}
    for name, expr in prob.constraints:
        z = symmetrize(multipliers[name])
        psd_slack = min(psd_slack, float(sym_eigvals(z)[0]) + eps * (1.0 + fro_norm(z)))
        trace += float(np.trace(z))
        constant += float(np.sum(z * expr.constant()))
        for vname in expr.variables():
            grads.setdefault(vname, []).append(expr.grad(vname, z, prob.variables[vname].shape))
    gradient_slack = np.inf
    for vname, parts in grads.items():
        total = sum(parts)
        if prob.variables[vname].kind == "symmetric":
            total = 0.5 * (total + total.T)
        allowance = eps * (1.0 + sum(fro_norm(g) for g in parts))
        gradient_slack = min(gradient_slack, allowance - fro_norm(total))
    return psd_slack, trace, gradient_slack, constant


def random_symmetric(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m + m.T + 2.0 * n * np.eye(n) * rng.random()


def random_stability_problems(rng):
    """stability_problem of a random loop at n = 1-6 on schedules of periods 1, 2 and 3."""
    for n in range(1, 7):
        plant = Plant(A=rng.standard_normal((n, n)), B1=rng.standard_normal((n, 1)),
                      B2=rng.standard_normal((n, 2)), C1=rng.standard_normal((1, n)),
                      D11=[[1.0]], D12=rng.standard_normal((1, 2)))
        gain = Gain(rng.standard_normal((2, n)))
        dist = mode_distribution(LossModel(float(rng.random()), float(rng.random())))
        for schedule in (Schedule(period=1, s1=(0,), s2=(0,), full_packet=True),
                         Schedule(period=2, s1=(n, 0), s2=(0, 1)),
                         Schedule(period=3, s1=(1, 0, 0), s2=(0, 2, 0))):
            yield n, stability_problem(plant, gain, schedule, dist)


class TestBatchedVerify:
    """verify's stacked eigensolves against one eigensolve per constraint, bit for bit."""

    @staticmethod
    def assert_matches(prob: LmiProblem, assignment: dict) -> None:
        checks = [(c.name, c.lambda_max, c.threshold, c.norm) for c in verify(prob, assignment).checks]
        assert checks == verify_reference(prob, assignment)

    def test_stability_forms_periods_1_to_3(self):
        rng = np.random.default_rng(36)
        for n, prob in random_stability_problems(rng):
            for _ in range(3):
                self.assert_matches(prob, {name: random_symmetric(rng, n) for name in prob.variables})

    def test_synthesis_and_dissipation_forms_mix_block_sizes(self):
        rng = np.random.default_rng(63)
        for n, m1 in ((1, 1), (2, 1), (3, 2), (5, 3)):
            plant = Plant(A=rng.standard_normal((n, n)), B1=rng.standard_normal((n, m1)),
                          B2=rng.standard_normal((n, 2)), C1=rng.standard_normal((m1, n)),
                          D11=2.0 * np.eye(m1), D12=rng.standard_normal((m1, 2)))
            dist = mode_distribution(LossModel(0.1, 0.2))
            synthesis = build_synthesis_lmi(plant, dist, 0.3)
            dissipation = passivity_problem(plant, Gain(rng.standard_normal((2, n))), dist, 0.3)
            assert len({expr.dim for _, expr in synthesis.constraints}) == 2
            assert len({expr.dim for _, expr in dissipation.constraints}) == 2
            for _ in range(3):
                self.assert_matches(synthesis, {"X": random_symmetric(rng, n),
                                                "Y": rng.standard_normal((2, n))})
                self.assert_matches(dissipation, {"P": random_symmetric(rng, n)})

    def test_non_finite_assembly_raises(self):
        prob = lyapunov_problem(np.array([[1e200, 0.0], [0.0, 0.5]]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                verify(prob, {"P": np.array([[np.inf, 0.0], [0.0, 1.0]])})
            # a finite P whose product A' P A overflows
            with pytest.raises(InvalidMatrix, match="non-finite"):
                verify(prob, {"P": np.eye(2)})

    def test_overflowing_squares_are_rescaled(self):
        # entries of 1e160: their squares overflow, the matrices do not
        report = verify(lyapunov_problem(np.array([[0.5]])), {"P": np.array([[1e160]])})
        for check, entry in zip(report.checks, (-1e160, 0.25e160 - 1e160)):
            assert check.lambda_max == entry and check.norm == abs(entry)


class TestBatchedVerifyDual:
    def test_matches_one_eigensolve_per_multiplier(self):
        rng = np.random.default_rng(8)
        for n, prob in random_stability_problems(rng):
            for _ in range(2):
                zs = {name: random_symmetric(rng, expr.dim) / n for name, expr in prob.constraints}
                report = verify_dual(prob, zs)
                fields = (report.psd_slack, report.trace, report.gradient_slack, report.constant)
                assert fields == verify_dual_reference(prob, zs)
