"""One posed problem per certify call, checked once: re-leveling, and the barrier's early rejection."""

import numpy as np
import pytest

from conftest import assert_gain_certified
from ncspassive import analysis, lmi, synthesis
from ncspassive.analysis import passivity_lmi
from ncspassive.errors import AssumptionViolated
from ncspassive.model import (
    Gain,
    LossModel,
    Plant,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
)
from ncspassive.synthesis import build_synthesis_lmi, synthesize

# The four fixed loops of the certify-pipeline benchmark, as (A, alpha1, alpha2)
# of the README plant; the first is the README loop.
CERTIFY_LOOPS = [(1.2, 0.0, 0.2), (1.22, 0.0, 0.19), (1.19, 0.03, 0.22), (1.25, 0.0, 0.2)]


def certify_loop(a, alpha1, alpha2):
    plant = Plant(A=[[a]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
    return plant, LossModel(alpha1, alpha2)


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestPosedOnce:
    def test_maximized_synthesis_poses_each_form_once(self, monkeypatch):
        plant, loss = certify_loop(*CERTIFY_LOOPS[0])
        calls = {}
        counting(monkeypatch, synthesis, "build_synthesis_lmi", calls)
        counting(monkeypatch, synthesis, "passivity_problem", calls)  # the gain certificate's
        counting(monkeypatch, analysis, "passivity_problem", calls)
        counting(monkeypatch, synthesis, "check_assumption", calls)  # build_synthesis_lmi's
        counting(monkeypatch, analysis, "check_assumption", calls)  # passivity_problem's
        result = synthesize(plant, loss, "maximize")
        # D11 is checked by each builder, once for its problem and once for the gain's
        assert calls == {"build_synthesis_lmi": 1, "passivity_problem": 1, "check_assumption": 2}
        assert_gain_certified(plant, loss, result)

    def test_maximized_passivity_poses_its_form_once(self, monkeypatch):
        plant, loss = certify_loop(*CERTIFY_LOOPS[0])
        dist = mode_distribution(loss)
        gain = synthesize(plant, loss, "maximize").gain
        calls = {}
        counting(monkeypatch, analysis, "passivity_problem", calls)
        counting(monkeypatch, analysis, "check_assumption", calls)
        result = passivity_lmi(plant, gain, dist, "maximize")
        assert result.feasible and result.eta > 0.0
        assert calls == {"passivity_problem": 1, "check_assumption": 1}

    @pytest.mark.parametrize("eta", [-0.1, 0.1, "maximize"])
    def test_input_errors_come_before_the_guards(self, eta):
        # the A = 2 loop that both guards refuse, with D11 = 0: eta first, then D11
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[0.0]], D12=[[0.0]])
        loss = LossModel(0.0, 0.3)
        error = ValueError if eta == -0.1 else AssumptionViolated
        with pytest.raises(error):
            synthesize(plant, loss, eta)
        with pytest.raises(error):
            passivity_lmi(plant, Gain.zero(1, 1), mode_distribution(loss), eta)


# A non-symmetric D11 whose constant rounds differently when regrouped as
# 2 eta I + (-D11' - D11) (at eta = 0.1), so the bytes show the order.
D11 = np.array([[1.1, 0.3], [-0.2, 1.7]])
LEVELS = [0.0, 0.1, 1.0 / 3.0, 0.75]


def two_channel_plant():
    return Plant(A=[[0.5, 0.2], [-0.1, 0.7]], B1=[[1.0, 0.2], [0.3, -0.4]],
                 B2=[[0.4], [1.0]], C1=[[0.5, -0.3], [0.2, 0.6]], D11=D11, D12=[[0.3], [-0.1]])


def reference(expr, eta):
    """``expr`` posed again with its (1, 1) constant written as 2 eta I - D11' - D11."""
    ref = lmi.AffineExpr(expr.block_dims, name=expr.name)
    for t in expr._terms:
        ref.add_term(t.row, t.col, t.left, t.var, t.right, weight=t.weight)
    for row, col, value in expr._consts:
        ref.add_const(row, col, value)
    ref.add_const(1, 1, 2.0 * eta * np.eye(2) - D11.T - D11)
    return ref


class TestReLeveling:
    @pytest.mark.parametrize("eta", LEVELS)
    def test_synthesis_form_at_a_level_is_byte_identical(self, eta):
        plant, dist = two_channel_plant(), mode_distribution(LossModel(0.1, 0.2))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2))
        assignment = {"X": x @ x.T + np.eye(2), "Y": rng.standard_normal((1, 2))}
        base = build_synthesis_lmi(plant, dist, 0.0)
        leveled, posed = base.at(eta), build_synthesis_lmi(plant, dist, eta)
        assert leveled.level == posed.level == eta
        (_, form0), (_, form1) = base.constraints[-1], leveled.constraints[-1]
        ref = reference(form0, eta)
        for (name, a), (_, b) in zip(leveled.constraints, posed.constraints):
            assert a.assemble(assignment).tobytes() == b.assemble(assignment).tobytes(), name
            assert a.constant().tobytes() == b.constant().tobytes(), name
        assert form1.assemble(assignment).tobytes() == ref.assemble(assignment).tobytes()
        assert form1.constant().tobytes() == ref.constant().tobytes()

    @pytest.mark.parametrize("eta", LEVELS)
    def test_dissipation_form_at_a_level_is_byte_identical(self, eta):
        plant, dist = two_channel_plant(), mode_distribution(LossModel(0.1, 0.2))
        fam = closed_loop(plant, Gain([[-0.2, 0.1]]), 0, full_packet_schedule())
        rng = np.random.default_rng(8)
        p = rng.standard_normal((2, 2))
        assignment = {"P": p @ p.T + np.eye(2)}
        base = analysis._dissipation_form(fam, dist.items(), 0.0)
        leveled, posed = base.at(eta), analysis._dissipation_form(fam, dist.items(), eta)
        ref = reference(base, eta)
        for form in (leveled, posed):
            assert form.assemble(assignment).tobytes() == ref.assemble(assignment).tobytes()
            assert form.constant().tobytes() == ref.constant().tobytes()
        problem = analysis.passivity_problem(plant, Gain([[-0.2, 0.1]]), dist, 0.0).at(eta)
        assert (dict(problem.constraints)["dissipation"].assemble(assignment).tobytes()
                == ref.assemble(assignment).tobytes())

    def test_re_leveling_leaves_the_posed_problem_alone(self):
        plant, dist = two_channel_plant(), mode_distribution(LossModel(0.1, 0.2))
        base = build_synthesis_lmi(plant, dist, 0.0)
        before = [expr.constant().tobytes() for _, expr in base.constraints]
        base.at(0.5)
        assert base.level == 0.0
        assert [expr.constant().tobytes() for _, expr in base.constraints] == before


def plain_factor_test(barrier, y) -> bool:
    """The slack has a Cholesky factor and, with cones, every r_c > 0 and room_c > 0."""
    entries = barrier.base + y @ barrier.flat
    try:
        np.linalg.cholesky(barrier._full(entries))
    except np.linalg.LinAlgError:
        return False
    if not barrier.cones:
        return True
    r = barrier.r0 + barrier.dr @ y
    m = entries + barrier.diagonal @ (barrier.eps + r)
    room = r * r - barrier.eps ** 2 * np.add.reduceat(m * m, barrier.starts)
    return bool((r > 0.0).all() and (room > 0.0).all())


def test_early_rejection_agrees_with_the_plain_test(monkeypatch):
    # every barrier the certify loops' synthesize and analyze build, at points
    # along each step's Newton direction, from short steps to long ones
    rng = np.random.default_rng(28)
    tally = {"points": 0, "inside": 0, "early": 0}
    newton = lmi._newton

    def probing(barrier, sign, tau0, visit, max_iters, *rest):
        objective = barrier.q[-1] if sign > 0 else -barrier.q[-1]

        def probe(step, y, point, grad, z, tau, *more):
            _, hess, _ = barrier.derivatives(y, point)
            dy, _ = lmi._newton_step(hess, grad + tau * objective)
            for s in 2.0 ** rng.uniform(-8.0, 4.0, size=6):
                trial = y + s * dy
                factored = barrier.factor(trial)
                assert (factored is not None) == plain_factor_test(barrier, trial)
                entries = barrier.base + trial @ barrier.flat
                early = (entries[barrier.diagonal_at] <= 0.0).any() or (
                    barrier.cones and (barrier.r0 + barrier.dr @ trial <= 0.0).any())
                tally["points"] += 1
                tally["inside"] += factored is not None
                tally["early"] += bool(early)
            return visit(step, y, point, grad, z, tau, *more)

        return newton(barrier, sign, tau0, probe, max_iters, *rest)

    monkeypatch.setattr(lmi, "_newton", probing)
    for loop in CERTIFY_LOOPS:
        plant, loss = certify_loop(*loop)
        result = synthesize(plant, loss, "maximize")
        assert passivity_lmi(plant, result.gain, mode_distribution(loss), "maximize").feasible
    assert tally["points"] > 1000
    assert tally["inside"] > 500
    assert tally["early"] > 100
