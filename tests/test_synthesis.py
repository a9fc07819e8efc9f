import numpy as np
import pytest

from conftest import (
    CONGRUENCE_RTOL,
    assert_gain_certified,
    congruence_residual,
    random_plant,
    random_sweep_loop,
)
from ncspassive import analysis, lmi, synthesis
from ncspassive.analysis import passivity_lmi, passivity_problem, sms_oracle
from ncspassive.errors import AssumptionViolated, SingularTransform, VerificationFailed
from ncspassive.numerics import DEFAULT_MARGIN, DefinitenessMargin, schur_complement
from ncspassive.lmi import ETA_TOL, Indeterminate
from ncspassive.model import (
    MODES,
    Gain,
    LossModel,
    Plant,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
)
from ncspassive.synthesis import (
    SYNTHESIS_CONSTRAINT,
    build_synthesis_lmi,
    recover_gain,
    synthesize,
)


def scalar_feasibility_grid(plant: Plant, dist, eta: float, k_range, p_range):
    """Brute-force feasible (K, P) region for the averaged dissipation form.

    Closed-form 2x2 negative definiteness only; independent of the LMI
    machinery. Returns the boolean feasibility mask over the K grid.
    """
    a = float(plant.A[0, 0])
    b1 = float(plant.B1[0, 0])
    b2 = float(plant.B2[0, 0])
    c1 = float(plant.C1[0, 0])
    d11 = float(plant.D11[0, 0])
    a11 = dist.prob(1, 1)
    ks = np.asarray(k_range)
    ps = np.asarray(p_range)
    feasible = np.zeros(ks.shape, dtype=bool)
    for idx, k in enumerate(ks):
        a_fb = a + b2 * k
        second_moment = a11 * a_fb**2 + (1.0 - a11) * a**2
        mean_a = a11 * a_fb + (1.0 - a11) * a
        t11 = (second_moment - 1.0) * ps
        t12 = mean_a * ps * b1 - c1
        t22 = b1 * b1 * ps + 2.0 * eta - 2.0 * d11
        ok = (t11 < 0) & (t22 < 0) & (t11 * t22 - t12 * t12 > 0)
        feasible[idx] = bool(ok.any())
    return feasible


class TestBuildSynthesisLmi:
    def test_lossless_reduces_to_single_active_mode_row(self, lossy_feedback_plant):
        dist = mode_distribution(LossModel(0.0, 0.0))
        prob = build_synthesis_lmi(lossy_feedback_plant, dist, 0.1)
        expr = dict(prob.constraints)[SYNTHESIS_CONSTRAINT]
        m = expr.assemble({"X": np.eye(1), "Y": np.zeros((1, 1))})
        # the open loop has weight zero and no row: the one loop row is mode (1, 1)'s
        assert m.shape == (3, 3)
        np.testing.assert_allclose(m[2, 0], 1.2)  # it carries A X
        np.testing.assert_allclose(m[2, 1], 1.0)  # and B1
        np.testing.assert_allclose(m[2, 2], -1.0)

    def test_all_sensor_messages_lost_drops_gain_variable(self, lossy_feedback_plant):
        dist = mode_distribution(LossModel(1.0, 0.0))
        prob = build_synthesis_lmi(lossy_feedback_plant, dist, 0.0)
        assert "Y" not in prob.variables
        assert "X" in prob.variables

    def test_open_loop_passive_plant_feasible_without_feedback(self, scalar_passive_plant):
        # alpha1 = 1 kills the gain entirely; open loop is passive, so the
        # problem must still be feasible.
        dist = mode_distribution(LossModel(1.0, 0.0))
        result = synthesize(scalar_passive_plant, LossModel(1.0, 0.0), eta=0.1)
        assert result.feasible
        np.testing.assert_allclose(result.gain.K, np.zeros((1, 1)))
        assert dist.prob(1, 1) == 0.0

    def test_open_loop_unstable_plant_infeasible_without_feedback(self, lossy_feedback_plant):
        result = synthesize(lossy_feedback_plant, LossModel(1.0, 0.0), eta=0.0)
        assert isinstance(result, Indeterminate)

    def test_assumption_checked(self):
        plant = Plant(A=[[0.5]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[0.0]], D12=[[0.0]])
        with pytest.raises(AssumptionViolated):
            build_synthesis_lmi(plant, mode_distribution(LossModel(0.0, 0.0)), 0.1)


def four_row_problem(plant: Plant, dist, eta: float, margin=DEFAULT_MARGIN) -> lmi.LmiProblem:
    """The synthesis LMI with one row per mode, rows 2..5 for mode m:
    sqrt(a_m) [A X + (m == (1,1)) B2 Y,  B1], each with a -X diagonal block."""
    n, m1, a11 = plant.n, plant.m1, dist.prob(1, 1)
    prob = lmi.LmiProblem(margin=margin)
    prob.add_symmetric("X", n, positive_definite=True)
    if a11 > 0.0:
        prob.add_rectangular("Y", plant.m2, n)
    expr = lmi.AffineExpr([n, m1] + [n] * len(MODES), name=SYNTHESIS_CONSTRAINT)
    eye = np.eye(n)
    expr.add_term(0, 0, -eye, "X", eye)
    expr.add_term(1, 0, -plant.C1, "X", eye)
    if a11 > 0.0:
        expr.add_term(1, 0, -plant.D12, "Y", eye, weight=a11)
    expr.add_level(1, 1, 2.0 * np.eye(m1), plant.D11.T, plant.D11)
    for r, mode in enumerate(MODES, start=2):
        w = np.sqrt(dist.prob(*mode))
        if w > 0.0:
            expr.add_term(r, 0, plant.A, "X", eye, weight=w)
            if mode == (1, 1):
                expr.add_term(r, 0, plant.B2, "Y", eye, weight=w)
            expr.add_const(r, 1, w * plant.B1)
        expr.add_term(r, r, -eye, "X", eye)
    prob.add_constraint(expr)
    return prob.at(eta)


def layout_case(k: int):
    """A random plant with n in 1..4 and m1, m2 in 1..2, and loss rates that include 0 and 1."""
    rng = np.random.default_rng([47, k])
    n, m1, m2 = (int(v) for v in rng.integers([1, 1, 1], [5, 3, 3]))
    a = rng.standard_normal((n, n))
    a *= (0.5 + 0.6 * rng.random()) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.5 * rng.standard_normal((n, m1)), B2=rng.standard_normal((n, m2)),
                  C1=0.5 * rng.standard_normal((m1, n)),
                  D11=1.5 * np.eye(m1) + 0.2 * rng.standard_normal((m1, m1)),
                  D12=0.3 * rng.standard_normal((m1, m2)))
    loss = LossModel(*rng.choice([0.0, 1.0, rng.random(), rng.random()], size=2))
    x = rng.standard_normal((n, n))
    return plant, mode_distribution(loss), x @ x.T + 0.1 * np.eye(n), rng.standard_normal((m2, n))


class TestTwoLoopLayout:
    """The two-loop synthesis form against the four-row one it replaces."""

    @pytest.mark.parametrize("loss, loops", [
        (LossModel(0.1, 0.2), 2), (LossModel(0.0, 0.0), 1), (LossModel(1.0, 0.0), 1),
        (LossModel(0.3, 1.0), 1)])
    def test_one_row_per_loop_of_nonzero_weight(self, loss, loops):
        plant = Plant(A=np.eye(3), B1=np.ones((3, 2)), B2=np.ones((3, 1)), C1=np.ones((2, 3)),
                      D11=np.eye(2), D12=np.zeros((2, 1)))
        expr = dict(build_synthesis_lmi(plant, mode_distribution(loss), 0.1).constraints)[
            SYNTHESIS_CONSTRAINT]
        assert expr.dim == (1 + loops) * plant.n + plant.m1

    @pytest.mark.parametrize("k", range(30))
    def test_four_row_form_is_the_two_loop_form_plus_bare_x_blocks(self, k):
        plant, dist, x, y = layout_case(k)
        n = plant.n
        two = dict(build_synthesis_lmi(plant, dist, 0.2).constraints)[SYNTHESIS_CONSTRAINT]
        four = dict(four_row_problem(plant, dist, 0.2).constraints)[SYNTHESIS_CONSTRAINT]
        m2, m4 = (form.assemble({"X": x, "Y": y}) for form in (two, four))
        extra = (four.dim - two.dim) // n
        assert extra == (3 if dist.prob(1, 1) in (0.0, 1.0) else 2)
        scale = 1.0 + np.abs(m4).max()
        e_x = np.linalg.eigvalsh(-x)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(m4), np.sort(np.concatenate([np.linalg.eigvalsh(m2)] + [e_x] * extra)),
            rtol=0.0, atol=1e-12 * scale)
        assert np.linalg.norm(m4) ** 2 == pytest.approx(
            np.linalg.norm(m2) ** 2 + extra * np.linalg.norm(x) ** 2, rel=1e-13)
        split = n + plant.m1
        schur2, schur4 = (schur_complement(m[:split, :split], m[split:, :split].T,
                                           m[split:, split:]) for m in (m2, m4))
        np.testing.assert_allclose(schur2, schur4, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("k", range(30))
    @pytest.mark.parametrize("epsilon_rel", [DEFAULT_MARGIN.epsilon_rel, 0.05])
    def test_what_the_four_row_form_verifies_the_two_loop_form_verifies(self, k, epsilon_rel):
        plant, dist, _, _ = layout_case(k)
        margin = DefinitenessMargin(epsilon_rel)
        four = four_row_problem(plant, dist, 0.0, margin)
        cert = lmi.certify(four, "maximize", lmi.MAX_ITERS)
        if not cert.feasible:
            return
        two = build_synthesis_lmi(plant, dist, 0.0, margin)
        accepted = 0
        # the certificate's point, scaled, at its level and at levels up to past it
        for s in (1e-3, 1.0, 1e3):
            point = {name: s * v for name, v in cert.assignment.items()}
            for level in [cert.eta, *np.linspace(0.0, cert.eta + 0.2, 9)]:
                if lmi.verify(four.at(level), point).passed:
                    accepted += 1
                    assert lmi.verify(two.at(level), point).passed
        assert accepted > 0


class TestRecoverGain:
    def test_zero_y(self):
        gain = recover_gain(np.eye(2), np.zeros((1, 2)))
        np.testing.assert_allclose(gain.K, np.zeros((1, 2)))

    def test_identity_transform(self):
        y = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(recover_gain(np.eye(2), y).K, y)

    def test_diagonal_inverse(self):
        gain = recover_gain(np.diag([2.0, 4.0]), np.array([[2.0, 4.0]]))
        np.testing.assert_allclose(gain.K, [[1.0, 1.0]])

    def test_singular_transform_rejected(self):
        with pytest.raises(SingularTransform):
            recover_gain(np.diag([1.0, 0.0]), np.array([[1.0, 1.0]]))


class TestSynthesize:
    def test_lossy_scalar_scenario(self, lossy_feedback_plant):
        loss = LossModel(0.0, 0.2)
        dist = mode_distribution(loss)
        # establish a nonempty feasible region independently first
        ks = np.arange(-2.0, 0.5, 5e-3)
        ps = np.arange(5e-3, 5.0, 5e-3)
        feasible = scalar_feasibility_grid(lossy_feedback_plant, dist, 0.1, ks, ps)
        assert feasible.any()

        result = synthesize(lossy_feedback_plant, loss, eta=0.1)
        assert result.feasible
        k = float(result.gain.K[0, 0])
        assert 0.8 * (1.2 + k) ** 2 + 0.2 * 1.44 < 1.0
        assert_gain_certified(lossy_feedback_plant, loss, result)
        # gain sits inside the independently computed feasible region
        assert feasible[np.argmin(np.abs(ks - k))]

    def test_stable_passive_plant_lossless(self):
        plant = Plant(A=[[0.5]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        result = synthesize(plant, LossModel(0.0, 0.0), eta=0.3)
        assert result.feasible
        assert result.rho < 1.0

    def test_structurally_infeasible_scenario(self):
        # (1 - a11) * A^2 = 0.25 * 4 = 1: no gain can reach rho < 1
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        result = synthesize(plant, LossModel(0.0, 0.25), eta=0.0)
        assert isinstance(result, Indeterminate)

    def test_loss_only_bound_skips_the_search(self, monkeypatch):
        # (1 - a11) * A^2 = 0.3 * 4 > 1 for every gain
        def no_search(*args, **kwargs):
            raise AssertionError("synthesize ran lmi.solve")

        monkeypatch.setattr(lmi, "solve", no_search)
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        for eta in (0.0, "maximize"):
            result = synthesize(plant, LossModel(0.0, 0.3), eta=eta)
            assert isinstance(result, Indeterminate)
            assert result.iterations == 0
            assert "rho((1 - a11) A (x) A) = 1.2" in result.message

    def test_negative_eta_is_refused_before_any_solve(self, monkeypatch, lossy_feedback_plant):
        def no_search(*args, **kwargs):
            raise AssertionError("synthesize ran lmi.solve")

        monkeypatch.setattr(lmi, "solve", no_search)
        with pytest.raises(ValueError, match="dissipation must be >= 0"):
            synthesize(lossy_feedback_plant, LossModel(0.0, 0.2), eta=-0.1)

    def test_maximize_eta_bisects(self, lossy_feedback_plant):
        result = synthesize(lossy_feedback_plant, LossModel(0.0, 0.2), eta="maximize")
        assert result.feasible
        assert result.eta > 0.1
        # one notch above the certified level must not be certifiable
        probe = synthesize(lossy_feedback_plant, LossModel(0.0, 0.2),
                           eta=result.eta + 5e-2)
        assert isinstance(probe, Indeterminate) or probe.eta > result.eta

    def test_monotone_loss_degradation_on_scalar_family(self, lossy_feedback_plant):
        # if certified at drop rate a2, every smaller rate must certify too
        rates = [0.2, 0.1, 0.0]
        feasible = [synthesize(lossy_feedback_plant, LossModel(0.0, a2), eta=0.1).feasible
                    for a2 in rates]
        assert feasible[0] is True
        for worse, better in zip(feasible, feasible[1:]):
            assert (not worse) or better


# Two random full-packet plants on which the round trip once failed after an
# eta = "maximize" bisection: P = X^-1 verified at the bisection's eta, but a
# fresh passivity solve found no certificate, so synthesize raised
# VerificationFailed. Matrices and loss rates are kept to full precision.
CENSUS_PLANTS = [
    (
        Plant(
            A=[[0.772881100342616, 0.10432480190237389, 0.3902842064833616],
               [0.010879308902156675, 0.10696099018388736, -0.6612932323051482],
               [0.5285611245074522, -0.06481808461154295, -0.006631128147121111]],
            B1=[[0.2905823456290142], [0.032306827679704345], [0.05591772596788173]],
            B2=[[-0.6943420370035297], [0.18812850280088075], [0.7650963981594727]],
            C1=[[0.01786113951885537, -0.24363586627578823, 0.5662446351973999]],
            D11=[[1.0]], D12=[[0.0]],
        ),
        LossModel(0.0705327437665431, 0.0688782957396561),
    ),
    (
        Plant(
            A=[[0.055609409847138885, 0.4620809842965461, -0.3629999024960659,
                -0.09736951274832871],
               [0.47712418040787724, -0.36593234499777133, -0.051521186441828765,
                0.2264049313765399],
               [-0.03445942643824882, 0.5769394165938516, -0.5771437995123161,
                -0.12959225637165742],
               [-0.5668019528828049, 0.582439090286138, 0.5201401938661881,
                -0.7589023673218458]],
            B1=[[0.2986850020245246], [0.2219442995517928], [0.39004736264199813],
                [0.2138487439002189]],
            B2=[[-0.20894457029621583], [-1.1003664921117746], [-0.9101098376536715],
                [-1.242172770121693]],
            C1=[[-0.857500441160005, -0.13619148622409888, -0.39420399682662666,
                 -0.16923746195865028]],
            D11=[[1.0]], D12=[[0.0]],
        ),
        LossModel(0.06874636162312923, 0.06998762127462667),
    ),
]


# The eta that an eleven-probe bisection to ETA_TOL reached on each census plant.
CENSUS_BISECTED = [0.921875, 0.7353515625]


@pytest.mark.parametrize("plant,loss,bisected",
                         [(*case, eta) for case, eta in zip(CENSUS_PLANTS, CENSUS_BISECTED)],
                         ids=["n3", "n4"])
def test_maximized_census_plant_passes_its_round_trip(plant, loss, bisected):
    result = synthesize(plant, loss, "maximize")
    assert result.feasible
    assert_gain_certified(plant, loss, result)
    assert result.eta >= bisected - ETA_TOL


# The four fixed loops of the certify-pipeline benchmark, as (A, alpha1,
# alpha2) of the README plant, with the eta that the bisection reached.
PIPELINE_LOOPS = [
    (1.2, 0.0, 0.2, 0.748046875),
    (1.22, 0.0, 0.19, 0.748046875),
    (1.19, 0.03, 0.22, 0.748046875),
    (1.25, 0.0, 0.2, 0.7470703125),
]


@pytest.mark.parametrize("a,alpha1,alpha2,bisected", PIPELINE_LOOPS)
def test_maximize_reaches_the_bisection(a, alpha1, alpha2, bisected):
    plant = Plant(A=[[a]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
    result = synthesize(plant, LossModel(alpha1, alpha2), "maximize")
    assert result.eta >= bisected - ETA_TOL
    assert lmi.verify(build_synthesis_lmi(plant, mode_distribution(LossModel(alpha1, alpha2)),
                                          result.eta), {"X": result.x, "Y": result.y}).passed


def bisect_synthesis_eta(plant: Plant, loss: LossModel) -> float | None:
    """Largest eta to ETA_TOL by bisecting lmi.solve over [0, min eig(D11 + D11')/2]."""
    dist = mode_distribution(loss)
    if not lmi.solve(build_synthesis_lmi(plant, dist, 0.0)).feasible:
        return None
    lo, hi = 0.0, float(np.linalg.eigvalsh(plant.D11 + plant.D11.T)[0]) / 2.0
    while hi - lo > ETA_TOL:
        mid = 0.5 * (lo + hi)
        if lmi.solve(build_synthesis_lmi(plant, dist, mid)).feasible:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("k", range(6))
def test_maximize_matches_a_bisection_on_random_plants(k):
    # drawn like the benchmark's census plants: small B1, C1 and loss rates
    rng = np.random.default_rng([31, k])
    n = 2 + k % 3
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 1.1) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, 1)), B2=rng.standard_normal((n, 1)),
                  C1=0.3 * rng.standard_normal((1, n)), D11=[[1.0]], D12=[[0.0]])
    loss = LossModel(rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.15))
    bisected = bisect_synthesis_eta(plant, loss)
    result = synthesize(plant, loss, "maximize")
    if bisected is None:
        assert isinstance(result, Indeterminate)
    else:
        assert result.feasible
        assert result.eta >= bisected - ETA_TOL


def test_maximize_from_an_ill_conditioned_phase_one_point():
    # the eta = 0 solve ends at an X with eigenvalues from 1.5 to 4.7e6; the
    # bisection reached 0.79342 here, while phase II stalled near 0.47 and
    # every round trip below failed until its basis was scaled by that X
    rng = np.random.default_rng([5, 70])
    a = rng.standard_normal((5, 5))
    a *= rng.uniform(0.3, 1.2) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.5 * rng.standard_normal((5, 1)), B2=rng.standard_normal((5, 1)),
                  C1=0.5 * rng.standard_normal((1, 5)), D11=[[rng.uniform(0.5, 1.5)]],
                  D12=[[0.0]])
    loss = LossModel(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2))
    result = synthesize(plant, loss, "maximize")
    assert_gain_certified(plant, loss, result)
    assert result.eta >= 0.7934208149024858 - ETA_TOL


def scalar_recipe_loop(key):
    """The n = 1 plant and loss drawn by the ill-conditioned phase-one test's recipe."""
    rng = np.random.default_rng(key)
    a = rng.standard_normal((1, 1))
    a *= rng.uniform(0.3, 1.2) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.5 * rng.standard_normal((1, 1)), B2=rng.standard_normal((1, 1)),
                  C1=0.5 * rng.standard_normal((1, 1)), D11=[[rng.uniform(0.5, 1.5)]],
                  D12=[[0.0]])
    return plant, LossModel(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2))


# Under large margins P = X^-1 can miss the passivity form near eta*: on
# the first loop at the top iterates at 0.05 (the bisection reached
# 1.1638); on the second, at 0.1, the bisection reached 0.3557 with a
# point whose P = X^-1 missed it (exit 3). On the third P = X^-1 misses
# from 0.3137 up; the bisection reached 0.2988. A search at the top
# iterate's gain certifies at least as much.
@pytest.mark.parametrize("plant,loss,epsilon_rel,bisected", [
    (Plant(A=[[0.4177]], B1=[[0.1181]], B2=[[1.0138]], C1=[[0.1011]], D11=[[1.2571]],
           D12=[[0.0]]), LossModel(0.0707, 0.1795), 0.05, 1.1637996093750003),
    (Plant(A=[[-0.4791]], B1=[[-0.8064]], B2=[[0.2963]], C1=[[-0.2216]], D11=[[0.9485]],
           D12=[[0.0]]), LossModel(0.0284, 0.07), 0.1, 0.3556875),
    (*scalar_recipe_loop([5, 18]), 0.1, 0.2988),
], ids=["steps-back", "bisection-exit-3", "bisects-across-the-gap"])
def test_maximize_under_a_large_margin_reaches_the_bisection(plant, loss, epsilon_rel,
                                                              bisected):
    margin = DefinitenessMargin(epsilon_rel)
    result = synthesize(plant, loss, "maximize", margin)
    assert_gain_certified(plant, loss, result, margin)
    assert result.eta >= bisected - ETA_TOL


def margin_sweep_loop(k):
    """Plant k of a 50-plant margin sweep: n = 1 + k % 4, A at spectral radius 0.9 to 1.1."""
    rng = np.random.default_rng([77, k])
    n = 1 + k % 4
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.9, 1.1) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, 1)), B2=rng.standard_normal((n, 1)),
                  C1=0.3 * rng.standard_normal((1, n)), D11=[[1.0]], D12=[[0.0]])
    return plant, LossModel(rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.15))


README_LOOP = Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])


# Under large margins the phase-I point of a fixed eta can miss the gain's
# certificate (P = X^-1 on the passivity form), which once ended
# in VerificationFailed on each of these; a P found at the gain, or phase I's
# own, certifies the same eta.
@pytest.mark.parametrize("plant,loss,epsilon_rel,eta", [
    *[(README_LOOP, LossModel(0.0, 0.2), margin, eta)
      for margin in (0.05, 0.1) for eta in (0.0, 0.1)],
    (*margin_sweep_loop(5), 1e-3, 0.0),
    (*margin_sweep_loop(20), 0.05, 0.2),
], ids=["readme-0.05-0", "readme-0.05-0.1", "readme-0.1-0", "readme-0.1-0.1",
        "sweep5-0.001-0", "sweep20-0.05-0.2"])
def test_fixed_eta_under_a_large_margin_passes_its_round_trip(plant, loss, epsilon_rel, eta):
    margin = DefinitenessMargin(epsilon_rel)
    result = synthesize(plant, loss, eta, margin)
    assert_gain_certified(plant, loss, result, margin)
    assert result.eta == eta


# Where P = X^-1 misses the relative margin, a search at K certifies the gain: sweep
# plant 109 at margin 0.1 and eta 0.05 (VerificationFailed before), and plants 24 and 36
# at margin 0.05 maximized (0.8776 and 0.8572 when the iterates stepped down instead).
@pytest.mark.parametrize("k,eta,epsilon_rel,reached", [
    (109, 0.05, 0.1, 0.05), (24, "maximize", 0.05, 0.89), (36, "maximize", 0.05, 0.875)])
def test_a_search_at_the_gain_certifies_where_x_inverse_misses(k, eta, epsilon_rel, reached):
    plant, loss = random_sweep_loop(k)
    margin = DefinitenessMargin(epsilon_rel)
    result = synthesize(plant, loss, eta, margin)
    assert_gain_certified(plant, loss, result, margin)
    assert result.eta >= reached
    assert result.passivity.assignment["P"].tobytes() != np.linalg.inv(result.x).tobytes()


def test_maximize_returns_the_next_iterate_when_the_top_one_fails_to_build(monkeypatch):
    problem = build_synthesis_lmi(README_LOOP, mode_distribution(LossModel(0.0, 0.2)), 0.0)
    first = lmi.solve(problem)
    top = lmi._maximize(first, lmi.MAX_ITERS)
    build, levels = lmi.LmiCertificate.build.__func__, []

    def fails_once(cls, problem, assignment, iterations=0):
        levels.append(problem.level)
        if len(levels) == 1:
            raise VerificationFailed("rounding")
        return build(cls, problem, assignment, iterations)

    monkeypatch.setattr(lmi.LmiCertificate, "build", classmethod(fails_once))
    stepped = lmi._maximize(first, lmi.MAX_ITERS)
    assert levels[0] == top.eta and len(levels) == 2
    assert first.eta < stepped.eta < top.eta
    assert stepped.iterations == top.iterations


@pytest.mark.parametrize("k", range(4))
def test_certify_is_the_hand_composed_solve_and_maximize(k):
    # fixed eta: one solve and K = Y X^-1; maximize: a solve at eta = 0, then
    # lmi._maximize to ETA_TOL; both bit for bit
    rng = np.random.default_rng([41, k])
    n = 1 + k % 3
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 1.1) / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, 1)), B2=rng.standard_normal((n, 1)),
                  C1=0.3 * rng.standard_normal((1, n)), D11=[[1.0]], D12=[[0.0]])
    loss = LossModel(rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.15))
    dist = mode_distribution(loss)

    result = synthesize(plant, loss, 0.1)
    solved = lmi.solve(build_synthesis_lmi(plant, dist, 0.1)).assignment
    x, y = solved["X"], solved["Y"]
    assert [m.tobytes() for m in (result.x, result.y, result.gain.K)] == [
        m.tobytes() for m in (x, y, recover_gain(x, y).K)]

    def build(eta):
        return passivity_problem(plant, result.gain, dist, eta)

    maximized = passivity_lmi(plant, result.gain, dist, "maximize")
    cert = lmi._maximize(lmi.solve(build(0.0)), lmi.MAX_ITERS)
    eta, p = cert.eta, cert.assignment["P"]
    assert eta > 0.0
    assert (maximized.eta, maximized.assignment["P"].tobytes()) == (eta, p.tobytes())


DRIFTS = ["b1-without-sqrt", "d12-weight-minus-one", "mode-diagonal-0.9"]
DRIFT_PLANT = Plant(A=[[0.6, 0.3], [-0.2, 0.9]], B1=[[1.0], [0.4]], B2=[[0.5], [1.0]],
                    C1=[[0.5, -0.3]], D11=[[1.5]], D12=[[0.7]])
DRIFT_LOSS = LossModel(0.1, 0.25)


def drifted_builder(drift: str):
    """``build_synthesis_lmi`` with one block of its form edited, as named by ``drift``."""
    def drifted(plant, dist, eta, margin=DEFAULT_MARGIN):
        prob = build_synthesis_lmi(plant, dist, eta, margin)
        expr = dict(prob.constraints)[SYNTHESIS_CONSTRAINT]
        if drift == "b1-without-sqrt":
            expr._consts = [(r, c, plant.B1 if r >= 2 else v) for r, c, v in expr._consts]
        for term in expr._terms:
            if drift == "d12-weight-minus-one" and term.var == "Y" and term.row == 1:
                term.weight = 1.0  # -D12 Y in place of -a11 D12 Y
            if drift == "mode-diagonal-0.9" and term.row == term.col >= 2:
                term.weight = 0.9
        return prob

    return drifted


class TestRoundTrip:
    def test_direct_leg_verifies_the_inverse_transform(self, lossy_feedback_plant):
        loss = LossModel(0.0, 0.2)
        result = synthesize(lossy_feedback_plant, loss, eta=0.1)
        assert_gain_certified(lossy_feedback_plant, loss, result)
        assert result.rho < 1.0
        # P = 0.01 is too small a storage: 0.5 of the output cross term is
        # left. Y = K X keeps the congruence exact, so only P = X^-1 fails.
        x = 100.0 * np.eye(1)
        problem = passivity_problem(lossy_feedback_plant, result.gain, mode_distribution(loss),
                                    result.eta)
        assert congruence_residual(result.certificate.problem, problem, x,
                                   result.gain.K @ x) <= CONGRUENCE_RTOL
        with pytest.raises(VerificationFailed, match="'dissipation'"):
            lmi.LmiCertificate.build(problem, {"P": np.linalg.inv(x)})

    def test_congruence_identity_on_random_instances(self):
        rng = np.random.default_rng(41)
        done = 0
        attempts = 0
        while done < 8 and attempts < 60:
            attempts += 1
            plant = random_plant(rng, int(rng.integers(1, 3)), spectral_scale=0.9)
            loss = LossModel(float(rng.random() * 0.2), float(rng.random() * 0.2))
            result = synthesize(plant, loss, eta=0.01, max_iters=250)
            if not result.feasible:
                continue
            assert congruence_residual(result.certificate.problem, result.passivity.problem,
                                       result.x, result.y) <= 1e-6
            done += 1
        assert done == 8

    def test_destabilizing_gain_fails_the_passivity_form(self, lossy_feedback_plant):
        # A passing form has L_K(P) - P < 0 at P > 0, which forces rho < 1: at a gain
        # that pushes the closed loop out of the unit disc, P = X^-1 fails it.
        loss = LossModel(0.0, 0.2)
        dist = mode_distribution(loss)
        result = synthesize(lossy_feedback_plant, loss, eta=0.1)
        gain = Gain([[1.0]])
        fam = closed_loop(lossy_feedback_plant, gain, 0, full_packet_schedule())
        assert sms_oracle(fam, dist).rho >= 1.0
        problem = passivity_problem(lossy_feedback_plant, gain, dist, result.eta)
        p = np.linalg.inv(result.x)
        assert not lmi.verify(problem, {"P": p}).passed
        form = dict(problem.constraints)["dissipation"].assemble({"P": p})
        assert form[0, 0] > 0.0  # the top-left block L_K(P) - P alone fails

    def test_zero_gain_consistency_with_open_loop_passivity(self):
        # synthesis form at (X, Y=0) must agree with the open-loop averaged
        # dissipation form at P = X^{-1}: the congruence holds with zero gain.
        rng = np.random.default_rng(43)
        for _ in range(10):
            plant = random_plant(rng, 2, spectral_scale=0.8)
            loss = LossModel(float(rng.random() * 0.3), float(rng.random() * 0.3))
            dist = mode_distribution(loss)
            x = rng.standard_normal((2, 2))
            x = x @ x.T + 0.5 * np.eye(2)
            rel = congruence_residual(
                build_synthesis_lmi(plant, dist, 0.05),
                passivity_problem(plant, Gain.zero(1, 2), dist, 0.05), x, np.zeros((1, 2)))
            assert rel <= 1e-6

    @pytest.mark.parametrize("drift", DRIFTS)
    def test_congruence_leg_catches_a_drifted_synthesis_form(self, monkeypatch, drift):
        # Each drift edits one block of the synthesis form; the Schur
        # complement of its mode rows then no longer matches the passivity
        # form at P = X^-1.
        plant, dist = DRIFT_PLANT, mode_distribution(DRIFT_LOSS)
        gain = Gain([[-0.2, -0.5]])
        x = np.array([[2.0, 0.3], [0.3, 1.0]])
        rel = congruence_residual(synthesis.build_synthesis_lmi(plant, dist, 0.1),
                                  passivity_problem(plant, gain, dist, 0.1), x, gain.K @ x)
        assert rel <= CONGRUENCE_RTOL
        monkeypatch.setattr(synthesis, "build_synthesis_lmi", drifted_builder(drift))
        rel = congruence_residual(synthesis.build_synthesis_lmi(plant, dist, 0.1),
                                  passivity_problem(plant, gain, dist, 0.1), x, gain.K @ x)
        assert rel > CONGRUENCE_RTOL

    @pytest.mark.parametrize("eta", [0.1, "maximize"])
    @pytest.mark.parametrize("drift", DRIFTS)
    def test_a_drifted_synthesis_form_yields_only_certified_gains(self, monkeypatch, drift,
                                                                   eta):
        # whatever form X came from, a returned gain is one that P = X^-1 certifies on a
        # freshly posed passivity form; the congruence is no reason to refuse it
        monkeypatch.setattr(synthesis, "build_synthesis_lmi", drifted_builder(drift))
        result = synthesize(DRIFT_PLANT, DRIFT_LOSS, eta)
        assert result.feasible
        assert_gain_certified(DRIFT_PLANT, DRIFT_LOSS, result)

    def test_zero_gain_feasibility_equivalence(self):
        # a plant whose open loop is passive at eta: pinning Y to zero keeps
        # the synthesis problem feasible; an open-loop-unstable plant with
        # the gain path removed (alpha1 = 1) is infeasible.
        passive = Plant(A=[[0.5]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        dist = mode_distribution(LossModel(0.0, 0.0))
        open_cert = passivity_lmi(passive, Gain.zero(1, 1), dist, 0.2)
        assert open_cert.feasible
        x = np.linalg.inv(open_cert.assignment["P"])
        prob = build_synthesis_lmi(passive, dist, 0.2)
        expr = dict(prob.constraints)[SYNTHESIS_CONSTRAINT]
        m = expr.assemble({"X": x, "Y": np.zeros((1, 1))})
        assert np.linalg.eigvalsh(m)[-1] < 0

    # on sweep plants 32 and 58 no Riccati storage verifies, so a search would need the barrier
    @pytest.mark.parametrize("loop", [loop[:3] for loop in PIPELINE_LOOPS] + [32, 58],
                             ids=lambda loop: f"sweep{loop}" if isinstance(loop, int)
                             else "pipeline-" + "-".join(map(str, loop)))
    def test_round_trip_runs_no_search(self, monkeypatch, loop):
        if isinstance(loop, int):
            plant, loss = random_sweep_loop(loop)
        else:
            a, alpha1, alpha2 = loop
            plant = Plant(A=[[a]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
            loss = LossModel(alpha1, alpha2)
        solve, solves = lmi.solve, []

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        def no_search(*args, **kwargs):
            raise AssertionError("synthesize ran passivity_lmi")

        monkeypatch.setattr(lmi, "solve", counted)
        monkeypatch.setattr(analysis, "passivity_lmi", no_search)
        monkeypatch.setattr(synthesis, "passivity_lmi", no_search)
        result = synthesize(plant, loss, "maximize")
        assert len(solves) == 1  # phase I; phase II and the gain's certificate solve nothing
        assert_gain_certified(plant, loss, result)
        assert result.passivity.assignment["P"].tobytes() == np.linalg.inv(result.x).tobytes()

    # below the default margin of 1e-8 the gain's certificate judges at the problem's own
    # margin, so synthesize keeps each gain whose P = X^-1 verifies there
    @pytest.mark.parametrize("k,epsilon_rel,eta,reached", [
        (35, 1e-9, 0.1, 0.1), (173, 1e-9, 0.1, 0.1), (142, 1e-12, "maximize", 0.99)])
    def test_a_margin_below_the_default_keeps_the_verified_gain(self, k, epsilon_rel, eta,
                                                                 reached):
        plant, loss = random_sweep_loop(k)
        margin = DefinitenessMargin(epsilon_rel)
        result = synthesize(plant, loss, eta, margin)
        assert_gain_certified(plant, loss, result, margin)
        assert result.eta >= reached

    def test_result_rho_matches_oracle(self, lossy_feedback_plant):
        loss = LossModel(0.0, 0.2)
        result = synthesize(lossy_feedback_plant, loss, eta=0.1)
        fam = closed_loop(lossy_feedback_plant, result.gain, 0, full_packet_schedule())
        rho = sms_oracle(fam, mode_distribution(loss)).rho
        assert result.rho == pytest.approx(rho)


# On a synthesis form with one row per mode, sweep plant 35 ended Indeterminate after 165
# Newton steps at eta 0.1, and sweep plant 7's maximized gain failed its round trip's
# P = X^-1 leg at margin 0.05 (VerificationFailed).
@pytest.mark.parametrize("k,eta,epsilon_rel", [(35, 0.1, DEFAULT_MARGIN.epsilon_rel),
                                               (7, "maximize", 0.05)])
def test_sweep_plants_certify_with_one_row_per_loop(k, eta, epsilon_rel):
    plant, loss = random_sweep_loop(k)
    margin = DefinitenessMargin(epsilon_rel)
    result = synthesize(plant, loss, eta, margin)
    assert result.feasible
    assert_gain_certified(plant, loss, result, margin)


def desk_plant(n: int):
    """The desk-scale plant of size n: A at spectral radius 0.95, m2 = max(1, n // 2)."""
    rng = np.random.default_rng([3, n])
    m = max(1, n // 2)
    a = rng.standard_normal((n, n))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, 1)), B2=rng.standard_normal((n, m)),
                  C1=0.3 * rng.standard_normal((1, n)), D11=[[1.0]], D12=np.zeros((1, m)))
    return plant, LossModel(0.05, 0.1)


def test_desk_plant_maximize_takes_few_newton_steps():
    # 93 steps on the form with one row per mode, 52 on the two-loop form
    result = synthesize(*desk_plant(6), "maximize")
    assert result.certificate.iterations <= 70
