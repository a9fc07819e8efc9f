import numpy as np
import pytest

from conftest import random_loss, random_plant, scalar_grid_eta_star
from ncspassive import analysis, lmi, sim
from ncspassive.analysis import (
    dissipation_identity_check,
    passivity_lmi,
    passivity_problem,
    sms_oracle,
    stability_lmi,
    stability_problem,
)
from ncspassive.errors import AssumptionViolated
from ncspassive.lmi import ETA_TOL, Indeterminate, verify_dual
from ncspassive.model import (
    Gain,
    LossModel,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
)
from ncspassive.numerics import DefinitenessMargin


def scalar_family(a_open: float, a_closed: float, loss: LossModel):
    plant = Plant(A=[[a_open]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
    gain = Gain([[a_closed - a_open]])
    fam = closed_loop(plant, gain, 0, full_packet_schedule())
    return plant, gain, fam, mode_distribution(loss)


class TestSmsOracle:
    def test_uniform_contraction(self):
        _, _, fam, dist = scalar_family(0.5, 0.5, LossModel(0.0, 0.0))
        report = sms_oracle(fam, dist)
        assert report.rho == pytest.approx(0.25)
        assert report.stable

    def test_scalar_mixture(self):
        # closed 0.5 with probability 0.8, open 1.2 with probability 0.2
        _, _, fam, dist = scalar_family(1.2, 0.5, LossModel(0.0, 0.2))
        report = sms_oracle(fam, dist)
        assert report.rho == pytest.approx(0.2 * 1.44 + 0.8 * 0.25)
        assert report.stable and not report.borderline

    def test_uniform_expansion(self):
        _, _, fam, dist = scalar_family(2.0, 2.0, LossModel(0.0, 0.0))
        report = sms_oracle(fam, dist)
        assert report.rho == pytest.approx(4.0)
        assert not report.stable

    def test_periodic_family_geometric_mean(self):
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        gain = Gain.zero(1, 1)
        dist = mode_distribution(LossModel(0.0, 0.0))
        # period-2 schedule, no feedback path: per-step operators are both 4
        sched = Schedule(period=2, s1=(1, 0), s2=(0, 1))
        fams = [closed_loop(plant, gain, k, sched) for k in range(2)]
        report = sms_oracle(fams, dist)
        assert report.rho == pytest.approx(4.0)


def assert_refuted(result, plant, gain, schedule, dist):
    """An Indeterminate whose dual passes verify_dual on the same LMIs."""
    assert isinstance(result, Indeterminate)
    assert result.dual is not None, result.message
    assert verify_dual(stability_problem(plant, gain, schedule, dist), result.dual).passed


class TestStabilityLmi:
    def test_scalar_open_loop_contraction(self):
        plant, gain, _, dist = scalar_family(0.5, 0.5, LossModel(0.0, 0.0))
        cert = stability_lmi(plant, gain, full_packet_schedule(), dist)
        assert cert.feasible
        p = float(cert.p[0, 0])
        assert 0.25 * p - p < 0

    def test_lossy_mixture_certified_and_oracle_agrees(self):
        plant, gain, fam, dist = scalar_family(1.2, 0.5, LossModel(0.0, 0.2))
        cert = stability_lmi(plant, gain, full_packet_schedule(), dist)
        assert cert.feasible
        assert sms_oracle(fam, dist).rho == pytest.approx(0.488)

    def test_expanding_loop_is_indeterminate(self):
        plant, gain, fam, dist = scalar_family(2.0, 2.0, LossModel(0.0, 0.0))
        result = stability_lmi(plant, gain, full_packet_schedule(), dist)
        assert isinstance(result, Indeterminate)
        assert sms_oracle(fam, dist).rho == pytest.approx(4.0)
        assert_refuted(result, plant, gain, full_packet_schedule(), dist)

    def test_two_periodic_expanding_loop_carries_a_dual(self):
        # the rho = 4 fixture of test_periodic_family_geometric_mean
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        dist = mode_distribution(LossModel(0.0, 0.0))
        sched = Schedule(period=2, s1=(1, 0), s2=(0, 1))
        result = stability_lmi(plant, Gain.zero(1, 1), sched, dist)
        assert_refuted(result, plant, Gain.zero(1, 1), sched, dist)

    def test_builds_each_closed_loop_once(self, monkeypatch):
        slots = []

        def counting(plant, gain, k, schedule):
            slots.append(k)
            return closed_loop(plant, gain, k, schedule)

        monkeypatch.setattr(analysis, "closed_loop", counting)
        plant = Plant(A=[[0.5, 0.1], [0.0, 0.6]], B1=[[1.0], [0.0]], B2=[[1.0], [0.5]],
                      C1=[[0.5, 0.0]], D11=[[1.0]], D12=[[0.0]])
        sched = Schedule(period=2, s1=(1, 0), s2=(0, 1))
        dist = mode_distribution(LossModel(0.0, 0.2))
        assert stability_lmi(plant, Gain([[-0.3, 0.1]]), sched, dist).feasible
        assert slots == [0, 1]

    def test_never_calls_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("stability_lmi ran lmi.solve")

        monkeypatch.setattr(lmi, "solve", no_search)
        for a_closed in (0.5, 2.0):
            plant, gain, _, dist = scalar_family(1.2, a_closed, LossModel(0.0, 0.2))
            assert stability_lmi(plant, gain, full_packet_schedule(), dist).feasible == (
                a_closed < 1.0)

    def test_every_unstable_loop_of_the_c2_population_is_refuted(self):
        # replays the draws of acceptance criterion 2 (seed 77)
        rng = np.random.default_rng(77)
        checked = unstable = 0
        while checked < 100:
            n = int(rng.integers(1, 4))
            plant = random_plant(rng, n, spectral_scale=float(0.2 + 1.5 * rng.random()))
            gain = Gain(0.5 * rng.standard_normal((1, n)))
            dist = mode_distribution(random_loss(rng))
            fam = closed_loop(plant, gain, 0, full_packet_schedule())
            rho = sms_oracle(fam, dist).rho
            if 0.98 < rho < 1.02:
                continue
            checked += 1
            if rho > 1.02:
                unstable += 1
                result = stability_lmi(plant, gain, full_packet_schedule(), dist)
                assert_refuted(result, plant, gain, full_packet_schedule(), dist)
        assert unstable > 10

    def test_periodic_population_is_decided_by_rho(self):
        # Periodic loops repeat eigenvalue moduli in the period operator;
        # loops with rho just above 1 are kept, not skipped.
        rng = np.random.default_rng(41)
        unstable = borderline = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            period = int(rng.integers(1, 5))
            plant = random_plant(rng, n, spectral_scale=float(np.sqrt(0.5 + rng.random())))
            gain = Gain(0.5 * rng.standard_normal((1, n)))
            dist = mode_distribution(random_loss(rng))
            # each slot sends one sensor reading, drives the actuator, or idles
            kinds = rng.integers(0, 3, size=period)
            sched = Schedule(period=period,
                             s1=tuple(int(rng.integers(1, n + 1)) if k == 0 else 0 for k in kinds),
                             s2=tuple(int(k == 1) for k in kinds))
            families = [closed_loop(plant, gain, k, sched) for k in range(period)]
            rho = sms_oracle(families, dist).rho
            result = stability_lmi(plant, gain, sched, dist)
            if rho >= 1.0:
                unstable += 1
                borderline += rho < 1.02
                assert_refuted(result, plant, gain, sched, dist)
            elif rho < 0.98:
                assert result.feasible, f"no certificate for rho = {rho}"
            if result.feasible:
                assert rho < 1.0, f"certificate for rho = {rho}"
        assert unstable > 100 and borderline > 0

    def test_periodic_schedule_certificate(self):
        plant = Plant(A=[[0.0, 0.9], [-0.3, 0.2]], B1=[[1.0], [0.0]], B2=[[0.0], [1.0]],
                      C1=[[1.0, 0.0]], D11=[[1.0]], D12=[[0.0]])
        sched = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        dist = mode_distribution(LossModel(0.1, 0.2))
        cert = stability_lmi(plant, Gain.zero(1, 2), sched, dist)
        assert cert.feasible
        assert len(cert.ps) == 3

    def test_oracle_agreement_random_population(self):
        rng = np.random.default_rng(23)
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 300:
            attempts += 1
            n = int(rng.integers(1, 4))
            plant = random_plant(rng, n, spectral_scale=float(0.3 + 1.2 * rng.random()))
            gain = Gain(0.5 * rng.standard_normal((1, n)))
            dist = mode_distribution(random_loss(rng))
            fam = closed_loop(plant, gain, 0, full_packet_schedule())
            rho = sms_oracle(fam, dist).rho
            if 0.98 < rho < 1.02:
                continue
            result = stability_lmi(plant, gain, full_packet_schedule(), dist)
            if result.feasible:
                assert rho < 1.0, f"certificate for rho = {rho}"
            elif rho < 0.95:
                # solver is incomplete in theory; in practice it should crack
                # comfortably stable desk-scale instances
                pytest.fail(f"no certificate for clearly stable rho = {rho}")
            checked += 1
        assert checked == 30


class TestPassivityLmi:
    def test_scalar_certificate_at_low_eta(self, scalar_passive_plant, lossless):
        dist = mode_distribution(lossless)
        cert = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4)
        assert cert.feasible
        # hand-checkable witness: P = 1 assembles to diag(-0.75, -0.2)
        prob = passivity_problem(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4)
        form = dict(prob.constraints)["dissipation"].assemble({"P": np.array([[1.0]])})
        np.testing.assert_allclose(form, np.diag([-0.75, -0.2]), atol=1e-15)

    def test_certificate_is_the_verified_one_with_its_level(self, scalar_passive_plant, lossless):
        # the LmiCertificate that certify verified, eta included; a bare solve of
        # the same problem finds the same point and leaves eta unset
        dist = mode_distribution(lossless)
        cert = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4)
        assert isinstance(cert, lmi.LmiCertificate)
        assert cert.eta == 0.4
        bare = lmi.solve(passivity_problem(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4))
        assert bare.eta is None
        assert bare.assignment["P"].tobytes() == cert.assignment["P"].tobytes()

    def test_averaged_form_is_the_weighted_sum_of_ledger_forms(self):
        # passivity_problem and dissipation_identity_check share one builder:
        # the averaged form is the probability-weighted sum of the per-mode
        # forms the ledger identity assembles.
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            plant = random_plant(rng, n)
            gain = Gain(rng.standard_normal((1, n)))
            dist = mode_distribution(random_loss(rng))
            p = rng.standard_normal((n, n))
            p = p @ p.T + np.eye(n)
            eta = float(rng.random())
            prob = passivity_problem(plant, gain, dist, eta)
            averaged = dict(prob.constraints)["dissipation"].assemble({"P": p})
            fam = closed_loop(plant, gain, 0, full_packet_schedule())
            weighted = sum(
                prob_m * analysis._dissipation_form(fam, [(mode, 1.0)], eta).assemble({"P": p})
                for mode, prob_m in dist.items()
            )
            np.testing.assert_allclose(averaged, weighted, rtol=1e-12, atol=1e-10)

    def test_zero_feedthrough_refused(self, lossless):
        plant = Plant(A=[[0.5]], B1=[[1.0]], B2=[[0.0]], C1=[[0.5]], D11=[[0.0]], D12=[[0.0]])
        with pytest.raises(AssumptionViolated):
            passivity_lmi(plant, Gain.zero(1, 1), mode_distribution(lossless), 0.1)

    def test_feasibility_matches_grid_oracle(self, scalar_passive_plant, lossless):
        dist = mode_distribution(lossless)
        eta_star = scalar_grid_eta_star(0.5, 1.0, 0.5, 1.0, p_max=5.0, resolution=2e-3)
        for eta in (0.3, 0.6, eta_star + 0.05):
            result = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, eta)
            assert result.feasible == (eta < eta_star), f"eta = {eta} vs grid {eta_star}"

    def test_unstable_loop_skips_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("passivity_lmi ran lmi.solve")

        monkeypatch.setattr(lmi, "solve", no_search)
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        dist = mode_distribution(LossModel(0.0, 0.2))
        result = passivity_lmi(plant, Gain.zero(1, 1), dist, 0.1)
        assert isinstance(result, Indeterminate)
        assert result.iterations == 0
        assert "rho = 4 >= 1" in result.message
        assert isinstance(passivity_lmi(plant, Gain.zero(1, 1), dist, "maximize"), Indeterminate)

    def test_negative_eta_rejected(self, scalar_passive_plant, lossless):
        with pytest.raises(ValueError):
            passivity_lmi(scalar_passive_plant, Gain.zero(1, 1),
                          mode_distribution(lossless), -0.1)


class TestMaxDissipation:
    def test_scalar_matches_grid_oracle(self, scalar_passive_plant, lossless):
        dist = mode_distribution(lossless)
        eta_star = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, "maximize").eta
        grid = scalar_grid_eta_star(0.5, 1.0, 0.5, 1.0, p_max=5.0, resolution=2e-3)
        assert eta_star == pytest.approx(grid, abs=5e-3)

    def test_memoryless_unit_feedthrough(self, lossless):
        plant = Plant(A=[[0.0]], B1=[[0.0]], B2=[[0.0]], C1=[[0.0]], D11=[[1.0]], D12=[[0.0]])
        dist = mode_distribution(lossless)
        eta_star = passivity_lmi(plant, Gain.zero(1, 1), dist, "maximize").eta
        assert eta_star == pytest.approx(1.0, abs=5e-3)

    def test_two_channel_identity_feedthrough(self, lossless):
        plant = Plant(A=np.zeros((2, 2)), B1=np.zeros((2, 2)), B2=np.zeros((2, 1)),
                      C1=np.zeros((2, 2)), D11=np.eye(2), D12=np.zeros((2, 1)))
        dist = mode_distribution(lossless)
        eta_star = passivity_lmi(plant, Gain.zero(1, 2), dist, "maximize").eta
        assert eta_star == pytest.approx(1.0, abs=5e-3)

    def test_monotone_feasibility_below_the_margin(self, scalar_passive_plant, lossless):
        dist = mode_distribution(lossless)
        eta_star = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, "maximize").eta
        for frac in (0.25, 0.5, 0.75, 0.95):
            result = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, frac * eta_star)
            assert result.feasible, f"monotonicity broken at {frac} * eta_star"

    def test_scalar_reaches_the_closed_form_margin(self, scalar_passive_plant, lossless):
        # x+ = 0.5x + w, z = 0.5x + w has margin exactly 2/3 (acceptance c3)
        result = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), mode_distribution(lossless),
                               "maximize")
        assert abs(result.eta - 2.0 / 3.0) <= ETA_TOL

    def test_spent_budget_still_returns_a_verified_certificate(self, scalar_passive_plant,
                                                              lossless):
        dist = mode_distribution(lossless)

        def build(eta):
            return passivity_problem(scalar_passive_plant, Gain.zero(1, 1), dist, eta)

        first = lmi.solve(build(0.0))
        assert first.iterations == 0  # P = 1 verifies at the start
        cert = lmi._maximize(build, build(0.0), first, 10, lambda c: c)
        eta = cert.eta
        assert cert.iterations == 10
        assert 0.0 < eta < 2.0 / 3.0 - ETA_TOL
        assert lmi.verify(build(eta), cert.assignment).passed
        result = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, "maximize", max_iters=10)
        assert result.eta == eta
        assert lmi.verify(build(result.eta), result.assignment).passed

    # What an eleven-probe bisection of passivity_lmi reached at each margin.
    @pytest.mark.parametrize("epsilon_rel,bisected", [
        (0.01, 0.6552734375), (0.05, 0.609375), (0.1, 0.5498046875), (0.2, 0.4169921875)])
    def test_large_margin_reaches_the_bisection(self, scalar_passive_plant, lossless,
                                                 epsilon_rel, bisected):
        dist, margin = mode_distribution(lossless), DefinitenessMargin(epsilon_rel)
        result = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, "maximize", margin)
        assert result.eta >= bisected - ETA_TOL
        problem = passivity_problem(scalar_passive_plant, Gain.zero(1, 1), dist, result.eta, margin)
        assert lmi.verify(problem, result.assignment).passed

    def test_infeasible_base_propagates(self, lossless):
        # open loop rho = 4: no passivity certificate at any eta
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[0.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        result = passivity_lmi(plant, Gain.zero(1, 1), mode_distribution(lossless), "maximize")
        assert isinstance(result, Indeterminate)


class TestDissipationIdentity:
    def test_zero_trace_zero_residual(self, scalar_passive_plant, lossless):
        trace = sim.simulate(scalar_passive_plant, Gain.zero(1, 1), full_packet_schedule(),
                             lossless, sim.InputSignal.zero(1), 50, seed=1)
        res = dissipation_identity_check(
            scalar_passive_plant, Gain.zero(1, 1), mode_distribution(lossless),
            np.array([[1.0]]), 0.4, trace)
        assert res == 0.0

    def test_certificate_trace_pair(self, scalar_passive_plant, lossless):
        dist = mode_distribution(lossless)
        cert = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4)
        trace = sim.simulate(scalar_passive_plant, Gain.zero(1, 1), full_packet_schedule(),
                             lossless, sim.InputSignal.white_noise(1), 200, seed=9)
        res = dissipation_identity_check(scalar_passive_plant, Gain.zero(1, 1), dist,
                                         cert.assignment["P"], 0.4, trace)
        assert res <= 1e-9

    def test_identity_holds_for_arbitrary_p(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 10:
            n = int(rng.integers(1, 4))
            plant = random_plant(rng, n, spectral_scale=0.8)
            gain = Gain(0.3 * rng.standard_normal((1, n)))
            loss = random_loss(rng)
            p = rng.standard_normal((n, n))
            p = p + p.T
            eta = float(rng.random())
            trace = sim.simulate(plant, gain, full_packet_schedule(), loss,
                                 sim.InputSignal.white_noise(1), 100, seed=done,
                                 x0=rng.standard_normal(n))
            if float(np.abs(trace.x).max()) > 50.0:
                continue  # keep the absolute tolerance meaningful
            res = dissipation_identity_check(plant, gain, mode_distribution(loss),
                                             p, eta, trace)
            assert res <= 1e-9
            done += 1

    def test_identity_on_periodic_schedule(self):
        rng = np.random.default_rng(37)
        plant = random_plant(rng, 2, spectral_scale=0.7)
        gain = Gain(rng.standard_normal((1, 2)))
        sched = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        loss = LossModel(0.3, 0.2)
        trace = sim.simulate(plant, gain, sched, loss, sim.InputSignal.white_noise(1),
                             90, seed=4, x0=[1.0, -0.5])
        p = np.array([[2.0, 0.3], [0.3, 1.5]])
        res = dissipation_identity_check(plant, gain, mode_distribution(loss), p, 0.2, trace)
        assert res <= 1e-9
