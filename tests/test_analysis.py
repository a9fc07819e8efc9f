import warnings

import numpy as np
import pytest

import riccati_oracle
from conftest import oscillator, random_loss, random_plant, scalar_grid_eta_star
from ncspassive import analysis, lmi, sim
from ncspassive.analysis import (
    dissipation_identity_check,
    passivity_lmi,
    passivity_problem,
    sms_oracle,
    stability_lmi,
    stability_problem,
)
from ncspassive.errors import AssumptionViolated, VerificationFailed
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
from ncspassive.numerics import DefinitenessMargin, spectral_radius


def scalar_family(a_open: float, a_closed: float, loss: LossModel):
    plant = Plant(A=[[a_open]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
    gain = Gain([[a_closed - a_open]])
    fam = closed_loop(plant, gain, 0, full_packet_schedule())
    return plant, gain, fam, mode_distribution(loss)


class TestSmsOracle:
    def test_no_family_is_refused(self):
        with pytest.raises(ValueError, match="need at least one closed-loop family"):
            sms_oracle([], mode_distribution(LossModel(0.0, 0.0)))

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


def per_mode_dissipation_form(fam, weights, eta: float) -> lmi.AffineExpr:
    """The dissipation form written out mode by mode, one term per mode of nonzero weight."""
    n, m1 = fam.b.shape
    eye, b, d = np.eye(n), fam.b, fam.d
    expr = lmi.AffineExpr([n, m1], name="dissipation")
    modes = [(fam.a(*mode), fam.c(*mode), w) for mode, w in weights if w != 0.0]
    for a, _, w in modes:
        expr.add_term(0, 0, a.T, "P", a, weight=w)
    expr.add_term(0, 0, -eye, "P", eye)
    c = np.zeros_like(fam.c(0, 0))
    for a, cm, w in modes:
        expr.add_term(0, 1, a.T, "P", b, weight=w)
        c = c + w * cm
    expr.add_term(1, 1, b.T, "P", b)
    expr.add_const(0, 1, -c.T)
    expr.add_level(1, 1, 2.0 * np.eye(m1), d.T, d)
    return expr.at(eta)


def svec_rows(n: int) -> np.ndarray:
    """U, d x n^2: row q is the row-major vec of the q-th orthonormal basis matrix.

    The basis runs over the upper triangle in row-major order: e_i e_i' on
    the diagonal, (e_i e_j' + e_j e_i') / sqrt(2) above it. U vec(Z) is
    svec(Z) for symmetric Z, and U' svec(Z) is vec(Z).
    """
    rows = []
    for i, j in zip(*np.triu_indices(n)):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        rows.append(e.ravel())
    return np.array(rows)


class TestDistinctLoops:
    """The mode sums run over the two distinct loops and agree with the four-mode sums."""

    @staticmethod
    def loops(k: int):
        rng = np.random.default_rng([43, k])
        n = int(rng.integers(1, 5))
        plant = random_plant(rng, n, spectral_scale=float(0.3 + rng.random()))
        gain = Gain(rng.standard_normal((1, n)))
        loss = LossModel(*rng.choice([0.0, 1.0, rng.random(), rng.random()], size=2))
        p = rng.standard_normal((n, n))
        return closed_loop(plant, gain, 0, full_packet_schedule()), mode_distribution(loss), p + p.T

    @pytest.mark.parametrize("k", range(20))
    def test_averaged_sums_match_the_per_mode_sums(self, k):
        fam, dist, p = self.loops(k)
        u = svec_rows(fam.a(0, 0).shape[0])
        kron = sum(w * np.kron(fam.a(*mode), fam.a(*mode)) for mode, w in dist.items())
        per_mode = u @ kron @ u.T
        op = analysis._second_moment_operator(fam, dist)
        np.testing.assert_allclose(op, per_mode, rtol=1e-13, atol=1e-13 * np.abs(per_mode).max())
        form = analysis._dissipation_form(fam, dist.items(), 0.3).assemble({"P": p})
        want = per_mode_dissipation_form(fam, dist.items(), 0.3).assemble({"P": p})
        np.testing.assert_allclose(form, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("k", range(5))
    def test_a_realized_mode_form_is_the_per_mode_form_bit_for_bit(self, k):
        fam, _, p = self.loops(k)
        for mode in ((0, 0), (0, 1), (1, 0), (1, 1)):
            form = analysis._dissipation_form(fam, [(mode, 1.0)], 0.3).assemble({"P": p})
            want = per_mode_dissipation_form(fam, [(mode, 1.0)], 0.3).assemble({"P": p})
            assert form.tobytes() == want.tobytes()


class TestSvecOperator:
    """The second-moment operator in svec coordinates acts, adjoins and has rho as the n^2 one."""

    @staticmethod
    def loop(k: int, n: int):
        rng = np.random.default_rng([47, n, k])
        plant = random_plant(rng, n, spectral_scale=float(0.3 + rng.random()))
        gain = Gain(rng.standard_normal((1, n)))
        # losses of 0 and 1 give modes of weight 0
        loss = LossModel(*rng.choice([0.0, 1.0, rng.random(), rng.random()], size=2))
        z = rng.standard_normal((n, n))
        fam = closed_loop(plant, gain, 0, full_packet_schedule())
        return fam, mode_distribution(loss), z + z.T

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(4))
    def test_action_is_the_mode_sum(self, n, k):
        fam, dist, z = self.loop(k, n)
        op = analysis._second_moment_operator(fam, dist)
        assert op.shape == (n * (n + 1) // 2,) * 2
        got = analysis._unsvec(op @ analysis._svec(z), n)
        want = sum(w * fam.a(*mode) @ z @ fam.a(*mode).T for mode, w in dist.items())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert (got == got.T).all()

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(4))
    def test_transpose_is_the_lyapunov_map(self, n, k):
        # <op svec(Z), svec(P)> = <Z, sum_m a_m A_m' P A_m> needs an orthonormal basis's sqrt(2)
        fam, dist, z = self.loop(k, n)
        p = self.loop(k + 100, n)[2]
        op = analysis._second_moment_operator(fam, dist)
        got = float((op @ analysis._svec(z)) @ analysis._svec(p))
        lyap = sum(w * fam.a(*mode).T @ p @ fam.a(*mode) for mode, w in dist.items())
        want = float(np.sum(z * lyap))
        scale = np.abs(z).max() * np.abs(lyap).max()
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11 * scale)

    def test_svec_is_an_isometry_and_unsvec_its_inverse(self):
        rng = np.random.default_rng(53)
        for n in range(1, 7):
            z, p = (m + m.T for m in rng.standard_normal((2, n, n)))
            v = analysis._svec(z)
            assert float(v @ analysis._svec(p)) == pytest.approx(float(np.sum(z * p)))
            np.testing.assert_allclose(analysis._unsvec(v, n), z, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(svec_rows(n) @ z.ravel(), v, rtol=1e-15, atol=1e-15)

    def test_the_basis_stack_is_cached_and_read_only(self):
        basis = analysis._svec_basis(4)
        assert analysis._svec_basis(4) is basis and basis.shape == (10, 4, 4)
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 2.0

    @staticmethod
    def kron_rho(families, dist) -> float:
        """Per-step rho of the n^2 operator sum_m a_m kron(A_m, A_m), composed over the period."""
        n = families[0].a(0, 0).shape[0]
        product = np.eye(n * n)
        for fam in families:
            product = sum(w * np.kron(fam.a(*m), fam.a(*m)) for m, w in dist.items()) @ product
        return float(np.abs(np.linalg.eigvals(product)).max()) ** (1.0 / len(families))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rho_is_that_of_the_n_squared_operator_on_random_loops(self, n):
        for k in range(10):
            fam, dist, _ = self.loop(k, n)
            assert sms_oracle(fam, dist).rho == pytest.approx(self.kron_rho([fam], dist), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, np.pi / 2])
    def test_rho_is_that_of_the_n_squared_operator_on_rotations(self, theta):
        # A = r R(theta) (+) s: eigenvalues r e^{+-i theta} and s, so kron(A, A) is complex
        for r, s in ((0.9, 0.2), (1.1, 0.95), (0.7, -1.05)):
            rot = r * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            a = np.block([[rot, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[s]])]])
            plant = Plant(A=a, B1=np.ones((3, 1)), B2=[[1.0], [0.0], [0.5]], C1=np.ones((1, 3)),
                          D11=[[1.0]], D12=[[0.0]])
            fam = closed_loop(plant, Gain([[-0.2, 0.1, -0.3]]), 0, full_packet_schedule())
            dist = mode_distribution(LossModel(0.1, 0.3))
            assert sms_oracle(fam, dist).rho == pytest.approx(self.kron_rho([fam], dist), rel=1e-12)

    @pytest.mark.parametrize("k", range(10))
    def test_rho_is_that_of_the_n_squared_operator_on_two_periodic_families(self, k):
        rng = np.random.default_rng([59, k])
        n = int(rng.integers(2, 6))
        plant = random_plant(rng, n, spectral_scale=float(0.5 + rng.random()))
        sched = Schedule(period=2, s1=(int(rng.integers(1, n + 1)), 0), s2=(0, 1))
        families = [closed_loop(plant, Gain(rng.standard_normal((1, n))), j, sched)
                    for j in range(2)]
        dist = mode_distribution(random_loss(rng))
        assert sms_oracle(families, dist).rho == pytest.approx(
            self.kron_rho(families, dist), rel=1e-12)


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
        p = float(cert.ps[0][0, 0])
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

    @staticmethod
    def count_builds(monkeypatch) -> list:
        calls = []
        build = analysis.StabilityCertificate.build

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(analysis.StabilityCertificate, "build", classmethod(counting))
        return calls

    def test_a_refuted_loop_builds_no_certificate(self, monkeypatch):
        # its P is indefinite: the P0_pos_def check alone rules the certificate out
        calls = self.count_builds(monkeypatch)
        plant, gain, _, dist = scalar_family(2.0, 2.0, LossModel(0.0, 0.0))
        result = stability_lmi(plant, gain, full_packet_schedule(), dist)
        assert_refuted(result, plant, gain, full_packet_schedule(), dist)
        assert calls == []

    def test_without_a_dual_the_build_still_names_the_failed_constraint(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        monkeypatch.setattr(analysis, "_perron_vector", lambda op, n, rho: None)
        plant, gain, _, dist = scalar_family(2.0, 2.0, LossModel(0.0, 0.0))
        result = stability_lmi(plant, gain, full_packet_schedule(), dist)
        assert result.dual is None and len(calls) == 1
        assert result.message == (
            "the coupled Lyapunov equation's solution does not verify: assignment does not "
            "satisfy constraint 'P0_pos_def': lambda_max 3.333333e-01 > threshold "
            "-1.333333e-08; no dual certificate found")

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

    def test_stability_certificate_is_the_lmi_certificate_it_verified(self):
        plant = Plant(A=[[0.0, 0.9], [-0.3, 0.2]], B1=[[1.0], [0.0]], B2=[[0.0], [1.0]],
                      C1=[[1.0, 0.0]], D11=[[1.0]], D12=[[0.0]])
        sched = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        dist = mode_distribution(LossModel(0.1, 0.2))
        gain = Gain.zero(1, 2)
        cert = stability_lmi(plant, gain, sched, dist)
        assert isinstance(cert, analysis.StabilityCertificate)
        assert isinstance(cert, lmi.LmiCertificate)
        assert [p.tobytes() for p in cert.ps] == [
            cert.assignment[f"P{k}"].tobytes() for k in range(3)]
        prob = stability_problem(plant, gain, sched, dist)
        assert lmi.verify(prob, cert.assignment).passed
        # P1 = 0 leaves lyapunov_k1 at sum_m a_m A' P2 A >= 0 and P1_pos_def at 0
        with pytest.raises(VerificationFailed):
            analysis.StabilityCertificate.build(prob, {**cert.assignment, "P1": np.zeros((2, 2))})

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


def rotation_like(rng, n: int, r: float) -> np.ndarray:
    """r times 2 x 2 rotations down the diagonal, and -r last for odd n: every eigenvalue of modulus r."""
    a = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        theta = rng.uniform(0.0, np.pi)
        a[i:i + 2, i:i + 2] = r * np.array([[np.cos(theta), -np.sin(theta)],
                                            [np.sin(theta), np.cos(theta)]])
    if n % 2:
        a[-1, -1] = -r
    return a


def perron_loop(kind: str, k: int, n_max: int = 6, period_max: int = 4):
    """(plant, gain, schedule, dist) of loop k of a kind: generic, reducible or rotation-like A."""
    rng = np.random.default_rng([61, ("generic", "reducible", "rotation").index(kind), k])
    n = int(rng.integers(2, n_max + 1))
    period = int(rng.integers(1, period_max + 1))
    r = float(rng.uniform(0.5, 1.5))
    b2 = rng.standard_normal((n, 1))
    if kind == "generic":
        a = random_plant(rng, n, spectral_scale=r).A
    elif kind == "reducible":  # block-diagonal A, its second block out of the actuator's reach
        m = int(rng.integers(1, n))
        a = np.zeros((n, n))
        a[:m, :m] = random_plant(rng, m, spectral_scale=r).A
        a[m:, m:] = random_plant(rng, n - m, spectral_scale=r).A
        b2[m:] = 0.0
    else:
        a = rotation_like(rng, n, r)
    plant = Plant(A=a, B1=np.ones((n, 1)), B2=b2, C1=np.ones((1, n)), D11=[[1.0]], D12=[[0.0]])
    # each slot sends one sensor reading, drives the actuator, or idles
    kinds = rng.integers(0, 3, size=period)
    sched = Schedule(period=period,
                     s1=tuple(int(rng.integers(1, n + 1)) if c == 0 else 0 for c in kinds),
                     s2=tuple(int(c == 1) for c in kinds))
    return plant, Gain(0.3 * rng.standard_normal((1, n))), sched, mode_distribution(random_loss(rng))


class TestPerronVector:
    """The refuting multiplier: two resolvent solves at the radius the guard computed."""

    @pytest.mark.parametrize("kind", ["generic", "reducible", "rotation"])
    def test_resolvent_gives_a_psd_perron_eigenvector(self, kind):
        for k in range(20):
            plant, gain, sched, dist = perron_loop(kind, k)
            ops = [analysis._second_moment_operator(closed_loop(plant, gain, j, sched), dist)
                   for j in range(sched.period)]
            t = np.eye(ops[0].shape[0])
            for op in ops:
                t = t @ op.T
            rho = spectral_radius(t)
            z = analysis._perron_vector(t.T, plant.n, rho)
            assert np.trace(z) == pytest.approx(1.0, rel=1e-14)
            assert np.linalg.eigvalsh(z)[0] >= -1e-12
            v = analysis._svec(z)
            assert np.linalg.norm(t.T @ v - rho * v) <= 1e-10 * rho * np.linalg.norm(v)

    def test_a_stable_loop_is_never_offered_a_dual(self, monkeypatch):
        # rho = 0.488 < 1, and no solution clears a margin of 0.9: no dual is sought
        def no_dual(*args):
            raise AssertionError("a dual was sought for a stable loop")

        monkeypatch.setattr(analysis, "_perron_vector", no_dual)
        monkeypatch.setattr(lmi, "verify_dual", no_dual)
        plant, gain, _, dist = scalar_family(1.2, 0.5, LossModel(0.0, 0.2))
        result = stability_lmi(plant, gain, full_packet_schedule(), dist, DefinitenessMargin(0.9))
        assert isinstance(result, Indeterminate) and result.dual is None
        assert result.message.startswith("the coupled Lyapunov equation's solution does not verify")

    def test_every_refuted_random_loop_carries_a_dual(self):
        refuted = k = 0
        while refuted < 200:
            plant, gain, sched, dist = perron_loop(("generic", "reducible", "rotation")[k % 3], k,
                                                   n_max=6, period_max=3)
            k += 1
            families = [closed_loop(plant, gain, j, sched) for j in range(sched.period)]
            if sms_oracle(families, dist).rho >= 1.0:
                refuted += 1
                assert_refuted(stability_lmi(plant, gain, sched, dist), plant, gain, sched, dist)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sched", [full_packet_schedule(), Schedule(period=2, s1=(1, 0), s2=(0, 1))],
                             ids=["period-1", "period-2"])
    def test_an_overflowing_loop_is_indeterminate(self, sched):
        # its second moments overflow float64: no radius, no dual, and no exception
        plant = Plant(A=[[1e200]], B1=[[1.0]], B2=[[1.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        result = stability_lmi(plant, Gain.zero(1, 1), sched, mode_distribution(LossModel(0.0, 0.0)))
        assert isinstance(result, Indeterminate) and result.dual is None


class TestOneRadius:
    """A dual is offered exactly where ``sms_oracle`` finds the loop not stable.

    Both read the radius of one period product, so a loop at rho = 1 exactly,
    whose float radius may land on either side of 1, gets one verdict.
    """

    @staticmethod
    def assert_dual_iff_unstable(plant, gain, sched, dist):
        families = [closed_loop(plant, gain, j, sched) for j in range(sched.period)]
        stable = sms_oracle(families, dist).stable
        result = stability_lmi(plant, gain, sched, dist)
        if not result.feasible:
            assert (result.dual is not None) == (not stable), result.message

    @pytest.mark.parametrize("loss", [LossModel(0.0, 0.0), LossModel(0.3, 0.0)],
                             ids=["lossless", "sensor-loss"])
    def test_undamped_oscillators(self, loss):
        for degrees in range(1, 180):
            self.assert_dual_iff_unstable(oscillator(degrees), Gain.zero(1, 2),
                                          full_packet_schedule(), mode_distribution(loss))

    @pytest.mark.parametrize("sched", [full_packet_schedule(), Schedule(period=2, s1=(1, 0), s2=(0, 1))],
                             ids=["period-1", "period-2"])
    def test_orthogonal_loops(self, sched):
        # at zero gain every mode's loop is the orthogonal A: rho = 1 exactly
        for k in range(60):
            rng = np.random.default_rng([5, sched.period, k])
            n = int(rng.integers(2, 5))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            plant = Plant(A=q, B1=np.ones((n, 1)), B2=rng.standard_normal((n, 1)),
                          C1=np.ones((1, n)), D11=[[1.0]], D12=[[0.0]])
            self.assert_dual_iff_unstable(plant, Gain.zero(1, n), sched,
                                          mode_distribution(random_loss(rng)))


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
        # the same problem finds the same point, its eta the level it was posed at
        dist = mode_distribution(lossless)
        cert = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4)
        assert isinstance(cert, lmi.LmiCertificate)
        assert cert.eta == 0.4
        bare = lmi.solve(passivity_problem(scalar_passive_plant, Gain.zero(1, 1), dist, 0.4))
        assert bare.eta == 0.4
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
        cert = lmi._maximize(first, 10)
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


# A vanishing delta: riccati_storage then converges exactly while eta is below the
# largest dissipation any storage certifies, with no margin.
ORACLE_DELTA = 1e-12


def riccati_eta(fam, weights, lo: float, hi: float, tol: float):
    """Bisected largest eta in [lo, hi] at which ``riccati_storage`` converges.

    None when lo already fails, hi when hi passes; else a level that
    passes, within tol of one that fails. The Riccati iteration writes the
    dissipation form out itself, so this is an eta oracle independent of
    the LMI builder and solver.
    """
    def passes(eta):
        return riccati_oracle.riccati_storage(fam, weights, eta, ORACLE_DELTA) is not None

    if not passes(lo):
        return None
    if passes(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


def oracle_loop(k: int):
    """Loop k of the oracle set: n = 1 + k % 6 states, 1 + k % 2 channels, a fixed gain."""
    rng = np.random.default_rng([77, k])
    n, m1 = 1 + k % 6, 1 + k % 2
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 0.95) / np.abs(np.linalg.eigvals(a)).max()
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, m1)), B2=rng.standard_normal((n, 1)),
                  C1=0.3 * rng.standard_normal((m1, n)), D11=np.eye(m1), D12=np.zeros((m1, 1)))
    gain = Gain(0.1 * rng.standard_normal((1, n)))
    loss = LossModel(rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.15))
    return plant, gain, mode_distribution(loss)


class TestRiccatiStorage:
    def test_oracle_reaches_the_closed_form_margin(self, scalar_passive_plant, lossless):
        # c3: x+ = 0.5x + w, z = 0.5x + w has margin exactly 2/3
        dist = mode_distribution(lossless)
        fam = closed_loop(scalar_passive_plant, Gain.zero(1, 1), 0, full_packet_schedule())
        oracle = riccati_eta(fam, dist.items(), 0.0, 1.0, 1e-7)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-6)
        certified = passivity_lmi(scalar_passive_plant, Gain.zero(1, 1), dist, "maximize").eta
        assert 0.0 <= oracle - certified <= ETA_TOL

    def test_oracle_bounds_the_certified_eta_one_sidedly(self):
        # Every certified eta lies at most ETA_TOL below the oracle, never above
        # it; where no certificate was found, the oracle finds no eta >= 0 either.
        certified = refused = 0
        for k in range(200):
            plant, gain, dist = oracle_loop(k)
            fam = closed_loop(plant, gain, 0, full_packet_schedule())
            result = passivity_lmi(plant, gain, dist, "maximize")
            if result.feasible:
                oracle = riccati_eta(fam, dist.items(), result.eta, result.eta + ETA_TOL,
                                     ETA_TOL / 4)
                assert oracle is not None, f"loop {k}: oracle below certified {result.eta}"
                assert oracle < result.eta + ETA_TOL, f"loop {k}: oracle above {oracle}"
                certified += 1
            else:
                assert riccati_oracle.riccati_storage(fam, dist.items(), 0.0, ORACLE_DELTA) is None
                refused += 1
        assert certified >= 150 and refused >= 20

    def test_storage_verifies_and_closes_the_riccati_equation(self):
        plant, gain, dist = oracle_loop(5)
        fam = closed_loop(plant, gain, 0, full_packet_schedule())
        eta = 0.5 * passivity_lmi(plant, gain, dist, "maximize").eta
        p = riccati_oracle.riccati_storage(fam, dist.items(), eta, 1e-3)
        assert lmi.verify(passivity_problem(plant, gain, dist, eta), {"P": p}).passed
        # T' M(P) T = diag(-delta I, -(W - B'PB)) at the maximizing disturbance gain F
        form = analysis._dissipation_form(fam, dist.items(), eta).assemble({"P": p})
        n = plant.n
        f = np.linalg.solve(-form[n:, n:], form[n:, :n])
        t = np.block([[np.eye(n), np.zeros((n, plant.m1))], [f, np.eye(plant.m1)]])
        reduced = t.T @ form @ t
        np.testing.assert_allclose(reduced[:n, :n], -1e-3 * np.eye(n), atol=1e-9)
        np.testing.assert_allclose(reduced[:n, n:], 0.0, atol=1e-9)

    @pytest.mark.parametrize("case", [
        "rho-above-one", "singular-operator", "w-not-positive", "no-convergence"])
    def test_returns_none_silently(self, monkeypatch, scalar_passive_plant, lossless, case):
        dist = mode_distribution(lossless)
        plant, eta = scalar_passive_plant, 0.1
        if case == "rho-above-one":
            plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[0.0]], C1=[[0.5]], D11=[[1.0]],
                          D12=[[0.0]])
        elif case == "singular-operator":  # a 2-cycle: I - kron(A', A') is singular
            plant = Plant(A=[[0.0, 1.0], [1.0, 0.0]], B1=[[1.0], [0.0]], B2=[[0.0], [0.0]],
                          C1=[[0.5, 0.0]], D11=[[1.0]], D12=[[0.0]])
        elif case == "w-not-positive":
            eta = 1.0  # D + D' - 2 eta I = 0
        else:
            monkeypatch.setattr(riccati_oracle, "RICCATI_STEPS", 2)
        fam = closed_loop(plant, Gain.zero(1, plant.n), 0, full_packet_schedule())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert riccati_oracle.riccati_storage(fam, dist.items(), eta, 1e-3) is None

    @pytest.mark.parametrize("value", [1e150, -1e150, 1e149, 2.0**70, -(2.0**70)])
    def test_entries_at_the_input_bound_neither_raise_nor_warn(self, value):
        # the CLI accepts plant entries up to 1e150 in magnitude; the fuzz test's 2**70 too
        base = {"A": [[0.5, 0.1], [0.0, 0.4]], "B1": [[1.0], [0.2]], "B2": [[1.0], [0.0]],
                "C1": [[0.5, 0.3]], "D11": [[1.0]], "D12": [[0.0]]}
        dist = mode_distribution(LossModel(0.1, 0.2))
        gain = Gain([[-0.2, 0.1]])
        for name in ("A", "B1", "B2", "C1", "D11"):
            entries = {k: np.array(v) for k, v in base.items()}
            entries[name][0, 0] = value
            fam = closed_loop(Plant(**entries), gain, 0, full_packet_schedule())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p = riccati_oracle.riccati_storage(fam, dist.items(), 0.1, 1e-3)
            assert p is None or np.isfinite(p).all()


class TestDissipationIdentity:
    def test_zero_trace_zero_residual(self, scalar_passive_plant, lossless):
        trace = sim.simulate(scalar_passive_plant, Gain.zero(1, 1), full_packet_schedule(),
                             lossless, sim.InputSignal.zero(1), 50, seed=1)
        res = dissipation_identity_check(
            scalar_passive_plant, Gain.zero(1, 1), mode_distribution(lossless),
            np.array([[1.0]]), 0.4, trace)
        assert res == 0.0

    def test_empty_trace_has_no_residual(self, scalar_passive_plant, lossless):
        trace = sim.simulate(scalar_passive_plant, Gain.zero(1, 1), full_packet_schedule(),
                             lossless, sim.InputSignal.white_noise(1), 0, seed=1)
        assert trace.horizon == 0
        assert dissipation_identity_check(scalar_passive_plant, Gain.zero(1, 1),
                                          mode_distribution(lossless), [[1.0]], 0.4, trace) == 0.0

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

    def test_one_form_per_slot_and_distinct_loop(self, monkeypatch):
        # the three modes that lose a message share the open loop's form
        built = []
        dissipation_form = analysis._dissipation_form

        def counting(fam, weights, eta):
            built.append(tuple(weights))
            return dissipation_form(fam, weights, eta)

        monkeypatch.setattr(analysis, "_dissipation_form", counting)
        rng = np.random.default_rng(37)
        plant = random_plant(rng, 2, spectral_scale=0.7)
        gain = Gain(rng.standard_normal((1, 2)))
        sched = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        loss = LossModel(0.3, 0.2)
        trace = sim.simulate(plant, gain, sched, loss, sim.InputSignal.white_noise(1),
                             300, seed=4, x0=[1.0, -0.5])
        assert len(set(zip(trace.slots.tolist(), trace.theta1.tolist(),
                           trace.theta2.tolist()))) == 12
        p = np.array([[2.0, 0.3], [0.3, 1.5]])
        res = dissipation_identity_check(plant, gain, mode_distribution(loss), p, 0.2, trace)
        assert res <= 1e-9
        assert sorted(built) == 3 * [(((0, 0), 1.0),)] + 3 * [(((1, 1), 1.0),)]
