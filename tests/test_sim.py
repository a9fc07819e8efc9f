import tracemalloc

import numpy as np
import pytest

from ncspassive.errors import DimensionMismatch, FitUnavailable
from ncspassive.model import (
    Gain,
    LossModel,
    Plant,
    Schedule,
    full_packet_schedule,
    mode_distribution,
    selector_matrices,
)
from ncspassive.sim import TRIAL_BLOCK, InputSignal, decay_fit, ensemble, simulate, trace_to_csv

TWO_STATE = Plant(A=[[0.9, 0.2], [-0.1, 0.7]], B1=[[1.0], [0.3]], B2=[[1.0], [0.5]],
                  C1=[[0.5, -0.2]], D11=[[1.0]], D12=[[0.4]])
SCHEDULES = [full_packet_schedule(), Schedule(period=2, s1=(1, 0), s2=(0, 1))]


@pytest.fixture
def mixing_plant() -> Plant:
    return Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])


class TestSimulate:
    def test_zero_input_zero_state_stays_zero(self, mixing_plant):
        trace = simulate(mixing_plant, Gain.zero(1, 1), full_packet_schedule(),
                         LossModel(0.0, 0.0), InputSignal.zero(1), 100, seed=0)
        assert not trace.x.any()
        assert not trace.z.any()
        assert trace.sum_wz == 0.0

    def test_lossless_matches_deterministic_recursion(self, mixing_plant):
        gain = Gain([[-0.7]])
        trace = simulate(mixing_plant, gain, full_packet_schedule(), LossModel(0.0, 0.0),
                         InputSignal.white_noise(1), 200, seed=5, x0=[0.3])
        x = np.array([0.3])
        for k in range(trace.horizon):
            w = trace.w[k]
            x = (mixing_plant.A + mixing_plant.B2 @ gain.K) @ x + mixing_plant.B1 @ w
            np.testing.assert_allclose(trace.x[k + 1], x, atol=1e-12)

    def test_drop_frequency_concentrates(self, mixing_plant):
        trace = simulate(mixing_plant, Gain([[-0.7]]), full_packet_schedule(),
                         LossModel(0.0, 0.2), InputSignal.white_noise(1), 10_000, seed=11)
        drop_rate = float(np.mean(trace.theta2 == 0))
        sigma = np.sqrt(0.2 * 0.8 / 10_000)
        assert abs(drop_rate - 0.2) <= 3 * sigma

    def test_bit_identical_for_equal_seeds(self, mixing_plant):
        kwargs = dict(gain=Gain([[-0.5]]), schedule=full_packet_schedule(),
                      loss=LossModel(0.1, 0.2), signal=InputSignal.white_noise(1),
                      horizon=128, seed=77)
        t1 = simulate(mixing_plant, **kwargs)
        t2 = simulate(mixing_plant, **kwargs)
        assert t1.x.tobytes() == t2.x.tobytes()
        assert t1.w.tobytes() == t2.w.tobytes()
        assert t1.theta1.tobytes() == t2.theta1.tobytes()

    def test_ledger_sums_reproducible_from_records(self, mixing_plant):
        trace = simulate(mixing_plant, Gain([[-0.5]]), full_packet_schedule(),
                         LossModel(0.1, 0.2), InputSignal.white_noise(1), 500, seed=3)
        assert trace.sum_wz == pytest.approx(float(np.sum(trace.w * trace.z)), abs=1e-10)
        assert trace.sum_ww == pytest.approx(float(np.sum(trace.w * trace.w)), abs=1e-10)

    def test_signal_dimension_checked(self, mixing_plant):
        with pytest.raises(DimensionMismatch):
            simulate(mixing_plant, Gain.zero(1, 1), full_packet_schedule(),
                     LossModel(0.0, 0.0), InputSignal.zero(2), 10, seed=0)

    def test_periodic_schedule_slots_recorded(self, mixing_plant):
        sched = Schedule(period=2, s1=(1, 0), s2=(0, 1))
        trace = simulate(mixing_plant, Gain([[0.2]]), sched, LossModel(0.0, 0.0),
                         InputSignal.zero(1), 6, seed=0, x0=[1.0])
        np.testing.assert_array_equal(trace.slots, [0, 1, 0, 1, 0, 1])


class TestEnsemble:
    def test_certified_stable_decay(self, mixing_plant):
        stats = ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(),
                         LossModel(0.0, 0.2), InputSignal.zero(1), 200, trials=500,
                         base_seed=100, x0=[1.0])
        assert stats.mean_sq_norm[-1] < 1e-4 * stats.mean_sq_norm[0]
        assert stats.terminal_fraction == 1.0

    def test_unstable_growth(self):
        plant = Plant(A=[[2.0]], B1=[[1.0]], B2=[[0.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        stats = ensemble(plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                         InputSignal.zero(1), 30, trials=20, base_seed=0, x0=[1.0])
        assert stats.mean_sq_norm[-1] > 1e6
        assert stats.terminal_fraction == 0.0

    def test_overflow_is_quiet_and_leaves_the_error_state_alone(self):
        plant = Plant(A=[[1e30]], B1=[[1.0]], B2=[[0.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        before = np.geterr()
        with np.errstate(all="raise"):
            stats = ensemble(plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                             InputSignal.white_noise(1), 30, trials=5, base_seed=0, x0=[1.0])
            assert np.geterr()["over"] == "raise"
        assert not np.isfinite(stats.dissipation_mean)
        assert np.geterr() == before

    def test_certified_passivity_shows_in_the_ledger(self):
        plant = Plant(A=[[0.5]], B1=[[1.0]], B2=[[0.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        stats = ensemble(plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                         InputSignal.white_noise(1), 100, trials=300, base_seed=10, eta=0.4)
        assert stats.dissipation_mean > 3.0 * stats.dissipation_se
        assert stats.dissipation_se > 0.0

    def test_mode_frequencies_match_distribution(self, mixing_plant):
        loss = LossModel(0.3, 0.2)
        dist = mode_distribution(loss)
        stats = ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(), loss,
                         InputSignal.white_noise(1), 200, trials=600, base_seed=5)
        draws = stats.mode_counts.sum()
        assert draws == 200 * 600
        for (i, j), p in dist.items():
            freq = stats.mode_counts[i, j] / draws
            sigma = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 4 * sigma, f"mode ({i},{j})"

    def test_deterministic_given_base_seed(self, mixing_plant):
        args = (mixing_plant, Gain([[-0.7]]), full_packet_schedule(), LossModel(0.1, 0.1),
                InputSignal.white_noise(1), 50)
        s1 = ensemble(*args, trials=40, base_seed=9)
        s2 = ensemble(*args, trials=40, base_seed=9)
        assert s1.mean_sq_norm.tobytes() == s2.mean_sq_norm.tobytes()
        assert s1.dissipation_mean == s2.dissipation_mean


class TestKernel:
    """The batched kernel against a per-step replay and against one trial at a time."""

    @staticmethod
    def replay(plant, gain, schedule, trace, x0):
        """The lossy loop's per-step recursion, fed the trace's own draws."""
        x = np.asarray(x0, dtype=float)
        xs, zs, vs = [x], [], []
        for k in range(trace.horizon):
            s1, s2 = selector_matrices(schedule, k, plant.p2, plant.m2)
            v = gain.K @ (trace.theta1[k] * (s1.T @ s1 @ x))
            applied = trace.theta2[k] * (s2 @ s2.T @ v)
            zs.append(plant.C1 @ x + plant.D11 @ trace.w[k] + plant.D12 @ applied)
            x = plant.A @ x + plant.B1 @ trace.w[k] + plant.B2 @ applied
            xs.append(x)
            vs.append(v)
        return np.array(xs), np.array(zs), np.array(vs)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_trace_matches_the_per_step_recursion(self, schedule):
        gain = Gain([[-0.4, 0.3]])
        trace = simulate(TWO_STATE, gain, schedule, LossModel(0.2, 0.3),
                         InputSignal.white_noise(1, 0.5), 40, seed=4, x0=[1.0, -0.5])
        xs, zs, vs = self.replay(TWO_STATE, gain, schedule, trace, [1.0, -0.5])
        np.testing.assert_allclose(trace.x, xs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.z, zs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.v, vs, rtol=0, atol=1e-12)
        assert trace.sum_wz == pytest.approx(float(np.sum(trace.w * zs)), rel=1e-12)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_ensemble_equals_one_simulate_per_seed(self, schedule):
        gain, loss, signal = Gain([[-0.4, 0.3]]), LossModel(0.2, 0.3), InputSignal.white_noise(1, 0.5)
        horizon, trials, base, eta, x0 = 30, 40, 300, 0.2, [1.0, -0.5]
        stats = ensemble(TWO_STATE, gain, schedule, loss, signal, horizon, trials, base,
                         x0=x0, eta=eta, terminal_threshold=0.5)
        traces = [simulate(TWO_STATE, gain, schedule, loss, signal, horizon, base + t, x0)
                  for t in range(trials)]
        d = np.array([tr.sum_wz - eta * tr.sum_ww for tr in traces])
        counts = np.zeros((2, 2), dtype=np.int64)
        for tr in traces:
            np.add.at(counts, (tr.theta1, tr.theta2), 1)
        np.testing.assert_array_equal(stats.mode_counts, counts)
        np.testing.assert_allclose(
            stats.mean_sq_norm, np.mean([np.sum(tr.x * tr.x, axis=1) for tr in traces], axis=0),
            rtol=1e-12, atol=0)
        assert stats.dissipation_mean == pytest.approx(float(np.mean(d)), rel=1e-12)
        assert stats.dissipation_se == pytest.approx(float(np.std(d, ddof=1) / np.sqrt(trials)),
                                                     rel=1e-12)
        assert stats.terminal_fraction == np.mean(
            [np.linalg.norm(tr.x[-1]) < 0.5 for tr in traces])

    def test_blocks_merge_like_two_calls(self, mixing_plant):
        args = (mixing_plant, Gain([[-0.7]]), full_packet_schedule(), LossModel(0.1, 0.2),
                InputSignal.white_noise(1), 8)
        n1, n2, base = TRIAL_BLOCK, 100, 50
        whole = ensemble(*args, n1 + n2, base, x0=[1.0], eta=0.1, terminal_threshold=0.5)
        a = ensemble(*args, n1, base, x0=[1.0], eta=0.1, terminal_threshold=0.5)
        b = ensemble(*args, n2, base + n1, x0=[1.0], eta=0.1, terminal_threshold=0.5)
        total = n1 + n2
        mean = (n1 * a.dissipation_mean + n2 * b.dissipation_mean) / total
        sq_dev = sum((k - 1) * k * part.dissipation_se ** 2 + k * (part.dissipation_mean - mean) ** 2
                     for k, part in ((n1, a), (n2, b)))
        np.testing.assert_array_equal(whole.mode_counts, a.mode_counts + b.mode_counts)
        np.testing.assert_allclose(
            whole.mean_sq_norm, (n1 * a.mean_sq_norm + n2 * b.mean_sq_norm) / total, rtol=1e-12)
        assert whole.terminal_fraction == pytest.approx(
            (n1 * a.terminal_fraction + n2 * b.terminal_fraction) / total, rel=1e-12)
        assert whole.dissipation_mean == pytest.approx(mean, rel=1e-12)
        assert whole.dissipation_se == pytest.approx(np.sqrt(sq_dev / (total - 1) / total), rel=1e-12)

    def test_stream_layout_is_pinned(self):
        plant = Plant(A=[[0.5]], B1=[[1.0, 0.5]], B2=[[1.0]], C1=[[0.5], [0.1]],
                      D11=np.eye(2), D12=[[0.0], [0.0]])
        horizon, seed, sigma = 50, 123, 0.7
        trace = simulate(plant, Gain([[-0.3]]), full_packet_schedule(), LossModel(0.3, 0.6),
                         InputSignal.white_noise(2, sigma), horizon, seed)
        rng = np.random.default_rng(seed)
        u = rng.random((horizon, 2))
        np.testing.assert_array_equal(trace.theta1, u[:, 0] >= 0.3)
        np.testing.assert_array_equal(trace.theta2, u[:, 1] >= 0.6)
        np.testing.assert_array_equal(trace.w, sigma * rng.standard_normal((horizon, 2)))

    def test_memory_does_not_grow_with_trials(self, mixing_plant):
        def peak(trials):
            tracemalloc.start()
            try:
                ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(), LossModel(0.1, 0.2),
                         InputSignal.white_noise(1), 50, trials, base_seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * TRIAL_BLOCK) <= 1.5 * peak(TRIAL_BLOCK)


class TestDecayFit:
    def test_exact_geometric(self):
        plant = Plant(A=[[0.5]], B1=[[1.0]], B2=[[0.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        stats = ensemble(plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                         InputSignal.zero(1), 60, trials=3, base_seed=0, x0=[1.0])
        beta, alpha = decay_fit(stats)
        assert alpha == pytest.approx(0.25, abs=1e-6)
        assert beta == pytest.approx(1.0, rel=1e-6)

    def test_stochastic_mixture_tracks_second_moment_rate(self, mixing_plant):
        # rho = 0.2 * 1.44 + 0.8 * 0.25 = 0.488; short horizon keeps the
        # sample mean faithful to the second moment before the multiplicative
        # median effect takes over.
        stats = ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(),
                         LossModel(0.0, 0.2), InputSignal.zero(1), 16, trials=1000,
                         base_seed=1, x0=[1.0])
        _, alpha = decay_fit(stats)
        assert alpha == pytest.approx(0.488, abs=0.05)

    def test_driven_system_plateaus_or_refuses(self, mixing_plant):
        stats = ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(),
                         LossModel(0.0, 0.2), InputSignal.white_noise(1), 100, trials=200,
                         base_seed=2, x0=[1.0])
        try:
            _, alpha = decay_fit(stats)
        except FitUnavailable:
            return
        assert 0.9 <= alpha <= 1.1

    def test_all_zero_trajectory_refused(self, mixing_plant):
        stats = ensemble(mixing_plant, Gain.zero(1, 1), full_packet_schedule(),
                         LossModel(0.0, 0.0), InputSignal.zero(1), 40, trials=2, base_seed=0)
        with pytest.raises(FitUnavailable):
            decay_fit(stats)


class TestCsvExport:
    def test_header_and_shape(self, mixing_plant, tmp_path):
        trace = simulate(mixing_plant, Gain([[-0.5]]), full_packet_schedule(),
                         LossModel(0.1, 0.2), InputSignal.white_noise(1), 20, seed=21)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,slot,theta1,theta2,x0,w0,z0,v0"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == trace.x[0, 0]

    def test_round_trip_precision(self, mixing_plant, tmp_path):
        trace = simulate(mixing_plant, Gain([[-0.5]]), full_packet_schedule(),
                         LossModel(0.1, 0.2), InputSignal.white_noise(1), 50, seed=33)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        ws = np.array([float(r[5]) for r in rows])
        np.testing.assert_array_equal(ws, trace.w[:, 0])

    def test_identical_bytes_for_identical_seeds(self, mixing_plant, tmp_path):
        for name in ("a.csv", "b.csv"):
            trace = simulate(mixing_plant, Gain([[-0.5]]), full_packet_schedule(),
                             LossModel(0.1, 0.2), InputSignal.white_noise(1), 30, seed=8)
            trace_to_csv(trace, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestInputSignal:
    def test_sinusoid_is_deterministic_and_periodic(self):
        sig = InputSignal.sinusoid(2, amplitude=1.5, period=8)
        block = sig.block(11, [np.random.default_rng(0)])[:, 0]
        np.testing.assert_allclose(block[0], [0.0, 0.0])
        np.testing.assert_allclose(block[2], [1.5, 1.5])
        np.testing.assert_allclose(block[10], block[2])

    def test_impulse_fires_once(self):
        sig = InputSignal.impulse(1, magnitude=3.0, step=4)
        block = sig.block(6, [np.random.default_rng(0)])[:, 0]
        assert block[4][0] == 3.0
        assert block[5][0] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InputSignal("triangle", 1)
