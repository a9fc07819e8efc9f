import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from ncspassive import sim
from ncspassive.errors import DimensionMismatch, FitUnavailable
from ncspassive.model import (
    Gain,
    LossModel,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
    selector_matrices,
)
from ncspassive.sim import (
    _CLOSED_FORM_STEPS,
    TRIAL_BLOCK,
    InputSignal,
    SimTrace,
    _pcg64_raw,
    _raw_words,
    _seed_words,
    _Words,
    decay_fit,
    ensemble,
    simulate,
    trace_to_csv,
)

TWO_STATE = Plant(A=[[0.9, 0.2], [-0.1, 0.7]], B1=[[1.0], [0.3]], B2=[[1.0], [0.5]],
                  C1=[[0.5, -0.2]], D11=[[1.0]], D12=[[0.4]])
SCHEDULES = [full_packet_schedule(), Schedule(period=2, s1=(1, 0), s2=(0, 1))]


def pinned_seeds() -> list[int]:
    """Seeds of one to a dozen 32-bit words: zero, word edges, random 63-bit and shifted ones."""
    rng = np.random.default_rng(8)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 2**200 + 77]
    seeds += [int(s) for s in rng.integers(0, 2**63, 40)]
    seeds += [int(s) << int(shift) for s, shift in
              zip(rng.integers(1, 2**63, 20), rng.integers(0, 300, 20))]
    return seeds


@pytest.fixture
def mixing_plant() -> Plant:
    return Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])


def periodic_loop():
    """A 4-state 4-periodic loop: plant, gain, schedule and loss."""
    rng = np.random.default_rng(24)
    a = rng.standard_normal((4, 4))
    plant = Plant(A=0.9 * a / max(abs(np.linalg.eigvals(a))), B1=rng.standard_normal((4, 1)),
                  B2=rng.standard_normal((4, 1)), C1=rng.standard_normal((1, 4)), D11=[[1.0]],
                  D12=[[0.0]])
    return (plant, Gain(0.2 * rng.standard_normal((1, 4))),
            Schedule(period=4, s1=(1, 0, 3, 0), s2=(0, 1, 0, 1)), LossModel(0.3, 0.2))


def stats_bytes(stats) -> list[bytes]:
    return [np.asarray(getattr(stats, f.name)).tobytes() for f in dataclasses.fields(stats)]


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

    @pytest.mark.parametrize("run", [
        lambda *args: simulate(*args, seed=0, x0=[1.0, 2.0]),
        lambda *args: ensemble(*args, trials=3, base_seed=0, x0=[1.0, 2.0]),
    ], ids=["simulate", "ensemble"])
    def test_initial_state_length_checked(self, mixing_plant, run):
        with pytest.raises(DimensionMismatch, match="x0 length 2 != plant state dimension 1"):
            run(mixing_plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                InputSignal.zero(1), 10)

    @pytest.mark.parametrize("run", [
        lambda *args: simulate(*args, -1, seed=0),
        lambda *args: ensemble(*args, -1, trials=3, base_seed=0),
    ], ids=["simulate", "ensemble"])
    def test_negative_horizon_rejected(self, mixing_plant, run):
        with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
            run(mixing_plant, Gain.zero(1, 1), full_packet_schedule(), LossModel(0.0, 0.0),
                InputSignal.zero(1))

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

    def test_seed_words_equal_seed_sequence_state(self):
        seeds = pinned_seeds()
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        np.testing.assert_array_equal(_seed_words(seeds), expected)

    @pytest.mark.parametrize("seeds", [
        range(2**32 - 40, 2**32 + 40), range(2**64 - 40, 2**64 + 40),
        range(2**32 + 9, 2**32 - 30, -3), range(12345, 12346), range(2**64 - 1, 2**64),
    ], ids=["straddles-2**32", "straddles-2**64", "falling", "one-seed", "one-seed-2**64-1"])
    def test_seed_words_of_a_range_equal_seed_sequence_state(self, seeds):
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        words = _seed_words(seeds)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        np.testing.assert_array_equal(words, expected)

    def test_raw_word_uniforms_equal_generator_random(self, mixing_plant):
        """The raw words' arrival bits are default_rng's ``random() >= alpha``.

        Multi-word seeds included; the normals then continue the stream.
        """
        seeds = pinned_seeds()
        horizon, loss = 7, LossModel(0.3, 0.6)
        streams = [np.random.PCG64(_Words(w)) for w in _seed_words(seeds)]
        generators = [np.random.default_rng(s) for s in seeds]
        uniforms = np.array([g.random((horizon, 2)) for g in generators]).transpose(1, 2, 0)
        loop = sim._Loop(mixing_plant, Gain([[0.0]]), full_packet_schedule(), loss,
                         InputSignal.zero(1), horizon, None)
        ws = sim._Workspace()
        theta1, theta2 = loop.run(_raw_words(streams, 2 * horizon, ws), None, False, ws)[4:6]
        np.testing.assert_array_equal(theta1, uniforms[:, 0] >= loss.alpha1)
        np.testing.assert_array_equal(theta2, uniforms[:, 1] >= loss.alpha2)
        for stream, g in zip(streams, generators):
            np.testing.assert_array_equal(np.random.Generator(stream).standard_normal(3),
                                          g.standard_normal(3))

    @staticmethod
    def emitting(word: int) -> np.random.PCG64:
        """A PCG64 whose next raw word is ``word``: its next state is ``word`` itself.

        With increment 1 and a high half of zero, XSL-RR rotates by 0 and
        outputs the low half; the state before is one LCG step back.
        """
        bit_generator = np.random.PCG64()
        back = (word - 1) * pow(sim._PCG_MULT, -1, 1 << 128) % (1 << 128)
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": back, "inc": 1},
                               "has_uint32": 0, "uinteger": 0}
        return bit_generator

    def test_arrival_threshold_is_exact(self, mixing_plant):
        """Words whose top 53 bits are c - 1, c and c + 1 for c = ceil(alpha 2**53).

        Each word's arrival bit is checked against ``Generator.random() >= alpha``
        on a PCG64 made to emit it, with the word's low 11 bits all clear and
        all set.
        """
        alphas = [0.0, 1.0, 0.1, 0.2, 0.5, 5e-324, 2.0**-53, 1 - 2.0**-53]
        alphas += [float(np.nextafter(a, to)) for a in (0.0, 0.1, 0.2, 0.5, 1.0)
                   for to in (-1.0, 2.0) if 0.0 <= np.nextafter(a, to) <= 1.0]
        alphas += [k * 2.0**-53 for k in (1, 2, 3, 12345, 2**52, 2**52 + 1, 2**53 - 1)]
        for alpha in alphas:
            c = int(np.ceil(alpha * 2.0**53))
            words = [(k << 11) | low for k in (c - 1, c, c + 1) if 0 <= k < 2**53
                     for low in (0, 2**11 - 1)]
            assert all(self.emitting(word).random_raw() == word for word in words)
            expected = [np.random.Generator(self.emitting(word)).random() >= alpha
                        for word in words]
            raw = np.repeat(np.array(words, dtype=np.uint64), 2)[:, None]  # one trial
            loop = sim._Loop(mixing_plant, Gain([[0.0]]), full_packet_schedule(),
                             LossModel(alpha, alpha), InputSignal.zero(1), len(words), None)
            theta1, theta2 = loop.run(raw, None, False, sim._Workspace())[4:6]
            np.testing.assert_array_equal(theta1[:, 0], expected, err_msg=repr(alpha))
            np.testing.assert_array_equal(theta2[:, 0], expected, err_msg=repr(alpha))
            assert any(expected) == (alpha < 1.0) and all(expected) == (alpha == 0.0)

    def test_closed_form_words_equal_pcg64_random_raw(self):
        seeds = pinned_seeds()
        words = _seed_words(seeds)
        for count in range(2 * _CLOSED_FORM_STEPS + 3):
            expected = np.empty((count, len(seeds)), dtype=np.uint64)
            for m, (w, s) in enumerate(zip(words, seeds)):
                expected[:, m] = np.random.PCG64(_Words(w)).random_raw(count)
                np.testing.assert_array_equal(
                    np.random.default_rng(s).bit_generator.random_raw(count), expected[:, m])
            np.testing.assert_array_equal(_pcg64_raw(words, count), expected)

    @pytest.mark.parametrize("horizon", [_CLOSED_FORM_STEPS, _CLOSED_FORM_STEPS + 1],
                             ids=["closed-form", "above-crossover"])
    def test_closed_form_ensemble_draws_default_rng_streams(self, monkeypatch, horizon):
        """Both sides of the path rule: default_rng(base + t)'s draws, statistics bit for bit."""
        args = (TWO_STATE, Gain([[-0.4, 0.3]]), SCHEDULES[1], LossModel(0.1, 0.2),
                InputSignal("impulse", 1, magnitude=0.7, step=2), horizon)
        trials, base = TRIAL_BLOCK + 1, 2**32 - 30
        kwargs = dict(x0=[1.0, -0.5], eta=0.1, terminal_threshold=0.5)
        closed_form_calls = []

        def counted(words, count):
            closed_form_calls.append(len(words))
            return _pcg64_raw(words, count)

        monkeypatch.setattr(sim, "_pcg64_raw", counted)
        thetas = []
        stats = ensemble(*args, trials, base, **kwargs,
                         on_trace=lambda tr: thetas.append((tr.theta1, tr.theta2)))
        # the full block takes the closed form below the crossover; the one-trial tail never does
        assert closed_form_calls == ([TRIAL_BLOCK] if horizon <= _CLOSED_FORM_STEPS else [])
        assert len(thetas) == trials
        for t, (theta1, theta2) in enumerate(thetas):
            u = np.random.default_rng(base + t).random((horizon, 2))
            np.testing.assert_array_equal(theta1, u[:, 0] >= 0.1)
            np.testing.assert_array_equal(theta2, u[:, 1] >= 0.2)

        def hand_rolled(seeds, horizon, signal, ws):
            streams = [np.random.default_rng(s).bit_generator for s in seeds]
            return _raw_words(streams, 2 * horizon, ws), streams

        monkeypatch.setattr(sim, "_draws", hand_rolled)
        reference = ensemble(*args, trials, base, **kwargs)
        for field in dataclasses.fields(stats):
            a, b = getattr(stats, field.name), getattr(reference, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    @pytest.mark.parametrize("base", [-1, -3])
    def test_negative_base_seed_is_refused(self, mixing_plant, base):
        with pytest.raises(ValueError):
            ensemble(mixing_plant, Gain([[-0.7]]), full_packet_schedule(), LossModel(0.1, 0.2),
                     InputSignal.white_noise(1), 5, 10, base)

    @pytest.mark.parametrize("trials, base", [(TRIAL_BLOCK + 7, 40), (60, 2**32 - 30)],
                             ids=["block-boundary", "two-word-seeds"])
    def test_ensemble_draws_default_rng_streams(self, mixing_plant, trials, base):
        """Trial t's draws and statistics, hand-rolled from default_rng(base + t)."""
        loss, k, horizon, eta = LossModel(0.1, 0.2), -0.7, 5, 0.1
        stats = ensemble(mixing_plant, Gain([[k]]), full_packet_schedule(), loss,
                         InputSignal.white_noise(1), horizon, trials, base, x0=[1.0], eta=eta)
        a, b1, c1 = 1.2, 1.0, 0.5  # mixing_plant, whose B2 and D11 are 1 and D12 is 0
        counts, sq, d = np.zeros((2, 2), dtype=np.int64), np.zeros(horizon + 1), []
        for t in range(trials):
            rng = np.random.default_rng(base + t)
            u, w = rng.random((horizon, 2)), rng.standard_normal(horizon)
            x, wz, ww = 1.0, 0.0, 0.0
            sq[0] += x * x
            for step in range(horizon):
                on1, on2 = bool(u[step, 0] >= loss.alpha1), bool(u[step, 1] >= loss.alpha2)
                counts[int(on1), int(on2)] += 1
                wz += w[step] * (c1 * x + w[step])
                ww += w[step] * w[step]
                x = (a + (k if on1 and on2 else 0.0)) * x + b1 * w[step]
                sq[step + 1] += x * x
            d.append(wz - eta * ww)
        np.testing.assert_array_equal(stats.mode_counts, counts)
        np.testing.assert_allclose(stats.mean_sq_norm, sq / trials, rtol=1e-12, atol=0)
        assert stats.dissipation_mean == pytest.approx(float(np.mean(d)), rel=1e-12)
        assert stats.dissipation_se == pytest.approx(
            float(np.std(d, ddof=1) / np.sqrt(trials)), rel=1e-12)

    @pytest.mark.parametrize("signal, schedule, trials, base", [
        (InputSignal.zero(1), SCHEDULES[0], TRIAL_BLOCK + 7, 40),
        (InputSignal("sinusoid", 1, amplitude=0.8, period=3), SCHEDULES[1], 60, 2**32 - 30),
    ], ids=["zero-block-boundary", "sinusoid-periodic-two-word-seeds"])
    def test_deterministic_input_ensemble_draws_default_rng_streams(self, signal, schedule,
                                                                    trials, base):
        """Trial t's draws and statistics, hand-rolled from default_rng(base + t), no normals."""
        loss, horizon, eta, x0 = LossModel(0.1, 0.2), 5, 0.1, np.array([1.0, -0.5])
        gain = Gain([[-0.4, 0.3]])
        stats = ensemble(TWO_STATE, gain, schedule, loss, signal, horizon, trials, base,
                         x0=x0, eta=eta, terminal_threshold=0.5)
        w = (np.zeros(horizon) if signal.kind == "zero" else
             signal.amplitude * np.sin(2.0 * np.pi * np.arange(horizon) / signal.period))
        p = TWO_STATE
        counts, sq, d, hits = np.zeros((2, 2), dtype=np.int64), np.zeros(horizon + 1), [], 0
        for t in range(trials):
            u = np.random.default_rng(base + t).random((horizon, 2))
            x, wz, ww = x0, 0.0, 0.0
            sq[0] += x @ x
            for step in range(horizon):
                on1, on2 = int(u[step, 0] >= loss.alpha1), int(u[step, 1] >= loss.alpha2)
                counts[on1, on2] += 1
                s1, s2 = selector_matrices(schedule, step, p.p2, p.m2)
                applied = on2 * (s2 @ s2.T @ gain.K @ (on1 * (s1.T @ s1 @ x)))
                wk = np.array([w[step]])
                z = p.C1 @ x + p.D11 @ wk + p.D12 @ applied
                wz += float(wk @ z)
                ww += float(wk @ wk)
                x = p.A @ x + p.B1 @ wk + p.B2 @ applied
                sq[step + 1] += x @ x
            hits += np.linalg.norm(x) < 0.5
            d.append(wz - eta * ww)
        np.testing.assert_array_equal(stats.mode_counts, counts)
        np.testing.assert_allclose(stats.mean_sq_norm, sq / trials, rtol=1e-12, atol=0)
        assert stats.terminal_fraction == hits / trials
        assert stats.dissipation_mean == pytest.approx(float(np.mean(d)), rel=1e-12, abs=1e-15)
        assert stats.dissipation_se == pytest.approx(
            float(np.std(d, ddof=1) / np.sqrt(trials)), rel=1e-12, abs=1e-15)

    def test_slot_matrices_are_built_once_per_call(self, monkeypatch):
        """Three blocks of a 3-periodic loop build each slot's closed loop once in all."""
        built = []

        def counted(plant, gain, k, schedule):
            built.append(k)
            return closed_loop(plant, gain, k, schedule)

        monkeypatch.setattr(sim, "closed_loop", counted)
        schedule = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        ensemble(TWO_STATE, Gain([[-0.4, 0.3]]), schedule, LossModel(0.1, 0.2),
                 InputSignal.zero(1), 5, 2 * TRIAL_BLOCK + 1, 0, x0=[1.0, -0.5])
        assert built == [0, 1, 2]

    @pytest.mark.parametrize("signal", [InputSignal.white_noise(1, 0.5), InputSignal.zero(1)],
                             ids=["white-noise", "zero-closed-form"])
    def test_traced_ensemble_carries_simulate_v(self, signal):
        """A traced block carries simulate's v, to rounding.

        A block multiplies all its trials' states at once, so its products may
        round differently from one trial's in the last bit.
        """
        gain, loss, horizon, base = Gain([[-0.4, 0.3]]), LossModel(0.2, 0.3), 9, 70
        x0, traces = [1.0, -0.5], []
        ensemble(TWO_STATE, gain, SCHEDULES[0], loss, signal, horizon, TRIAL_BLOCK + 3, base,
                 x0=x0, on_trace=traces.append)
        for t in (0, 5, TRIAL_BLOCK + 2):
            single = simulate(TWO_STATE, gain, SCHEDULES[0], loss, signal, horizon, base + t, x0)
            assert traces[t].v.shape == single.v.shape == (horizon, 1)
            np.testing.assert_allclose(traces[t].v, single.v, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(traces[t].theta1, single.theta1)
            assert traces[t].theta1.dtype == single.theta1.dtype == np.int64

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative-B1-C1-D11"])
    @pytest.mark.parametrize("loss", [LossModel(0.2, 0.3), LossModel(0.0, 1.0), LossModel(1.0, 0.0)],
                             ids=["alpha-0.2-0.3", "alpha-0-1", "alpha-1-0"])
    @pytest.mark.parametrize("signal", [InputSignal.white_noise(1, 0.5), InputSignal.zero(1)],
                             ids=["white-noise", "zero"])
    @pytest.mark.parametrize("x0", [None, [0.7]], ids=["x0-zero", "x0-0.7"])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["full-packet", "2-periodic"])
    def test_scalar_loop_is_the_scalar_recurrence_bit_for_bit(self, sign, loss, signal, x0,
                                                                schedule):
        """For n = m1 = 1 every value is one IEEE multiply or add in a fixed order.

        So traces equal the scalar recurrence exactly, sign of zero included,
        with each matrix product taken as matmul forms it, 0 + x m; and an
        ensemble's trace t has the rows and the sums w'z and w'w of
        ``simulate(base + t)`` byte for byte. The zero input's 65-trial block
        takes the closed-form words.
        """
        plant = Plant(A=[[0.9]], B1=[[sign]], B2=[[0.5]], C1=[[sign * 0.5]], D11=[[sign]],
                      D12=[[0.4]])
        gain, horizon, trials, base = Gain([[-0.6]]), 12, 65, 2**32 - 20
        fams = [closed_loop(plant, gain, s, schedule) for s in range(schedule.period)]
        a_on = [float(f.a(1, 1)[0, 0]) for f in fams]
        c_on = [float(f.c(1, 1)[0, 0]) for f in fams]
        k_on = [float((gain.K @ s1.T @ s1)[0, 0]) for s1, _ in (
            selector_matrices(schedule, s, 1, 1) for s in range(schedule.period))]
        a, b1, c1, d11 = 0.9, sign, sign * 0.5, sign
        traces = []
        ensemble(plant, gain, schedule, loss, signal, horizon, trials, base, x0=x0,
                 on_trace=traces.append)
        for t, trace in enumerate(traces):
            rng = np.random.default_rng(base + t)
            u = rng.random((horizon, 2))
            w = (signal.sigma * rng.standard_normal(horizon)).tolist() \
                if signal.kind == "white-noise" else [0.0] * horizon
            x = 0.0 if x0 is None else x0[0]
            xs, zs, vs = [x], [], []
            for k in range(horizon):
                s = k % schedule.period
                on1, on2 = bool(u[k, 0] >= loss.alpha1), bool(u[k, 1] >= loss.alpha2)
                on = on1 and on2
                zs.append((0.0 + x * (c_on[s] if on else c1)) + (0.0 + w[k] * d11))
                vs.append(float(on1) * (0.0 + x * k_on[s]))
                x = (0.0 + x * (a_on[s] if on else a)) + (0.0 + w[k] * b1)
                xs.append(x)
            for name, ref in (("x", xs), ("w", w), ("z", zs), ("v", vs)):
                assert getattr(trace, name).tobytes() == np.array(ref).tobytes(), (t, name)
            single = simulate(plant, gain, schedule, loss, signal, horizon, base + t, x0)
            for name in ("x", "w", "z", "v", "theta1", "theta2", "slots", "sum_wz", "sum_ww"):
                assert (np.asarray(getattr(trace, name)).tobytes()
                        == np.asarray(getattr(single, name)).tobytes()), (t, name)

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


class TestWorkspace:
    """An untraced call's shared workspace against a traced call's workspace per block."""

    SCALAR = (Plant(A=[[0.9]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]]),
              Gain([[-0.6]]), full_packet_schedule(), LossModel(0.1, 0.2))
    WIDE = Plant(A=[[0.9]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5], [1.0]], D11=[[1.0], [0.5]],
                 D12=[[0.0], [0.0]])  # two outputs, one input

    def scalar(self, horizon, trials, base=3):
        return (*self.SCALAR, InputSignal.white_noise(1, 0.5), horizon, trials, base)

    def test_untraced_equals_traced_bit_for_bit(self):
        """Every array a workspace hands out is written in full before it is read.

        Within a block the raw words' buffer, whose bits read as floats
        include nan and inf, later holds the normals, w'w, the coefficients
        and z; a call's later blocks take the front of the first block's
        buffers. The two-output plant grows a buffer part way through a
        block, and the unstable loop leaves inf and nan for its later blocks.
        The zero and impulse inputs' closed-form blocks share a call's
        workspace, the zero input's with a bit-generator tail.
        """
        unstable = Plant(A=[[3.0]], B1=[[1.0]], B2=[[0.0]], C1=[[1.0]], D11=[[1.0]], D12=[[0.0]])
        cases = [(self.scalar(50, 2 * TRIAL_BLOCK + 5), {"x0": [0.3], "eta": 0.1}),
                 ((*periodic_loop(), InputSignal.white_noise(1), 600, TRIAL_BLOCK + 6, 5),
                  {"x0": [1.0, -1.0, 0.5, 0.0]}),
                 (self.scalar(7, 70), {}),
                 ((TWO_STATE, Gain([[-0.4, 0.3]]), full_packet_schedule(), LossModel(0.1, 0.2),
                   InputSignal.white_noise(1), 30, 90, 7), {}),
                 ((self.WIDE, Gain([[-0.6]]), full_packet_schedule(), LossModel(0.1, 0.2),
                   InputSignal.white_noise(1), 30, 90, 7), {}),
                 ((unstable, Gain([[0.0]]), full_packet_schedule(), LossModel(0.5, 0.5),
                   InputSignal.white_noise(1), 2000, 1100, 0), {}),
                 ((*self.SCALAR, InputSignal.zero(1), 6, TRIAL_BLOCK + 10, 3), {"x0": [1.0]}),
                 ((*periodic_loop(), InputSignal("impulse", 1, magnitude=0.7, step=2),
                   _CLOSED_FORM_STEPS, 2 * TRIAL_BLOCK + 70, 9), {"x0": [1.0, -1.0, 0.5, 0.0]})]
        with np.errstate(over="ignore", invalid="ignore"):
            for args, kwargs in cases:
                fresh = stats_bytes(ensemble(*args, **kwargs, on_trace=lambda t: None))
                assert stats_bytes(ensemble(*args, **kwargs)) == fresh, args[5:]

    def test_kept_traces_are_their_own(self):
        """A kept SimTrace is unchanged by its call's later blocks and by later calls."""
        def contents(trace):
            return [np.asarray(value).tobytes() for value in vars(trace).values()
                    if isinstance(value, (np.ndarray, float))]

        args = self.scalar(50, TRIAL_BLOCK + 5)
        traces, seen = [], []

        def keep(trace):
            traces.append(trace)
            seen.append(contents(trace))

        ensemble(*args, on_trace=keep)
        ensemble(*args)
        assert [contents(trace) for trace in traces] == seen

    def test_trace_sums_add_the_trial_rows(self):
        """Each trace's sums are its own rows' sums, nan for w'z without a square channel."""
        square = TWO_STATE
        for plant, gain in ((square, Gain([[-0.4, 0.3]])), (self.WIDE, Gain([[-0.6]]))):
            traces = []
            ensemble(plant, gain, full_packet_schedule(), LossModel(0.1, 0.2),
                     InputSignal.white_noise(1), 30, 40, 7, on_trace=traces.append)
            for trace in traces:
                assert trace.sum_ww == float(np.sum(trace.w * trace.w))
                if plant is square:
                    assert trace.sum_wz == float(np.sum(trace.w * trace.z))
                else:
                    assert np.isnan(trace.sum_wz)


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

    @staticmethod
    def csv_writer_reference(trace, path):
        """The export as csv.writer writes it: each float by repr, each int by str."""
        columns = [trace.x[: trace.horizon], trace.w, trace.z, trace.v]
        header = ["k", "slot", "theta1", "theta2"] + [
            f"{name}{i}" for name, col in zip("xwzv", columns) for i in range(col.shape[1])]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(trace.horizon):
                writer.writerow([k, int(trace.slots[k]), int(trace.theta1[k]), int(trace.theta2[k])]
                                + [repr(float(v)) for col in columns for v in col[k]])

    @pytest.mark.parametrize("horizon", [0, 1, 6])
    def test_bytes_equal_a_csv_writer_reference(self, horizon, tmp_path):
        rng = np.random.default_rng(horizon)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-310, 1.0 / 3.0, -2.5e300]

        def block(rows, cols):
            values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
            values.ravel()[: len(special)] = special[: values.size]
            return values

        schedule = Schedule(period=2, s1=(1, 0), s2=(0, 1))
        theta = rng.integers(0, 2, (2, horizon))
        trace = SimTrace(horizon, block(horizon + 1, 3), block(horizon, 2), block(horizon, 2),
                         block(horizon, 1), theta[0], theta[1], np.arange(horizon) % 2, 5,
                         schedule, 0.0, 0.0)
        trace_to_csv(trace, tmp_path / "export.csv")
        self.csv_writer_reference(trace, tmp_path / "reference.csv")
        assert (tmp_path / "export.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestInputSignal:
    def test_sinusoid_is_deterministic_and_periodic(self):
        sig = InputSignal("sinusoid", 2, amplitude=1.5, period=8)
        block = sig.block(11, 1)[:, 0]
        np.testing.assert_allclose(block[0], [0.0, 0.0])
        np.testing.assert_allclose(block[2], [1.5, 1.5])
        np.testing.assert_allclose(block[10], block[2])

    def test_impulse_fires_once(self):
        sig = InputSignal("impulse", 1, magnitude=3.0, step=4)
        block = sig.block(6, 1)[:, 0]
        assert block[4][0] == 3.0
        assert block[5][0] == 0.0

    def test_negative_impulse_step_rejected(self):
        with pytest.raises(ValueError, match="impulse step must be >= 0"):
            InputSignal("impulse", 1, magnitude=1.0, step=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InputSignal("triangle", 1)

    def test_white_noise_has_no_shared_block(self):
        with pytest.raises(ValueError):
            InputSignal.white_noise(1).block(4, 2)
