import re

import numpy as np
import pytest

from ncspassive.errors import DimensionMismatch
from ncspassive.model import (
    MODES,
    Gain,
    LossModel,
    ModeDistribution,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
    loop_weights,
    mode_distribution,
    selector_matrices,
)


class TestSchedule:
    def test_mutual_exclusion_rejected(self):
        with pytest.raises(ValueError, match="one message"):
            Schedule(period=2, s1=(1, 1), s2=(0, 2))

    def test_pattern_lengths_must_match_period(self):
        with pytest.raises(ValueError):
            Schedule(period=3, s1=(1, 0), s2=(0, 0))

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            Schedule(period=1, s1=(-1,), s2=(0,))

    def test_full_packet_factory(self):
        sched = full_packet_schedule()
        assert sched.period == 1 and sched.full_packet


class TestSelectorMatrices:
    def test_slot_zero_picks_sensor_two(self):
        sched = Schedule(period=4, s1=(2, 1, 0, 2), s2=(0, 0, 0, 0))
        s1k, s2k = selector_matrices(sched, 0, p2=2, m2=1)
        np.testing.assert_allclose(s1k, [[0.0, 1.0]])
        np.testing.assert_allclose(s2k, [[0.0]])

    def test_idle_slot_gives_zero_selector(self):
        sched = Schedule(period=4, s1=(2, 1, 0, 2), s2=(0, 0, 0, 0))
        s1k, _ = selector_matrices(sched, 2, p2=2, m2=1)
        np.testing.assert_allclose(s1k, [[0.0, 0.0]])

    def test_single_sensor_constant_schedule(self):
        sched = Schedule(period=1, s1=(1,), s2=(0,))
        for k in (0, 5, 17):
            s1k, _ = selector_matrices(sched, k, p2=1, m2=1)
            np.testing.assert_allclose(s1k, [[1.0]])

    def test_periodicity(self):
        sched = Schedule(period=3, s1=(1, 0, 2), s2=(0, 1, 0))
        for k in range(12):
            a = selector_matrices(sched, k, p2=2, m2=1)
            b = selector_matrices(sched, k + sched.period, p2=2, m2=1)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_full_packet_identities(self):
        s1k, s2k = selector_matrices(full_packet_schedule(), 3, p2=4, m2=2)
        np.testing.assert_allclose(s1k, np.eye(4))
        np.testing.assert_allclose(s2k, np.eye(2))

    def test_out_of_range_sensor_index(self):
        sched = Schedule(period=1, s1=(3,), s2=(0,))
        with pytest.raises(DimensionMismatch):
            selector_matrices(sched, 0, p2=2, m2=1)


class TestModeDistribution:
    def test_lossless_concentrates_on_both_arrive(self):
        d = mode_distribution(LossModel(0.0, 0.0))
        assert d.prob(1, 1) == 1.0
        assert d.prob(0, 0) == d.prob(0, 1) == d.prob(1, 0) == 0.0

    def test_half_half(self):
        d = mode_distribution(LossModel(0.5, 0.5))
        for mode in MODES:
            assert d.prob(*mode) == pytest.approx(0.25)

    def test_direct_evaluation(self):
        d = mode_distribution(LossModel(0.2, 0.1))
        assert d.prob(0, 0) == pytest.approx(0.02)
        assert d.prob(1, 0) == pytest.approx(0.08)
        assert d.prob(0, 1) == pytest.approx(0.18)
        assert d.prob(1, 1) == pytest.approx(0.72)

    def test_sums_to_one_for_random_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = mode_distribution(LossModel(float(rng.random()), float(rng.random())))
            total = sum(p for _, p in d.items())
            assert abs(total - 1.0) <= 1e-12

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            LossModel(-0.1, 0.5)
        with pytest.raises(ValueError):
            LossModel(0.5, 1.5)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ModeDistribution(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: Schedule(period=0, s1=(), s2=()), "period must be >= 1, got 0"),
    (lambda: ModeDistribution(1.5, -0.5, 0.0, 0.0), "p00 must lie in [0, 1], got 1.5"),
    (lambda: selector_matrices(Schedule(period=1, s1=(0,), s2=(2,)), 0, p2=2, m2=1),
     "slot 0: actuator index 2 exceeds actuator count 1"),
], ids=["schedule-period-zero", "mode-probability-above-one", "actuator-index-above-m2"])
def test_out_of_range_argument_is_refused_naming_it(call, message):
    with pytest.raises((ValueError, DimensionMismatch), match=re.escape(message)):
        call()


class TestClosedLoop:
    def test_zero_gain_reduces_to_open_loop(self):
        plant = Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.3]])
        fam = closed_loop(plant, Gain.zero(1, 1), 0, full_packet_schedule())
        for mode in MODES:
            np.testing.assert_allclose(fam.a(*mode), plant.A)
            np.testing.assert_allclose(fam.c(*mode), plant.C1)

    def test_scalar_feedback_only_in_both_arrive_mode(self):
        plant = Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])
        fam = closed_loop(plant, Gain([[-0.7]]), 0, full_packet_schedule())
        assert fam.a(1, 1)[0, 0] == pytest.approx(0.5)
        for mode in ((0, 0), (0, 1), (1, 0)):
            assert fam.a(*mode)[0, 0] == pytest.approx(1.2)

    def test_lossless_mode_matches_classic_state_feedback(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        b2 = rng.standard_normal((3, 2))
        k = rng.standard_normal((2, 3))
        plant = Plant(
            A=a, B1=rng.standard_normal((3, 1)), B2=b2,
            C1=rng.standard_normal((1, 3)), D11=[[1.0]], D12=rng.standard_normal((1, 2)),
        )
        fam = closed_loop(plant, Gain(k), 0, full_packet_schedule())
        np.testing.assert_allclose(fam.a(1, 1), a + b2 @ k)

    def test_mode_independent_b_and_d(self):
        plant = Plant(A=[[0.5]], B1=[[2.0]], B2=[[1.0]], C1=[[1.0]], D11=[[3.0]], D12=[[1.0]])
        fam = closed_loop(plant, Gain([[1.0]]), 0, full_packet_schedule())
        np.testing.assert_allclose(fam.b, plant.B1)
        np.testing.assert_allclose(fam.d, plant.D11)

    def test_gain_shape_checked(self):
        plant = Plant(A=np.eye(2), B1=np.eye(2), B2=np.ones((2, 1)),
                      C1=np.eye(2), D11=np.eye(2), D12=np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            closed_loop(plant, Gain([[1.0, 2.0, 3.0]]), 0, full_packet_schedule())

    def test_one_hot_schedule_routes_single_gain_entry(self):
        # sensor 2 -> actuator slot never coincides, so closed loop stays open
        # on exclusive slots; a sensor-only slot still produces no actuation.
        plant = Plant(A=np.eye(2), B1=np.eye(2), B2=np.eye(2),
                      C1=np.eye(2), D11=np.eye(2), D12=np.zeros((2, 2)))
        sched = Schedule(period=2, s1=(1, 0), s2=(0, 2))
        k = np.array([[1.0, 2.0], [3.0, 4.0]])
        fam0 = closed_loop(plant, Gain(k), 0, sched)
        # slot 0: sensor 1 scheduled but no actuator slot: no feedback path
        np.testing.assert_allclose(fam0.a(1, 1), plant.A)
        fam1 = closed_loop(plant, Gain(k), 1, sched)
        np.testing.assert_allclose(fam1.a(1, 1), plant.A)


    def test_open_modes_share_one_array_of_the_per_mode_formula(self):
        rng = np.random.default_rng(9)
        plant = Plant(A=rng.standard_normal((3, 3)), B1=rng.standard_normal((3, 1)),
                      B2=rng.standard_normal((3, 2)), C1=rng.standard_normal((1, 3)),
                      D11=[[1.0]], D12=rng.standard_normal((1, 2)))
        gain = Gain(rng.standard_normal((2, 3)))
        fam = closed_loop(plant, gain, 0, full_packet_schedule())
        feed, feed_z = plant.B2 @ gain.K, plant.D12 @ gain.K
        for i, j in MODES:  # bit for bit what A + theta1 theta2 feed gives per mode
            assert fam.a(i, j).tobytes() == (plant.A + float(i * j) * feed).tobytes()
            assert fam.c(i, j).tobytes() == (plant.C1 + float(i * j) * feed_z).tobytes()
        assert fam.a(0, 0) is fam.a(0, 1) is fam.a(1, 0)
        assert fam.c(0, 0) is fam.c(0, 1) is fam.c(1, 0)
        dist = mode_distribution(LossModel(0.1, 0.3))
        (a0, c0, w0), (a1, c1, w1) = fam.loops(dist.items())
        assert a0 is fam.a(0, 0) and c0 is fam.c(0, 0) and a1 is fam.a(1, 1) and c1 is fam.c(1, 1)
        assert (w0, w1) == (dist.p00 + dist.p01 + dist.p10, dist.p11)


class TestLoopWeights:
    def test_open_modes_are_summed_in_modes_order(self):
        dist = ModeDistribution(0.1, 0.2, 0.3, 0.4)
        assert loop_weights(dist.items()) == ((0, 0.1 + 0.2 + 0.3), (1, 0.4))

    @pytest.mark.parametrize("loss, loops", [
        (LossModel(0.0, 0.0), ((1, 1.0),)),
        (LossModel(1.0, 0.0), ((0, 1.0),)),
        (LossModel(0.0, 1.0), ((0, 1.0),)),
    ])
    def test_a_loop_of_weight_zero_is_dropped(self, loss, loops):
        assert loop_weights(mode_distribution(loss).items()) == loops

    @pytest.mark.parametrize("mode", MODES)
    def test_a_realized_mode_is_its_own_loop(self, mode):
        assert loop_weights([(mode, 1.0)]) == ((mode[0] * mode[1], 1.0),)


def test_plant_dimension_checks():
    with pytest.raises(DimensionMismatch, match="^B1 must be 2x1, got 3x1$"):
        Plant(A=np.eye(2), B1=np.ones((3, 1)), B2=np.ones((2, 1)),
              C1=np.ones((1, 2)), D11=[[1.0]], D12=[[0.0]])
    with pytest.raises(DimensionMismatch, match="^A must be square, got 2x3$"):
        Plant(A=np.ones((2, 3)), B1=np.ones((2, 1)), B2=np.ones((2, 1)),
              C1=np.ones((1, 2)), D11=[[1.0]], D12=[[0.0]])


class TestFullPacketFeed:
    """Full-packet closed loops form B2 K and D12 K without the identity selectors, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m2", [1, 2, 3])
    def test_matches_selector_products_and_sign_of_zero(self, n, m2):
        rng = np.random.default_rng([n, m2])
        for _ in range(20):
            def draw(rows, cols):
                m = rng.standard_normal((rows, cols))
                m[rng.random((rows, cols)) < 0.3] = 0.0
                m[rng.random((rows, cols)) < 0.3] = -0.0
                return m
            plant = Plant(A=draw(n, n), B1=draw(n, 1), B2=draw(n, m2), C1=draw(2, n),
                          D11=draw(2, 1), D12=draw(2, m2))
            gain = Gain(draw(m2, n))
            fam = closed_loop(plant, gain, 0, full_packet_schedule())
            s1k, s2k = selector_matrices(full_packet_schedule(), 0, plant.p2, plant.m2)
            feed = plant.B2 @ (s2k @ s2k.T) @ gain.K @ (s1k.T @ s1k)
            feed_z = plant.D12 @ (s2k @ s2k.T) @ gain.K @ (s1k.T @ s1k)
            for i, j in MODES:
                fb = float(i * j)
                for got, want in ((fam.a(i, j), plant.A + fb * feed),
                                  (fam.c(i, j), plant.C1 + fb * feed_z)):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestModeDistributionValues:
    def test_items_and_prob_give_the_four_fields(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = mode_distribution(LossModel(float(rng.random()), float(rng.random())))
            fields = {(0, 0): d.p00, (0, 1): d.p01, (1, 0): d.p10, (1, 1): d.p11}
            assert d.items() == tuple((mode, fields[mode]) for mode in MODES)
            for mode in MODES:
                assert d.prob(*mode) == fields[mode]
            assert d.prob(True, np.int64(1)) == d.p11

    def test_unknown_mode_raises_key_error(self):
        d = mode_distribution(LossModel(0.2, 0.1))
        with pytest.raises(KeyError):
            d.prob(2, 0)
