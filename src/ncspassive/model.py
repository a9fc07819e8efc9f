"""Plant, schedule, loss process, and the four-mode closed-loop jump system.

The plant is a discrete-time generalized plant whose full state is the
measurement. Sensor-to-controller and controller-to-actuator messages
share one slotted channel: an N-periodic schedule assigns each slot to
one sensor, one actuator, or nobody, and each transmitted message is
dropped independently with a Bernoulli probability per link. The pair
of arrival bits (theta1, theta2) is the jump mode; closing a static
state-feedback gain over the lossy links yields a four-mode jump-linear
family with i.i.d. mode process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import as_matrix

__all__ = [
    "MODES",
    "Plant",
    "Schedule",
    "full_packet_schedule",
    "LossModel",
    "ModeDistribution",
    "Gain",
    "ClosedLoopFamily",
    "selector_matrices",
    "mode_distribution",
    "closed_loop",
]

# Mode ordering used everywhere a mode-indexed family or LMI row appears.
MODES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def _frozen_array(value, name: str) -> np.ndarray:
    m = as_matrix(value, name)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Plant:
    """Generalized plant x+ = A x + B1 w + B2 u, z = C1 x + D11 w + D12 u, y = x.

    Dimensions are inferred: n states, m1 exogenous inputs, m2 actuators,
    p1 controlled outputs. The measurement is the full state, so the
    sensor count equals n.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    D11: np.ndarray
    D12: np.ndarray

    def __post_init__(self) -> None:
        for name in ("A", "B1", "B2", "C1", "D11", "D12"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        checks = {
            "B1": (n, self.B1.shape[1]),
            "B2": (n, self.B2.shape[1]),
            "C1": (self.C1.shape[0], n),
            "D11": (self.C1.shape[0], self.B1.shape[1]),
            "D12": (self.C1.shape[0], self.B2.shape[1]),
        }
        for name, shape in checks.items():
            if getattr(self, name).shape != shape:
                raise DimensionMismatch(
                    f"{name} must be {shape[0]}x{shape[1]}, got {getattr(self, name).shape}"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m1(self) -> int:
        return self.B1.shape[1]

    @property
    def m2(self) -> int:
        return self.B2.shape[1]

    @property
    def p1(self) -> int:
        return self.C1.shape[0]

    @property
    def p2(self) -> int:
        # y = x, so the sensor count coincides with the state dimension.
        return self.n


@dataclass(frozen=True)
class Schedule:
    """N-periodic channel assignment.

    ``s1[k]`` names the sensor (1-based) transmitting in slot k, 0 for
    none; ``s2[k]`` dually names the actuator receiving. At most one of
    the two may be nonzero in any slot: the channel carries one message
    at a time. The ``full_packet`` flag selects the degenerate N = 1
    configuration in which the whole state vector and the whole actuation
    vector travel as single messages (selectors become identities); this
    is the only configuration in which gain synthesis is well-posed.
    """

    period: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    full_packet: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "s1", tuple(int(v) for v in self.s1))
        object.__setattr__(self, "s2", tuple(int(v) for v in self.s2))
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if len(self.s1) != self.period or len(self.s2) != self.period:
            raise ValueError(
                f"switching patterns must have length {self.period}, "
                f"got {len(self.s1)} and {len(self.s2)}"
            )
        if any(v < 0 for v in self.s1 + self.s2):
            raise ValueError("switching pattern entries must be >= 0")
        for k in range(self.period):
            if self.s1[k] != 0 and self.s2[k] != 0:
                raise ValueError(
                    f"slot {k}: sensor {self.s1[k]} and actuator {self.s2[k]} both "
                    "scheduled; only one message can be transmitted per slot"
                )


def full_packet_schedule() -> Schedule:
    """The canonical N = 1 whole-state / whole-actuation configuration."""
    return Schedule(period=1, s1=(0,), s2=(0,), full_packet=True)


@dataclass(frozen=True)
class LossModel:
    """Bernoulli drop probabilities: alpha1 sensor-to-controller, alpha2 controller-to-actuator."""

    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ModeDistribution:
    """Probabilities of the four (theta1, theta2) modes; sums to one."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        for name in ("p00", "p01", "p10", "p11"):
            v = float(getattr(self, name))
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))
        total = self.p00 + self.p01 + self.p10 + self.p11
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mode probabilities must sum to 1, got {total!r}")

    def prob(self, theta1: int, theta2: int) -> float:
        return {(0, 0): self.p00, (0, 1): self.p01, (1, 0): self.p10, (1, 1): self.p11}[
            (theta1, theta2)
        ]

    def items(self):
        for mode in MODES:
            yield mode, self.prob(*mode)


@dataclass(frozen=True)
class Gain:
    """Static state-feedback gain v = K y_hat, K of shape m2 x n."""

    K: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _frozen_array(self.K, "K"))

    @classmethod
    def zero(cls, m2: int, n: int) -> "Gain":
        return cls(np.zeros((m2, n)))


@dataclass(frozen=True)
class ClosedLoopFamily:
    """Per-mode closed-loop matrices at one time slot.

    Only the (1, 1) mode carries the feedback term, so the A and C
    matrices of modes (0,0), (0,1), (1,0) all equal the open loop, and
    B, D are mode-independent.
    """

    a_modes: dict
    c_modes: dict
    b: np.ndarray
    d: np.ndarray

    def a(self, theta1: int, theta2: int) -> np.ndarray:
        return self.a_modes[(theta1, theta2)]

    def c(self, theta1: int, theta2: int) -> np.ndarray:
        return self.c_modes[(theta1, theta2)]


def selector_matrices(
    schedule: Schedule, k: int, p2: int, m2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Selector pair (S1k, S2k) for slot k.

    S1k is the 1 x p2 one-hot row of the transmitting sensor (all-zero
    when the slot is idle on the sensor side); S2k is the m2 x 1 one-hot
    column of the receiving actuator. In the full-packet configuration
    both are identities.
    """
    if schedule.full_packet:
        return np.eye(p2), np.eye(m2)
    slot = k % schedule.period
    i = schedule.s1[slot]
    j = schedule.s2[slot]
    if i > p2:
        raise DimensionMismatch(f"slot {slot}: sensor index {i} exceeds sensor count {p2}")
    if j > m2:
        raise DimensionMismatch(f"slot {slot}: actuator index {j} exceeds actuator count {m2}")
    s1k = np.zeros((1, p2))
    if i:
        s1k[0, i - 1] = 1.0
    s2k = np.zeros((m2, 1))
    if j:
        s2k[j - 1, 0] = 1.0
    return s1k, s2k


def mode_distribution(loss: LossModel) -> ModeDistribution:
    """Mode probabilities induced by independent Bernoulli losses.

    p[i][j] = Prob{theta1 = i, theta2 = j}, with Prob{theta = 0} = alpha
    on each link.
    """
    a1, a2 = loss.alpha1, loss.alpha2
    return ModeDistribution(
        p00=a1 * a2,
        p01=a1 * (1.0 - a2),
        p10=(1.0 - a1) * a2,
        p11=(1.0 - a1) * (1.0 - a2),
    )


def closed_loop(plant: Plant, gain: Gain, k: int, schedule: Schedule) -> ClosedLoopFamily:
    """Four-mode closed-loop family at slot k.

    A_mode = A + theta1*theta2 * B2 (S2 S2') K (S1' S1), and likewise for
    the C matrix through D12; B and D are the open-loop B1 and D11. The
    projection pairing S2 S2' / S1' S1 routes the single scheduled sensor
    reading through the matching entry of K to the single scheduled
    actuator, and reduces to B2 K in the full-packet configuration.

    A periodic :class:`Schedule` never selects a sensor and an actuator in
    the same slot, so one of the two selectors is zero and the feedback
    term vanishes in every slot: on a periodic schedule the family is the
    open loop whatever K is, and so is what ``analyze`` and ``simulate``
    report. Held measurements and commands (ROADMAP item 3) would close it.
    """
    K = gain.K
    if K.shape != (plant.m2, plant.n):
        raise DimensionMismatch(
            f"gain must be {plant.m2}x{plant.n} for this plant, got {K.shape}"
        )
    s1k, s2k = selector_matrices(schedule, k, plant.p2, plant.m2)
    feed = plant.B2 @ (s2k @ s2k.T) @ K @ (s1k.T @ s1k)
    feed_z = plant.D12 @ (s2k @ s2k.T) @ K @ (s1k.T @ s1k)
    a_modes = {}
    c_modes = {}
    for i, j in MODES:
        w = float(i * j)
        a_modes[(i, j)] = plant.A + w * feed
        c_modes[(i, j)] = plant.C1 + w * feed_z
    return ClosedLoopFamily(a_modes=a_modes, c_modes=c_modes, b=plant.B1, d=plant.D11)
