"""Monte Carlo simulation of the lossy networked loop.

Each step draws the two arrival bits, routes the scheduled state
component through the gain to the scheduled actuator, and advances the
plant. Traces carry the dissipation ledger sums so empirical passivity
can be read off directly.

Trial t draws the stream of ``np.random.default_rng(base + t)``, so
results do not depend on how trials are grouped: ``ensemble`` passes
each trial's words from one batched SeedSequence hash to ``PCG64`` as
an ``ISeedSequence``, and ``simulate`` calls ``default_rng``. Each trial
first draws uniforms of shape (horizon, 2): a message arrives when its
uniform clears the drop rate, column 0 giving theta1 and column 1 theta2.
A white-noise input then draws ``sigma * standard_normal((horizon, m1))``;
zero, sinusoid and impulse inputs draw nothing.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DimensionMismatch, FitUnavailable
from .model import Gain, LossModel, Plant, Schedule, closed_loop, selector_matrices

__all__ = [
    "InputSignal",
    "SimTrace",
    "EnsembleStats",
    "simulate",
    "ensemble",
    "decay_fit",
    "trace_to_csv",
]

SIGNAL_KINDS = ("zero", "white-noise", "sinusoid", "impulse")

# Trials ``ensemble`` advances together. A block holds every draw and state
# of its trials, so long horizons get fewer trials: at most _BLOCK_STEPS steps.
TRIAL_BLOCK = 1024
_BLOCK_STEPS = 1 << 20


@dataclass(frozen=True)
class InputSignal:
    """Exogenous input generator: zero, white noise, sinusoid, or impulse."""

    kind: str
    dimension: int
    sigma: float = 1.0
    amplitude: float = 1.0
    period: int = 16
    magnitude: float = 1.0
    step: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; expected one of {SIGNAL_KINDS}")
        if self.dimension < 1:
            raise ValueError("signal dimension must be >= 1")
        for name in ("sigma", "amplitude", "magnitude"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.period < 1:
            raise ValueError("sinusoid period must be >= 1")

    @classmethod
    def zero(cls, dimension: int) -> "InputSignal":
        return cls("zero", dimension)

    @classmethod
    def white_noise(cls, dimension: int, sigma: float = 1.0) -> "InputSignal":
        return cls("white-noise", dimension, sigma=sigma)

    @classmethod
    def sinusoid(cls, dimension: int, amplitude: float = 1.0, period: int = 16) -> "InputSignal":
        return cls("sinusoid", dimension, amplitude=amplitude, period=period)

    @classmethod
    def impulse(cls, dimension: int, magnitude: float = 1.0, step: int = 0) -> "InputSignal":
        return cls("impulse", dimension, magnitude=magnitude, step=step)

    def block(self, horizon: int, rngs) -> np.ndarray:
        """Inputs of one trial per generator, shape (horizon, len(rngs), dimension).

        White noise draws ``sigma * standard_normal((horizon, dimension))``
        from each trial's generator; the other kinds draw nothing and
        give every trial the same rows.
        """
        if self.kind == "white-noise":
            return self.sigma * np.stack(
                [rng.standard_normal((horizon, self.dimension)) for rng in rngs], axis=1)
        k = np.arange(horizon)
        if self.kind == "sinusoid":
            column = self.amplitude * np.sin(2.0 * np.pi * k / self.period)
        elif self.kind == "impulse":
            column = np.where(k == self.step, self.magnitude, 0.0)
        else:
            column = np.zeros(horizon)
        return np.tile(column[:, None, None], (1, len(rngs), self.dimension))


@dataclass(frozen=True)
class SimTrace:
    """One sampled trajectory with its dissipation ledger.

    ``x`` has horizon+1 rows (state before each step plus the terminal
    state); ``w``, ``z``, ``v``, the mode bits, and slot indices have one
    row per step.
    """

    horizon: int
    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    v: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    slots: np.ndarray
    seed: int
    schedule: Schedule
    sum_wz: float
    sum_ww: float


def _run_block(plant, gain, schedule, loss, signal, horizon, rngs, x0):
    """Advance one trial per generator together, one (M, n) state array per step.

    The received measurement is theta1 * S1'S1 x and the applied actuation
    theta2 * S2S2' K yhat, so a step applies ``model.closed_loop``'s mode
    (1, 1) matrices or the open loop. Returns x (T+1, M, n), w, z, v
    (T, M, .), theta1, theta2 (T, M) and each trial's sums w'z and w'w.
    """
    if signal.dimension != plant.m1:
        raise DimensionMismatch(
            f"signal dimension {signal.dimension} != plant exogenous width {plant.m1}"
        )
    # slot 0 always, so the gain's shape is checked even for an empty horizon
    used = range(max(1, min(schedule.period, horizon)))
    fams = [closed_loop(plant, gain, s, schedule) for s in used]
    a_on = np.stack([f.a(1, 1).T for f in fams])
    c_on = np.stack([f.c(1, 1).T for f in fams])
    k_in = np.stack([(gain.K @ s1.T @ s1).T for s1, _ in
                     (selector_matrices(schedule, s, plant.p2, plant.m2) for s in used)])

    n, trials = plant.n, len(rngs)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    u = np.stack([rng.random((horizon, 2)) for rng in rngs], axis=1)
    w = signal.block(horizon, rngs)
    theta1 = (u[..., 0] >= loss.alpha1).astype(np.int64)
    theta2 = (u[..., 1] >= loss.alpha2).astype(np.int64)
    on = (theta1 & theta2).astype(bool)[..., None]

    slots = np.arange(horizon) % schedule.period
    xs = np.empty((horizon + 1, trials, n))
    xs[0] = x0
    wb = w @ plant.B1.T
    # a diverging loop overflows to inf, then nan; its statistics say so, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for k, s in enumerate(slots.tolist()):
            xs[k + 1] = np.where(on[k], xs[k] @ a_on[s], xs[k] @ plant.A.T) + wb[k]

        x = xs[:-1]
        z = np.where(on, x @ c_on[slots], x @ plant.C1.T) + w @ plant.D11.T
        v = theta1[..., None] * (x @ k_in[slots])
        # the dissipation pairing w'z needs a square channel (p1 == m1)
        sum_wz = np.sum(w * z, axis=(0, 2)) if plant.p1 == plant.m1 else np.full(trials, np.nan)
    return xs, w, z, v, theta1, theta2, sum_wz, np.sum(w * w, axis=(0, 2))


def simulate(
    plant: Plant,
    gain: Gain,
    schedule: Schedule,
    loss: LossModel,
    signal: InputSignal,
    horizon: int,
    seed: int,
    x0=None,
) -> SimTrace:
    """Run the lossy loop for ``horizon`` steps, deterministically per seed.

    The random stream of ``seed`` is laid out as the module docstring
    describes. The initial state defaults to zero, matching the
    zero-initial-state passivity experiments.
    """
    records = _run_block(plant, gain, schedule, loss, signal, horizon,
                         [np.random.default_rng(seed)], x0)
    return _trace(records, 0, seed, schedule)


# numpy's SeedSequence: hash and mix multipliers (a pool of four uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


@functools.cache
def _multipliers(init: int, mult: int, first: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier before and after each of hashmix calls first, ...: init * mult**k."""
    c = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                  for k in range(first, first + calls + 1)], dtype=np.uint32)
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(value, init: int, mult: int, first: int, calls: int):
    """SeedSequence's hashmix calls first, ... on value's columns; init * mult**k before call k."""
    before, after = _multipliers(init, mult, first, calls)
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(pool, value, first: int):
    """SeedSequence's mix of pool column j with hashmix call first + j on value."""
    r = _MIX_L * pool - _MIX_R * _hashmix(value, _INIT_A, _MULT_A, first, pool.shape[1])
    return r ^ (r >> _SHIFT)


def _seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` per seed, in uint32 arrays."""
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    width = max(4, -(-max(seeds).bit_length() // 32))
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    entropy = np.frombuffer(raw, "<u4").reshape(-1, width)
    # a seed's words end at its highest nonzero one (zeros hash as absent within the pool's four)
    size = np.max((entropy != 0) * np.arange(1, width + 1), axis=1)[:, None]
    pool = _hashmix(entropy[:, :4], _INIT_A, _MULT_A, 0, 4)
    for src in range(4):  # every word into every other, so late bits reach early ones
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], pool[:, src:src + 1], 4 + 3 * src)
    for src in range(4, width):  # words beyond the pool, into the seeds that have them
        pool = np.where(size > src, _mix(pool, entropy[:, src:src + 1], 4 * src), pool)
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B, 0, 8)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence whose state is already generated: PCG64 asks for these 4 uint64 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trace(records, m: int, seed: int, schedule: Schedule) -> SimTrace:
    """Trial ``m`` of a ``_run_block`` result as a SimTrace."""
    x, w, z, v, theta1, theta2, sum_wz, sum_ww = records
    horizon = len(w)
    return SimTrace(horizon, x[:, m], w[:, m], z[:, m], v[:, m], theta1[:, m], theta2[:, m],
                    np.arange(horizon) % schedule.period, seed, schedule,
                    float(sum_wz[m]), float(sum_ww[m]))


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregates over independent trials."""

    trials: int
    horizon: int
    base_seed: int
    eta: float
    mean_sq_norm: np.ndarray  # per-step mean of ||x(k)||^2, length horizon+1
    terminal_fraction: float  # fraction of trials with ||x(T)|| below the threshold
    terminal_threshold: float
    dissipation_mean: float
    dissipation_se: float
    mode_counts: np.ndarray  # 2x2 array of (theta1, theta2) occurrence counts


def ensemble(
    plant: Plant,
    gain: Gain,
    schedule: Schedule,
    loss: LossModel,
    signal: InputSignal,
    horizon: int,
    trials: int,
    base_seed: int,
    x0=None,
    eta: float = 0.0,
    terminal_threshold: float = 1e-3,
    on_trace=None,
) -> EnsembleStats:
    """Run ``trials`` independent traces with seeds base_seed, base_seed+1, ...

    Trials run in blocks of at most ``TRIAL_BLOCK``; only running sums
    outlive a block, so memory does not grow with ``trials``. When given,
    ``on_trace`` is called with each trial's :class:`SimTrace`, in seed
    order, while its block is alive.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    size = max(1, min(TRIAL_BLOCK, _BLOCK_STEPS // max(horizon, 1)))
    sq_sum = np.zeros(horizon + 1)
    terminal_hits = 0
    mode_counts = np.zeros(4, dtype=np.int64)
    done, mean, sq_dev = 0, 0.0, 0.0  # dissipation count, mean, sum of squared deviations
    for start in range(0, trials, size):
        seeds = range(base_seed + start, base_seed + min(start + size, trials))
        rngs = [np.random.Generator(np.random.PCG64(_Words(w))) for w in _seed_words(seeds)]
        records = _run_block(plant, gain, schedule, loss, signal, horizon, rngs, x0)
        if on_trace is not None:
            for m, seed in enumerate(seeds):
                on_trace(_trace(records, m, seed, schedule))
        x, w, z, v, theta1, theta2, sum_wz, sum_ww = records
        with np.errstate(over="ignore", invalid="ignore"):
            sq_sum += np.einsum("kmi,kmi->k", x, x)
            terminal_hits += int(np.count_nonzero(
                np.linalg.norm(x[-1], axis=1) < terminal_threshold))
            mode_counts += np.bincount((2 * theta1 + theta2).ravel(), minlength=4)
            # merge the block's dissipation sums (Chan et al.'s pairwise update)
            d = sum_wz - eta * sum_ww
            d_mean = float(np.mean(d))
            delta = d_mean - mean
            sq_dev += (float(np.sum((d - d_mean) ** 2))
                       + delta * delta * done * d.size / (done + d.size))
            done += d.size
            mean += delta * (d.size / done)
        del records, x, w, z, v, theta1, theta2  # free this block before the next is drawn
    se = float(np.sqrt(sq_dev / (trials - 1)) / np.sqrt(trials)) if trials > 1 else 0.0
    return EnsembleStats(
        trials=trials,
        horizon=horizon,
        base_seed=base_seed,
        eta=eta,
        mean_sq_norm=sq_sum / trials,
        terminal_fraction=terminal_hits / trials,
        terminal_threshold=terminal_threshold,
        dissipation_mean=mean,
        dissipation_se=se,
        mode_counts=mode_counts.reshape(2, 2),
    )


def decay_fit(stats: EnsembleStats) -> tuple[float, float]:
    """Exponential fit (beta, alpha) of the mean-square norm over the tail half.

    Least squares on log mean||x(k)||^2 against k for k in [T/2, T];
    alpha is the fitted per-step ratio, beta the normalized prefactor.
    Raises FitUnavailable from a zero initial state, on a non-finite norm
    or on a zero in the tail.
    """
    tail_start = stats.horizon // 2
    tail = stats.mean_sq_norm[tail_start:]
    if stats.mean_sq_norm[0] <= 0.0:
        raise FitUnavailable("the initial state is zero, so there is no decay to fit")
    if tail.size < 2 or not np.isfinite(stats.mean_sq_norm).all() or np.any(tail <= 0.0):
        raise FitUnavailable("mean-square norm is non-finite or degenerate over the fitted range")
    ks = np.arange(tail_start, stats.horizon + 1, dtype=float)
    slope, intercept = np.polyfit(ks, np.log(tail), 1)
    alpha = float(np.exp(slope))
    beta = float(np.exp(intercept) / stats.mean_sq_norm[0])
    return beta, alpha


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write one row per step: k, slot, theta1, theta2, x..., w..., z..., v...

    The state column holds x(k), the state the step started from; the
    terminal state appears only through the following row's dynamics and
    the ensemble statistics. Floats are written with full round-trip
    precision (``repr``).
    """
    columns = {"x": trace.x[: trace.horizon], "w": trace.w, "z": trace.z, "v": trace.v}
    header = ["k", "slot", "theta1", "theta2"] + [
        f"{name}{i}" for name, col in columns.items() for i in range(col.shape[1])]
    ints = np.column_stack([np.arange(trace.horizon), trace.slots, trace.theta1, trace.theta2])
    floats = np.hstack(list(columns.values())).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(lead + [repr(v) for v in vals] for lead, vals in zip(ints.tolist(), floats))
