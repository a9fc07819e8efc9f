"""Monte Carlo simulation of the lossy networked loop.

Each step draws the two arrival bits, routes the scheduled state
component through the gain to the scheduled actuator, and advances the
plant. Traces carry the dissipation ledger sums so empirical passivity
can be read off directly.

Trial t draws the stream of ``np.random.default_rng(base + t)``, so
results do not depend on how trials are grouped: ``ensemble`` hashes a
block's seeds in one batched SeedSequence pass, and ``simulate`` takes
``default_rng``'s bit generator. The pass holds SeedSequence's pool of
four words word-major, (4, trials), so each hashmix and mix is one row
operation across the block; seeds below 2**64 enter it from one uint64
array, larger ones from their bytes. A block reads each trial's first
2 horizon raw 64-bit words into one (2 horizon, trials) uint64 array:
words 2k and 2k + 1 are step k's (the layout of ``random((horizon,
2))``), the first deciding theta1 and the second theta2. A message
arrives when ``Generator.random()``, (word >> 11) * 2**-53, clears its
drop rate alpha, which is the integer test word >> 11 >= ceil(alpha *
2**53) on the word's top 53 bits, so no uniform is formed. A
white-noise input then wraps the same bit generator in a ``Generator``
and draws ``sigma * standard_normal((horizon, m1))``.
Zero, sinusoid and impulse inputs draw nothing more, so a block of them
with a short horizon and enough trials computes its raw words directly
from the hashed seed words as uint64 array arithmetic on PCG64's
128-bit LCG (``_pcg64_raw``), building no bit generator at all; other
blocks build one ``PCG64`` per trial and read its ``random_raw``. Both
give the same words, so the streams do not depend on the path.

What does not depend on the draws is built once per ``simulate`` or
``ensemble`` call (``_Loop``): the checks, each slot's closed-loop
matrices and a deterministic input's rows with their products. The
controller output v is computed only where a trace is built. A product
with a 1 x 1 matrix is a broadcast multiply, and a one-state loop
advances by one multiply and one add per step. So with one state and
one exogenous input (n = m1 = 1) every value is one IEEE operation in a
fixed order, and an ensemble's trace t has the rows of ``simulate(base
+ t)`` bit for bit. Otherwise a block's batched matmul (the state update
for n >= 2, the input products for m1 >= 2) may round differently from
one trial's in the last bit. A trace's sums w'z and w'w add its own
rows, so they are ``simulate``'s wherever the rows are.

An untraced ``ensemble`` block (no ``on_trace``) that reads bit
generators writes its large arrays into the call's workspace
(``_Workspace``), which the call drops when it returns. Arrays that are
never alive together share one buffer: the raw words' buffer later
holds the normals, w'w, a one-state loop's coefficients and z, and w
B1''s holds the closed-loop output, then w D11', then w'z. With w, the
states and the arrival bits, a 250 x 200 white-noise block holds 2.2 MB
and faults in about 460 fresh pages, where an array each faulted in
about 950; the call's later blocks reuse the first one's pages. Traced
blocks (``simulate``, ``ensemble(on_trace=...)``), whose ``SimTrace``s
are views of their arrays, and closed-form blocks, whose arrays are
small, take fresh arrays, so a trace never views a workspace. Memory
does not grow with the number of trials.
"""

from __future__ import annotations

import functools
import math
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

# A block whose input draws nothing computes its raw words in closed form when
# its horizon is at most _CLOSED_FORM_STEPS and it has at least
# _CLOSED_FORM_TRIALS trials. The closed form costs about 0.1 ms per block plus
# work in proportion to trials x horizon; one PCG64 per trial costs about 2.5 us
# plus a C loop that is cheaper per word. Timed on a 2-core x86 machine with
# numpy 2.4, 1024-trial blocks cross over between horizons 24 and 32, and
# horizon-6 and horizon-16 blocks between 32 and 64 trials; nearer horizon 24
# the closed form's per-trial gain is too thin to repay its fixed cost in a
# 64-trial block.
_CLOSED_FORM_STEPS = 16
_CLOSED_FORM_TRIALS = 64


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
        if self.step < 0:
            raise ValueError("impulse step must be >= 0")

    @classmethod
    def zero(cls, dimension: int) -> "InputSignal":
        return cls("zero", dimension)

    @classmethod
    def white_noise(cls, dimension: int, sigma: float = 1.0) -> "InputSignal":
        return cls("white-noise", dimension, sigma=sigma)

    def block(self, horizon: int, trials: int) -> np.ndarray:
        """Inputs of a deterministic kind, shape (horizon, trials, dimension).

        Zero, sinusoid and impulse inputs draw nothing and give every trial
        the same rows; white noise is drawn from each trial's stream by the
        simulation itself.
        """
        if self.kind == "white-noise":
            raise ValueError("white noise is drawn per trial, not as a block")
        k = np.arange(horizon)
        if self.kind == "sinusoid":
            column = self.amplitude * np.sin(2.0 * np.pi * k / self.period)
        elif self.kind == "impulse":
            column = np.where(k == self.step, self.magnitude, 0.0)
        else:
            column = np.zeros(horizon)
        return np.tile(column[:, None, None], (1, trials, self.dimension))


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


class _Workspace:
    """Buffers that one ``ensemble`` call's untraced blocks write their large arrays into.

    ``take`` hands out an uninitialised array of the asked shape and order,
    viewing the front of the buffer held under its name, which grows when
    too small. Arrays that are never alive together share a name, so a
    block touches fewer fresh pages than it would with an array each, and
    every later block of the call reuses the first one's pages.
    """

    def __init__(self) -> None:
        self.held: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple, dtype=np.float64, order: str = "C") -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self.held.get(name)
        if buf is None or buf.size < size:
            buf = self.held[name] = np.empty(size, np.uint8)
        return buf[:size].view(dtype).reshape(shape, order=order)


class _Fresh:
    """A workspace that holds nothing: each ``take`` is a new array."""

    @staticmethod
    def take(name: str, shape: tuple, dtype=np.float64, order: str = "C") -> np.ndarray:
        return np.empty(shape, dtype, order)


_FRESH = _Fresh()


def _raw_words(streams, count: int, ws=_FRESH) -> np.ndarray:
    """Each bit generator's next ``count`` raw words, time-major: (count, M)."""
    raw = ws.take("a", (len(streams), count), np.uint64)
    for m, stream in enumerate(streams):
        raw[m] = stream.random_raw(count)
    return raw.T


class _Loop:
    """What every block of one ``simulate`` or ``ensemble`` call shares, built once per call.

    The checks, the arrival thresholds, each used slot's mode (1, 1)
    matrices gathered per step and, for an input that draws nothing, the
    input rows with their B1 and D11 products and w'w sums. Those are kept
    for the next block of the same size, which is every block of a call
    but its last, so each block computes exactly what it would on its own.

    The received measurement is theta1 * S1'S1 x and the applied actuation
    theta2 * S2S2' K yhat, so a step applies ``model.closed_loop``'s mode
    (1, 1) matrices or the open loop.
    """

    def __init__(self, plant, gain, schedule, loss, signal, horizon, x0):
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if signal.dimension != plant.m1:
            raise DimensionMismatch(
                f"signal dimension {signal.dimension} != plant exogenous width {plant.m1}"
            )
        n = plant.n
        x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
        if x0.size != n:
            raise DimensionMismatch(f"x0 length {x0.size} != plant state dimension {n}")
        # slot 0 always, so the gain's shape is checked even for an empty horizon
        used = range(max(1, min(schedule.period, horizon)))
        fams = [closed_loop(plant, gain, s, schedule) for s in used]
        slots = np.arange(horizon) % schedule.period
        self.plant, self.signal, self.horizon = plant, signal, horizon
        self.x0 = x0.reshape(n)
        # Generator.random() is (word >> 11) 2**-53, which clears alpha exactly when
        # word >> 11 reaches alpha 2**53 (exact, as a power of two scales it); at
        # alpha = 1 that is 2**53, which no word reaches
        self.thresholds = [np.uint64(math.ceil(a * 2.0 ** 53)) for a in (loss.alpha1, loss.alpha2)]
        self.slots = slots.tolist()
        self.a_on = np.stack([f.a(1, 1).T for f in fams])
        self.c_steps = np.stack([f.c(1, 1).T for f in fams])[slots]
        self.k_steps = np.stack([(gain.K @ s1.T @ s1).T for s1, _ in (
            selector_matrices(schedule, s, plant.p2, plant.m2) for s in used)])[slots]
        self._block = None  # (trials, inputs) of the last deterministic block

    def _input(self, trials, streams, ws):
        """A block's inputs w (T, M, m1) and w B1' alike, each trial's sum w'w, and w D11'.

        White noise leaves w D11' to ``run`` (None), which forms it once w B1'
        is spent, in that array's buffer.
        """
        plant, signal, horizon = self.plant, self.signal, self.horizon
        if signal.kind != "white-noise":
            # kept for the call's later blocks, so never in a block's workspace
            if self._block is None or self._block[0] != trials:
                w = signal.block(horizon, trials)
                self._block = trials, (w, _product(w, plant.B1.T), np.sum(w * w, axis=(0, 2)),
                                       _product(w, plant.D11.T))
            return self._block[1]
        noise = ws.take("a", (trials, horizon, plant.m1))  # the raw words are spent
        for m, stream in enumerate(streams):
            np.random.Generator(stream).standard_normal(out=noise[m])
        w = np.multiply(signal.sigma, noise.transpose(1, 0, 2),
                        out=ws.take("w", (horizon, trials, plant.m1)))
        return (w, _product(w, plant.B1.T, ws.take("b", (horizon, trials, plant.n))),
                np.sum(np.multiply(w, w, out=ws.take("a", w.shape)), axis=(0, 2)), None)

    def run(self, raw, streams, traced, ws=_FRESH):
        """Advance one trial per column of ``raw`` together, one (M, n) state array per step.

        ``raw`` holds each trial's first 2 horizon raw words, (2 horizon, M),
        and is overwritten; a white-noise input draws its normals from
        ``streams``, the trials' bit generators, positioned after those words.
        The block's large arrays come from the workspace ``ws``.

        Returns x (T+1, M, n), w, z (T, M, .), the arrival bits theta1 and
        theta2 (T, M, bool) and each trial's sums w'z and w'w; v (T, M, m2)
        too if ``traced``, else None.
        """
        plant, horizon, trials = self.plant, self.horizon, raw.shape[1]
        # time-major, as the step loop reads one row of ``on`` per step; in place, as
        # a fresh array costs more in page faults than the shift
        bits = np.right_shift(raw, _U11, out=raw)
        # in the words' memory order: trial-major from bit generators, time-major in closed form
        order = "C" if raw.flags.c_contiguous else "F"
        theta1, theta2, on = (ws.take(name, (horizon, trials), bool, order)
                              for name in ("theta1", "theta2", "on"))
        np.greater_equal(bits[0::2], self.thresholds[0], out=theta1)
        np.greater_equal(bits[1::2], self.thresholds[1], out=theta2)
        on = np.bitwise_and(theta1, theta2, out=on)[..., None]
        xs = ws.take("x", (horizon + 1, trials, plant.n))
        xs[0] = self.x0
        a_off, a_on = plant.A.T, self.a_on
        # a diverging loop overflows to inf, then nan; its statistics say so, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            w, wb, sum_ww, wd = self._input(trials, streams, ws)
            # step k writes xs[k + 1] once: open loop, closed where both messages arrive, input
            if plant.n == 1:
                # one multiply by a coefficient chosen up front: bit for bit the matmul
                # loop's (0 + x a) + wb, as wb, a matmul's or ``_product``'s, is never -0.0
                if ws is _FRESH:
                    coef = np.where(on, a_on[self.slots], a_off)
                else:  # np.where has no out; the normals and w'w are spent
                    coef = ws.take("a", (horizon, trials, 1))
                    coef[...] = a_off
                    np.copyto(coef, a_on[self.slots], where=on)
                for x_k, x_next, c_k, wb_k in zip(xs[:-1], xs[1:], coef, wb):
                    np.multiply(x_k, c_k, out=x_next)
                    x_next += wb_k
            else:
                for x_k, x_next, on_k, wb_k, s in zip(xs[:-1], xs[1:], on, wb, self.slots):
                    np.matmul(x_k, a_off, out=x_next)
                    np.copyto(x_next, x_k @ a_on[s], where=on_k)
                    x_next += wb_k

            x, z_shape = xs[:-1], (horizon, trials, plant.p1)
            closed = _product(x, self.c_steps, ws.take("b", z_shape))  # wb is spent
            if ws is _FRESH:
                z = np.where(on, closed, _product(x, plant.C1.T))
            else:  # the open-loop rows, then the closed-loop ones where both messages arrive
                z = _product(x, plant.C1.T, ws.take("a", z_shape))  # any coefficients are spent
                np.copyto(z, closed, where=on)
            # w D11' after the closed-loop output is spent, then w'z after w D11'
            z += _product(w, plant.D11.T, ws.take("b", z_shape)) if wd is None else wd
            v = theta1[..., None] * _product(x, self.k_steps) if traced else None
            # the dissipation pairing w'z needs a square channel (p1 == m1)
            sum_wz = (np.sum(np.multiply(w, z, out=ws.take("b", z_shape)), axis=(0, 2))
                      if plant.p1 == plant.m1 else np.full(trials, np.nan))
        return xs, w, z, v, theta1, theta2, sum_wz, sum_ww


def _product(x, m, out=None):
    """``x @ m``, by a broadcast multiply where ``m`` is 1 x 1 (or a stack of such).

    matmul runs a product of inner dimension 1 several times slower than
    the multiply, which only wins, though, where the output is one column
    wide too. matmul gives 0 + x m, so the multiply adds 0.0 as well: that
    turns a -0.0 product into matmul's +0.0 and changes nothing else.
    """
    if m.shape[-2:] != (1, 1):
        return np.matmul(x, m, out=out)
    out = np.multiply(x, m, out=out)
    out += 0.0
    return out


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
    loop = _Loop(plant, gain, schedule, loss, signal, horizon, x0)
    streams = [np.random.default_rng(seed).bit_generator]
    records = loop.run(_raw_words(streams, 2 * horizon), streams, traced=True)
    return _trace(records, 0, seed, schedule)


# numpy's SeedSequence: hash and mix multipliers (a pool of four uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


@functools.cache
def _multipliers(init: int, mult: int, first: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the multiplier before and after hashmix calls first, ...: init * mult**k."""
    c = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                  for k in range(first, first + calls + 1)], dtype=np.uint32).reshape(-1, 1)
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(value, init: int, mult: int, first: int, calls: int):
    """SeedSequence's hashmix calls first, ... on value's rows; init * mult**k before call k."""
    before, after = _multipliers(init, mult, first, calls)
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(pool, value, first: int):
    """SeedSequence's mix of pool row j with hashmix call first + j on the row ``value``."""
    r = _MIX_L * pool - _MIX_R * _hashmix(value, _INIT_A, _MULT_A, first, len(pool))
    return r ^ (r >> _SHIFT)


def _entropy(seeds) -> tuple[np.ndarray, np.ndarray | None]:
    """The seeds' SeedSequence entropy as word-major uint32 rows (words, M), at least four.

    Seeds below 2**64 take their two words from one uint64 array (a range of
    them by arithmetic); larger ones are split to bytes, and come with each
    seed's word count, as a seed's words end at its highest nonzero one
    (zeros hash as absent within the pool's four). Below 2**64 that count
    is never needed: None.
    """
    lo, hi = sorted((seeds[0], seeds[-1])) if isinstance(seeds, range) else (min(seeds), max(seeds))
    if lo < 0:
        raise ValueError("expected non-negative integer")
    if hi >= 1 << 64:
        width = max(4, -(-hi.bit_length() // 32))
        raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
        entropy = np.frombuffer(raw, "<u4").reshape(-1, width).T.astype(np.uint32)
        return entropy, np.max((entropy != 0) * np.arange(1, width + 1)[:, None], axis=0)
    if isinstance(seeds, range):
        step = np.uint64(seeds.step % (1 << 64))  # a falling range wraps back into range
        seeds = np.uint64(seeds.start) + step * np.arange(len(seeds), dtype=np.uint64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds, seeds >> _U32
    return entropy, None


def _seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` per seed: (M, 4) uint64 rows.

    The pool is word-major, (4, M), so each hashmix and mix is a whole-row
    operation across the seeds.
    """
    entropy, size = _entropy(seeds)
    pool = _hashmix(entropy[:4], _INIT_A, _MULT_A, 0, 4)
    for src in range(4):  # every word into every other, so late bits reach early ones
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], pool[src], 4 + 3 * src)
    for src in range(4, len(entropy)):  # words beyond the pool, into the seeds that have them
        pool = np.where(size > src, _mix(pool, entropy[src], 4 * src), pool)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B, 0, 8)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence whose state is already generated: PCG64 asks for these 4 uint64 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63 = (np.uint64(k) for k in (1, 11, 32, 58, 63))


def _split128(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as (high, low) uint64 columns."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64).reshape(-1, 1),
            np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64).reshape(-1, 1))


@functools.cache
def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """State k = 1, ..., count after seeding as the affine map M_k s + G_k inc.

    M_k = a**k and G_k = a**(k-1) + ... + 1 (mod 2**128) for the multiplier
    a, returned as (high, low) uint64 columns of M and then of G.
    """
    powers, sums, m_k, g_k = [], [], 1, 0
    for _ in range(count):
        m_k, g_k = m_k * _PCG_MULT % (1 << 128), (g_k * _PCG_MULT + 1) % (1 << 128)
        powers.append(m_k)
        sums.append(g_k)
    jumps = (*_split128(powers), *_split128(sums))
    for column in jumps:
        column.flags.writeable = False
    return jumps


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(ah 2**64 + al)(bh 2**64 + bl) mod 2**128 as (high, low) uint64 arrays.

    The high word of al bl comes from four 32-bit partial products (Hacker's
    Delight's mulhu, whose partial sums stay below 2**64); the cross terms
    only reach the high word, where uint64 wraps as it should. Every
    product lands in one of three arrays the size of the result, as a
    fresh large temporary per operation costs more than the operation.
    """
    a0, a1, b0, b1 = al & _LOW32, al >> _U32, bl & _LOW32, bl >> _U32
    carry = np.multiply(a0, b0)
    carry >>= _U32
    mid = np.multiply(a1, b0)
    mid += carry
    high = np.multiply(a0, b1)
    high += np.bitwise_and(mid, _LOW32, out=carry)
    high >>= _U32
    mid >>= _U32
    high += mid
    for x, y in ((a1, b1), (ah, bl), (al, bh)):
        high += np.multiply(x, y, out=mid)
    return high, np.multiply(al, bl, out=mid)


def _add128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(ah 2**64 + al) + (bh 2**64 + bl) mod 2**128 as (high, low) uint64 arrays."""
    low = al + bl
    return ah + bh + (low < bl), low


def _pcg64_raw(words: np.ndarray, count: int) -> np.ndarray:
    """``PCG64(_Words(w)).random_raw(count)`` for each row w of ``words``, time-major (count, M).

    Seeding sets inc = 2 initseq + 1 and the state (initstate + inc) a + inc,
    from initstate = w0 2**64 + w1 and initseq = w2 2**64 + w3; word k is the
    XSL-RR output of the k-th state after it, rotr64(high ^ low, high >> 58).
    Every 128-bit value is a pair of uint64 arrays, so overflow wraps silently.
    The (count, M) steps work in place, in the two products' arrays.
    """
    w = words.T
    inc = (w[2] << _U1) | (w[3] >> _U63), (w[3] << _U1) | _U1
    state = _add128(*_mul128(*_split128([_PCG_MULT]), *_add128(w[0], w[1], *inc)), *inc)
    m_hi, m_lo, g_hi, g_lo = _jumps(count)
    high, low = _mul128(m_hi, m_lo, *state)
    g_high, g_low = _mul128(g_hi, g_lo, *inc)
    low += g_low
    high += g_high
    high += low < g_low
    x, rot = low, high
    x ^= high
    rot >>= _U58
    out = np.right_shift(x, rot, out=g_high)
    np.negative(rot, out=rot)
    rot &= _U63
    x <<= rot
    out |= x
    return out


def _closed_form(signal: InputSignal, horizon: int, trials: int) -> bool:
    """Whether a block takes its raw words in closed form (``_pcg64_raw``).

    Only white noise reads the bit generators after those words, so a block
    of any other input with a short horizon and enough trials builds none.
    """
    return (signal.kind != "white-noise" and horizon <= _CLOSED_FORM_STEPS
            and trials >= _CLOSED_FORM_TRIALS)


def _draws(seeds, horizon: int, signal: InputSignal, ws):
    """``seeds``' first 2 horizon raw words, (2 horizon, M), and their PCG64s if the input draws."""
    words = _seed_words(seeds)
    if _closed_form(signal, horizon, len(words)):
        return _pcg64_raw(words, 2 * horizon), None
    streams = [np.random.PCG64(_Words(w)) for w in words]
    return _raw_words(streams, 2 * horizon, ws), streams


def _trace(records, m: int, seed: int, schedule: Schedule) -> SimTrace:
    """Trial ``m`` of a traced ``_Loop.run`` result as a SimTrace.

    Its sums w'z and w'w add the trial's own rows, as one trial's are added
    whatever block it ran in; the block's per-trial sums add them in step
    order, which rounds differently.
    """
    x, w, z, v, theta1, theta2 = records[:6]
    horizon, w_m, z_m = len(w), w[:, m], z[:, m]
    # the dissipation pairing w'z needs a square channel (p1 == m1)
    sum_wz = float(np.sum(w_m * z_m)) if w_m.shape == z_m.shape else math.nan
    return SimTrace(horizon, x[:, m], w_m, z_m, v[:, m],
                    theta1[:, m].astype(np.int64), theta2[:, m].astype(np.int64),
                    np.arange(horizon) % schedule.period, seed, schedule,
                    sum_wz, float(np.sum(w_m * w_m)))


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
    and the untraced blocks' buffers, which one block fills, outlive a
    block, so memory does not grow with ``trials``. When given,
    ``on_trace`` is called with each trial's :class:`SimTrace`, in seed
    order, while its block is alive.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    loop = _Loop(plant, gain, schedule, loss, signal, horizon, x0)
    size = max(1, min(TRIAL_BLOCK, _BLOCK_STEPS // max(horizon, 1)))
    sq_sum = np.zeros(horizon + 1)
    terminal_hits = 0
    on1 = on2 = on_both = 0  # steps where the first, the second and both messages arrive
    done, mean, sq_dev = 0, 0.0, 0.0  # dissipation count, mean, sum of squared deviations
    workspace = _Workspace()  # dropped on return, so no two calls share one
    for start in range(0, trials, size):
        seeds = range(base_seed + start, base_seed + min(start + size, trials))
        # a traced block's SimTraces are views of its arrays, so they are its own; a
        # closed-form block's arrays are small, and np.where beats copyto at that size
        ws = (workspace if on_trace is None and not _closed_form(signal, horizon, len(seeds))
              else _FRESH)
        raw, streams = _draws(seeds, horizon, signal, ws)
        records = loop.run(raw, streams, on_trace is not None, ws)
        if on_trace is not None:
            for m, seed in enumerate(seeds):
                on_trace(_trace(records, m, seed, schedule))
        x, w, z, v, theta1, theta2, sum_wz, sum_ww = records
        on1 += int(np.count_nonzero(theta1))
        on2 += int(np.count_nonzero(theta2))
        on_both += int(np.count_nonzero(theta1 & theta2))
        with np.errstate(over="ignore", invalid="ignore"):
            sq_sum += np.einsum("kmi,kmi->k", x, x)
            terminal_hits += int(np.count_nonzero(
                np.linalg.norm(x[-1], axis=1) < terminal_threshold))
            # merge the block's dissipation sums (Chan et al.'s pairwise update)
            d = sum_wz - eta * sum_ww
            d_mean = float(np.mean(d))
            delta = d_mean - mean
            sq_dev += (float(np.sum((d - d_mean) ** 2))
                       + delta * delta * done * d.size / (done + d.size))
            done += d.size
            mean += delta * (d.size / done)
        del records, raw, x, w, z, v, theta1, theta2  # free this block before the next is drawn
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
        mode_counts=np.array([[trials * horizon - on1 - on2 + on_both, on2 - on_both],
                              [on1 - on_both, on_both]], dtype=np.int64),
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
    rows = [lead + vals for lead, vals in zip(ints.tolist(), floats)]
    # the list's repr writes each float's repr and each int's str, as csv.writer would here
    body = repr(rows)[2:-2].replace("], [", "\r\n").replace(", ", ",")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (body + "\r\n" if rows else ""))
