"""Independent checks of the package's outputs, in plain numpy.

Nothing here imports ncspassive. The closed-loop modes, the
second-moment radius and the Lyapunov residuals are rebuilt from the raw
matrices, so a bug shared by the package's own verifier and its solver
cannot pass both. The eigen-solvers are bound at import, before a traced
run wraps ``numpy.linalg``, so these checks never show up in the trace.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigvals, eigvalsh

MODES = ((0, 0), (0, 1), (1, 0), (1, 1))


def mode_probs(alpha1: float, alpha2: float) -> dict:
    """Probability of each (theta1, theta2) arrival pair; theta = 0 is a drop."""
    p1 = {0: alpha1, 1: 1.0 - alpha1}
    p2 = {0: alpha2, 1: 1.0 - alpha2}
    return {(i, j): p1[i] * p2[j] for i, j in MODES}


def slot_selectors(n: int, m2: int, period: int, s1, s2, k: int):
    """Projections (sensor side n x n, actuator side m2 x m2) for slot k.

    ``s1``/``s2`` are None for the full-packet loop; otherwise 1-based
    sensor and actuator indices per slot, 0 meaning idle.
    """
    if s1 is None:
        return np.eye(n), np.eye(m2)
    p_in = np.zeros((n, n))
    p_out = np.zeros((m2, m2))
    i, j = s1[k % period], s2[k % period]
    if i:
        p_in[i - 1, i - 1] = 1.0
    if j:
        p_out[j - 1, j - 1] = 1.0
    return p_in, p_out


def mode_matrices(a, b2, k_gain, p_in, p_out) -> dict:
    """Closed-loop A per arrival pair: the feedback acts only when both arrive."""
    feed = b2 @ p_out @ k_gain @ p_in
    return {(i, j): a + (i * j) * feed for i, j in MODES}


def loop_modes(a, b2, k_gain, period=1, s1=None, s2=None) -> list[dict]:
    """Mode matrices for every slot of one period."""
    a = np.asarray(a, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    k_gain = np.asarray(k_gain, dtype=float)
    n, m2 = a.shape[0], b2.shape[1]
    return [mode_matrices(a, b2, k_gain, *slot_selectors(n, m2, period, s1, s2, k))
            for k in range(period)]


def second_moment_radius(slots: list[dict], probs: dict) -> float:
    """Per-step spectral radius of the mode-averaged Kronecker square over a period."""
    n = next(iter(slots[0].values())).shape[0]
    product = np.eye(n * n)
    for modes in slots:
        op = sum(probs[m] * np.kron(modes[m], modes[m]) for m in MODES if probs[m] > 0.0)
        product = op @ product
    return float(np.abs(eigvals(product)).max()) ** (1.0 / len(slots))


def lyapunov_certificate_ok(ps, slots: list[dict], probs: dict) -> bool:
    """Every P_k > 0 and sum_m a_m A_km' P_{k+1} A_km - P_k < 0, by eigenvalues."""
    period = len(slots)
    for k in range(period):
        p = np.asarray(ps[k], dtype=float)
        nxt = np.asarray(ps[(k + 1) % period], dtype=float)
        if not np.all(np.isfinite(p)) or eigvalsh(0.5 * (p + p.T))[0] <= 0.0:
            return False
        lhs = sum(probs[m] * slots[k][m].T @ nxt @ slots[k][m]
                  for m in MODES if probs[m] > 0.0) - p
        if eigvalsh(0.5 * (lhs + lhs.T))[-1] >= 0.0:
            return False
    return True


def dissipation_upper_bound(d11) -> float:
    """min eig(D11 + D11')/2: no dissipation margin above it can be certified."""
    d = np.asarray(d11, dtype=float)
    return float(eigvalsh(d + d.T)[0]) / 2.0


def mode_counts_ok(counts, probs: dict, sigmas: float = 4.0) -> bool:
    """Empirical (theta1, theta2) frequencies within ``sigmas`` binomial sigmas."""
    counts = np.asarray(counts, dtype=float)
    draws = counts.sum()
    for (i, j), p in probs.items():
        sigma = math.sqrt(p * (1.0 - p) / draws)
        if abs(counts[i, j] / draws - p) > sigmas * sigma + 1e-15:
            return False
    return True


def csv_rows(path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path) as fh:
        return sum(1 for _ in fh) - 1
