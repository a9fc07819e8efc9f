"""Shared builders for the test suite."""

import numpy as np
import pytest

from ncspassive import lmi
from ncspassive.analysis import passivity_problem
from ncspassive.model import Gain, LossModel, Plant, full_packet_schedule, mode_distribution
from ncspassive.numerics import DEFAULT_MARGIN, schur_complement, sym_eigvals
from ncspassive.synthesis import SYNTHESIS_CONSTRAINT


@pytest.fixture
def scalar_passive_plant() -> Plant:
    """x+ = 0.5 x + w, z = 0.5 x + w; strictly passive open loop."""
    return Plant(A=[[0.5]], B1=[[1.0]], B2=[[0.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])


@pytest.fixture
def lossy_feedback_plant() -> Plant:
    """Open-loop unstable scalar plant used for the synthesis scenarios."""
    return Plant(A=[[1.2]], B1=[[1.0]], B2=[[1.0]], C1=[[0.5]], D11=[[1.0]], D12=[[0.0]])


@pytest.fixture
def lossless() -> LossModel:
    return LossModel(0.0, 0.0)


def random_plant(rng: np.random.Generator, n: int, spectral_scale: float | None = None) -> Plant:
    """Random square-channel plant with D11 + D11' > 0."""
    a = rng.standard_normal((n, n))
    if spectral_scale is not None:
        radius = max(abs(np.linalg.eigvals(a)))
        a = a * (spectral_scale / radius if radius > 0 else 1.0)
    b1 = rng.standard_normal((n, 1))
    b2 = rng.standard_normal((n, 1))
    c1 = rng.standard_normal((1, n))
    d11 = np.array([[1.0 + rng.random()]])
    d12 = rng.standard_normal((1, 1))
    return Plant(A=a, B1=b1, B2=b2, C1=c1, D11=d11, D12=d12)


def random_loss(rng: np.random.Generator) -> LossModel:
    return LossModel(float(rng.random() * 0.5), float(rng.random() * 0.5))


def scalar_grid_eta_star(a: float, b: float, c: float, d: float, *,
                         p_max: float = 10.0, resolution: float = 1e-3) -> float:
    """Brute-force dissipation margin for a scalar lossless loop.

    Scans M(P, eta) = [[a^2 P - P, a P b - c], [., b^2 P + 2 eta - 2 d]]
    over the (P, eta) grid and returns the largest eta with a strictly
    feasible P. Uses only closed-form 2x2 negative-definiteness, so it is
    independent of the package numerics.
    """
    ps = np.arange(resolution, p_max + resolution / 2, resolution)
    best = -1.0
    a11 = (a * a - 1.0) * ps
    a12 = a * ps * b - c
    for eta in np.arange(0.0, 1.0 + resolution / 2, resolution):
        a22 = b * b * ps + 2.0 * eta - 2.0 * d
        feasible = (a11 < 0) & (a22 < 0) & (a11 * a22 - a12 * a12 > 0)
        if feasible.any():
            best = float(eta)
    return best


def gains_equal(g1: Gain, g2: Gain) -> bool:
    return np.array_equal(g1.K, g2.K)


CONGRUENCE_RTOL = 1e-6


def congruence_residual(
    synthesis_problem: lmi.LmiProblem,
    passivity_problem: lmi.LmiProblem,
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    """Relative eigenvalue gap between the synthesis form at (X, Y), its mode
    rows Schur-complemented out as top - R' D^{-1} R, and diag(X, I) M(X^{-1})
    diag(X, I), with M the dissipation form of ``passivity_problem``.

    The two problems are :func:`build_synthesis_lmi` and
    ``analysis.passivity_problem`` at one eta, the latter at the gain
    Y X^{-1}; nothing is posed here. D is the assembled mode block, not
    X^{-1}, so a wrong -X there shows. For Y = K X the two are equal up to
    rounding.
    """
    m_xy = dict(synthesis_problem.constraints)[SYNTHESIS_CONSTRAINT].assemble({"X": x, "Y": y})
    analysis_form = dict(passivity_problem.constraints)["dissipation"]
    n, split = len(x), analysis_form.dim
    top, r, d = m_xy[:split, :split], m_xy[split:, :split], m_xy[split:, split:]
    schur = schur_complement(top, r.T, d)

    t = np.eye(split)  # diag(X, I)
    t[:n, :n] = x
    m_mapped = t @ analysis_form.assemble({"P": np.linalg.inv(x)}) @ t

    e_xy = sym_eigvals(schur)
    e_mapped = sym_eigvals(m_mapped)
    scale = 1.0 + float(np.abs(e_xy).max())
    return float(np.abs(e_xy - e_mapped).max()) / scale


def assert_gain_certified(plant: Plant, loss: LossModel, result, margin=DEFAULT_MARGIN) -> None:
    """``result.passivity`` against a freshly posed passivity form at the synthesized gain.

    Its stored P must pass ``lmi.verify`` on ``passivity_problem`` at
    (K, eta, margin), whichever route found it.
    """
    fresh = passivity_problem(plant, result.gain, mode_distribution(loss), result.eta, margin)
    report = lmi.verify(fresh, {"P": result.passivity.assignment["P"]})
    assert report.passed, f"the stored P fails {report.worst()}"


__all__ = [
    "random_plant",
    "random_loss",
    "scalar_grid_eta_star",
    "gains_equal",
    "congruence_residual",
    "assert_gain_certified",
    "full_packet_schedule",
    "mode_distribution",
]


def random_sweep_loop(k: int):
    """Plant k of the 200-plant random sweep: n = 1 + k % 6, A at spectral radius 0.5 to 1.1."""
    rng = np.random.default_rng([19, k])
    n = 1 + k % 6
    radius = rng.uniform(0.5, 1.1)
    a = rng.standard_normal((n, n))
    a *= radius / max(abs(np.linalg.eigvals(a)))
    plant = Plant(A=a, B1=0.3 * rng.standard_normal((n, 1)), B2=rng.standard_normal((n, 1)),
                  C1=0.3 * rng.standard_normal((1, n)), D11=[[1.0]], D12=[[0.0]])
    return plant, LossModel(rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.15))
