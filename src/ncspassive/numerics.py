"""Dense real-matrix kernels used by every other module.

Symmetric eigensolves, margin-based definiteness tests, spectral radii,
and the two-block Schur complement and test.
Everything is plain float64 numpy at desk scale (dims well below 100);
there are no sparse or iterative paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix

__all__ = [
    "DefinitenessMargin",
    "DEFAULT_MARGIN",
    "as_matrix",
    "symmetrize",
    "fro_norm",
    "sym_eigvals",
    "is_neg_definite",
    "spectral_radius",
    "schur_complement",
    "schur_neg_def",
]


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite 2-d float64 array.

    Scalars become 1x1; 1-d arrays become a single row.
    """
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise InvalidMatrix(f"{name}: expected a 2-d array, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise InvalidMatrix(f"{name}: non-finite entries")
    return m


def symmetrize(value, name: str = "matrix") -> np.ndarray:
    """Return (M + M') / 2 for a square, finite M.

    Floating-point assembly of block expressions breaks exact symmetry;
    averaging restores it before any eigensolve.
    """
    m = as_matrix(value, name)
    if m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"{name}: must be square to symmetrize, got shape {m.shape}")
    return 0.5 * (m + m.T)


def fro_norm(m) -> float:
    """||M||_F, rescaled by the largest |entry| only where the plain sum of squares overflows."""
    return _fro_norms([np.asarray(m, dtype=float)])[0]


def _fro_norms(ms) -> list:
    """fro_norm of each float array: np.linalg.norm's one dot product each, under one errstate."""
    with np.errstate(over="ignore"):  # numpy's dot warns on overflow
        norms = [math.sqrt(flat.dot(flat)) for flat in (m.ravel(order="K") for m in ms)]
    for i, m in enumerate(ms):
        if norms[i] == math.inf and np.isfinite(m).all():
            scale = float(np.abs(m).max())
            norms[i] = scale * float(np.linalg.norm(m / scale))
    return norms


@dataclass(frozen=True)
class DefinitenessMargin:
    """Numeric reading of a strict definiteness inequality.

    ``M < 0`` is accepted when lambda_max(M) <= -epsilon_rel * (1 + ||M||_F),
    so the cutoff scales with the matrix instead of being a fixed constant.
    epsilon_rel lies in (0, 1): from 1 up no matrix clears the cutoff, as
    |lambda_max(M)| <= ||M||_F.
    """

    epsilon_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not (0 < self.epsilon_rel < 1):
            raise ValueError(f"epsilon_rel must be in (0, 1), got {self.epsilon_rel}")

    def threshold(self, m) -> float:
        """Largest eigenvalue still accepted as 'strictly negative' for M."""
        return -self.epsilon_rel * (1.0 + fro_norm(m))


DEFAULT_MARGIN = DefinitenessMargin()


def sym_eigvals(m) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(m))


def is_neg_definite(m, margin: DefinitenessMargin = DEFAULT_MARGIN) -> bool:
    """True iff lambda_max(sym(M)) clears the margin threshold."""
    (lam,), (norm,) = _eigen_norms([symmetrize(m)], -1)
    return bool(lam <= -margin.epsilon_rel * (1.0 + norm))  # margin.threshold


def _eigen_norms(ms, end: int) -> tuple[list, list]:
    """sym_eigvals(M)[end] and fro_norm(M) of each M = sym(M) exactly, one eigensolve per size."""
    norms, sizes, lams = _fro_norms(ms), {}, [0.0] * len(ms)
    for i, (m, norm) in enumerate(zip(ms, norms)):
        if not math.isfinite(norm):
            as_matrix(m)  # refuses a non-finite M, as symmetrizing it does
        sizes.setdefault(m.shape[0], []).append(i)
    for rows in sizes.values():
        stack = ms[rows[0]][None] if len(rows) == 1 else np.stack([ms[i] for i in rows])
        for i, lam in zip(rows, np.linalg.eigvalsh(stack)[:, end].tolist()):
            lams[i] = lam
    return lams, norms


def spectral_radius(m) -> float:
    """max |lambda| over all (possibly complex) eigenvalues of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def schur_complement(p, m, q) -> np.ndarray:
    """P - M Q^{-1} M' of [[P, M], [M', Q]], P and Q symmetrized; LinAlgError if Q is singular."""
    p = symmetrize(p, "p")
    q = symmetrize(q, "q")
    m = as_matrix(m, "m")
    if m.shape != (p.shape[0], q.shape[0]):
        raise DimensionMismatch(
            f"off-diagonal block must be {p.shape[0]}x{q.shape[0]}, got {m.shape}"
        )
    return p - m @ np.linalg.solve(q, m.T)


def schur_neg_def(p, m, q, margin: DefinitenessMargin = DEFAULT_MARGIN) -> bool:
    """Block-matrix negative definiteness via the Schur complement.

    True iff Q < 0 and P - M Q^{-1} M' < 0 (both margin-strict), which is
    equivalent to [[P, M], [M', Q]] < 0. A Q that is singular without
    being negative definite yields False rather than an error.
    """
    # an overflowing complement is read only for a Q < 0, and is_neg_definite then refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            complement = schur_complement(p, m, q)
        except np.linalg.LinAlgError:
            return False
    return is_neg_definite(q, margin) and is_neg_definite(complement, margin)
