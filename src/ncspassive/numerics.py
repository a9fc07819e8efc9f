"""Dense real-matrix kernels used by every other module.

Symmetric eigensolves, margin-based definiteness tests, Kronecker
products, spectral radii, and the two-block Schur complement test.
Everything is plain float64 numpy at desk scale (dims well below 100);
there are no sparse or iterative paths.
"""

from __future__ import annotations

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
    "is_pos_definite",
    "kron",
    "spectral_radius",
    "schur_block",
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
    return float(np.linalg.norm(np.asarray(m, dtype=float)))


@dataclass(frozen=True)
class DefinitenessMargin:
    """Numeric reading of a strict definiteness inequality.

    ``M < 0`` is accepted when lambda_max(M) <= -epsilon_rel * (1 + ||M||_F),
    so the cutoff scales with the matrix instead of being a fixed constant.
    """

    epsilon_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.epsilon_rel > 0):
            raise ValueError(f"epsilon_rel must be positive, got {self.epsilon_rel}")

    def threshold(self, m) -> float:
        """Largest eigenvalue still accepted as 'strictly negative' for M."""
        return -self.epsilon_rel * (1.0 + fro_norm(m))


DEFAULT_MARGIN = DefinitenessMargin()


def sym_eigvals(m) -> np.ndarray:
    """Eigenvalues of the symmetrized matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(m))


def is_neg_definite(m, margin: DefinitenessMargin = DEFAULT_MARGIN) -> bool:
    """True iff lambda_max(sym(M)) clears the margin threshold."""
    s = symmetrize(m)
    return bool(sym_eigvals(s)[-1] <= margin.threshold(s))


def is_pos_definite(m, margin: DefinitenessMargin = DEFAULT_MARGIN) -> bool:
    return is_neg_definite(-as_matrix(m), margin)


def kron(a, b) -> np.ndarray:
    """Kronecker product, dims (ra*rb) x (ca*cb)."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def spectral_radius(m) -> float:
    """max |lambda| over all (possibly complex) eigenvalues of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def schur_block(p, m, q) -> np.ndarray:
    """Assemble the symmetric block matrix [[P, M], [M', Q]]."""
    p = symmetrize(p, "p")
    q = symmetrize(q, "q")
    m = as_matrix(m, "m")
    if m.shape != (p.shape[0], q.shape[0]):
        raise DimensionMismatch(
            f"off-diagonal block must be {p.shape[0]}x{q.shape[0]}, got {m.shape}"
        )
    return np.block([[p, m], [m.T, q]])


def schur_neg_def(p, m, q, margin: DefinitenessMargin = DEFAULT_MARGIN) -> bool:
    """Block-matrix negative definiteness via the Schur complement.

    True iff Q < 0 and P - M Q^{-1} M' < 0 (both margin-strict), which is
    equivalent to [[P, M], [M', Q]] < 0. A Q that is singular without
    being negative definite yields False rather than an error.
    """
    p = symmetrize(p, "p")
    q = symmetrize(q, "q")
    m = as_matrix(m, "m")
    if m.shape != (p.shape[0], q.shape[0]):
        raise DimensionMismatch(
            f"off-diagonal block must be {p.shape[0]}x{q.shape[0]}, got {m.shape}"
        )
    if not is_neg_definite(q, margin):
        return False
    try:
        x = np.linalg.solve(q, m.T)
    except np.linalg.LinAlgError:
        return False
    complement = p - m @ x
    return is_neg_definite(complement, margin)
