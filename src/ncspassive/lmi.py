"""Coupled linear matrix inequality feasibility engine.

Variables are symmetric or rectangular real matrices. A constraint is a
block-structured affine symmetric expression required to be negative
definite under a relative margin. ``solve`` runs a log-det barrier
method (Boyd & Vandenberghe, *Convex Optimization*, CUP 2004, sec. 11;
Vandenberghe & Boyd, "Semidefinite programming", *SIAM Review* 38,
1996) on

    min t  subject to  M_c(v) <= t I  for every constraint c,

and ends in one of three ways: a certificate, once a point passes the
eigenvalue-based ``verify`` (one eigensolve per block size), which shares
no state with the solver; an Indeterminate whose ``dual`` refutes the
problem, once the barrier's multipliers pass ``verify_dual``; or an
Indeterminate without a dual, once the Newton-step budget (``max_iters``,
MAX_ITERS by default) runs out or t stops moving.

At a point the barrier holds every constraint's slack as one diagonal
block of a single block-diagonal matrix, as SDP codes do (Fujisawa,
Kojima & Nakata, *Math. Programming* 79, 1997): one Cholesky, one
inverse, one certification test and one screen serve all constraints,
because at desk scale a step costs numpy calls, not flops. The Hessian's
products and the basis's rank-revealing SVD stay per block, on compact
coefficients, because at n = 10 flops do dominate and the off-diagonal
blocks are zero.

``certify`` owns the choice between a fixed level and the largest one,
and returns the certificate of the problem it was given. A problem may
have a level s (a dissipation level eta): an expression's level block is
the constant that depends on s, and ``LmiProblem.at(s)`` re-levels a
posed problem without posing it again. ``certify`` solves at the given
s, or solves at s = 0 and then raises s by Newton steps on the same
barrier (Boyd et al., sec. 2.4) to within ETA_TOL, posing each form once
either way.

A problem owns its definiteness margin: ``verify``, ``verify_dual``,
``LmiCertificate.build`` and ``solve`` all read ``problem.margin``, so a
certificate is always checked at the margin its problem was posed with;
a dual's allowance caps it at the default (``_dual_tolerance``).

``verify_dual`` is the other half of the theorem of alternatives (Boyd
et al., *Linear Matrix Inequalities in System and Control Theory*, SIAM
1994, sec. 2.2): positive semidefinite multipliers, one per constraint,
whose weighted sum of the constraints is a nonnegative constant prove
that no assignment is feasible. Every ``dual`` on an Indeterminate has
passed it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnboundVariable, VerificationFailed
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    _eigen_norms,
    _fro_norms,
    as_matrix,
    fro_norm,
    symmetrize,
)

# Not ``certify``: perfbench's tracer would count it, hiding the solves under it from their spans.
__all__ = [
    "AffineExpr",
    "LmiProblem",
    "ConstraintCheck",
    "VerifyReport",
    "DualReport",
    "LmiCertificate",
    "Indeterminate",
    "verify",
    "verify_dual",
    "solve",
]


def _copy(obj, **changes):
    """A shallow copy of ``obj`` with ``changes`` to its attributes."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **changes)
    return out


@dataclass(frozen=True)
class LmiVariable:
    """A matrix decision variable.

    Symmetric variables are square and iterated over the symmetric
    subspace only.
    """

    name: str
    kind: str  # "symmetric" | "rectangular"
    rows: int
    cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


@dataclass
class _Term:
    row: int
    col: int
    left: np.ndarray
    var: str
    right: np.ndarray
    weight: float


class AffineExpr:
    """Block-structured symmetric affine matrix expression.

    The expression lives on a square grid of blocks with the given
    per-block dims. Content added at an off-diagonal block (r, c)
    automatically implies its transpose at (c, r), and diagonal blocks
    are symmetrized on assembly, so the assembled matrix is symmetric for
    every variable assignment and linear in each variable.

    One block may hold a level block (``add_level``), the constant that
    depends on ``level``; ``at`` gives the expression at another level.
    The constant blocks are placed once per level and kept.
    """

    def __init__(self, block_dims, name: str = ""):
        self.block_dims = tuple(int(d) for d in block_dims)
        if not self.block_dims or any(d < 1 for d in self.block_dims):
            raise ValueError(f"block dims must be positive, got {self.block_dims}")
        self.name = name
        ends = list(itertools.accumulate(self.block_dims))
        self._slices = tuple(slice(end - d, end) for d, end in zip(self.block_dims, ends))
        self.dim = ends[-1]
        self._consts: list[tuple[int, int, np.ndarray]] = []
        self._terms: list[_Term] = []
        self._level: tuple | None = None  # (row, col, value, less) of add_level
        self.level = 0.0
        self._const: np.ndarray | None = None  # the placed constants, once computed

    def _check_block(self, row: int, col: int, shape: tuple[int, int], what: str) -> None:
        nb = len(self.block_dims)
        if not (0 <= row < nb and 0 <= col < nb):
            raise ValueError(f"{what}: block ({row}, {col}) outside {nb}x{nb} grid")
        expect = (self.block_dims[row], self.block_dims[col])
        if shape != expect:
            raise DimensionMismatch(
                f"{what}: block ({row}, {col}) expects {expect[0]}x{expect[1]}, got {shape}"
            )

    def add_const(self, row: int, col: int, value) -> None:
        value = as_matrix(value, "const")
        self._check_block(row, col, value.shape, f"{self.name or 'expr'} const")
        self._consts.append((row, col, value))
        self._const = None

    def add_level(self, row: int, col: int, value, *less) -> None:
        """Place ``level * value - less[0] - less[1] ...`` at block (row, col), before its constants.

        The subtractions run in that order at every level, so the block is,
        bit for bit, the constant written out at that level.
        """
        value = as_matrix(value, "level")
        less = tuple(as_matrix(m, "level") for m in less)
        for m in (value, *less):
            self._check_block(row, col, m.shape, f"{self.name or 'expr'} level")
        self._level = (row, col, value, less)
        self._const = None

    def at(self, level: float) -> "AffineExpr":
        """This expression at ``level``: a copy that shares its terms and constants."""
        return _copy(self, level=level, _const=None)

    def add_term(
        self,
        row: int,
        col: int,
        left,
        var: str,
        right,
        *,
        weight: float = 1.0,
    ) -> None:
        """Add weight * left @ V @ right at block (row, col)."""
        left = as_matrix(left, "left")
        right = as_matrix(right, "right")
        self._check_block(row, col, (left.shape[0], right.shape[1]), f"term on {var!r}")
        self._terms.append(_Term(row, col, left, var, right, float(weight)))

    def add_negated(self, row: int, var: str) -> None:
        """Add -V at block (row, row): the term -I V I, its cached read-only arrays valid by construction."""
        neg, eye = _identity(self.block_dims[row])
        self._terms.append(_Term(row, row, neg, var, eye, 1.0))

    def variables(self) -> set[str]:
        return {t.var for t in self._terms}

    def _place(self, out: np.ndarray, row: int, col: int, value: np.ndarray) -> None:
        """Add value at block (row, col), and its transpose at (col, row), of out or of each matrix of a stack."""
        rows, cols = self._slices[row], self._slices[col]
        out[..., rows, cols] += value
        if row != col:
            out[..., cols, rows] += value.swapaxes(-1, -2)

    def _constant(self) -> np.ndarray:
        """The constant blocks and their transposes, not symmetrized; read-only."""
        if self._const is None:
            out = np.zeros((self.dim, self.dim))
            if self._level is not None:
                row, col, value, less = self._level
                value = self.level * value
                for m in less:
                    value = value - m
                self._place(out, row, col, value)
            for row, col, value in self._consts:
                self._place(out, row, col, value)
            out.setflags(write=False)
            self._const = out
        return self._const

    def constant(self) -> np.ndarray:
        """assemble with every variable at 0: the constant blocks alone."""
        out = self._constant()
        return 0.5 * (out + out.T)

    def assemble(self, assignment: dict) -> np.ndarray:
        """Numeric symmetric matrix at the given variable assignment.

        As ``_place`` on one matrix, with 2-D slices, and a weight of 1 not
        multiplied: the same bits, for fewer numpy calls.
        """
        out = self._constant().copy()
        values = {}
        for t in self._terms:
            v = values.get(t.var)
            if v is None:
                if t.var not in assignment:
                    raise UnboundVariable(
                        f"expression {self.name!r} references unbound variable {t.var!r}"
                    )
                v = values[t.var] = np.asarray(assignment[t.var], dtype=float)
            value = t.left @ v @ t.right
            if t.weight != 1.0:
                value = t.weight * value
            rows, cols = self._slices[t.row], self._slices[t.col]
            out[rows, cols] += value
            if t.row != t.col:
                out[cols, rows] += value.T
        return 0.5 * (out + out.T)

    def linear(self, var: str, values: np.ndarray) -> np.ndarray:
        """assemble(V) - assemble(0), ``var`` at V and every other variable at 0, for each V of a stack.

        One batched product per term on ``var``: (len(values), dim, dim).
        """
        out = np.zeros((len(values), self.dim, self.dim))
        for t in self._terms:
            if t.var == var:
                self._place(out, t.row, t.col, t.weight * (t.left @ values @ t.right))
        return 0.5 * (out + out.swapaxes(1, 2))

    def grad(self, var: str, weight_matrix: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """Gradient of <W, assemble(.)> with respect to ``var``.

        W must be symmetric (``verify_dual`` passes a constraint's
        multiplier). Off-diagonal blocks count twice, once for the implied
        transpose partner.
        """
        g = np.zeros(shape)
        for t in self._terms:
            if t.var != var:
                continue
            wblock = weight_matrix[self._slices[t.row], self._slices[t.col]]
            mult = (2.0 if t.row != t.col else 1.0) * t.weight
            g += mult * (t.left.T @ wblock @ t.right.T)
        return g


class LmiProblem:
    """A set of matrix variables and negative-definiteness constraints.

    Positive-definiteness side conditions are posed as ordinary
    constraints ``-V < 0`` when a symmetric variable is declared with
    ``positive_definite=True``. ``level`` is the level its constraints
    are at: a builder poses them at one, and :meth:`at` re-levels them.
    """

    def __init__(self, margin: DefinitenessMargin = DEFAULT_MARGIN):
        self.variables: dict[str, LmiVariable] = {}
        self.constraints: list[tuple[str, AffineExpr]] = []
        self.margin = margin
        self.level = 0.0

    def at(self, level: float) -> "LmiProblem":
        """This problem with every constraint at ``level``, posed by nothing again.

        The copy shares the variables and the constraints' terms and
        constants; only the level blocks' products change.
        """
        return _copy(self, level=level,
                     constraints=[(name, expr.at(level)) for name, expr in self.constraints])

    def _add_variable(self, var: LmiVariable) -> str:
        if var.name in self.variables:
            raise ValueError(f"variable {var.name!r} already declared")
        self.variables[var.name] = var
        return var.name

    def add_symmetric(self, name: str, dim: int, *, positive_definite: bool = False) -> str:
        self._add_variable(LmiVariable(name, "symmetric", dim, dim))
        if positive_definite:
            expr = AffineExpr([dim], name=f"{name}_pos_def")
            expr.add_negated(0, name)
            self.add_constraint(expr, name=f"{name}_pos_def")
        return name

    def add_rectangular(self, name: str, rows: int, cols: int) -> str:
        return self._add_variable(LmiVariable(name, "rectangular", rows, cols))

    def add_constraint(self, expr: AffineExpr, name: str | None = None) -> str:
        name = name or expr.name or f"c{len(self.constraints)}"
        for t in expr._terms:
            if t.var not in self.variables:
                raise UnboundVariable(
                    f"constraint {name!r} references undeclared variable {t.var!r}"
                )
            want = self.variables[t.var].shape
            tshape = (t.left.shape[1], t.right.shape[0])
            if tshape != want:
                raise DimensionMismatch(
                    f"constraint {name!r}: term expects {t.var!r} of shape {tshape}, "
                    f"declared {want}"
                )
        self.constraints.append((name, expr))
        return name

    def validate(self) -> None:
        referenced = set()
        for _, expr in self.constraints:
            referenced |= expr.variables()
        unused = sorted(set(self.variables) - referenced)
        if unused:
            raise ValueError(f"variables never referenced by any constraint: {unused}")


@dataclass(frozen=True)
class ConstraintCheck:
    """One assembled constraint M at a point: lambda_max(M), its threshold and ||M||_F."""

    name: str
    lambda_max: float
    threshold: float
    norm: float

    @property
    def passed(self) -> bool:
        return self.lambda_max <= self.threshold


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> ConstraintCheck:
        return max(self.checks, key=lambda c: c.lambda_max - c.threshold)


def verify(problem: LmiProblem, assignment: dict) -> VerifyReport:
    """Independent certificate check: eigenvalues of every assembled constraint.

    Pure recomputation from the problem data, at ``problem.margin``, one
    eigensolve per block size; shares no state with the solver.
    """
    lams, norms = _eigen_norms([expr.assemble(assignment) for _, expr in problem.constraints], -1)
    return VerifyReport(checks=tuple(
        ConstraintCheck(name=name, lambda_max=lam, threshold=problem.margin.cutoff(norm), norm=norm)
        for (name, _), lam, norm in zip(problem.constraints, lams, norms)))


def _dual_tolerance(margin: DefinitenessMargin) -> float:
    """A dual's allowance, epsilon_rel capped at the default's: its claim has no margin in it."""
    return min(margin.epsilon_rel, DEFAULT_MARGIN.epsilon_rel)


@dataclass(frozen=True)
class DualReport:
    """Outcome of :func:`verify_dual`; each field passes as commented."""

    psd_slack: float  # min over c of lambda_min(Z_c) + allowance: >= 0
    trace: float  # sum_c tr Z_c: 1 within the dual tolerance
    gradient_slack: float  # min over variables of allowance - ||gradient||: >= 0
    constant: float  # sum_c <Z_c, M_c(0)>: >= 0
    margin: DefinitenessMargin

    @property
    def passed(self) -> bool:
        return (
            self.psd_slack >= 0.0
            and abs(self.trace - 1.0) <= _dual_tolerance(self.margin)
            and self.gradient_slack >= 0.0
            and self.constant >= 0.0
        )


def verify_dual(problem: LmiProblem, multipliers: dict) -> DualReport:
    """Check multipliers Z_c, one per constraint name, that refute ``problem``.

    If every Z_c >= 0, sum_c tr Z_c = 1, sum_c <Z_c, M_c(V)> does not
    depend on any variable V, and its constant part sum_c <Z_c, M_c(0)>
    is >= 0, then no assignment makes every M_c negative definite: the
    sum would then be negative. That claim has no margin in it, so with
    tol = min(epsilon_rel, 1e-8) semidefiniteness allows tol * (1 + ||Z_c||_F),
    the trace tol, and a variable's summed gradient tol * (1 + the sum of
    its per-constraint gradient norms).
    Like :func:`verify`, this recomputes everything from the problem data,
    one eigensolve per block size.
    """
    eps = _dual_tolerance(problem.margin)
    zs = [symmetrize(multipliers[name], f"multiplier {name!r}") for name, _ in problem.constraints]
    for (name, expr), z in zip(problem.constraints, zs):
        if z.shape != (expr.dim, expr.dim):
            raise DimensionMismatch(
                f"multiplier {name!r} must be {expr.dim}x{expr.dim}, got {z.shape}"
            )
    psd_slack = np.inf
    trace = constant = 0.0
    grads: dict[str, list] = {}
    for (_, expr), z, low, norm in zip(problem.constraints, zs, *_eigen_norms(zs, 0)):
        psd_slack = min(psd_slack, low + eps * (1.0 + norm))
        trace += float(z.trace())
        constant += float((z * expr.constant()).sum())
        for vname in expr.variables():
            grads.setdefault(vname, []).append(
                expr.grad(vname, z, problem.variables[vname].shape)
            )
    gradient_slack = np.inf
    for vname, parts in grads.items():
        total = sum(parts)
        if problem.variables[vname].kind == "symmetric":
            total = 0.5 * (total + total.T)
        *part_norms, total_norm = _fro_norms([*parts, total])
        gradient_slack = min(gradient_slack, eps * (1.0 + sum(part_norms)) - total_norm)
    return DualReport(
        psd_slack=float(psd_slack),
        trace=trace,
        gradient_slack=float(gradient_slack),
        constant=constant,
        margin=problem.margin,
    )


@dataclass(frozen=True)
class LmiCertificate:
    """A strictly feasible assignment, constructed only through verification.

    ``problem`` is the problem it was verified against, ``eta`` that
    problem's level. ``iterations`` counts the Newton steps that found it.
    """

    assignment: dict
    report: VerifyReport
    problem: LmiProblem
    iterations: int = 0

    feasible = True

    @property
    def eta(self) -> float:
        return self.problem.level

    @classmethod
    def build(cls, problem: LmiProblem, assignment: dict, iterations: int = 0) -> "LmiCertificate":
        frozen = {}
        for name, value in assignment.items():
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            frozen[name] = arr
        report = verify(problem, frozen)
        if not report.passed:
            worst = report.worst()
            raise VerificationFailed(
                f"assignment does not satisfy constraint {worst.name!r}: "
                f"lambda_max {worst.lambda_max:.6e} > threshold {worst.threshold:.6e}"
            )
        return cls(assignment=frozen, report=report, problem=problem, iterations=iterations)


@dataclass(frozen=True)
class Indeterminate:
    """No certificate found.

    On its own not a proof of infeasibility. ``best_value`` is the worst
    constraint eigenvalue at the solver's last point (None when no solve
    ran); ``dual``, when present, maps each constraint name to a
    multiplier that passed :func:`verify_dual`, which does prove
    infeasibility. ``iterations`` counts Newton steps.
    """

    best_value: float | None = None
    iterations: int = 0
    message: str = ""
    dual: dict | None = None

    feasible = False


# Default total Newton-step budget of one ``solve``.
MAX_ITERS = 300
# Central-path gap at which the second phase of an eta maximize stops.
ETA_TOL = 1e-3
# Factor by which the barrier weight grows once a point is centered.
TAU_GROWTH = 8.0
# A point counts as centered when half its squared Newton decrement is
# below CENTERED, or below CENTERED_DUAL while its multipliers have a
# nonnegative constant: those may refute the problem once their
# gradient residual is within verify_dual's allowance. ``solve``'s
# multipliers with a negative constant cannot refute, so there it
# centers only to FULL_STEP.
CENTERED = 1e-6
CENTERED_DUAL = 1e-18
# Newton decrement below which the full step is taken without a line search.
FULL_STEP = 0.25
# Backtracking line search: sufficient-decrease fraction and smallest step.
ARMIJO = 0.01
MIN_STEP = 1e-10
# The solve stops once the central path's duality gap dim / tau is below
# this share of 1 + |t|: t then cannot move by as much as a margin.
STALL_GAP = 1e-11
# Singular values below this share of the largest span no slack direction.
RANK_RTOL = 1e-12
# The basis skips its SVD when Gram - FULL_RANK tr(Gram) I has a Cholesky
# factor: then sigma_min^2 >= (FULL_RANK - rounding, below 1e-11 at desk
# scale) sigma_max^2, so no singular value is within RANK_RTOL of the largest.
FULL_RANK = 1e-8
# lambda_min(S_c) <= 1 / max diag(S_c^-1), so once t max diag(S_c^-1) reaches
# 1, M_c = t I - S_c has lambda_max >= 0 and cannot certify; the extra 1%
# allows for rounding in S_c^-1.
SCREEN = 1.01


class _Barrier:
    """The slacks of every constraint, affine in coordinates x.

    A symmetric variable has one coordinate per upper-triangle entry, a
    rectangular one per entry; x stacks them, from ``start``, then one r_c
    per constraint when ``radii`` gives their start, and then a scalar s,
    from ``s0``, that moves slack c by ``last[c]`` per unit: with
    identities s is the t of ``solve`` (S_c = t I - M_c(v)). The basis
    matrices A_{c,i} come from ``AffineExpr.linear`` at unit assignments
    E, one batched product per term, or at L E L' for a symmetric variable
    whose start V0 = L L' is positive definite, so that V0's coordinates
    are those of I: a phase-I X with eigenvalues from 1.5 to 4.7e6 (a
    random n = 5 synthesis) left the unit basis's Hessian too
    ill-conditioned (about 1e17) to center. Newton steps move x = x0 + Q
    y, where the columns of Q span the directions that change some slack:
    moving along any other leaves the barrier flat and its Hessian
    singular, unless it lowers t (then the start moves along it). Q = I
    when a Cholesky of the coefficients' Gram matrix shows full row rank,
    and comes from their SVD otherwise.

    The slacks are the diagonal blocks of one D x D block-diagonal slack
    S, D the sum of the constraint dims, so a point takes one call for
    each whole-S step: one Cholesky (log det from its diagonal), one
    inverse for Z = S^-1 = L^-T L^-1, one Cholesky for ``certifies`` and
    one screen. The coefficients stay compact: row j of ``flat`` holds
    every block's change per unit of y_j, flattened block after block
    (the sum of the squared dims, not D^2), and the Hessian's products
    L_c^-1 F_{c,j} L_c^-T run per block on them, so an n = 10 synthesis,
    whose Hessian (over 100 directions) dominates a step, does no flops on
    the zero off-diagonal blocks. ``entries`` are a point's slacks in that
    compact order. The block layout and the unit symmetric bases depend
    on the shapes alone, so they are built once per shape and shared
    read-only (:func:`_block_layout`, :func:`_symmetric_basis`).

    With ``radii`` the barrier holds the problem's margin exactly: slack c
    is S_c = -M_c - (e + r_c) I, e being epsilon_rel, and the cone term
    -log(r_c^2 - e^2 ||M_c||_F^2), r_c > 0, joins -log det S. A point is
    then inside exactly where every lambda_max(M_c) < -e (1 +
    ||M_c||_F), which is the test ``verify`` applies.
    """

    def __init__(self, problem: LmiProblem, start: dict, last: list, s0: float,
                 radii: list | None = None):
        self.layout, v0 = {}, []
        for name, var in problem.variables.items():
            v = np.asarray(start[name], dtype=float)
            if var.kind == "symmetric":
                i, j, basis = _symmetric_basis(var.rows)
                try:
                    left = np.linalg.cholesky(v)  # v = left left', whose coordinates are I's
                    basis, v = left @ basis @ left.T, np.eye(var.rows)
                except np.linalg.LinAlgError:
                    pass
                v0 += v[i, j].tolist()
            else:
                basis = np.eye(v.size).reshape(v.size, *var.shape)
                v0 += v.ravel().tolist()
            self.layout[name] = (slice(len(v0) - len(basis), len(v0)), basis)
        variables = len(v0)
        radii = [] if radii is None else list(radii)
        self.x0 = np.array(v0 + radii + [s0])
        self.eps = problem.margin.epsilon_rel

        coeffs, consts = [], []
        for c, ((_, expr), last_c) in enumerate(zip(problem.constraints, last)):
            const, eye = expr.constant(), np.eye(expr.dim)
            rows = np.zeros((len(self.x0), expr.dim, expr.dim))
            for name in expr.variables():
                sl, basis = self.layout[name]
                rows[sl] = -expr.linear(name, basis)
            if radii:
                rows[variables + c] = -eye
                const = const + self.eps * eye
            rows[-1] = last_c
            coeffs.append(rows.reshape(len(rows), -1))
            consts.append(const.ravel())
        coeffs = np.hstack(coeffs)

        dims = tuple(expr.dim for _, expr in problem.constraints)
        self.size = sum(dims)
        (self.blocks, self.starts, self.index, self.eye, self.diagonal_at, self.one_hot,
         self.diagonal) = _block_layout(dims)

        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Gram matrix takes the SVD
            gram = coeffs @ coeffs.T
            gram -= FULL_RANK * np.trace(gram) * np.eye(len(gram))
        if _positive_definite(gram):  # sigma_min^2 >= (FULL_RANK - rounding) sum sigma^2
            self.q, self.flat = np.eye(len(gram)), coeffs
        else:
            u, sv, _ = np.linalg.svd(coeffs, full_matrices=False)
            self.q = u[:, sv > RANK_RTOL * sv[0]]
            self.flat = self.q.T @ coeffs
        # The part of the t axis outside range(Q) lowers t and keeps every
        # slack: when there is one, slide the start along it to t = 0.
        free = -self.q @ self.q[-1]
        free[-1] += 1.0
        if free[-1] > RANK_RTOL:
            self.x0 = self.x0 - (s0 / free[-1]) * free
        consts = np.concatenate(consts)
        self.base = self.x0 @ coeffs - consts
        self.consts = self._full(consts)
        k = self.flat.shape[0]
        # views of flat: block c's change per unit of y_j, (k, d_c, d_c)
        self.block_flats = [self.flat[:, start:start + d * d].reshape(k, d, d)
                            for start, d in zip(self.starts.tolist(), dims)]
        # the cones: every r_c at y = 0, dr_c/dy (a row each), 2 e^2 times the
        # change of -M_c = S_c + (e + r_c) I per unit of y (compact), and -2
        # (dr_c/dy dr_c/dy' - e^2 times that change's Gram matrix), flattened, a
        # column each
        self.cones = bool(radii)
        if radii:
            self.r0 = self.x0[variables:variables + len(radii)]
            self.dr = self.q[variables:variables + len(radii)]
            dm = self.flat + self.dr.T @ self.diagonal.T
            curvature = [(np.outer(h, h) - self.eps ** 2 * m @ m.T).ravel()
                         for h, m in zip(self.dr, np.split(dm, self.starts[1:], axis=1))]
            self.dm = 2.0 * self.eps ** 2 * dm
            self.curvature = -2.0 * np.stack(curvature, axis=-1)
        # duality gap on the central path, times tau
        self.dim = self.size + 2 * len(radii)

    def x(self, y: np.ndarray) -> np.ndarray:
        return self.x0 + self.q @ y

    def assignment(self, y: np.ndarray) -> dict:
        v = self.x(y)[:-1]
        return {name: np.tensordot(v[sl], basis, 1) for name, (sl, basis) in self.layout.items()}

    def _full(self, entries: np.ndarray) -> np.ndarray:
        """The D x D block-diagonal matrix whose blocks hold ``entries``."""
        out = np.zeros(self.size * self.size)
        out[self.index] = entries
        return out.reshape(self.size, self.size)

    def factor(self, y: np.ndarray):
        """(point, the barrier's value) at y, or None outside its domain.

        The point holds the slack's entries, its Cholesky factor and, with
        radii, every r_c, r_c^2 - e^2 ||M_c||_F^2 and -M_c's entries.
        """
        entries = self.base + y @ self.flat
        # A finite slack with a diagonal entry <= 0 cannot factor, and a point
        # with some r_c <= 0 is outside its cone: reject both before the
        # Cholesky. (numpy's Cholesky may return NaN factors, not fail, for
        # a slack with a NaN entry, so a slack that is not finite goes on.)
        if (entries[self.diagonal_at] <= 0.0).any() and np.isfinite(entries).all():
            return None
        if self.cones:
            r = self.r0 + self.dr @ y
            if (r <= 0.0).any():
                return None
        try:
            chol = np.linalg.cholesky(self._full(entries))
        except np.linalg.LinAlgError:
            return None
        value = -2.0 * float(np.log(chol.diagonal()).sum())
        cones = None
        if self.cones:
            m = entries + self.diagonal @ (self.eps + r)
            room = r * r - self.eps ** 2 * np.add.reduceat(m * m, self.starts)
            if (room <= 0.0).any():
                return None
            value -= float(np.log(room).sum())
            cones = r, room, m
        return (entries, chol, cones), value

    def certifies(self, y: np.ndarray, point: tuple, margin: DefinitenessMargin) -> bool:
        """Every M_c = t I - S_c clears its margin threshold: one Cholesky of diag(thresholds) - M."""
        m = self.x(y)[-1] * self.eye - point[0]
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.add.reduceat(m * m, self.starts))
        if not np.isfinite(norms).all():  # as fro_norm does, rescale where the squares overflow
            norms = np.array([fro_norm(part) for part in np.split(m, self.starts[1:])])
        return _positive_definite(self._full(self.diagonal @ margin.cutoff(norms) - m))

    def derivatives(self, y: np.ndarray, point: tuple):
        """Gradient and Hessian in y of the barrier at ``factor``'s point, and Z = S^-1."""
        _, chol, cones = point
        k = len(y)
        li = np.linalg.inv(chol)
        grad = np.zeros(k)
        hess = np.zeros((k, k))
        for block, f in zip(self.blocks, self.block_flats):
            lc = li[block, block]
            g = (lc @ f @ lc.T).reshape(k, -1)  # L_c^-1 F_{c,j} L_c^-T
            grad -= g[:, :: len(lc) + 1].sum(axis=1)  # their traces
            hess += g @ g.T
        if cones is not None:
            r, room, m = cones
            # the gradients of log room_c, one column per cone
            d = (2.0 * self.dr.T * r - self.dm @ (m[:, None] * self.one_hot)) / room
            grad -= d.sum(axis=1)
            hess += d @ d.T + (self.curvature @ (1.0 / room)).reshape(k, k)
        return grad, hess, li.T @ li


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def _identity(dim: int) -> tuple:
    """(-I, I) of size dim, read-only: the term of each ``AffineExpr.add_negated``."""
    return _read_only(-np.eye(dim), np.eye(dim))


@functools.lru_cache(maxsize=64)
def _symmetric_basis(rows: int) -> tuple:
    """(i, j, E): the upper triangle's (i, j) and its unit symmetric matrices E_ij, read-only."""
    i, j = np.array([(a, b) for a in range(rows) for b in range(a, rows)]).T
    basis = np.zeros((len(i), rows, rows))
    basis[np.arange(len(i)), i, j] = basis[np.arange(len(i)), j, i] = 1.0
    return _read_only(i, j, basis)


@functools.lru_cache(maxsize=64)
def _block_layout(dims: tuple) -> tuple:
    """The layout of a block-diagonal slack with blocks of ``dims``, every array read-only.

    (blocks, starts, index, eye, diagonal_at, one_hot, diagonal): each
    block's rows, each block's first entry in the compact order, each
    entry's place in the flattened D x D slack, I's entries, the places
    of the diagonal's entries, each entry's block one-hot, and each
    block's I, a column per block.
    """
    size = sum(dims)
    sizes = np.array(dims)
    starts = np.cumsum(sizes ** 2) - sizes ** 2
    blocks = tuple(slice(end - d, end) for d, end in zip(dims, np.cumsum(dims).tolist()))
    block_of = np.repeat(np.arange(len(dims)), dims)  # each row's block
    # each entry's place in the flattened D x D slack, block after block
    index = np.flatnonzero(block_of[:, None] == block_of)
    eye = (index % (size + 1) == 0).astype(float)
    one_hot = (block_of[index // size, None] == np.arange(len(dims))).astype(float)
    diagonal = one_hot * eye[:, None]
    return (blocks,) + _read_only(starts, index, eye, np.flatnonzero(eye), one_hot, diagonal)


def _positive_definite(m: np.ndarray) -> bool:
    """A Cholesky test that NaN entries fail (numpy's Cholesky returns NaN factors for them)."""
    if not np.isfinite(m).all():
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton(barrier: _Barrier, sign: float, tau0, visit, max_iters: int,
            threshold=lambda z: CENTERED):
    """Barrier method on sign s, s being the barrier's last coordinate.

    Takes Newton steps on tau sign s + phi(y) from y = 0, phi being the
    barrier, so sign 1 lowers s and -1 raises it. tau starts at
    ``tau0(z)``, z being S^-1 at y = 0, and grows by TAU_GROWTH at each
    centered point: one where half the squared Newton decrement is at most
    ``threshold(z)``. Before each step, ``visit(step, y, point, grad, z,
    tau, centered, spent)`` may end the run by returning
    its result; it must once ``spent``, which is None until ``max_iters``
    steps are taken or the Newton decrement is no longer finite (badly
    scaled data), and then says which. Returns None at once if rounding
    puts the start outside the barrier's domain, as plant entries of 1e8
    and up can.
    """
    objective = barrier.q[-1] if sign > 0 else -barrier.q[-1]  # d(sign s)/dy
    y = np.zeros(barrier.q.shape[1])
    factored = barrier.factor(y)
    if factored is None:
        return None
    point, value = factored
    tau = None
    step = 0
    while True:
        grad, hess, z = barrier.derivatives(y, point)
        if tau is None:
            tau = tau0(z)
        dy, decrement = _newton_step(hess, grad + tau * objective)
        centered = 0.5 * decrement <= threshold(z)
        spent = (f"within {step} Newton steps" if step == max_iters else
                 None if math.isfinite(decrement) else
                 f"after {step} Newton steps: the Newton decrement is not finite (badly scaled data)")
        result = visit(step, y, point, grad, z, tau, centered, spent)
        if result is not None:
            return result
        step += 1
        if centered:
            tau *= TAU_GROWTH
            dy, decrement = _newton_step(hess, grad + tau * objective)
        found = _line_search(barrier, y, dy, tau * objective, -decrement,
                             tau * (objective @ y) + value, np.sqrt(max(decrement, 0.0)))
        if found is None:
            tau *= TAU_GROWTH  # no progress at this weight: treat y as centered
            continue
        y, point, value = found


def solve(problem: LmiProblem, max_iters: int = MAX_ITERS):
    """Decide strict feasibility of ``problem`` by a log-det barrier method.

    Minimizes t subject to M_c(v) <= t I for every constraint (Boyd &
    Vandenberghe, *Convex Optimization*, CUP 2004, sec. 11), by Newton
    steps on tau t - sum_c log det(t I - M_c(v)) with tau raised by
    TAU_GROWTH at each centered point. There are three outcomes:

    * an :class:`LmiCertificate`, as soon as a point passes
      ``LmiCertificate.build``, which re-verifies it by eigenvalues;
    * an :class:`Indeterminate` whose ``dual`` refutes the problem, as
      soon as the multipliers Z_c = (t I - M_c(v))^{-1}, scaled to total
      trace 1, pass :func:`verify_dual` (sec. 5.9 there: at a centered
      point they cancel every variable, and their constant is t minus
      the duality gap);
    * an :class:`Indeterminate` without a dual when ``max_iters`` Newton
      steps decide neither, or when t stops moving (the central path's
      gap falls below STALL_GAP) first, or at once when rounding puts
      the start outside the barrier's domain (badly scaled data).

    The start point is X = I for symmetric variables and 0 for the
    others; when it verifies, it is returned after 0 steps.
    """
    problem.validate()
    start = {name: np.eye(var.rows) if var.kind == "symmetric" else np.zeros(var.shape)
             for name, var in problem.variables.items()}
    report = verify(problem, start)
    if report.passed:
        return LmiCertificate.build(problem, start)

    barrier = _Barrier(problem, start, [np.eye(expr.dim) for _, expr in problem.constraints],
                       max(c.lambda_max for c in report.checks) + 1.0)
    t_of = barrier.q[-1]  # dt/dy

    last = [None, None]  # one step's Z = S^-1 and its multipliers, computed once

    def multipliers(z):
        """Z's trace, and the multipliers' constant at trace 1."""
        if last[0] is not z:
            total = float(np.trace(z))
            last[:] = z, (total, float(np.sum(z * barrier.consts)) / total)
        return last[1]

    def visit(step, y, point, grad, z, tau, centered, spent):
        t = barrier.x(y)[-1]
        if not _ruled_out(t, z) and barrier.certifies(y, point, problem.margin):
            try:
                return LmiCertificate.build(problem, barrier.assignment(y), iterations=step)
            except VerificationFailed:
                pass  # rounding between the basis and assemble; keep going
        total, constant = multipliers(z)
        # the gradient along y is the multipliers' residual, times total
        residual = np.linalg.norm(grad + total * t_of) / total
        if constant >= 0.0 and residual <= _dual_tolerance(problem.margin):
            dual = {name: z[block, block] / total
                    for (name, _), block in zip(problem.constraints, barrier.blocks)}
            if verify_dual(problem, dual).passed:
                return Indeterminate(
                    best_value=_worst(problem, barrier.assignment(y)),
                    iterations=step,
                    message="refuted: the barrier's multipliers pass verify_dual, "
                    "so no assignment is strictly feasible",
                    dual=dual,
                )
        if spent or barrier.dim / tau <= STALL_GAP * (1.0 + abs(t)):
            reason = spent or (f"after {step} Newton steps: stalled at t = {t:.6g}, central-path "
                               f"gap {barrier.dim / tau:.1e}, multipliers' gradient residual "
                               f"{residual:.1e}")
            return Indeterminate(
                best_value=_worst(problem, barrier.assignment(y)),
                iterations=step,
                message=f"no certificate or refutation {reason}",
            )
        return None

    # tau0 centers the start in t; the multipliers may refute once centered
    # closely while their constant is >= 0, and cannot while it is < 0
    # (Boyd & Vandenberghe, sec. 11.3: the path need not be followed closely)
    result = _newton(barrier, 1.0, lambda z: multipliers(z)[0], visit, max_iters,
                     lambda z: CENTERED_DUAL if multipliers(z)[1] >= 0.0 else 0.5 * FULL_STEP ** 2)
    if result is not None:
        return result
    return Indeterminate(
        best_value=report.worst().lambda_max,
        iterations=0,
        message="no certificate or refutation: in floating point the barrier's start "
        "is outside its domain (badly scaled data)",
    )


def certify(problem: LmiProblem, eta, max_iters: int):
    """The certificate of ``problem.at(eta)``, or the solve's Indeterminate unchanged.

    ``eta`` is a number, solved at that level, or ``"maximize"``: phase I
    solves ``problem.at(0.0)``, and phase II (:func:`_maximize`) raises
    eta from its point to within ETA_TOL. Every level is ``problem``
    re-leveled, so each form is posed once. The :class:`LmiCertificate`
    carries the problem at the level it verified at, so its ``eta`` is
    that level.
    """
    level = 0.0 if eta == "maximize" else float(eta)
    first = solve(problem.at(level), max_iters)
    if not first.feasible or eta != "maximize":
        return first
    return _maximize(first, max_iters)


def _maximize(first: LmiCertificate, max_iters: int) -> LmiCertificate:
    """The certificate at the largest s, to within ETA_TOL, at which ``problem.at(s)`` certifies.

    ``problem`` is the one ``first`` certifies (phase I), at its level.
    Phase II is the barrier method of :func:`_newton` raising s from
    ``first``'s point, on the barrier that holds the margin exactly
    (:class:`_Barrier` with radii, set from ``first.report``), until the
    central path's gap dim / tau is at most ETA_TOL (Boyd & Vandenberghe,
    sec. 11.3) or ``max_iters`` steps are spent. s's basis matrices are
    the forms' constants less those of ``problem.at(level + 1)``, so no
    second copy of any form appears. The margin also keeps the points
    bounded where log det alone would grow without limit (P of a
    memoryless loop): a constant diagonal entry of M_c bounds
    lambda_max(M_c) below, and so ||M_c||_F above.

    Returns ``LmiCertificate.build`` on ``problem.at(s)`` at the iterate
    of largest s, its ``iterations`` counting the Newton steps of both
    phases. Each iterate lies inside the barrier that holds the margin, so
    only rounding between the basis and ``assemble`` can make that build
    fail; then the next iterate down that builds is returned, or ``first``.
    """
    problem = first.problem
    level = problem.level
    slopes = [expr.constant() - grown.constant()
              for (_, expr), (_, grown) in zip(problem.constraints,
                                               problem.at(level + 1.0).constraints)]
    eps = problem.margin.epsilon_rel
    radii = []
    for check in first.report.checks:
        low, high = eps * check.norm, -check.lambda_max - eps
        if low >= high:  # on its margin's edge: no room to start from
            return first
        radii.append(0.5 * (low + high))
    barrier = _Barrier(problem, first.assignment, slopes, 0.0, radii)
    points = []

    def visit(step, y, point, grad, z, tau, centered, spent):
        points.append((level + float(barrier.x(y)[-1]), step, y))
        if spent or (centered and barrier.dim / tau <= ETA_TOL):
            return step
        return None

    # from a central-path gap of 1 / TAU_GROWTH: a larger tau0 can pin a start
    # near the margin's edge there, where the Hessian is too ill-conditioned to leave
    taken = _newton(barrier, -1.0, lambda z: TAU_GROWTH * barrier.dim, visit, max_iters)
    for s, _, y in sorted(points, reverse=True):
        if s < level:
            break
        try:
            return LmiCertificate.build(problem.at(s), barrier.assignment(y),
                                        iterations=first.iterations + taken)
        except VerificationFailed:
            pass  # rounding between the basis and assemble
    return first


def _ruled_out(t: float, z: np.ndarray) -> bool:
    """True when some M_c = t I - S_c cannot clear its margin: t max diag(Z) >= SCREEN, Z = S^-1.

    S is block diagonal and diag(Z) > 0, so this is the per-block test
    t max diag(S_c^-1) >= SCREEN for some c.
    """
    return t * float(z.diagonal().max()) >= SCREEN


def _worst(problem: LmiProblem, assignment: dict) -> float:
    return verify(problem, assignment).worst().lambda_max


def _newton_step(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """The Newton direction dy for gradient g, and its squared decrement -g'dy (inf or nan on overflow)."""
    try:
        dy = np.linalg.solve(hess, -g)
    except np.linalg.LinAlgError:
        dy = np.linalg.lstsq(hess, -g, rcond=None)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return dy, float(-g @ dy)


def _line_search(barrier: _Barrier, y, dy, objective, slope: float, value: float,
                 decrement: float):
    """(y, ``factor``'s point, barrier value) after a damped Newton step, or None.

    A short step (decrement below FULL_STEP) is taken in full while the
    slacks stay positive definite; otherwise backtracking halves the
    step until the barrier drops by ARMIJO of its linear prediction.
    """
    s = 1.0
    while s >= MIN_STEP:
        trial = y + s * dy
        factored = barrier.factor(trial)
        if factored is not None and (
            decrement < FULL_STEP
            or objective @ trial + factored[1] <= value + ARMIJO * s * slope
        ):
            return (trial, *factored)
        s *= 0.5
    return None
