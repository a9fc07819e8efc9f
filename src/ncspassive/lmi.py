"""Coupled linear matrix inequality feasibility engine.

Variables are symmetric or rectangular real matrices. A constraint is a
block-structured affine symmetric expression required to be negative
definite under a relative margin. ``solve`` runs a log-det barrier
method (Boyd & Vandenberghe, *Convex Optimization*, CUP 2004, sec. 11;
Vandenberghe & Boyd, "Semidefinite programming", *SIAM Review* 38,
1996) on

    min t  subject to  M_c(v) <= t I  for every constraint c,

and ends in one of three ways: a certificate, once a point passes the
eigenvalue-based ``verify``, which shares no state with the solver; an
Indeterminate whose ``dual`` refutes the problem, once the barrier's
multipliers pass ``verify_dual``; or an Indeterminate without a dual,
once the Newton-step budget (``max_iters``, MAX_ITERS by default) runs
out or t stops moving.

``certify`` owns the choice between a fixed level and the largest one:
for a problem family affine in a scalar s (a dissipation level eta), it
solves at the given s, or solves at s = 0 and then raises s by Newton
steps on the same barrier (Boyd et al., sec. 2.4) to within ETA_TOL.

A problem owns its definiteness margin: ``verify``, ``verify_dual``,
``LmiCertificate.build`` and ``solve`` all read ``problem.margin``, so a
certificate is always checked at the margin its problem was posed with.

``verify_dual`` is the other half of the theorem of alternatives (Boyd
et al., *Linear Matrix Inequalities in System and Control Theory*, SIAM
1994, sec. 2.2): positive semidefinite multipliers, one per constraint,
whose weighted sum of the constraints is a nonnegative constant prove
that no assignment is feasible. Every ``dual`` on an Indeterminate has
passed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, UnboundVariable, VerificationFailed
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    as_matrix,
    fro_norm,
    sym_eigvals,
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
    """

    def __init__(self, block_dims, name: str = ""):
        self.block_dims = tuple(int(d) for d in block_dims)
        if not self.block_dims or any(d < 1 for d in self.block_dims):
            raise ValueError(f"block dims must be positive, got {self.block_dims}")
        self.name = name
        offsets = np.concatenate([[0], np.cumsum(self.block_dims)])
        self._offsets = offsets
        self.dim = int(offsets[-1])
        self._consts: list[tuple[int, int, np.ndarray]] = []
        self._terms: list[_Term] = []

    def _slice(self, block: int) -> slice:
        return slice(int(self._offsets[block]), int(self._offsets[block + 1]))

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

    def variables(self) -> set[str]:
        return {t.var for t in self._terms}

    def _place(self, out: np.ndarray, row: int, col: int, value: np.ndarray) -> None:
        out[self._slice(row), self._slice(col)] += value
        if row != col:
            out[self._slice(col), self._slice(row)] += value.T

    def assemble(self, assignment: dict) -> np.ndarray:
        """Numeric symmetric matrix at the given variable assignment."""
        out = np.zeros((self.dim, self.dim))
        for row, col, value in self._consts:
            self._place(out, row, col, value)
        for t in self._terms:
            if t.var not in assignment:
                raise UnboundVariable(
                    f"expression {self.name!r} references unbound variable {t.var!r}"
                )
            v = np.asarray(assignment[t.var], dtype=float)
            value = t.weight * (t.left @ v @ t.right)
            self._place(out, t.row, t.col, value)
        return 0.5 * (out + out.T)

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
            wblock = weight_matrix[self._slice(t.row), self._slice(t.col)]
            mult = (2.0 if t.row != t.col else 1.0) * t.weight
            g += mult * (t.left.T @ wblock @ t.right.T)
        return g


class LmiProblem:
    """A set of matrix variables and negative-definiteness constraints.

    Positive-definiteness side conditions are posed as ordinary
    constraints ``-V < 0`` when a symmetric variable is declared with
    ``positive_definite=True``.
    """

    def __init__(self, margin: DefinitenessMargin = DEFAULT_MARGIN):
        self.variables: dict[str, LmiVariable] = {}
        self.constraints: list[tuple[str, AffineExpr]] = []
        self.margin = margin

    def _add_variable(self, var: LmiVariable) -> str:
        if var.name in self.variables:
            raise ValueError(f"variable {var.name!r} already declared")
        self.variables[var.name] = var
        return var.name

    def add_symmetric(self, name: str, dim: int, *, positive_definite: bool = False) -> str:
        self._add_variable(LmiVariable(name, "symmetric", dim, dim))
        if positive_definite:
            expr = AffineExpr([dim], name=f"{name}_pos_def")
            expr.add_term(0, 0, -np.eye(dim), name, np.eye(dim))
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
    name: str
    lambda_max: float
    threshold: float

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

    Pure recomputation from the problem data, at ``problem.margin``;
    shares no state with the solver.
    """
    checks = []
    for name, expr in problem.constraints:
        m = expr.assemble(assignment)
        lam = float(sym_eigvals(m)[-1])
        threshold = problem.margin.threshold(m)
        checks.append(ConstraintCheck(name=name, lambda_max=lam, threshold=threshold))
    return VerifyReport(checks=tuple(checks))


@dataclass(frozen=True)
class DualReport:
    """Outcome of :func:`verify_dual`; each field passes as commented."""

    psd_slack: float  # min over c of lambda_min(Z_c) + allowance: >= 0
    trace: float  # sum_c tr Z_c: 1 within epsilon_rel
    gradient_slack: float  # min over variables of allowance - ||gradient||: >= 0
    constant: float  # sum_c <Z_c, M_c(0)>: >= 0
    margin: DefinitenessMargin

    @property
    def passed(self) -> bool:
        return (
            self.psd_slack >= 0.0
            and abs(self.trace - 1.0) <= self.margin.epsilon_rel
            and self.gradient_slack >= 0.0
            and self.constant >= 0.0
        )


def verify_dual(problem: LmiProblem, multipliers: dict) -> DualReport:
    """Check multipliers Z_c, one per constraint name, that refute ``problem``.

    If every Z_c >= 0, sum_c tr Z_c = 1, sum_c <Z_c, M_c(V)> does not
    depend on any variable V, and its constant part sum_c <Z_c, M_c(0)>
    is >= 0, then no assignment makes every M_c negative definite: the
    sum would then be negative. Semidefiniteness allows
    epsilon_rel * (1 + ||Z_c||_F); a variable's summed gradient allows
    epsilon_rel * (1 + the sum of its per-constraint gradient norms).
    Like :func:`verify`, this recomputes everything from the problem data,
    at ``problem.margin``.
    """
    eps = problem.margin.epsilon_rel
    zero = {name: np.zeros(var.shape) for name, var in problem.variables.items()}
    psd_slack = np.inf
    trace = constant = 0.0
    grads: dict[str, list] = {}
    for name, expr in problem.constraints:
        z = symmetrize(multipliers[name], f"multiplier {name!r}")
        if z.shape != (expr.dim, expr.dim):
            raise DimensionMismatch(
                f"multiplier {name!r} must be {expr.dim}x{expr.dim}, got {z.shape}"
            )
        psd_slack = min(psd_slack, float(sym_eigvals(z)[0]) + eps * (1.0 + fro_norm(z)))
        trace += float(np.trace(z))
        constant += float(np.sum(z * expr.assemble(zero)))
        for vname in expr.variables():
            grads.setdefault(vname, []).append(
                expr.grad(vname, z, problem.variables[vname].shape)
            )
    gradient_slack = np.inf
    for vname, parts in grads.items():
        total = sum(parts)
        if problem.variables[vname].kind == "symmetric":
            total = 0.5 * (total + total.T)
        allowance = eps * (1.0 + sum(fro_norm(g) for g in parts))
        gradient_slack = min(gradient_slack, allowance - fro_norm(total))
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

    ``iterations`` counts the Newton steps that found it. ``eta`` is the
    level ``certify`` posed the problem at, None from a bare ``solve``.
    """

    assignment: dict
    report: VerifyReport
    iterations: int = 0
    eta: float | None = None

    feasible = True

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
        return cls(assignment=frozen, report=report, iterations=iterations)


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
# gradient residual is within verify_dual's allowance.
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
    matrices A_{c,i} are read off ``AffineExpr.assemble`` at unit
    assignments E, or at L E L' for a symmetric variable whose start
    V0 = L L' is positive definite, so that V0's coordinates are those of
    I: a phase-I X with eigenvalues from 1.5 to 4.7e6 (a random n = 5
    synthesis) left the unit basis's Hessian too ill-conditioned (about
    1e17) to center. Newton steps move x = x0 + Q y, where the columns of
    Q span the directions that change some slack: moving along any other
    leaves the barrier flat and its Hessian singular, unless it lowers t
    (then the start moves along it). Row j of ``flats[c]`` is the change
    of S_c, flattened, per unit of y_j.

    With ``radii`` the barrier holds the problem's margin exactly: slack c
    is S_c = -M_c - (e + r_c) I, e being epsilon_rel, and the cone term
    -log(r_c^2 - e^2 ||M_c||_F^2), r_c > 0, joins -log det S_c. A point
    is then inside exactly where every lambda_max(M_c) < -e (1 +
    ||M_c||_F), which is the test ``verify`` applies.
    """

    def __init__(self, problem: LmiProblem, start: dict, last: list, s0: float,
                 radii: list | None = None):
        self.layout = {}
        units, v0 = [], []
        for name, var in problem.variables.items():
            first = len(units)
            v, left = start[name], np.eye(var.rows)
            if var.kind == "symmetric":
                try:
                    left = np.linalg.cholesky(v)  # v = left left', whose coordinates are I's
                    v = np.eye(var.rows)
                except np.linalg.LinAlgError:
                    pass
            for i, j in (zip(*np.triu_indices(var.rows)) if var.kind == "symmetric"
                         else np.ndindex(var.shape)):
                u = np.zeros(var.shape)
                u[i, j] = 1.0
                if var.kind == "symmetric":
                    u[j, i] = 1.0
                    u = left @ u @ left.T
                units.append((name, u))
                v0.append(float(v[i, j]))
            self.layout[name] = (slice(first, len(units)), np.stack([u for _, u in units[first:]]))
        radii = [] if radii is None else list(radii)
        self.x0 = np.array(v0 + radii + [s0])
        self.eps = problem.margin.epsilon_rel

        zero = {name: np.zeros(var.shape) for name, var in problem.variables.items()}
        self.consts, coeffs = [], []
        for c, ((_, expr), last_c) in enumerate(zip(problem.constraints, last)):
            const = expr.assemble(zero)
            seen = expr.variables()
            eye = np.eye(len(const))
            rows = [const - expr.assemble({**zero, name: u}) if name in seen else np.zeros_like(const)
                    for name, u in units]
            rows += [-eye if j == c else np.zeros_like(const) for j in range(len(radii))]
            if radii:
                const = const + self.eps * eye
            self.consts.append(const)
            coeffs.append(np.stack(rows + [last_c]))
        flat = np.hstack([f.reshape(len(f), -1) for f in coeffs])
        u, sv, _ = np.linalg.svd(flat, full_matrices=False)
        self.q = u[:, sv > RANK_RTOL * sv[0]]
        # The part of the t axis outside range(Q) lowers t and keeps every
        # slack: when there is one, slide the start along it to t = 0.
        free = -self.q @ self.q[-1]
        free[-1] += 1.0
        if free[-1] > RANK_RTOL:
            self.x0 = self.x0 - (s0 / free[-1]) * free
        self.flats = [self.q.T @ f.reshape(len(f), -1) for f in coeffs]
        self.base = [self.x0 @ f.reshape(len(f), -1) - c.ravel()
                     for f, c in zip(coeffs, self.consts)]
        self.eyes = [np.eye(len(c)) for c in self.consts]
        # per cone: r_c's index in x, dr_c/dy, the change of -M_c = S_c +
        # (e + r_c) I per unit of y (flattened) and that change's Gram matrix
        self.cones = []
        for c, r in enumerate(range(len(v0), len(v0) + len(radii))):
            m_of = self.flats[c] + np.outer(self.q[r], self.eyes[c].ravel())
            self.cones.append((r, self.q[r], m_of, m_of @ m_of.T))
        # duality gap on the central path, times tau
        self.dim = sum(len(c) for c in self.consts) + 2 * len(self.cones)

    def x(self, y: np.ndarray) -> np.ndarray:
        return self.x0 + self.q @ y

    def assignment(self, y: np.ndarray) -> dict:
        v = self.x(y)[:-1]
        return {name: np.tensordot(v[sl], basis, 1) for name, (sl, basis) in self.layout.items()}

    def _cone(self, r: float, slack: np.ndarray, eye: np.ndarray):
        """(r^2 - e^2 ||M||_F^2, -M flattened) for the slack S = -M - (e + r) I."""
        m = (slack + (self.eps + r) * eye).ravel()
        return r * r - self.eps ** 2 * float(m @ m), m

    def factor(self, y: np.ndarray):
        """(slacks, their Cholesky factors, the barrier's value) at y, or None outside its domain."""
        slacks = [(b + y @ f).reshape(e.shape) for b, f, e in zip(self.base, self.flats, self.eyes)]
        try:
            chols = [np.linalg.cholesky(s) for s in slacks]
        except np.linalg.LinAlgError:
            return None
        value = -_log_det(chols)
        for (i, h, _, _), s, eye in zip(self.cones, slacks, self.eyes):
            r = self.x0[i] + h @ y
            room = self._cone(r, s, eye)[0]
            if r <= 0.0 or room <= 0.0:
                return None
            value -= np.log(room)
        return slacks, chols, value

    def certifies(self, y: np.ndarray, slacks: list, margin: DefinitenessMargin) -> bool:
        """Every M_c = t I - S_c clears its margin threshold (a Cholesky test)."""
        t = self.x(y)[-1]
        for s, eye in zip(slacks, self.eyes):
            m = t * eye - s
            try:
                np.linalg.cholesky(margin.threshold(m) * eye - m)
            except np.linalg.LinAlgError:
                return False
        return True

    def derivatives(self, y: np.ndarray, slacks: list, chols: list):
        """Gradient and Hessian in y of the barrier, and every S_c^{-1}."""
        k = self.q.shape[1]
        grad = np.zeros(k)
        hess = np.zeros((k, k))
        inverses = []
        for f, chol in zip(self.flats, chols):
            li = np.linalg.inv(chol)
            g = (li @ f.reshape(k, *chol.shape) @ li.T).reshape(k, -1)  # L^-1 F_j L^-T
            grad -= g[:, :: len(chol) + 1].sum(axis=1)  # their traces
            hess += g @ g.T
            inverses.append(li.T @ li)
        e2 = self.eps ** 2
        for (i, h, m_of, gram), s, eye in zip(self.cones, slacks, self.eyes):
            r = self.x0[i] + h @ y
            room, m = self._cone(r, s, eye)
            d = 2.0 * (r * h - e2 * (m_of @ m))  # the gradient of room
            grad -= d / room
            hess += np.outer(d, d) / room ** 2 - 2.0 * (np.outer(h, h) - e2 * gram) / room
        return grad, hess, inverses


def _log_det(chols: list) -> float:
    return float(sum(2.0 * np.log(np.diag(c)).sum() for c in chols))


def _newton(barrier: _Barrier, sign: float, tau0, visit, max_iters: int,
            threshold=lambda inverses: CENTERED):
    """Barrier method on sign s, s being the barrier's last coordinate.

    Takes Newton steps on tau sign s + phi(y) from y = 0, phi being the
    barrier, so sign 1 lowers s and -1 raises it. tau starts at
    ``tau0(inverses)`` and grows by TAU_GROWTH at each centered point: one
    where half the squared Newton decrement is at most
    ``threshold(inverses)``. Before each step, ``visit(step, y, slacks,
    grad, inverses, tau, centered, spent)`` may end the run by returning
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
    slacks, chols, value = factored
    tau = None
    step = 0
    while True:
        grad, hess, inverses = barrier.derivatives(y, slacks, chols)
        if tau is None:
            tau = tau0(inverses)
        dy, decrement = _newton_step(hess, grad + tau * objective)
        centered = 0.5 * decrement <= threshold(inverses)
        spent = (f"within {step} Newton steps" if step == max_iters else
                 None if math.isfinite(decrement) else
                 f"after {step} Newton steps: the Newton decrement is not finite (badly scaled data)")
        result = visit(step, y, slacks, grad, inverses, tau, centered, spent)
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
        y, slacks, chols, value = found


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

    last = [None, None]  # one step's inverses and their multipliers, computed once

    def multipliers(inverses):
        """Their total trace, and their constant at trace 1."""
        if last[0] is not inverses:
            total = float(sum(z.trace() for z in inverses))
            constant = sum(float(np.sum(z * c)) for z, c in zip(inverses, barrier.consts)) / total
            last[:] = inverses, (total, constant)
        return last[1]

    def visit(step, y, slacks, grad, inverses, tau, centered, spent):
        t = barrier.x(y)[-1]
        if not _ruled_out(t, inverses) and barrier.certifies(y, slacks, problem.margin):
            try:
                return LmiCertificate.build(problem, barrier.assignment(y), iterations=step)
            except VerificationFailed:
                pass  # rounding between the basis and assemble; keep going
        total, constant = multipliers(inverses)
        # the gradient along y is the multipliers' residual, times total
        residual = np.linalg.norm(grad + total * t_of) / total
        if constant >= 0.0 and residual <= problem.margin.epsilon_rel:
            dual = {name: z / total for (name, _), z in zip(problem.constraints, inverses)}
            if verify_dual(problem, dual).passed:
                return Indeterminate(
                    best_value=_worst(problem, barrier.assignment(y)),
                    iterations=step,
                    message="refuted: the barrier's multipliers pass verify_dual, "
                    "so no assignment is strictly feasible",
                    dual=dual,
                )
        if spent or barrier.dim / tau <= STALL_GAP * (1.0 + abs(t)):
            reason = spent or (f"after {step} Newton steps: t = {t:.6g} is within "
                               f"{barrier.dim / tau:.1e} of its infimum")
            return Indeterminate(
                best_value=_worst(problem, barrier.assignment(y)),
                iterations=step,
                message=f"no certificate or refutation {reason}",
            )
        return None

    # tau0 centers the start in t; the multipliers may refute once centered
    # closely while their constant is >= 0
    result = _newton(barrier, 1.0, lambda inverses: multipliers(inverses)[0], visit, max_iters,
                     lambda inverses: CENTERED_DUAL if multipliers(inverses)[1] >= 0.0 else CENTERED)
    if result is not None:
        return result
    return Indeterminate(
        best_value=report.worst().lambda_max,
        iterations=0,
        message="no certificate or refutation: in floating point the barrier's start "
        "is outside its domain (badly scaled data)",
    )


def certify(build, eta, max_iters: int, finish=lambda certificate: certificate):
    """``finish(certificate)`` for ``build(eta)``, or the solve's Indeterminate unchanged.

    ``eta`` is a number, solved at that level, or ``"maximize"``: phase I
    solves ``build(0.0)``, and phase II (:func:`_maximize`) raises eta
    from its point to within ETA_TOL, so ``build``'s forms must be affine
    in eta. The :class:`LmiCertificate` that ``finish`` gets carries the
    level it verified at as ``eta``; without ``finish`` it is returned.
    Should ``finish`` raise VerificationFailed at a fixed level's point,
    phase II runs from it all the same, and the fixed level is finished at
    its points instead: they lie deeper inside the feasible set.
    """
    level = 0.0 if eta == "maximize" else float(eta)
    problem = build(level)
    first = solve(problem, max_iters)
    if not first.feasible:
        return first
    first = replace(first, eta=level)
    if eta == "maximize":
        return _maximize(build, problem, first, max_iters, finish)
    try:
        return finish(first)
    except VerificationFailed:
        return _maximize(build, problem, first, max_iters, finish, cap=level)


def _maximize(build, problem: LmiProblem, first: LmiCertificate, max_iters: int, finish,
              cap: float = np.inf):
    """``finish(certificate)`` at the largest s, to within ETA_TOL, at which ``build(s)`` certifies.

    ``build`` poses a problem whose forms are affine in s, ``problem`` is
    ``build(level)`` and ``first`` certifies it (phase I), ``level`` being
    ``first.eta`` (0 when None). Phase II is the barrier method of
    :func:`_newton` raising s from ``first``'s point, on the barrier that
    holds the margin exactly (:class:`_Barrier` with radii), until the
    central path's gap dim / tau is at most ETA_TOL (Boyd & Vandenberghe,
    sec. 11.3) or ``max_iters`` steps are spent. s's basis matrices are
    assemble(problem) - assemble(build(level + 1)), so no second copy of
    any form appears. The margin also keeps the points bounded where log
    det alone would grow without limit (P of a memoryless loop): a
    constant diagonal entry of M_c bounds lambda_max(M_c) below, and so
    ||M_c||_F above.

    ``finish`` gets ``LmiCertificate.build`` on ``build(min(s, cap))`` at
    the iterate of largest s, its ``eta`` that level and its
    ``iterations`` counting the Newton steps of both phases. Should either
    raise VerificationFailed, the iterates are tried from there down, each
    at least ETA_TOL below the one tried before, until one passes; then
    the last failing point is bisected to ETA_TOL in s down to the s that
    passed (or ``level``), below ``cap``, and the largest s that passes is
    kept. With none passing, ``first`` is finished.
    """
    level = 0.0 if first.eta is None else first.eta
    zero = {name: np.zeros(var.shape) for name, var in problem.variables.items()}
    slopes = [expr.assemble(zero) - grown.assemble(zero)
              for (_, expr), (_, grown) in zip(problem.constraints, build(level + 1.0).constraints)]
    eps = problem.margin.epsilon_rel
    radii = []
    for _, expr in problem.constraints:
        m = expr.assemble(first.assignment)
        low, high = eps * fro_norm(m), -float(sym_eigvals(m)[-1]) - eps
        if low >= high:  # on its margin's edge: no room to start from
            return finish(first)
        radii.append(0.5 * (low + high))
    barrier = _Barrier(problem, first.assignment, slopes, 0.0, radii)
    points = []

    def visit(step, y, slacks, grad, inverses, tau, centered, spent):
        points.append((level + float(barrier.x(y)[-1]), step, y))
        if spent or (centered and barrier.dim / tau <= ETA_TOL):
            return step
        return None

    # from a central-path gap of 1 / TAU_GROWTH: a larger tau0 can pin a start
    # near the margin's edge there, where the Hessian is too ill-conditioned to leave
    taken = _newton(barrier, -1.0, lambda inverses: TAU_GROWTH * barrier.dim, visit, max_iters)

    def attempt(s, y):
        s = min(s, cap)
        try:
            certificate = LmiCertificate.build(build(s), barrier.assignment(y),
                                               iterations=first.iterations + taken)
            return finish(replace(certificate, eta=s))
        except VerificationFailed:
            return None

    failed, result = None, None  # the last iterate to fail; each at least ETA_TOL below the one before
    for s, _, y in sorted(points, reverse=True):
        if s >= level and (failed is None or s <= failed[0] - ETA_TOL):
            result = attempt(s, y)
            if result is not None:
                break
            failed = (s, y)
    if failed is not None:  # its point may pass between its own s and the s that did
        low, (high, y) = s if result is not None else level, failed
        while min(high, cap) - low > ETA_TOL:
            mid = 0.5 * (low + high)
            found = attempt(mid, y)
            if found is None:
                high = mid
            else:
                low, result = mid, found
    return finish(first) if result is None else result


def _ruled_out(t: float, inverses: list) -> bool:
    """True when some M_c = t I - S_c cannot clear its margin: t max diag(S_c^-1) >= SCREEN."""
    return any(t * float(z.diagonal().max()) >= SCREEN for z in inverses)


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
    """(y, slacks, Cholesky factors, barrier value) after a damped Newton step, or None.

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
            or objective @ trial + factored[2] <= value + ARMIJO * s * slope
        ):
            return (trial, *factored)
        s *= 0.5
    return None
