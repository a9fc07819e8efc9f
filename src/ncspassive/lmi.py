"""Coupled linear matrix inequality feasibility engine.

Variables are symmetric or rectangular real matrices. A constraint is a
block-structured affine symmetric expression required to be negative
definite under a relative margin. The solver minimizes the worst
constraint eigenvalue

    f(v) = max over constraints of lambda_max(assemble(c, v))

by subgradient descent with Polyak-style steps (the subgradient of
lambda_max is the top-eigenvector outer product mapped back through each
term's coefficient matrices), restarting from a ladder of scaled-identity
initializations. The search never proves infeasibility: it returns a
verified certificate or Indeterminate. Certificates are constructed
exclusively through the eigenvalue-based ``verify``, which shares no
state with the descent loop.

``verify_dual`` is the other half of the theorem of alternatives (Boyd
et al., *Linear Matrix Inequalities in System and Control Theory*, SIAM
1994, sec. 2.2): positive semidefinite multipliers, one per constraint,
whose weighted sum of the constraints is a nonnegative constant prove
that no assignment is feasible. A caller that can build such
multipliers attaches them to its Indeterminate as ``dual``.
"""

from __future__ import annotations

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

__all__ = [
    "AffineExpr",
    "LmiProblem",
    "ConstraintCheck",
    "VerifyReport",
    "DualReport",
    "LmiCertificate",
    "Indeterminate",
    "SolveOptions",
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
    positive_definite: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("symmetric", "rectangular"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "symmetric" and self.rows != self.cols:
            raise ValueError(f"symmetric variable {self.name!r} must be square")
        if self.positive_definite and self.kind != "symmetric":
            raise ValueError(f"only symmetric variables can be positive definite ({self.name!r})")

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
    transpose: bool
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
        transpose: bool = False,
        weight: float = 1.0,
    ) -> None:
        """Add weight * left @ V @ right (or V') at block (row, col)."""
        left = as_matrix(left, "left")
        right = as_matrix(right, "right")
        self._check_block(row, col, (left.shape[0], right.shape[1]), f"term on {var!r}")
        self._terms.append(_Term(row, col, left, var, right, bool(transpose), float(weight)))

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
            if t.transpose:
                v = v.T
            value = t.weight * (t.left @ v @ t.right)
            self._place(out, t.row, t.col, value)
        return 0.5 * (out + out.T)

    def grad(self, var: str, weight_matrix: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """Gradient of <W, assemble(.)> with respect to ``var``.

        W must be symmetric (it is an eigenvector outer product in the
        solver). Off-diagonal blocks count twice, once for the implied
        transpose partner.
        """
        g = np.zeros(shape)
        for t in self._terms:
            if t.var != var:
                continue
            wblock = weight_matrix[self._slice(t.row), self._slice(t.col)]
            mult = (2.0 if t.row != t.col else 1.0) * t.weight
            if t.transpose:
                g += mult * (t.right @ wblock.T @ t.left)
            else:
                g += mult * (t.left.T @ wblock @ t.right.T)
        return g


class LmiProblem:
    """A set of matrix variables and negative-definiteness constraints.

    Positive-definiteness side conditions are posed as ordinary
    constraints ``-V < 0`` when a symmetric variable is declared with
    ``positive_definite=True``.
    """

    def __init__(self, margin: DefinitenessMargin | None = None):
        self.variables: dict[str, LmiVariable] = {}
        self.constraints: list[tuple[str, AffineExpr]] = []
        self.margin = margin or DEFAULT_MARGIN

    def _add_variable(self, var: LmiVariable) -> str:
        if var.name in self.variables:
            raise ValueError(f"variable {var.name!r} already declared")
        self.variables[var.name] = var
        return var.name

    def add_symmetric(self, name: str, dim: int, *, positive_definite: bool = False) -> str:
        self._add_variable(
            LmiVariable(name, "symmetric", dim, dim, positive_definite=positive_definite)
        )
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
            inner = (t.left.shape[1], t.right.shape[0])
            tshape = (inner[1], inner[0]) if t.transpose else inner
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
    margin: DefinitenessMargin

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> ConstraintCheck:
        return max(self.checks, key=lambda c: c.lambda_max - c.threshold)


def verify(
    problem: LmiProblem,
    assignment: dict,
    margin: DefinitenessMargin | None = None,
) -> VerifyReport:
    """Independent certificate check: eigenvalues of every assembled constraint.

    Pure recomputation from the problem data; shares no state with the
    solver.
    """
    margin = margin or problem.margin
    checks = []
    for name, expr in problem.constraints:
        m = expr.assemble(assignment)
        lam = float(sym_eigvals(m)[-1])
        checks.append(ConstraintCheck(name=name, lambda_max=lam, threshold=margin.threshold(m)))
    return VerifyReport(checks=tuple(checks), margin=margin)


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


def verify_dual(
    problem: LmiProblem,
    multipliers: dict,
    margin: DefinitenessMargin | None = None,
) -> DualReport:
    """Check multipliers Z_c, one per constraint name, that refute ``problem``.

    If every Z_c >= 0, sum_c tr Z_c = 1, sum_c <Z_c, M_c(V)> does not
    depend on any variable V, and its constant part sum_c <Z_c, M_c(0)>
    is >= 0, then no assignment makes every M_c negative definite: the
    sum would then be negative. Semidefiniteness allows
    epsilon_rel * (1 + ||Z_c||_F); a variable's summed gradient allows
    epsilon_rel * (1 + the sum of its per-constraint gradient norms).
    Like :func:`verify`, this recomputes everything from the problem data.
    """
    margin = margin or problem.margin
    eps = margin.epsilon_rel
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
        margin=margin,
    )


@dataclass(frozen=True)
class LmiCertificate:
    """A strictly feasible assignment, constructed only through verification."""

    assignment: dict
    report: VerifyReport
    margin: DefinitenessMargin
    iterations: int = 0
    restarts: int = 0

    feasible = True

    @classmethod
    def build(
        cls,
        problem: LmiProblem,
        assignment: dict,
        margin: DefinitenessMargin | None = None,
        iterations: int = 0,
        restarts: int = 0,
    ) -> "LmiCertificate":
        margin = margin or problem.margin
        frozen = {}
        for name, value in assignment.items():
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            frozen[name] = arr
        report = verify(problem, frozen, margin)
        if not report.passed:
            worst = report.worst()
            raise VerificationFailed(
                f"assignment does not satisfy constraint {worst.name!r}: "
                f"lambda_max {worst.lambda_max:.6e} > threshold {worst.threshold:.6e}"
            )
        return cls(
            assignment=frozen,
            report=report,
            margin=margin,
            iterations=iterations,
            restarts=restarts,
        )


@dataclass(frozen=True)
class Indeterminate:
    """No certificate found.

    On its own not a proof of infeasibility. ``best_value`` is the
    smallest worst-eigenvalue a search reached (None when no search ran);
    ``dual``, when present, maps each constraint name to a multiplier
    that passed :func:`verify_dual`, which does prove infeasibility.
    """

    best_value: float | None = None
    iterations: int = 0
    restarts: int = 0
    message: str = ""
    dual: dict | None = None

    feasible = False


@dataclass(frozen=True)
class SolveOptions:
    """Budget and determinism knobs for ``solve``.

    ``max_iters`` is the per-restart iteration budget. Restarts walk a
    ladder of identity scalings first, then add seeded jitter. The same
    problem, seed, and budget always produce the same certificate.
    """

    max_iters: int = 300
    restarts: int = 8
    seed: int = 0
    margin: DefinitenessMargin | None = None

    def with_margin(self, margin: DefinitenessMargin | None) -> "SolveOptions":
        return replace(self, margin=margin) if margin is not None else self


# Identity scalings of the first restarts; later restarts reuse them with jitter.
INIT_SCALES = (1.0, 0.1, 10.0, 0.01, 100.0)
# Iterations without improvement before the Polyak target gap shrinks.
STALL_ITERS = 40
# Relative band of eigenvalues averaged into the subgradient at a tie.
TIE_RTOL = 1e-7


def _initial_assignment(problem: LmiProblem, restart: int, opts: SolveOptions) -> dict:
    rng = np.random.default_rng([opts.seed, restart])
    scale = INIT_SCALES[restart % len(INIT_SCALES)]
    jitter = restart >= len(INIT_SCALES)
    assignment = {}
    for name, var in problem.variables.items():
        if var.kind == "symmetric":
            v = scale * np.eye(var.rows)
            if jitter:
                noise = rng.standard_normal((var.rows, var.cols))
                v = v + 0.2 * scale * (noise + noise.T) / (2.0 * np.sqrt(var.rows))
        else:
            v = np.zeros(var.shape)
            if jitter:
                v = 0.2 * scale * rng.standard_normal(var.shape) / np.sqrt(max(var.rows, 1))
        assignment[name] = v
    return assignment


def _evaluate(problem: LmiProblem, assignment: dict, margin: DefinitenessMargin):
    """Per-constraint (lambda_max, threshold, top-eigvec weight matrix)."""
    rows = []
    for name, expr in problem.constraints:
        m = expr.assemble(assignment)
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        lam = float(vals[-1])
        thr = margin.threshold(m)
        rows.append((name, expr, lam, thr, vals, vecs))
    return rows


def _weight_matrix(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    lam = vals[-1]
    sel = vals >= lam - TIE_RTOL * (1.0 + abs(lam))
    cols = vecs[:, sel]
    return (cols @ cols.T) / cols.shape[1]


def _descend(problem: LmiProblem, assignment: dict, opts: SolveOptions, margin: DefinitenessMargin):
    """One restart of Polyak-stepped subgradient descent.

    Returns (feasible_assignment | None, best f seen, iterations used).
    """
    f_best = np.inf
    delta = None
    since_improve = 0
    it = 0
    for it in range(1, opts.max_iters + 1):
        rows = _evaluate(problem, assignment, margin)
        f = max(lam for _, _, lam, _, _, _ in rows)
        if all(lam <= thr for _, _, lam, thr, _, _ in rows):
            return assignment, min(f, f_best), it
        if not np.isfinite(f_best) or f < f_best - 1e-12 * (1.0 + abs(f_best)):
            f_best = f
            since_improve = 0
        else:
            since_improve += 1
        if since_improve > STALL_ITERS:
            if delta is not None and delta <= 1e-12 * (1.0 + abs(f_best)):
                break
            delta = (delta or 1.0) * 0.25
            since_improve = 0

        name, expr, lam, thr, vals, vecs = max(rows, key=lambda r: r[2])
        w = _weight_matrix(vals, vecs)
        grads = {}
        gnorm2 = 0.0
        for vname in sorted(expr.variables()):
            var = problem.variables[vname]
            g = expr.grad(vname, w, var.shape)
            if var.kind == "symmetric":
                g = 0.5 * (g + g.T)
            grads[vname] = g
            gnorm2 += float(np.sum(g * g))
        if gnorm2 < 1e-30:
            break  # active constraint has a zero subgradient

        if delta is None:
            delta = 0.5 * (1.0 + abs(f))
        target = min(f_best, f) - delta
        step = (f - target) / gnorm2
        for vname, g in grads.items():
            v = assignment[vname] - step * g
            if problem.variables[vname].kind == "symmetric":
                v = 0.5 * (v + v.T)
            assignment[vname] = v
    return None, f_best, it


def solve(problem: LmiProblem, options: SolveOptions | None = None):
    """Search for a strictly feasible point; return it as a verified certificate.

    Returns an :class:`LmiCertificate` on success or :class:`Indeterminate`
    when the budget runs out. Indeterminate is not an infeasibility proof;
    the report carries the smallest worst-eigenvalue reached.
    """
    problem.validate()
    opts = options or SolveOptions()
    margin = opts.margin or problem.margin
    best = np.inf
    total_iters = 0
    for restart in range(opts.restarts):
        assignment = _initial_assignment(problem, restart, opts)
        found, f_best, used = _descend(problem, assignment, opts, margin)
        total_iters += used
        best = min(best, f_best)
        if found is not None:
            return LmiCertificate.build(
                problem, found, margin, iterations=total_iters, restarts=restart + 1
            )
    return Indeterminate(
        best_value=float(best),
        iterations=total_iters,
        restarts=opts.restarts,
        message="no strictly feasible point found within budget",
    )
