"""Second-moment stability and strict passivity certification.

Two independent routes are kept deliberately separate:

* the LMI route poses the coupled Lyapunov / passivity inequalities and
  certifies feasibility through eigenvalue verification (``lmi.verify``);
* the second-moment-spectral (SMS) oracle computes the spectral radius
  of the mode-averaged second-moment operator, which characterizes
  second-moment stability exactly and never touches the LMI machinery.

The second-moment operator Z -> sum_m a_m A_m Z A_m' maps symmetric
matrices to symmetric matrices, so it is held in orthonormal svec
coordinates: the upper triangle in row-major order, its off-diagonal
entries times sqrt(2), d = n(n+1)/2 of them instead of n^2. Its rho is
unchanged: the operator commutes with transposition, so it splits into
a symmetric and an antisymmetric part, and a completely positive map
has its spectral radius on a PSD eigenvector (Evans & Hoegh-Krohn,
J. London Math. Soc. 17, 1978). The basis being orthonormal, the
transpose of its matrix is the Lyapunov map P -> sum_m a_m A_m' P A_m.

Second-moment stability needs no search. For a fixed gain it holds
exactly when rho < 1, and then the coupled Lyapunov equation
P_k - L_k(P_{k+1}) = I has a positive definite solution (Costa, Fragoso
& Marques, *Discrete-Time Markov Jump Linear Systems*, Springer 2005).
``stability_lmi`` solves that linear equation and verifies the solution
against the coupled Lyapunov LMIs. When it does not verify, the Perron
eigenvector of the period's adjoint operator gives multipliers that
``lmi.verify_dual`` checks as a proof that no P exists; they are offered
only where the SMS oracle also finds rho >= 1.

Strict passivity with dissipation eta is certified through the averaged
dissipation form

    M(P) = [ sum_m a_m A_m' P A_m - P          sum_m a_m A_m' P B - C~' ]
           [ (.)'                     B' P B + 2 eta I - D' - D         ]

required negative definite over a single P > 0, where C~ averages the
per-mode output matrices (the gain term picks up the both-links-arrive
probability). One builder, ``_dissipation_form``, writes it for any mode
weights: ``passivity_problem`` uses the probabilities, and
``dissipation_identity_check`` the realized mode at weight 1, where the
form equals the per-step dissipation defect along a simulated path.
Its top-left block comes from ``_lyapunov_block``, which also writes
each coupled Lyapunov form.
The form is affine in eta, its level block the (1, 1) constant
2 eta I - D' - D, so ``passivity_lmi(..., "maximize")`` poses it once
and finds the largest certifiable eta in one barrier run
(``lmi.certify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lmi
from .errors import AssumptionViolated, VerificationFailed
from .model import (
    ClosedLoopFamily,
    Gain,
    ModeDistribution,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
)
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    is_neg_definite,
    spectral_radius,
    sym_eigvals,
)

__all__ = [
    "SmsReport",
    "StabilityCertificate",
    "sms_oracle",
    "stability_problem",
    "stability_lmi",
    "passivity_problem",
    "passivity_lmi",
    "dissipation_identity_check",
    "check_assumption",
]

BORDERLINE_BAND = 0.02


@dataclass(frozen=True)
class SmsReport:
    """Spectral radius of the second-moment operator; stable iff rho < 1."""

    rho: float
    stable: bool
    borderline: bool


def sms_oracle(family, dist: ModeDistribution) -> SmsReport:
    """Second-moment stability by spectral radius, no LMIs involved.

    ``family`` is one :class:`ClosedLoopFamily` (N = 1) or a sequence of
    them covering one period. The per-step operator is the mode-averaged
    Z -> sum_m a_m A_m Z A_m' on symmetric Z, a d x d matrix in svec
    coordinates (:func:`_second_moment_operator`, d = n(n+1)/2); for a
    period the operators compose, and rho is the per-step geometric mean
    of the product's spectral radius, that of the full n^2 operator.
    """
    families = [family] if isinstance(family, ClosedLoopFamily) else list(family)
    if not families:
        raise ValueError("need at least one closed-loop family")
    product = _second_moment_operator(families[0], dist)
    for fam in families[1:]:
        product = _second_moment_operator(fam, dist) @ product
    rho = spectral_radius(product) ** (1.0 / len(families))
    return SmsReport(rho=rho, stable=rho < 1.0, borderline=abs(rho - 1.0) < BORDERLINE_BAND)


def _second_moment_operator(fam: ClosedLoopFamily, dist: ModeDistribution) -> np.ndarray:
    """The d x d matrix <E_p, sum_m a_m A_m E_q A_m'> on the svec basis E (:func:`_svec_basis`).

    Summed over the distinct loops (``ClosedLoopFamily.loops``), each
    applied to the whole basis stack at once. It maps svec(Z) to
    svec(sum_m a_m A_m Z A_m'), and its transpose acts as the Lyapunov
    map P -> sum_m a_m A_m' P A_m.
    """
    basis = _svec_basis(fam.a(0, 0).shape[0])
    image = sum(w * (a @ basis @ a.T) for a, _, w in fam.loops(dist.items()))
    return _svec(image).T


def _svec_dim(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple:
    """(rows, columns, scale) of the row-major upper triangle; scale is sqrt(2) off the diagonal."""
    rows, cols = np.triu_indices(n)
    index = rows, cols, np.where(rows == cols, 1.0, np.sqrt(2.0))
    for array in index:  # shared by every caller
        array.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _svec_basis(n: int) -> np.ndarray:
    """Read-only (d, n, n) stack of the orthonormal basis E_q = unsvec(e_q)."""
    basis = np.stack([_unsvec(e, n) for e in np.eye(_svec_dim(n))])
    basis.flags.writeable = False
    return basis


def _svec(z: np.ndarray) -> np.ndarray:
    """<E_q, Z> for symmetric Z, over its last two axes."""
    rows, cols, scale = _svec_index(z.shape[-1])
    return z[..., rows, cols] * scale


def _unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix sum_q v_q E_q."""
    rows, cols, scale = _svec_index(n)
    z = np.empty((n, n))
    z[rows, cols] = v / scale
    z[cols, rows] = v / scale
    return z


class StabilityCertificate(lmi.LmiCertificate):
    """N-periodic positive definite P_k verifying the coupled Lyapunov LMIs."""

    @property
    def ps(self) -> tuple[np.ndarray, ...]:
        """P0, ..., P{N-1}, in slot order."""
        return tuple(self.assignment[f"P{k}"] for k in range(len(self.assignment)))


def stability_problem(
    plant: Plant,
    gain: Gain,
    schedule: Schedule,
    dist: ModeDistribution,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
) -> lmi.LmiProblem:
    """The coupled periodic Lyapunov LMIs over P0, ..., P{N-1}.

    For every slot k of the period,

        sum_m a_m A_{k,m}' P_{k+1 mod N} A_{k,m} - P_k < 0,   P_k > 0.
    """
    families = [closed_loop(plant, gain, k, schedule) for k in range(schedule.period)]
    return _lyapunov_problem(families, dist, margin)


def _lyapunov_problem(
    families: list, dist: ModeDistribution, margin: DefinitenessMargin
) -> lmi.LmiProblem:
    """:func:`stability_problem` on the period's closed loops, already built."""
    n = families[0].a(0, 0).shape[0]
    period = len(families)
    prob = lmi.LmiProblem(margin=margin)
    for k in range(period):
        prob.add_symmetric(f"P{k}", n, positive_definite=True)
    for k, fam in enumerate(families):
        expr = lmi.AffineExpr([n], name=f"lyapunov_k{k}")
        _lyapunov_block(expr, fam, dist.items(), f"P{(k + 1) % period}", f"P{k}")
        prob.add_constraint(expr)
    return prob


def _lyapunov_block(expr: lmi.AffineExpr, fam: ClosedLoopFamily, weights, nxt, now) -> None:
    """Add sum_m w_m A_m' nxt A_m - now at block (0, 0), one term per distinct loop of (mode, w_m)."""
    for a, _, w in fam.loops(weights):
        expr.add_term(0, 0, a.T, nxt, a, weight=w)
    eye = np.eye(fam.a(0, 0).shape[0])
    expr.add_term(0, 0, -eye, now, eye)


def stability_lmi(
    plant: Plant,
    gain: Gain,
    schedule: Schedule,
    dist: ModeDistribution,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
):
    """Decide :func:`stability_problem` by linear algebra, without a search.

    Solves the coupled Lyapunov equation P_k - L_k(P_{k+1 mod N}) = I and
    returns a :class:`StabilityCertificate` when the solution verifies.
    Otherwise returns an Indeterminate whose ``dual`` holds multipliers
    that passed ``lmi.verify_dual``, offered only when :func:`sms_oracle`'s
    rho^N, the spectral radius of the period operator solved with, is >= 1.
    Never raises for a singular or ill-conditioned system.
    """
    period = schedule.period
    n = plant.n
    d = _svec_dim(n)
    families = [closed_loop(plant, gain, k, schedule) for k in range(period)]
    prob = _lyapunov_problem(families, dist, margin)
    # adjoint[k] maps svec Z_k to svec Z_{k+1}; adjoint[k].T is the Lyapunov map L_k
    adjoint = [_second_moment_operator(fam, dist) for fam in families]
    # Close the cycle at P_0: P_0 = c + T P_0, with T = L_0 L_1 ... L_{N-1}.
    svec_i = _svec(np.eye(n))
    t = np.eye(d)
    c = np.zeros(d)
    for op in adjoint:
        c += t @ svec_i
        t = t @ op.T
    try:
        p0 = np.linalg.solve(np.eye(d) - t, c)
    except np.linalg.LinAlgError:
        p0 = np.full(d, np.nan)
    reason, ps = "the coupled Lyapunov equation has no finite solution", None
    if np.isfinite(p0).all():
        ps = {"P0": _unsvec(p0, n)}
        nxt = p0
        for k in range(period - 1, 0, -1):  # P_k = I + L_k(P_{k+1})
            nxt = svec_i + adjoint[k].T @ nxt
            ps[f"P{k}"] = _unsvec(nxt, n)
        # the build checks each P_k > 0, which a diagonal entry <= 0 fails: an unstable
        # loop's P_0 has one, and its certificate is built only if the dual fails, for the reason
        if not any(p.diagonal().min() <= 0.0 for p in ps.values()):
            (certificate, reason), ps = _build(prob, ps), None
            if certificate is not None:
                return certificate
    # The adjoint period operator is T'; its Perron eigenvalue is rho^N. The
    # forms are homogeneous in P, so verify_dual's allowance alone can pass a
    # dual of a stable loop in badly scaled coordinates: rho(T) = rho^N must be >= 1.
    z0 = _perron_vector(t.T, n)
    dual = None if z0 is None else _stability_dual(adjoint, z0)
    if (dual is not None and lmi.verify_dual(prob, dual).passed
            and spectral_radius(t) >= 1.0):
        return lmi.Indeterminate(
            message="refuted: the Perron multiplier of the period's second-moment "
            "operator proves that no P satisfies the coupled Lyapunov LMIs",
            dual=dual,
        )
    if ps is not None:
        reason = _build(prob, ps)[1]
    return lmi.Indeterminate(message=f"{reason}; no dual certificate found")


def _build(prob: lmi.LmiProblem, ps: dict) -> tuple:
    """(the StabilityCertificate of ``ps``, None), or (None, the reason it does not verify)."""
    try:
        return StabilityCertificate.build(prob, ps), None
    except VerificationFailed as exc:
        return None, f"the coupled Lyapunov equation's solution does not verify: {exc}"


# Squarings in the power iteration: op / s + I raised to 2**40.
POWER_SQUARINGS = 40


def _perron_vector(op: np.ndarray, n: int) -> np.ndarray | None:
    """Trace-one Perron eigenvector of the svec operator ``op``, as n x n, or None.

    Power iteration from I, which stays in the PSD cone because ``op``
    maps the cone into itself. It runs on op / s + I, with s the largest
    absolute row sum (at least 1), which bounds every eigenvalue's
    modulus: the Perron eigenvalue then strictly dominates even when
    others share its modulus (as on periodic schedules). Repeated
    squaring lets a slow ratio still converge.
    """
    if not np.isfinite(op).all():
        return None
    power = op / max(float(np.abs(op).sum(axis=1).max()), 1.0) + np.eye(op.shape[0])
    for _ in range(POWER_SQUARINGS):
        power = power @ power
        power /= np.abs(power).max()  # nonzero: power has a positive eigenvalue
    z = _unsvec(power @ _svec(np.eye(n)), n)
    return z / np.trace(z) if np.trace(z) > 0.0 else None


def _stability_dual(adjoint: list, z0: np.ndarray) -> dict | None:
    """Multipliers of :func:`stability_problem` from the Perron eigenvector Z_0.

    Z_{k+1} = L_k*(Z_k) weighs lyapunov_k, and P{k}_pos_def gets
    L_{k-1}*(Z_{k-1}) - Z_k: zero except at k = 0, where it is
    (rho^N - 1) Z_0 for an exact eigenvector. The variables then cancel,
    and every multiplier is PSD exactly when rho >= 1. ``adjoint`` holds
    the svec operators L_k*.
    """
    n = z0.shape[0]
    period = len(adjoint)
    zs, z = [z0], _svec(z0)
    for op in adjoint:
        z = op @ z
        zs.append(_unsvec(z, n))
    dual = {f"lyapunov_k{k}": zs[k] for k in range(period)}
    dual["P0_pos_def"] = zs[period] - z0
    for k in range(1, period):
        dual[f"P{k}_pos_def"] = np.zeros((n, n))
    total = sum(float(np.trace(z)) for z in dual.values())
    if not (np.isfinite(total) and total > 0.0):
        return None
    return {name: z / total for name, z in dual.items()}


def check_assumption(plant: Plant, margin: DefinitenessMargin = DEFAULT_MARGIN) -> None:
    """Raise AssumptionViolated unless D11 is square (for w'z) and D11 + D11' > 0 (margin-strict)."""
    if plant.D11.shape[0] != plant.D11.shape[1]:
        raise AssumptionViolated("passivity analysis requires a square D11 (the supply rate w'z); "
                                 "D11 is {}x{}".format(*plant.D11.shape))
    d = plant.D11 + plant.D11.T
    if not is_neg_definite(-d, margin):
        low = float(sym_eigvals(d)[0])
        detail = f"min eigenvalue is {low:.3e}"
        if low > 0.0:
            detail = (f"min eigenvalue {low:.3e} misses the margin threshold "
                      f"{-margin.threshold(d):.3e} at epsilon_rel {margin.epsilon_rel:g}")
        raise AssumptionViolated(f"passivity analysis requires D11 + D11' > 0; {detail}")


def passivity_problem(
    plant: Plant,
    gain: Gain,
    dist: ModeDistribution,
    eta: float,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
) -> lmi.LmiProblem:
    """The averaged dissipation LMI over one P > 0 (full-packet loop).

    Requires eta >= 0 and a square D11 with D11 + D11' > 0; raises
    ValueError or AssumptionViolated otherwise (:func:`check_assumption`).
    """
    if eta < 0:
        raise ValueError(f"dissipation must be >= 0, got {eta}")
    check_assumption(plant, margin)
    prob = lmi.LmiProblem(margin=margin)
    prob.add_symmetric("P", plant.n, positive_definite=True)
    fam = closed_loop(plant, gain, 0, full_packet_schedule())
    prob.add_constraint(_dissipation_form(fam, dist.items(), eta))
    return prob.at(eta)


def _dissipation_form(fam: ClosedLoopFamily, weights, eta: float) -> lmi.AffineExpr:
    """The dissipation form over P at level eta, its modes weighted by (mode, weight) pairs.

    It has one term per distinct loop (``ClosedLoopFamily.loops``). With
    the mode probabilities it is the averaged form of
    :func:`passivity_problem`; with the realized mode at weight 1 it is
    that step's ledger form. Its level block is the (1, 1) constant
    2 eta I - D' - D.
    """
    n, m1 = fam.b.shape
    b, d = fam.b, fam.d
    expr = lmi.AffineExpr([n, m1], name="dissipation")
    _lyapunov_block(expr, fam, weights, "P", "P")
    c = np.zeros_like(fam.c(0, 0))
    for a, cm, w in fam.loops(weights):
        expr.add_term(0, 1, a.T, "P", b, weight=w)
        c = c + w * cm
    expr.add_term(1, 1, b.T, "P", b)
    expr.add_const(0, 1, -c.T)
    expr.add_level(1, 1, 2.0 * np.eye(m1), d.T, d)
    return expr.at(eta)


def passivity_lmi(
    plant: Plant,
    gain: Gain,
    dist: ModeDistribution,
    eta,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
    max_iters: int = lmi.MAX_ITERS,
):
    """Certify strict passivity with dissipation eta by solving :func:`passivity_problem`.

    ``eta`` is a number or ``"maximize"``, for the largest certifiable eta
    to within ``lmi.ETA_TOL`` (``lmi.certify``). Returns the verified
    ``lmi.LmiCertificate``, its ``eta`` the certified level and its
    assignment's ``"P"`` the storage matrix, or an Indeterminate. A
    certificate's top-left block sum_m a_m A_m' P A_m - P < 0 forces
    rho < 1, so when the SMS oracle gives rho >= 1 the Indeterminate names
    that bound and no search runs; :func:`passivity_problem`'s checks come first.
    """
    problem = passivity_problem(plant, gain, dist, 0.0 if eta == "maximize" else eta, margin)
    rho = sms_oracle(closed_loop(plant, gain, 0, full_packet_schedule()), dist).rho
    if rho >= 1.0:
        return lmi.Indeterminate(
            message=f"second-moment radius rho = {rho:.6g} >= 1: the dissipation form's "
            "top-left block needs rho < 1",
        )
    return lmi.certify(problem, eta, max_iters)


def dissipation_identity_check(plant, gain, dist, p, eta, trace) -> float:
    """Exact per-step identity between the dissipation ledger and the quadratic form.

    Along any simulated path, with V(x) = x' P x and zeta = (x, w),

        V(x+) - V(x) - 2 w'z + 2 eta w'w  ==  zeta' M_mode(P) zeta

    holds algebraically for every P and every realized mode, where M_mode
    is ``passivity_problem``'s form with the realized mode at weight 1, so the
    returned max |difference| over the trace is numerical noise. ``dist``
    is part of the jump-system context but inert here: with a single P
    the identity is pointwise in the realized mode.
    """
    del dist
    if trace.horizon == 0:
        return 0.0
    p = np.asarray(p, dtype=float)
    x, x_next, w = trace.x[:-1], trace.x[1:], trace.w
    # one form per realized (slot, theta1 theta2), gathered back to the steps: the
    # three modes that lose a message share the open loop (model.loop_weights)
    realized, step_form = np.unique(
        2 * trace.slots + trace.theta1 * trace.theta2, return_inverse=True)
    families: dict[int, ClosedLoopFamily] = {}
    forms = []
    for slot, fb in (divmod(code, 2) for code in realized.tolist()):
        if slot not in families:
            families[slot] = closed_loop(plant, gain, slot, trace.schedule)
        form = _dissipation_form(families[slot], [((fb, fb), 1.0)], eta)
        forms.append(form.assemble({"P": p}))
    zeta = np.hstack([x, w])
    quad = np.einsum("ki,kij,kj->k", zeta, np.stack(forms)[step_form], zeta)
    dv = np.einsum("ki,ij,kj->k", x_next, p, x_next) - np.einsum("ki,ij,kj->k", x, p, x)
    ledger = dv - 2.0 * np.einsum("ki,ki->k", w, trace.z) + 2.0 * eta * np.einsum("ki,ki->k", w, w)
    return float(np.max(np.abs(ledger - quad)))
