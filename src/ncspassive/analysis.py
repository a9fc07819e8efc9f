"""Second-moment stability and strict passivity certification.

Two independent routes are kept deliberately separate:

* the LMI route poses the coupled Lyapunov / passivity inequalities and
  certifies feasibility through eigenvalue verification (``lmi.verify``);
* the second-moment-spectral (SMS) oracle computes the spectral radius
  of the mode-averaged Kronecker operator, which characterizes
  second-moment stability exactly and never touches the LMI machinery.

Second-moment stability needs no search. For a fixed gain it holds
exactly when rho < 1, and then the coupled Lyapunov equation
P_k - L_k(P_{k+1}) = I has a positive definite solution (Costa, Fragoso
& Marques, *Discrete-Time Markov Jump Linear Systems*, Springer 2005).
``stability_lmi`` solves that linear equation and verifies the solution
against the coupled Lyapunov LMIs. When it does not verify, the Perron
eigenvector of the period's adjoint operator gives multipliers that
``lmi.verify_dual`` checks as a proof that no P exists.

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
The form is affine in eta, so ``passivity_lmi(..., "maximize")`` finds
the largest certifiable eta in one barrier run (``lmi.certify``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    is_pos_definite,
    kron,
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
    Kronecker square sum_m a_m kron(A_m, A_m); for a period the operators
    compose, and rho is the per-step geometric mean of the product's
    spectral radius.
    """
    families = [family] if isinstance(family, ClosedLoopFamily) else list(family)
    if not families:
        raise ValueError("need at least one closed-loop family")
    n = families[0].a(0, 0).shape[0]
    product = np.eye(n * n)
    for fam in families:
        product = _second_moment_operator(fam, dist) @ product
    rho = spectral_radius(product) ** (1.0 / len(families))
    return SmsReport(rho=rho, stable=rho < 1.0, borderline=abs(rho - 1.0) < BORDERLINE_BAND)


def _second_moment_operator(fam: ClosedLoopFamily, dist: ModeDistribution) -> np.ndarray:
    """sum_m a_m kron(A_m, A_m): Z -> sum_m a_m A_m Z A_m' on row-major vec(Z).

    Its transpose acts as the Lyapunov map P -> sum_m a_m A_m' P A_m.
    """
    n = fam.a(0, 0).shape[0]
    op = np.zeros((n * n, n * n))
    for (i, j), p in dist.items():
        if p == 0.0:
            continue
        a = fam.a(i, j)
        op += p * kron(a, a)
    return op


@dataclass(frozen=True)
class StabilityCertificate:
    """N-periodic positive definite P_k verifying the coupled Lyapunov LMIs."""

    ps: tuple[np.ndarray, ...]
    report: lmi.VerifyReport

    feasible = True

    @property
    def p(self) -> np.ndarray:
        return self.ps[0]


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
    eye = np.eye(n)
    for k, fam in enumerate(families):
        expr = lmi.AffineExpr([n], name=f"lyapunov_k{k}")
        nxt = f"P{(k + 1) % period}"
        for (i, j), p in dist.items():
            if p == 0.0:
                continue
            a = fam.a(i, j)
            expr.add_term(0, 0, a.T, nxt, a, weight=p)
        expr.add_term(0, 0, -eye, f"P{k}", eye)
        prob.add_constraint(expr)
    return prob


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
    that passed ``lmi.verify_dual`` when rho >= 1 lets it build them.
    Never raises for a singular or ill-conditioned system.
    """
    period = schedule.period
    n = plant.n
    families = [closed_loop(plant, gain, k, schedule) for k in range(period)]
    prob = _lyapunov_problem(families, dist, margin)
    # adjoint[k] maps Z_k to Z_{k+1}; adjoint[k].T is the Lyapunov map L_k
    adjoint = [_second_moment_operator(fam, dist) for fam in families]
    # Close the cycle at P_0: P_0 = c + T P_0, with T = L_0 L_1 ... L_{N-1}.
    vec_i = np.eye(n).ravel()
    t = np.eye(n * n)
    c = np.zeros(n * n)
    for op in adjoint:
        c += t @ vec_i
        t = t @ op.T
    try:
        p0 = np.linalg.solve(np.eye(n * n) - t, c)
    except np.linalg.LinAlgError:
        p0 = np.full(n * n, np.nan)
    reason = "the coupled Lyapunov equation has no finite solution"
    if np.isfinite(p0).all():
        ps = {"P0": _sym(p0.reshape(n, n))}
        nxt = p0
        for k in range(period - 1, 0, -1):  # P_k = I + L_k(P_{k+1})
            nxt = vec_i + adjoint[k].T @ nxt
            ps[f"P{k}"] = _sym(nxt.reshape(n, n))
        try:
            cert = lmi.LmiCertificate.build(prob, ps)
        except VerificationFailed as exc:
            reason = f"the coupled Lyapunov equation's solution does not verify: {exc}"
        else:
            return StabilityCertificate(
                ps=tuple(cert.assignment[f"P{k}"] for k in range(period)),
                report=cert.report,
            )
    # The adjoint period operator is T'; its Perron eigenvalue is rho^N.
    z0 = _perron_vector(t.T, n)
    dual = None if z0 is None else _stability_dual(adjoint, z0)
    if dual is not None and lmi.verify_dual(prob, dual).passed:
        return lmi.Indeterminate(
            message="refuted: the Perron multiplier of the period's second-moment "
            "operator proves that no P satisfies the coupled Lyapunov LMIs",
            dual=dual,
        )
    return lmi.Indeterminate(message=f"{reason}; no dual certificate found")


# Squarings in the power iteration: op / s + I raised to 2**40.
POWER_SQUARINGS = 40


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _perron_vector(op: np.ndarray, n: int) -> np.ndarray | None:
    """Trace-one Perron eigenvector of ``op``, as n x n, or None.

    Power iteration from I, which stays in the PSD cone because ``op``
    maps the cone into itself. It runs on op / s + I, with s the largest
    absolute row sum (at least 1), which bounds every eigenvalue's
    modulus: the Perron eigenvalue then strictly dominates even when
    others share its modulus (as on periodic schedules). Repeated
    squaring lets a slow ratio still converge.
    """
    if not np.isfinite(op).all():
        return None
    power = op / max(float(np.abs(op).sum(axis=1).max()), 1.0) + np.eye(n * n)
    for _ in range(POWER_SQUARINGS):
        power = power @ power
        power /= np.abs(power).max()  # nonzero: power has a positive eigenvalue
    z = _sym((power @ np.eye(n).ravel()).reshape(n, n))
    return z / np.trace(z) if np.trace(z) > 0.0 else None


def _stability_dual(adjoint: list, z0: np.ndarray) -> dict | None:
    """Multipliers of :func:`stability_problem` from the Perron eigenvector Z_0.

    Z_{k+1} = L_k*(Z_k) weighs lyapunov_k, and P{k}_pos_def gets
    L_{k-1}*(Z_{k-1}) - Z_k: zero except at k = 0, where it is
    (rho^N - 1) Z_0 for an exact eigenvector. The variables then cancel,
    and every multiplier is PSD exactly when rho >= 1.
    """
    n = z0.shape[0]
    period = len(adjoint)
    zs = [z0]
    for op in adjoint:
        zs.append(_sym((op @ zs[-1].ravel()).reshape(n, n)))
    dual = {f"lyapunov_k{k}": zs[k] for k in range(period)}
    dual["P0_pos_def"] = zs[period] - z0
    for k in range(1, period):
        dual[f"P{k}_pos_def"] = np.zeros((n, n))
    total = sum(float(np.trace(z)) for z in dual.values())
    if not (np.isfinite(total) and total > 0.0):
        return None
    return {name: z / total for name, z in dual.items()}


def check_assumption(plant: Plant, margin: DefinitenessMargin = DEFAULT_MARGIN) -> None:
    """Raise AssumptionViolated unless D11 + D11' > 0 (margin-strict)."""
    d = plant.D11 + plant.D11.T
    if not is_pos_definite(d, margin):
        raise AssumptionViolated(
            "passivity analysis requires D11 + D11' > 0; "
            f"min eigenvalue is {float(sym_eigvals(d)[0]):.3e}"
        )


def passivity_problem(
    plant: Plant,
    gain: Gain,
    dist: ModeDistribution,
    eta: float,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
) -> lmi.LmiProblem:
    """The averaged dissipation LMI over one P > 0 (full-packet loop).

    Requires eta >= 0 and D11 + D11' > 0; raises ValueError or
    AssumptionViolated otherwise.
    """
    if eta < 0:
        raise ValueError(f"dissipation must be >= 0, got {eta}")
    check_assumption(plant, margin)
    prob = lmi.LmiProblem(margin=margin)
    prob.add_symmetric("P", plant.n, positive_definite=True)
    fam = closed_loop(plant, gain, 0, full_packet_schedule())
    prob.add_constraint(_dissipation_form(fam, dist.items(), eta))
    return prob


def _dissipation_form(fam: ClosedLoopFamily, weights, eta: float) -> lmi.AffineExpr:
    """The dissipation form over P, its modes weighted by (mode, weight) pairs.

    Modes of weight zero are skipped. With the mode probabilities it is
    the averaged form of :func:`passivity_problem`; with the realized mode
    at weight 1 it is that step's ledger form.
    """
    n, m1 = fam.b.shape
    b, d = fam.b, fam.d
    expr = lmi.AffineExpr([n, m1], name="dissipation")
    c = np.zeros_like(fam.c(0, 0))
    for (i, j), p in weights:
        if p == 0.0:
            continue
        a = fam.a(i, j)
        expr.add_term(0, 0, a.T, "P", a, weight=p)
        expr.add_term(0, 1, a.T, "P", b, weight=p)
        c = c + p * fam.c(i, j)
    expr.add_term(0, 0, -np.eye(n), "P", np.eye(n))
    expr.add_term(1, 1, b.T, "P", b)
    expr.add_const(0, 1, -c.T)
    expr.add_const(1, 1, 2.0 * eta * np.eye(m1) - d.T - d)
    return expr


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
    that bound and no search runs.
    """
    if eta != "maximize" and eta < 0:
        raise ValueError(f"dissipation must be >= 0, got {eta}")
    check_assumption(plant, margin)
    rho = sms_oracle(closed_loop(plant, gain, 0, full_packet_schedule()), dist).rho
    if rho >= 1.0:
        return lmi.Indeterminate(
            message=f"second-moment radius rho = {rho:.6g} >= 1: the dissipation form's "
            "top-left block needs rho < 1",
        )
    return lmi.certify(lambda e: passivity_problem(plant, gain, dist, e, margin), eta, max_iters)


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
    # one form per realized (slot, theta1, theta2), gathered back to the steps
    realized, step_form = np.unique(
        np.column_stack([trace.slots, trace.theta1, trace.theta2]), axis=0, return_inverse=True)
    families: dict[int, ClosedLoopFamily] = {}
    forms = []
    for slot, theta1, theta2 in realized.tolist():
        if slot not in families:
            families[slot] = closed_loop(plant, gain, slot, trace.schedule)
        form = _dissipation_form(families[slot], [((theta1, theta2), 1.0)], eta)
        forms.append(form.assemble({"P": p}))
    zeta = np.hstack([x, w])
    quad = np.einsum("ki,kij,kj->k", zeta, np.stack(forms)[step_form.ravel()], zeta)
    dv = np.einsum("ki,ij,kj->k", x_next, p, x_next) - np.einsum("ki,ij,kj->k", x, p, x)
    ledger = dv - 2.0 * np.einsum("ki,ki->k", w, trace.z) + 2.0 * eta * np.einsum("ki,ki->k", w, w)
    return float(np.max(np.abs(ledger - quad)))
