"""Passivating state-feedback synthesis in the (X, Y) variables.

The analysis inequality (``analysis.passivity_problem``) is bilinear in
(P, K); a Schur expansion of its mode terms, a congruence by
diag(P^{-1}, I, ...) and X = P^{-1}, Y = K X make it affine. The one
builder of that LMI, ``build_synthesis_lmi``, poses

    row 0:            -X
    row 1:            -[C1 X + a11 D12 Y]   |   2 eta I - D11' - D11
    rows 2..5, mode m: sqrt(a_m) [A X + (m == (1,1)) B2 Y,  B1]
    diagonal blocks:  -X

with the gain term only in the both-links-arrive row, because the
closed-loop A of every other mode is the open loop; the whole row, B1
column included, carries sqrt(a_m). The round trip's congruence leg
Schur-complements the mode rows out again and compares the result with
the passivity form at P = X^{-1}. Synthesis is restricted to the
full-packet configuration, where K = Y X^{-1} is well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi
# passivity_lmi is not called here, but perfbench's tracer test patches this binding
from .analysis import check_assumption, passivity_lmi, passivity_problem, sms_oracle  # noqa: F401
from .errors import SingularTransform, VerificationFailed
from .model import (
    MODES,
    Gain,
    LossModel,
    ModeDistribution,
    Plant,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
)
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    is_neg_definite,
    kron,
    spectral_radius,
    sym_eigvals,
)

__all__ = [
    "SynthesisResult",
    "RoundTripReport",
    "build_synthesis_lmi",
    "recover_gain",
    "round_trip_verify",
    "synthesize",
]

SYNTHESIS_CONSTRAINT = "synthesis"


def build_synthesis_lmi(
    plant: Plant,
    dist: ModeDistribution,
    eta: float,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
) -> lmi.LmiProblem:
    """Pose the synthesis block LMI over X > 0 (n x n) and Y (m2 x n).

    When the both-links-arrive probability is zero no feedback can act,
    so Y is omitted entirely and feasibility reduces to open-loop
    passivity.
    """
    check_assumption(plant, margin)
    n, m1, m2 = plant.n, plant.m1, plant.m2
    a11 = dist.prob(1, 1)
    have_y = a11 > 0.0

    prob = lmi.LmiProblem(margin=margin)
    prob.add_symmetric("X", n, positive_definite=True)
    if have_y:
        prob.add_rectangular("Y", m2, n)

    dims = [n, m1] + [n] * len(MODES)
    expr = lmi.AffineExpr(dims, name=SYNTHESIS_CONSTRAINT)
    eye = np.eye(n)

    expr.add_term(0, 0, -eye, "X", eye)
    # output row: -[C1 X + a11 D12 Y] against 2 eta I - D11' - D11
    expr.add_term(1, 0, -plant.C1, "X", eye)
    if have_y:
        expr.add_term(1, 0, -plant.D12, "Y", eye, weight=a11)
    expr.add_const(1, 1, 2.0 * eta * np.eye(m1) - plant.D11.T - plant.D11)

    for t, (i, j) in enumerate(MODES):
        r = 2 + t
        w = np.sqrt(dist.prob(i, j))
        if w > 0.0:
            expr.add_term(r, 0, plant.A, "X", eye, weight=w)
            if (i, j) == (1, 1) and have_y:
                expr.add_term(r, 0, plant.B2, "Y", eye, weight=w)
            expr.add_const(r, 1, w * plant.B1)
        expr.add_term(r, r, -eye, "X", eye)

    prob.add_constraint(expr)
    return prob


def recover_gain(x: np.ndarray, y: np.ndarray) -> Gain:
    """K = Y X^{-1}, with an explicit residual check on K X = Y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eigs = sym_eigvals(x)
    if eigs[0] <= 1e-12 * (1.0 + eigs[-1]):
        raise SingularTransform(
            f"X is singular within tolerance (min eigenvalue {eigs[0]:.3e})"
        )
    k = np.linalg.solve(x.T, y.T).T
    residual = float(np.linalg.norm(k @ x - y))
    bound = 1e-8 * (1.0 + float(np.linalg.norm(y)))
    if residual > bound:
        raise SingularTransform(
            f"gain recovery residual {residual:.3e} exceeds {bound:.3e}; X too ill-conditioned"
        )
    return Gain(k)


@dataclass(frozen=True)
class RoundTripReport:
    """Four independent legs validating a synthesized gain."""

    passivity_certified: bool
    direct_certified: bool
    rho: float
    rho_ok: bool
    congruence_rel_err: float
    congruence_ok: bool
    verdicts_match: bool

    @property
    def passed(self) -> bool:
        return (
            self.passivity_certified
            and self.direct_certified
            and self.rho_ok
            and self.congruence_ok
            and self.verdicts_match
        )

    def summary(self) -> str:
        return (
            f"passivity re-certified: {self.passivity_certified}; "
            f"P = X^-1 verifies: {self.direct_certified}; "
            f"rho = {self.rho:.6f} (<1: {self.rho_ok}); "
            f"congruence rel err = {self.congruence_rel_err:.3e} "
            f"(ok: {self.congruence_ok}, verdicts match: {self.verdicts_match})"
        )


CONGRUENCE_RTOL = 1e-6


def congruence_residual(
    synthesis_problem: lmi.LmiProblem,
    passivity_problem: lmi.LmiProblem,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, bool]:
    """Relative eigenvalue gap between the synthesis form at (X, Y), its mode
    rows Schur-complemented out as top - R' D^{-1} R, and diag(X, I) M(X^{-1})
    diag(X, I), with M the dissipation form of ``passivity_problem``.

    The two problems are :func:`build_synthesis_lmi` and
    ``analysis.passivity_problem`` at one eta, the latter at the gain
    Y X^{-1}; nothing is posed here. D is the assembled mode block, not
    X^{-1}, so a wrong -X there shows. For Y = K X the two are equal up to
    rounding. Also reports whether the whole synthesis form and the mapped
    form agree on definiteness.
    """
    m_xy = dict(synthesis_problem.constraints)[SYNTHESIS_CONSTRAINT].assemble({"X": x, "Y": y})
    analysis_form = dict(passivity_problem.constraints)["dissipation"]
    n, split = len(x), analysis_form.dim
    top, r, d = m_xy[:split, :split], m_xy[split:, :split], m_xy[split:, split:]
    schur = top - r.T @ np.linalg.solve(d, r)

    t = np.eye(split)  # diag(X, I)
    t[:n, :n] = x
    m_mapped = t @ analysis_form.assemble({"P": np.linalg.inv(x)}) @ t

    e_xy = sym_eigvals(schur)
    e_mapped = sym_eigvals(m_mapped)
    scale = 1.0 + float(np.abs(e_xy).max())
    rel = float(np.abs(e_xy - e_mapped).max()) / scale
    verdicts_match = is_neg_definite(m_xy) == is_neg_definite(m_mapped)
    return rel, verdicts_match


def round_trip_verify(
    plant: Plant,
    dist: ModeDistribution,
    eta: float,
    x: np.ndarray,
    y: np.ndarray,
    gain: Gain,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
    max_iters: int = lmi.MAX_ITERS,
) -> RoundTripReport:
    """Independent validation of a synthesized (X, Y) and its gain at eta.

    Poses ``passivity_problem`` at the gain once, and every leg reads it:
    (a) re-certify passivity of the closed loop at the claimed eta with a
    fresh solve, which ``analysis.passivity_lmi`` would skip, as here, when
    rho >= 1; (b) verify P = X^{-1} directly against it; (c) second-moment
    radius rho < 1 by the oracle; (d) the congruence identity between it
    and the synthesis form at (X, Y) (:func:`congruence_residual`).
    """
    problem = passivity_problem(plant, gain, dist, eta, margin)
    rho = sms_oracle(closed_loop(plant, gain, 0, full_packet_schedule()), dist).rho
    rel, verdicts = congruence_residual(build_synthesis_lmi(plant, dist, eta, margin), problem, x, y)
    return RoundTripReport(
        passivity_certified=bool(rho < 1.0 and lmi.solve(problem, max_iters).feasible),
        direct_certified=lmi.verify(problem, {"P": np.linalg.inv(x)}).passed,
        rho=rho,
        rho_ok=rho < 1.0,
        congruence_rel_err=rel,
        congruence_ok=rel <= CONGRUENCE_RTOL,
        verdicts_match=verdicts,
    )


@dataclass(frozen=True)
class SynthesisResult:
    """Solved synthesis instance with its verified round trip."""

    x: np.ndarray
    y: np.ndarray
    gain: Gain
    eta: float
    certificate: lmi.LmiCertificate
    verification: RoundTripReport
    rho: float

    feasible = True


def synthesize(
    plant: Plant,
    loss: LossModel,
    eta,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
    max_iters: int = lmi.MAX_ITERS,
):
    """Solve the synthesis LMI and return a round-trip-verified gain.

    ``eta`` is a fixed dissipation level or ``"maximize"``, for the
    largest one to within ``lmi.ETA_TOL`` (``lmi.certify``; the
    certificate's ``iterations`` count both phases), which steps down to
    lower iterates while a round trip fails. Returns a
    :class:`SynthesisResult`, or Indeterminate when no certificate was
    found. A certificate whose round trip fails raises VerificationFailed:
    a bug, not an infeasible problem.

    No search runs when the loss-only bound rho((1 - a11) A (x) A) >= 1
    holds. Only the both-links-arrive mode sees the gain, so every gain
    has L_K(P) >= (1 - a11) A'PA, and a passivity certificate would give
    L_K(P) < P, which needs that bound below 1.
    """
    check_assumption(plant, margin)
    dist = mode_distribution(loss)
    loss_only = spectral_radius((1.0 - dist.prob(1, 1)) * kron(plant.A, plant.A))
    if loss_only >= 1.0:
        return lmi.Indeterminate(
            message=f"loss-only bound rho((1 - a11) A (x) A) = {loss_only:.6g} >= 1: "
            "no gain makes the loop second-moment stable",
        )

    def finish(certificate: lmi.LmiCertificate) -> SynthesisResult:
        x = certificate.assignment["X"]
        y = certificate.assignment.get("Y", np.zeros((plant.m2, plant.n)))
        gain = recover_gain(x, y)
        report = round_trip_verify(plant, dist, certificate.eta, x, y, gain, margin, max_iters)
        if not report.passed:
            raise VerificationFailed(f"synthesis round trip failed: {report.summary()}")
        return SynthesisResult(x=x, y=y, gain=gain, eta=certificate.eta, certificate=certificate,
                               verification=report, rho=report.rho)

    return lmi.certify(lambda e: build_synthesis_lmi(plant, dist, e, margin), eta, max_iters, finish)
