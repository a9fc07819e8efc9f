"""Passivating state-feedback synthesis in the (X, Y) variables.

The analysis inequality (``analysis.passivity_problem``) is bilinear in
(P, K); a Schur expansion of its loop terms, a congruence by
diag(P^{-1}, I, ...) and X = P^{-1}, Y = K X make it affine. The one
builder of that LMI, ``build_synthesis_lmi``, poses

    row 0:            -X
    row 1:            -[C1 X + a11 D12 Y]   |   2 eta I - D11' - D11
    open-loop row:    sqrt(1 - a11) [A X,  B1]
    closed-loop row:  sqrt(a11) [A X + B2 Y,  B1]
    diagonal blocks:  -X

one row per distinct loop of nonzero weight (``model.loop_weights``):
the gain acts only when both links deliver, so the three other modes
share the open loop. Their three rows sqrt(a_m) R would share R and the
-X block, so an orthogonal rotation maps them to (sqrt(1 - a11) R, 0, 0):
a four-row form is orthogonally similar to this one plus bare -X blocks,
and states the same inequality with the same Schur complement. The
round trip's congruence leg Schur-complements the loop rows out again
and compares the result with the passivity form at P = X^{-1}; that
complement is ``numerics.schur_complement``, the one acceptance
criterion 1 checks. The round trip only checks and never searches: its
direct leg verifies P = X^{-1} against ``analysis.passivity_problem`` at
the recovered gain, which is a passivity certificate for K when it
passes.
Synthesis is restricted to the full-packet configuration, where
K = Y X^{-1} is well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi
# passivity_lmi is not called here, but perfbench's tracer test patches this binding
from .analysis import (  # noqa: F401
    check_assumption,
    passivity_lmi,
    passivity_problem,
    sms_oracle,
)
from .errors import SingularTransform, VerificationFailed
from .model import (
    Gain,
    LossModel,
    ModeDistribution,
    Plant,
    closed_loop,
    full_packet_schedule,
    loop_weights,
    mode_distribution,
)
from .numerics import (
    DEFAULT_MARGIN,
    DefinitenessMargin,
    kron,
    schur_complement,
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
    """Pose the synthesis block LMI over X > 0 (n x n) and Y (m2 x n), at level eta.

    Its level block is the output row's constant 2 eta I - D11' - D11,
    so ``build_synthesis_lmi(plant, dist, 0.0).at(eta)`` is this problem
    at eta, posed once. When the both-links-arrive probability is zero no
    feedback can act, so Y is omitted entirely and feasibility reduces to
    open-loop passivity. Raises for eta < 0, and as ``analysis.check_assumption`` does.
    """
    if eta < 0:
        raise ValueError(f"dissipation must be >= 0, got {eta}")
    check_assumption(plant, margin)
    n, m1, m2 = plant.n, plant.m1, plant.m2
    a11 = dist.prob(1, 1)
    have_y = a11 > 0.0

    prob = lmi.LmiProblem(margin=margin)
    prob.add_symmetric("X", n, positive_definite=True)
    if have_y:
        prob.add_rectangular("Y", m2, n)

    loops = loop_weights(dist.items())
    expr = lmi.AffineExpr([n, m1] + [n] * len(loops), name=SYNTHESIS_CONSTRAINT)
    eye = np.eye(n)

    expr.add_term(0, 0, -eye, "X", eye)
    # output row: -[C1 X + a11 D12 Y] against 2 eta I - D11' - D11
    expr.add_term(1, 0, -plant.C1, "X", eye)
    if have_y:
        expr.add_term(1, 0, -plant.D12, "Y", eye, weight=a11)
    expr.add_level(1, 1, 2.0 * np.eye(m1), plant.D11.T, plant.D11)

    for r, (closed, weight) in enumerate(loops, start=2):
        w = np.sqrt(weight)
        expr.add_term(r, 0, plant.A, "X", eye, weight=w)
        if closed:
            expr.add_term(r, 0, plant.B2, "Y", eye, weight=w)
        expr.add_const(r, 1, w * plant.B1)
        expr.add_term(r, r, -eye, "X", eye)

    prob.add_constraint(expr)
    return prob.at(eta)


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
    """Three independent legs validating a synthesized gain: P = X^{-1}
    verifies, rho < 1 by the oracle, and the congruence identity."""

    direct_certified: bool
    rho: float
    rho_ok: bool
    congruence_rel_err: float
    congruence_ok: bool

    @property
    def passed(self) -> bool:
        return self.direct_certified and self.rho_ok and self.congruence_ok

    def summary(self) -> str:
        return (
            f"P = X^-1 verifies: {self.direct_certified}; "
            f"rho = {self.rho:.6f} (<1: {self.rho_ok}); "
            f"congruence rel err = {self.congruence_rel_err:.3e} (ok: {self.congruence_ok})"
        )


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


def round_trip_verify(
    plant: Plant,
    dist: ModeDistribution,
    synthesis_problem: lmi.LmiProblem,
    x: np.ndarray,
    y: np.ndarray,
    gain: Gain,
) -> RoundTripReport:
    """Independent validation of a synthesized (X, Y) and its gain.

    ``synthesis_problem`` is :func:`build_synthesis_lmi` at the level eta
    (a certificate's ``problem``); the legs judge at its eta and margin.
    Poses ``passivity_problem`` at the gain once, and the legs read it:
    (a) verify P = X^{-1} against it, which certifies passivity of the
    closed loop at eta; (b) second-moment radius rho < 1 by the oracle;
    (c) the congruence identity between it and the synthesis form at
    (X, Y) (:func:`congruence_residual`). No leg runs a solve.
    """
    problem = passivity_problem(plant, gain, dist, synthesis_problem.level,
                                synthesis_problem.margin)
    rho = sms_oracle(closed_loop(plant, gain, 0, full_packet_schedule()), dist).rho
    rel = congruence_residual(synthesis_problem, problem, x, y)
    return RoundTripReport(
        direct_certified=lmi.verify(problem, {"P": np.linalg.inv(x)}).passed,
        rho=rho,
        rho_ok=rho < 1.0,
        congruence_rel_err=rel,
        congruence_ok=rel <= CONGRUENCE_RTOL,
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
    L_K(P) < P, which needs that bound below 1. :func:`build_synthesis_lmi`'s
    checks of eta and D11 come before that guard and before any solve.
    """
    dist = mode_distribution(loss)
    problem = build_synthesis_lmi(plant, dist, 0.0 if eta == "maximize" else eta, margin)
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
        report = round_trip_verify(plant, dist, certificate.problem, x, y, gain)
        if not report.passed:
            raise VerificationFailed(f"synthesis round trip failed: {report.summary()}")
        return SynthesisResult(x=x, y=y, gain=gain, eta=certificate.eta, certificate=certificate,
                               verification=report, rho=report.rho)

    return lmi.certify(problem, eta, max_iters, finish)
