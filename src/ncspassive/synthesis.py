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
and states the same inequality with the same Schur complement.

A gain's certificate is its closed loop's: a P that ``lmi.verify``
accepts on ``analysis.passivity_problem`` at K = Y X^{-1}, at the
certified eta and the user's margin (``SynthesisResult.passivity``). The
congruence proposes P = X^{-1}, but the relative margin scales the two
forms differently, so P = X^{-1} is verified, not assumed; when it
misses, ``passivity_lmi`` searches for a P at K, and only when both fail
is the gain refused.
Synthesis is restricted to the full-packet configuration, where
K = Y X^{-1} is well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi
from .analysis import check_assumption, passivity_lmi, passivity_problem, sms_oracle
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
    spectral_radius,
    sym_eigvals,
)

__all__ = [
    "SynthesisResult",
    "build_synthesis_lmi",
    "recover_gain",
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
class SynthesisResult:
    """A gain with its ``passivity`` certificate, a P that verifies on
    ``analysis.passivity_problem`` at (K, eta, margin), and the synthesis
    LMI's ``certificate`` at (X, Y), the record K = Y X^{-1} came from.
    ``rho`` is the SMS oracle's, reported, not checked: ``passivity``'s
    top-left block L_K(P) - P < 0 forces rho < 1."""

    x: np.ndarray
    y: np.ndarray
    gain: Gain
    certificate: lmi.LmiCertificate
    passivity: lmi.LmiCertificate
    rho: float

    feasible = True

    @property
    def eta(self) -> float:
        return self.passivity.eta


def synthesize(
    plant: Plant,
    loss: LossModel,
    eta,
    margin: DefinitenessMargin = DEFAULT_MARGIN,
    max_iters: int = lmi.MAX_ITERS,
):
    """Solve the synthesis LMI and return a gain with its passivity certificate.

    ``eta`` is a fixed dissipation level or ``"maximize"``, for the
    largest one to within ``lmi.ETA_TOL`` (``lmi.certify``; the
    certificate's ``iterations`` count both phases). K = Y X^{-1} is
    certified by P = X^{-1} on ``passivity_problem`` at the synthesis
    certificate's eta, else by ``passivity_lmi`` at K and ``eta``.
    Returns a :class:`SynthesisResult`, or Indeterminate when the
    synthesis LMI finds no certificate or neither route certifies K; the
    latter's message names both failures.

    No search runs when the loss-only bound rho((1 - a11) A (x) A) >= 1
    holds. Only the both-links-arrive mode sees the gain, so every gain
    has L_K(P) >= (1 - a11) A'PA, and a passivity certificate would give
    L_K(P) < P, which needs that bound below 1. The eigenvalues of A (x) A
    are the products of A's, so the bound is (1 - a11) rho(A)^2, an n x n
    eigensolve. :func:`build_synthesis_lmi`'s checks of eta and D11 come
    before that guard and before any solve.
    """
    dist = mode_distribution(loss)
    problem = build_synthesis_lmi(plant, dist, 0.0 if eta == "maximize" else eta, margin)
    loss_only = (1.0 - dist.prob(1, 1)) * spectral_radius(plant.A) ** 2
    if loss_only >= 1.0:
        return lmi.Indeterminate(
            message=f"loss-only bound rho((1 - a11) A (x) A) = {loss_only:.6g} >= 1: "
            "no gain makes the loop second-moment stable",
        )
    certificate = lmi.certify(problem, eta, max_iters)
    if not certificate.feasible:
        return certificate
    x = certificate.assignment["X"]
    y = certificate.assignment.get("Y", np.zeros((plant.m2, plant.n)))
    gain = recover_gain(x, y)
    try:
        passivity = lmi.LmiCertificate.build(
            passivity_problem(plant, gain, dist, certificate.eta, margin), {"P": np.linalg.inv(x)})
    except VerificationFailed as exc:
        passivity = passivity_lmi(plant, gain, dist, eta, margin, max_iters)
        if not passivity.feasible:
            return lmi.Indeterminate(
                passivity.best_value, certificate.iterations + passivity.iterations,
                f"P = X^-1 is no passivity certificate for the synthesized gain at eta "
                f"{certificate.eta:.6g} ({exc}), and passivity_lmi at that gain found none "
                f"({passivity.message})")
    rho = sms_oracle(closed_loop(plant, gain, 0, full_packet_schedule()), dist).rho
    return SynthesisResult(x, y, gain, certificate, passivity, rho)
