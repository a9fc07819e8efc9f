"""The averaged dissipation Riccati equation: the tests' independent eta oracle.

At one eta, ``riccati_storage`` answers the passivity form
(``analysis.passivity_problem``) without a search: Newton-Kleinman steps
on the averaged dissipation Riccati equation give storage matrices that
``lmi.verify`` must still accept. No certifier calls it; the oracle
tests bisect it for the largest certifiable eta.
"""

import numpy as np

from ncspassive.lmi import _positive_definite
from ncspassive.model import ClosedLoopFamily


# Newton-Kleinman steps of riccati_storage before it gives up; the relative step of P at
# which it stops; the relative fall of a diagonal entry of P at which it gives up.
RICCATI_STEPS = 40
RICCATI_RTOL = 1e-12
RICCATI_FALL = 1e-8


def riccati_storage(fam: ClosedLoopFamily, weights, eta: float, delta: float):
    """The storage matrix P of the averaged dissipation Riccati equation at eta and slack delta.

    Returns P or None. With W = D + D' - 2 eta I, A_bar and C~ the
    weighted means of the mode matrices, and B, D mode-independent,
    policy iteration (Kleinman, *IEEE TAC* 13, 1968; Ait Rami & Zhou,
    *IEEE TAC* 45, 2000) starts at the disturbance gain F = 0 and
    alternates

        sum_m a_m (A_m + B F)' P (A_m + B F) - P = -delta I + C~'F + F'C~ + F'WF,
        F <- (W - B'PB)^{-1} (B'P A_bar - C~),

    until P moves by at most RICCATI_RTOL relative. With
    T = [[I, 0], [F, I]] the dissipation form is then
    T' M(P) T = diag(-delta I, -(W - B'PB)), negative definite, so P is a
    candidate for ``lmi.verify``; it is never a certificate on its own.
    Its top-left block is below -delta I, so that P is positive definite
    exactly when rho < 1. While every A_m + B F stays mean-square stable
    the steps only raise P; past the largest eta with a stabilizing
    solution they wander instead, so a diagonal entry of P that falls by
    more than RICCATI_FALL relative ends the run. The first P is delta
    times the Lyapunov solution at F = 0 and slack I.

    P is None, without a warning, for a singular or non-finite step, a
    W - B'PB that is not positive definite, a falling P, a final P that is
    not positive definite, or no convergence within RICCATI_STEPS. Builds
    no LMI: the form is written out here, independently of
    ``analysis._dissipation_form``.
    """
    modes = [(mode, p) for mode, p in weights if p != 0.0]
    weight = np.array([p for _, p in modes])[:, None, None]
    a = np.array([fam.a(*mode) for mode, _ in modes])
    a_bar = (weight * a).sum(axis=0)
    c = (weight * np.array([fam.c(*mode) for mode, _ in modes])).sum(axis=0)
    root = np.sqrt(weight)
    b = fam.b
    n, m1 = b.shape
    w = fam.d + fam.d.T - 2.0 * eta * np.eye(m1)
    eye = np.eye(n * n)

    def lyapunov(f, rhs):
        """P solving sum_m a_m (A_m + B F)' P (A_m + B F) - P = -rhs, or None if singular."""
        # sum_m a_m kron(A_F', A_F') maps row-major vec(P) to vec(sum_m a_m A_F' P A_F)
        at = root * (a + b @ f).transpose(0, 2, 1)
        lyap = (at[:, :, None, :, None] * at[:, None, :, None, :]).sum(axis=0)
        try:
            return np.linalg.solve(eye - lyap.reshape(n * n, n * n), rhs.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError:
            return None

    with np.errstate(all="ignore"):
        unit = lyapunov(np.zeros((m1, n)), np.eye(n))
        if unit is None:
            return None
        p, p_old, slack = delta * unit, None, delta * np.eye(n)
        for _ in range(RICCATI_STEPS):
            if p_old is not None:
                step, scale = p - p_old, np.abs(p).max()
                if np.abs(step).max() <= RICCATI_RTOL * scale:
                    p = 0.5 * (p + p.T)
                    return p if _positive_definite(p) else None
                if np.diagonal(step).min() < -RICCATI_FALL * scale:
                    return None
            bp = b.T @ p
            r = w - bp @ b
            if not _positive_definite(r):
                return None
            f = np.linalg.solve(r, bp @ a_bar - c)
            cf = c.T @ f
            p_old, p = p, lyapunov(f, slack - cf - cf.T - f.T @ w @ f)
            if p is None:
                return None
    return None
