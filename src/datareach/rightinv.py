"""Right inverses of the data regressor.

The volume proxy of a data-driven model set factorizes into a constant times
the sum of the row norms of the right inverse H, so shrinking
sum_t ||H[t, :]||_2 subject to Phi H = I shrinks the model set.  That is a
second-order cone program; it is solved here by ADMM with an affine-projection
H-step and a row-wise soft-threshold Z-step.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import svd


class RightInverseError(RuntimeError):
    """Raised on rank failure or when the solver does not converge; carries the
    best iterate seen so far in .best when available."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass
class RightInverseResult:
    """A right inverse with solver diagnostics.

    h satisfies Phi h = I up to feasibility_residual; iterations is 0 for
    closed-form methods.
    """

    h: np.ndarray
    method: str
    row_norm_sum: float
    frobenius_norm: float
    feasibility_residual: float
    iterations: int = 0


def _pinv(phi):
    """The pseudoinverse of Phi, from its one SVD; raises unless Phi has full
    row rank."""
    factors = svd(phi)
    if not factors.full_row_rank:
        raise RightInverseError("Phi is not full row rank; no right inverse exists")
    return factors.pinv


def row_norm_sum(h):
    return float(np.linalg.norm(h, axis=1).sum())


def _result(h, phi, method, iterations=0):
    res = float(np.max(np.abs(phi @ h - np.eye(phi.shape[0]))))
    return RightInverseResult(
        h, method, row_norm_sum(h), float(np.linalg.norm(h, "fro")), res, iterations,
    )


def pinv_right_inverse(phi):
    """The Moore-Penrose right inverse (smallest Frobenius norm)."""
    phi = np.asarray(phi, dtype=float)
    return _result(_pinv(phi), phi, "pinv")


_ADMM_RTOL = 1e-9
_ADAPT_UNTIL = 400


def row_norm_right_inverse(phi, max_iter=20000):
    """Right inverse minimizing the sum of row 2-norms, via ADMM.

    Splitting: minimize sum_t ||Z[t,:]|| + indicator(Phi H = I) with H = Z.
    The H-update projects onto the affine constraint, the Z-update is the
    row-wise block soft threshold, and the penalty rho is rescaled when the
    primal and dual residuals drift apart.  Adaptation stops after
    _ADAPT_UNTIL iterations (an eventually-constant rho is required for
    convergence; on some wide instances endless rescaling cycles).  Stops
    when max(primal, dual) <= _ADMM_RTOL * max(1, ||H||_F, ||Z||_F).

    Raises RightInverseError (with .best set) if max_iter is hit first.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    phi = np.asarray(phi, dtype=float)
    phi_pinv = _pinv(phi)
    eye = np.eye(phi.shape[0])

    def project(m):
        return m - phi_pinv @ (phi @ m - eye)

    h = phi_pinv.copy()
    z = h.copy()
    u = np.zeros_like(h)
    rho = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        h = project(z - u)
        v = h + u
        norms = np.linalg.norm(v, axis=1)
        shrink = np.maximum(0.0, 1.0 - (1.0 / rho) / np.where(norms > 0.0, norms, 1.0))
        z_new = v * shrink[:, None]
        primal = float(np.linalg.norm(h - z_new, "fro"))
        dual = float(rho * np.linalg.norm(z_new - z, "fro"))
        u = u + h - z_new
        z = z_new
        scale = max(1.0, float(np.linalg.norm(h, "fro")), float(np.linalg.norm(z, "fro")))
        if max(primal, dual) <= _ADMM_RTOL * scale:
            converged = True
            break
        if it <= _ADAPT_UNTIL:
            if primal > 10.0 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                u *= 2.0

    result = _result(project(z), phi, "row_norm", it)
    if not converged:
        raise RightInverseError(
            f"ADMM did not reach tolerance in {it} iterations "
            f"(primal {primal:.2e}, dual {dual:.2e})",
            best=result,
        )
    return result


@dataclass
class SandwichCheck:
    """||pinv(Phi)||_F <= optimal row-norm sum <= sqrt(T) ||pinv(Phi)||_F."""

    lower: float
    value: float
    upper: float

    @property
    def holds(self):
        return self.lower <= self.value + 1e-9 and self.value <= self.upper + 1e-9


def verify_sandwich(phi, result):
    """Bounds on the optimal row-norm sum from the pseudoinverse alone."""
    phi = np.asarray(phi, dtype=float)
    fro = float(np.linalg.norm(svd(phi).pinv, "fro"))
    return SandwichCheck(fro, result.row_norm_sum, float(np.sqrt(phi.shape[1])) * fro)
