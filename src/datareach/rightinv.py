"""Right inverses of the data regressor.

The volume proxy of a data-driven model set factorizes into a constant times
the sum of the row norms of the right inverse H, so shrinking
sum_t ||H[t, :]||_2 subject to Phi H = I shrinks the model set.  That is a
second-order cone program; it is solved here by ADMM with an affine-projection
H-step and a row-wise soft-threshold Z-step.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_full_row_rank, pseudoinverse


class RightInverseError(RuntimeError):
    """Raised on rank failure or when the solver does not converge; carries the
    best iterate seen so far in .best when available."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass
class RightInverseResult:
    """A right inverse with solver diagnostics.

    h satisfies Phi h = I up to feasibility_residual.  history holds the
    per-iteration objective and residual traces (empty for closed-form
    methods).
    """

    h: np.ndarray
    method: str
    row_norm_sum: float
    frobenius_norm: float
    feasibility_residual: float
    iterations: int = 0
    history: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "method": self.method,
            "row_norm_sum": self.row_norm_sum,
            "frobenius_norm": self.frobenius_norm,
            "feasibility_residual": self.feasibility_residual,
            "iterations": self.iterations,
            "history": {k: [float(v) for v in vals] for k, vals in self.history.items()},
            "h": self.h.tolist(),
        }


def _check_full_row_rank(phi):
    if not is_full_row_rank(phi):
        raise RightInverseError("Phi is not full row rank; no right inverse exists")


def row_norm_sum(h):
    return float(np.linalg.norm(h, axis=1).sum())


def _result(h, phi, method, iterations=0, history=None):
    res = float(np.max(np.abs(phi @ h - np.eye(phi.shape[0]))))
    return RightInverseResult(
        h, method, row_norm_sum(h), float(np.linalg.norm(h, "fro")), res,
        iterations, history or {},
    )


def pinv_right_inverse(phi):
    """The Moore-Penrose right inverse (smallest Frobenius norm)."""
    phi = np.asarray(phi, dtype=float)
    _check_full_row_rank(phi)
    return _result(pseudoinverse(phi), phi, "pinv")


def row_norm_right_inverse(phi, tol=1e-7, max_iter=20000, adapt_until=400):
    """Right inverse minimizing the sum of row 2-norms, via ADMM.

    Splitting: minimize sum_t ||Z[t,:]|| + indicator(Phi H = I) with H = Z.
    The H-update projects onto the affine constraint, the Z-update is the
    row-wise block soft threshold, and the penalty rho is rescaled when the
    primal and dual residuals drift apart.  Adaptation stops after
    adapt_until iterations (an eventually-constant rho is required for
    convergence; on some wide instances endless rescaling cycles).  Stops
    when max(primal, dual) <= min(1e-9, tol / 100) * max(1, ||H||_F, ||Z||_F).

    Raises RightInverseError (with .best set) if max_iter is hit first.
    """
    phi = np.asarray(phi, dtype=float)
    _check_full_row_rank(phi)
    d, t = phi.shape
    phi_pinv = pseudoinverse(phi)
    eye = np.eye(d)

    def project(m):
        return m - phi_pinv @ (phi @ m - eye)

    h = phi_pinv.copy()
    z = h.copy()
    u = np.zeros_like(h)
    rho = 1.0
    rtol = min(1e-9, tol / 100.0)
    obj_trace, primal_trace, dual_trace = [], [], []
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
        obj_trace.append(row_norm_sum(z))
        primal_trace.append(primal)
        dual_trace.append(dual)
        scale = max(1.0, float(np.linalg.norm(h, "fro")), float(np.linalg.norm(z, "fro")))
        if max(primal, dual) <= rtol * scale:
            converged = True
            break
        if it <= adapt_until:
            if primal > 10.0 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                u *= 2.0

    h_final = project(z)
    history = {"objective": obj_trace, "primal": primal_trace, "dual": dual_trace}
    result = _result(h_final, phi, "row_norm", it, history)
    if not converged:
        raise RightInverseError(
            f"ADMM did not reach tolerance in {it} iterations "
            f"(primal {primal_trace[-1]:.2e}, dual {dual_trace[-1]:.2e})",
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
    fro = float(np.linalg.norm(pseudoinverse(phi), "fro"))
    return SandwichCheck(fro, result.row_norm_sum, float(np.sqrt(phi.shape[1])) * fro)
