"""Shared dense linear-algebra and linear-programming primitives.

Everything downstream (set operations, model-set construction, input design)
funnels its numerics through this module so that the rank tolerance and LP
conventions are defined in exactly one place.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

try:
    # the HiGHS binding that scipy.optimize.linprog wraps; it keeps a model
    # and its basis between solves
    from scipy.optimize._highspy import _core as _highs
except ImportError as err:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "datareach needs scipy >= 1.17, which ships the HiGHS binding "
        "scipy.optimize._highspy._core"
    ) from err

# Relative rank cutoff: singular values at or below
# RANK_RTOL * max(rows, cols) * sigma_max are treated as zero.
RANK_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Raised when a factorization or LP solve fails for numerical reasons."""


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


class Svd(NamedTuple):
    """Full SVD M = u @ diag(s) @ v.T with its numerical rank.

    u and v are square orthogonal; s is non-increasing with min(rows, cols)
    entries, of which the first rank lie above the RANK_RTOL cutoff.  The
    pseudoinverse, the null space and the full-row-rank test are all read
    from this one factorization.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int

    @property
    def pinv(self):
        """Moore-Penrose pseudoinverse; singular values below the cutoff are zeroed."""
        inv = np.zeros(self.s.size)
        inv[: self.rank] = 1.0 / self.s[: self.rank]
        return (self.v[:, : self.s.size] * inv) @ self.u[:, : self.s.size].T

    @property
    def null(self):
        """Orthonormal basis of the right null space, (cols x (cols - rank))."""
        return self.v[:, self.rank :]

    @property
    def full_row_rank(self):
        """Whether M has rank equal to its (nonzero) row count: the test for a
        regressor that must have a right inverse."""
        return 0 < self.u.shape[0] == self.rank


def svd(m):
    """Full SVD of a finite 2-D array, with its rank at the RANK_RTOL cutoff."""
    a = _as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as e:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"SVD did not converge: {e}") from e
    thresh = RANK_RTOL * max(a.shape) * s[0] if s.size else 0.0
    return Svd(u, s, vh.T, int(np.count_nonzero(s > thresh)))


@dataclass
class LpProblem:
    """maximize c @ x  subject to  A_eq @ x = b_eq,  lb <= x <= ub.

    c is one objective (m,) or a stack of k objectives (k, m) over the same
    feasible region.  A_eq may be a dense array, a scipy.sparse matrix, or
    None (no equalities).  lb/ub entries may be -inf/+inf.
    """

    c: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None


@dataclass
class LpResult:
    status: str  # "feasible" | "infeasible" | "unbounded"
    x: np.ndarray = None
    objective: float = None


_OPTIMAL = _highs.HighsModelStatus.kOptimal
_INFEASIBLE = _highs.HighsModelStatus.kInfeasible
_UNBOUNDED = _highs.HighsModelStatus.kUnbounded


def _bound(v, n, default, name):
    out = np.full(n, default) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if out.size != n:
        raise ValueError(f"{name} has {out.size} entries, the LP has {n} variables")
    if np.any(np.isnan(out)):
        raise ValueError(f"{name} has NaN entries")
    return out


def _highs_model(a, b, lb, ub):
    """A HiGHS instance holding {a x = b, lb <= x <= ub} (a in CSC form), zero cost."""
    n = lb.size
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, a.shape[0]
    lp.col_cost_ = np.zeros(n)
    lp.col_lower_, lp.col_upper_ = lb, ub
    lp.row_lower_, lp.row_upper_ = b, b
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, a.shape[0]
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the LP model")
    return highs


def _solve(highs, c):
    """Run HiGHS from its current basis; a run that ends in neither an
    optimum nor a proof of infeasibility or unboundedness is repeated cold."""
    highs.run()
    status = highs.getModelStatus()
    if status not in (_OPTIMAL, _INFEASIBLE, _UNBOUNDED):
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
    if status == _OPTIMAL:
        x = np.asarray(highs.getSolution().col_value)
        return LpResult("feasible", x, float(c @ x))
    if status == _INFEASIBLE:
        return LpResult("infeasible")
    if status == _UNBOUNDED:
        return LpResult("unbounded")
    raise NumericalError(f"LP solver failed: {highs.modelStatusToString(status)}")


def lp_solve(problem):
    """Solve an LpProblem with HiGHS.

    Returns one LpResult for c of shape (m,) and a list of k LpResults for
    c of shape (k, m).  The model is built once; the objectives are solved
    in order, each from the previous optimal basis (only the costs change
    in between).  status "feasible" means an optimum was found; x and
    objective are set.
    """
    c = np.asarray(problem.c, dtype=float)
    if c.ndim not in (1, 2):
        raise ValueError(f"c must be (m,) or (k, m), got shape {c.shape}")
    costs = c if c.ndim == 2 else c[None, :]
    n = costs.shape[1]
    if n == 0:
        raise ValueError("the LP has no variables")
    lb = _bound(problem.lb, n, -np.inf, "lb")
    ub = _bound(problem.ub, n, np.inf, "ub")
    a_eq = scipy.sparse.csc_array((0, n) if problem.a_eq is None else problem.a_eq, dtype=float)
    b_eq = np.zeros(0) if problem.b_eq is None else np.asarray(problem.b_eq, dtype=float).reshape(-1)
    if a_eq.shape != (b_eq.size, n):
        raise ValueError(f"A_eq has shape {a_eq.shape}, expected ({b_eq.size}, {n})")
    if not (np.all(np.isfinite(costs)) and np.all(np.isfinite(a_eq.data))
            and np.all(np.isfinite(b_eq))):
        raise ValueError("c, A_eq and b_eq must be finite")

    highs = _highs_model(a_eq, b_eq, lb, ub)
    cols = np.arange(n, dtype=np.int32)
    results = []
    for row in costs:
        highs.changeColsCost(n, cols, -row)
        results.append(_solve(highs, row))
    return results if c.ndim == 2 else results[0]
