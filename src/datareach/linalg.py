"""Shared dense linear-algebra and linear-programming primitives.

Everything downstream (set operations, model-set construction, input design)
funnels its numerics through this module so that rank tolerances and LP
conventions are defined in exactly one place.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

# Relative rank cutoff: singular values below RANK_RTOL * max(rows, cols) * sigma_max
# are treated as zero.
RANK_RTOL = 1e-10

# A matrix counts as full row rank when sigma_min > FULL_ROW_RANK_RTOL * sigma_max.
FULL_ROW_RANK_RTOL = 1e-8


class NumericalError(RuntimeError):
    """Raised when a factorization or LP solve fails for numerical reasons."""


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    assert a.ndim == 2, f"expected a 2-D array, got shape {a.shape}"
    assert np.all(np.isfinite(a)), "matrix has non-finite entries"
    return a


def svd(m):
    """Full SVD. Returns (U, sigma, V) with M = U @ diag(sigma) @ V.T.

    U and V are square orthogonal; sigma is non-increasing with
    min(rows, cols) entries.
    """
    a = _as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as e:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"SVD did not converge: {e}") from e
    return u, s, vh.T


def _rank_threshold(s, shape, tol):
    if s.size == 0:
        return 0.0
    if tol is None:
        tol = RANK_RTOL * max(shape)
    return tol * s[0]


def pseudoinverse(m, tol=None):
    """Moore-Penrose pseudoinverse; singular values <= tol * sigma_max are zeroed.

    Default tol is RANK_RTOL * max(rows, cols).
    """
    a = _as_matrix(m)
    u, s, v = svd(a)
    thresh = _rank_threshold(s, a.shape, tol)
    inv = np.where(s > thresh, 1.0 / np.where(s > thresh, s, 1.0), 0.0)
    return (v[:, : s.size] * inv) @ u[:, : s.size].T


def matrix_rank(m, tol=None):
    a = _as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > _rank_threshold(s, a.shape, tol)))


def nullspace_basis(m, tol=None):
    """Orthonormal basis of the right null space, as columns of a (cols x r) array.

    r = cols - rank(M); the returned block satisfies M @ N ~ 0 and N.T @ N = I.
    """
    a = _as_matrix(m)
    u, s, v = svd(a)
    rank = int(np.count_nonzero(s > _rank_threshold(s, a.shape, tol)))
    return v[:, rank:]


def is_full_row_rank(m):
    """Whether M has full row rank with margin: no more rows than columns
    and sigma_min > FULL_ROW_RANK_RTOL * sigma_max.  This is the test for a
    regressor that must have a right inverse."""
    a = _as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    return bool(0 < a.shape[0] <= a.shape[1] and s[-1] > FULL_ROW_RANK_RTOL * s[0])


@dataclass
class LpProblem:
    """maximize c @ x  subject to  A_eq @ x = b_eq,  lb <= x <= ub.

    A_eq may be a dense array, a scipy.sparse matrix, or None (no equalities).
    lb/ub entries may be -inf/+inf.
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


def lp_solve(problem):
    """Solve an LpProblem with HiGHS. Returns an LpResult.

    status "feasible" means an optimum was found; x and objective are set.
    """
    c = np.asarray(problem.c, dtype=float).reshape(-1)
    n = c.size
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float).reshape(-1)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float).reshape(-1)
    assert lb.size == n and ub.size == n

    a_eq, b_eq = problem.a_eq, problem.b_eq
    if a_eq is not None and getattr(a_eq, "shape", (0,))[0] == 0:
        a_eq, b_eq = None, None
    if a_eq is not None:
        if not scipy.sparse.issparse(a_eq):
            a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        assert a_eq.shape == (b_eq.size, n)

    res = linprog(
        -c,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if res.status == 0:
        return LpResult("feasible", np.asarray(res.x), float(c @ res.x))
    if res.status == 2:
        return LpResult("infeasible")
    if res.status == 3:
        return LpResult("unbounded")
    raise NumericalError(f"LP solver failed (status {res.status}): {res.message}")
