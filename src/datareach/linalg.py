"""Shared dense linear-algebra and linear-programming primitives.

Everything downstream (set operations, model-set construction, input design)
funnels its numerics through this module so that the rank tolerance and LP
conventions are defined in exactly one place.
"""

import contextvars
import time
from contextlib import contextmanager
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
    """maximize c @ x  subject to  A_eq @ x = b_eq,  rows,  lb <= x <= ub.

    c is one objective (m,) or a stack of k objectives (k, m) over the same
    feasible region.  A_eq may be a dense array, a scipy.sparse matrix, or
    None (no equalities).  lb/ub entries may be -inf/+inf.  rows, when
    given, is (a, lo, hi): extra rows lo <= a @ x <= hi after the
    equalities, with -inf/+inf allowed in lo/hi.

    basis, when given, is a starting basis (col_status, row_status) as
    returned in LpResult.basis.  It may cover only leading blocks of the
    columns and rows: the columns past it start nonbasic at a bound and the
    rows past it start with their slack basic, which keeps a basis of the
    leading block a basis of the whole LP.  purpose names the caller in
    the lp_counts tally.
    """

    c: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None
    rows: tuple = None
    basis: tuple = None
    purpose: str = "lp"


@dataclass
class LpResult:
    """status "feasible" means an optimum was found; x and objective are set.

    basis is the optimal basis the solve ended in, as (col_status,
    row_status) int8 arrays of BASIC, LOWER, UPPER or ZERO codes.  lp_solve
    sets it on the last result it returns only, and only when that solve
    ended optimal.
    """

    status: str  # "feasible" | "infeasible" | "unbounded"
    x: np.ndarray = None
    objective: float = None
    basis: tuple = None


_OPTIMAL = _highs.HighsModelStatus.kOptimal
_INFEASIBLE = _highs.HighsModelStatus.kInfeasible
_UNBOUNDED = _highs.HighsModelStatus.kUnbounded

# basis status codes, as HiGHS numbers them
LOWER, BASIC, UPPER, ZERO = 0, 1, 2, 3
_STATUS = tuple(_highs.HighsBasisStatus(code) for code in range(5))
_ROW_WISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

# the lp_counts tally of the current context; None when nobody counts
_COUNTS = contextvars.ContextVar("datareach_lp_counts", default=None)


@contextmanager
def lp_counts():
    """Count the LPs that lp_solve runs inside the block, by purpose.

    Yields a dict that fills as LPs run: purpose -> {"calls",
    "objectives", "cold_starts" (calls given no starting basis),
    "simplex_iterations", "seconds"}.  An inner block counts its LPs in
    its own dict only.
    """
    counts = {}
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)


def _bound(v, n, default, name):
    out = np.full(n, default) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if out.size != n:
        raise ValueError(f"{name} has {out.size} entries, the LP has {n} variables")
    if np.any(np.isnan(out)):
        raise ValueError(f"{name} has NaN entries")
    return out


def _highs_model(rows, lo, hi, lb, ub):
    """A HiGHS instance holding {lo <= A x <= hi, lb <= x <= ub}, zero cost,
    presolve off (every solve starts from a basis, which presolve would
    discard).  rows is A in row-wise form (start, index, value); the arrays
    are handed over as buffers, not element by element."""
    start, index, value = rows
    n = lb.size
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    status = highs.passModel(n, lo.size, value.size, _ROW_WISE, _MINIMIZE, 0.0, np.zeros(n),
                             lb, ub, lo, hi, start, index, value, np.zeros(n, dtype=np.int32))
    if status == _highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the LP model")
    return highs


def _start_basis(basis, lb, ub, n_rows):
    """A HighsBasis from a basis of the leading columns and rows (see
    LpProblem.basis)."""
    cols, rows = (np.asarray(s, dtype=np.int8).reshape(-1) for s in basis)
    n = lb.size
    if cols.size > n or rows.size > n_rows or np.count_nonzero(cols == BASIC) + np.count_nonzero(
            rows == BASIC) != rows.size:
        raise ValueError(f"starting basis with {cols.size} columns and {rows.size} rows "
                         f"does not fit the LP's leading block ({n} columns, {n_rows} rows)")
    rest = np.where(np.isfinite(lb[cols.size:]), LOWER,
                    np.where(np.isfinite(ub[cols.size:]), UPPER, ZERO))
    out = _highs.HighsBasis()
    out.col_status = [_STATUS[s] for s in np.concatenate([cols, rest]).tolist()]
    out.row_status = [_STATUS[s] for s in rows.tolist()] + [_STATUS[BASIC]] * (n_rows - rows.size)
    out.valid = True
    out.alien = False  # a basis HiGHS returned: no need to factor it before the run
    return out


def _solve(highs, c, tally):
    """Run HiGHS from its current basis; a run that ends in neither an
    optimum nor a proof of infeasibility or unboundedness is repeated cold.
    Adds the simplex iterations to tally (a dict, or None)."""
    highs.run()
    status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    if status not in (_OPTIMAL, _INFEASIBLE, _UNBOUNDED):
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
        iterations += highs.getInfo().simplex_iteration_count
    if tally is not None:
        tally["simplex_iterations"] += iterations
    if status == _OPTIMAL:
        x = np.asarray(highs.getSolution().col_value)
        return LpResult("feasible", x, float(c @ x))
    if status == _INFEASIBLE:
        return LpResult("infeasible")
    if status == _UNBOUNDED:
        return LpResult("unbounded")
    raise NumericalError(f"LP solver failed: {highs.modelStatusToString(status)}")


def _row_wise(a, n, name):
    """Nonzero counts per row, column indices and values of a dense or
    scipy.sparse matrix a with n columns, row by row."""
    if scipy.sparse.issparse(a):
        a = scipy.sparse.csr_array(a, dtype=float, copy=True)
        a.sum_duplicates()
        counts, index, value = np.diff(a.indptr), a.indices, a.data
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
        mask = a != 0.0
        counts, index, value = np.count_nonzero(mask, axis=1), np.nonzero(mask)[1], a[mask]
    if a.shape[1] != n:
        raise ValueError(f"{name} has {a.shape[1]} columns, the LP has {n} variables")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return counts, index, value


def _rows(problem, n):
    """The equalities and the extra rows as one row-wise matrix
    (start, index, value) with row bounds lo, hi."""
    b_eq = np.zeros(0) if problem.b_eq is None else np.asarray(problem.b_eq, dtype=float).reshape(-1)
    if not np.all(np.isfinite(b_eq)):
        raise ValueError("b_eq must be finite")
    blocks = [_row_wise(np.zeros((0, n)) if problem.a_eq is None else problem.a_eq, n, "A_eq")]
    if blocks[0][0].size != b_eq.size:
        raise ValueError(f"A_eq has {blocks[0][0].size} rows for {b_eq.size} entries of b_eq")
    lo, hi = b_eq, b_eq
    if problem.rows is not None:
        a, row_lo, row_hi = problem.rows
        blocks.append(_row_wise(a, n, "the extra rows"))
        row_lo, row_hi = (np.asarray(v, dtype=float).reshape(-1) for v in (row_lo, row_hi))
        if not row_lo.size == row_hi.size == blocks[1][0].size:
            raise ValueError(f"{blocks[1][0].size} extra rows with {row_lo.size} lower and "
                             f"{row_hi.size} upper bounds")
        if np.any(np.isnan(row_lo)) or np.any(np.isnan(row_hi)):
            raise ValueError("the extra row bounds have NaN entries")
        lo, hi = np.concatenate([lo, row_lo]), np.concatenate([hi, row_hi])
    counts, index, value = (np.concatenate(parts) for parts in zip(*blocks))
    start = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=start[1:])
    return (start, index.astype(np.int32), value), lo, hi


def lp_solve(problem):
    """Solve an LpProblem with HiGHS.

    Returns one LpResult for c of shape (m,) and a list of k LpResults for
    c of shape (k, m).  The model is built once; the objectives are solved
    in order, the first from problem.basis (or cold) and each later one
    from the previous optimal basis (only the costs change in between).
    No HiGHS object outlives the call: what carries over to a later LP is
    the final basis, returned on the last result.
    """
    c = np.asarray(problem.c, dtype=float)
    if c.ndim not in (1, 2):
        raise ValueError(f"c must be (m,) or (k, m), got shape {c.shape}")
    costs = c if c.ndim == 2 else c[None, :]
    n = costs.shape[1]
    if n == 0:
        raise ValueError("the LP has no variables")
    if not np.all(np.isfinite(costs)):
        raise ValueError("c must be finite")
    lb = _bound(problem.lb, n, -np.inf, "lb")
    ub = _bound(problem.ub, n, np.inf, "ub")
    rows, lo, hi = _rows(problem, n)

    counts = _COUNTS.get()
    tally = None
    if counts is not None:
        tally = counts.setdefault(problem.purpose, dict.fromkeys(
            ("calls", "objectives", "cold_starts", "simplex_iterations", "seconds"), 0))
        tally["calls"] += 1
        tally["objectives"] += costs.shape[0]
        tally["cold_starts"] += problem.basis is None
        start = time.perf_counter()
    highs = _highs_model(rows, lo, hi, lb, ub)
    if problem.basis is not None and highs.setBasis(
            _start_basis(problem.basis, lb, ub, lo.size)) == _highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the starting basis")
    cols = np.arange(n, dtype=np.int32)
    results = []
    for row in costs:
        highs.changeColsCost(n, cols, -row)
        results.append(_solve(highs, row, tally))
    if results and results[-1].status == "feasible":
        final = highs.getBasis()
        results[-1].basis = (np.fromiter(map(int, final.col_status), np.int8, n),
                             np.fromiter(map(int, final.row_status), np.int8, lo.size))
    if tally is not None:
        tally["seconds"] += time.perf_counter() - start
    return results if c.ndim == 2 else results[0]
