"""Shared dense linear-algebra and linear-programming primitives.

Everything downstream (set operations, model-set construction, input design)
funnels its numerics through this module so that the rank tolerance and LP
conventions are defined in exactly one place.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from . import counters

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
    pseudoinverse, the sparse null-space basis and the full-row-rank test
    are all read from this one factorization.
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
        """Sparse basis N of the right null space, (cols x (cols - rank)).

        The rows of V_r' (V_r = v[:, :rank]) span the row space of M.  A
        column-pivoted QR of V_r' picks rank well-conditioned pivot columns
        B; N is the identity on the other columns (in index order) and
        -(V_r[B]')^-1 V_r[rest]' on B, so each column of N has at most
        rank + 1 nonzeros (the fundamental basis of Gilbert and Heath, SIAM
        J. Alg. Disc. Meth. 1987).  N' is C-contiguous.
        """
        cols, rank = self.v.shape[0], self.rank
        nt = np.zeros((cols - rank, cols))
        if rank == 0:
            np.fill_diagonal(nt, 1.0)
            return nt.T
        # LAPACK directly: at these sizes the scipy.linalg wrappers cost
        # more than the factorization and the triangular solve together
        r, piv, _, _, info = lapack.dgeqp3(self.v[:, :rank].T)
        piv -= 1  # LAPACK numbers columns from 1
        rest = np.argsort(piv[rank:])  # the free columns, in index order
        pivot_rows, info_solve = lapack.dtrtrs(r[:rank, :rank], r[:rank, rank:][:, rest])
        if info or info_solve:
            raise NumericalError(f"pivoted QR of the row space failed (info {info}, {info_solve})")
        nt[np.arange(cols - rank), piv[rank:][rest]] = 1.0
        nt[:, piv[:rank]] = -pivot_rows.T
        return nt.T

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
    """maximize c @ x  subject to  A_eq @ x = b_eq,  rows,  |x| <= box.

    c is a stack of k objectives (k, m) over the same feasible region, k
    possibly 0.  A_eq is a dense (q, m) array, q possibly 0, and box
    one finite positive half-width for every variable, so the LP is never
    unbounded.  rows, when given, is (a, lo, hi): extra rows
    lo <= a @ x <= hi after the equalities, with -inf/+inf allowed in
    lo/hi.

    basis, when given, is a starting basis (col_status, row_status) as
    returned in LpResult.basis.  It may cover only leading blocks of the
    columns and rows: the columns past it start nonbasic at -box and the
    rows past it start with their slack basic, which keeps a basis of the
    leading block a basis of the whole LP.  keep_basis asks for the final
    basis (LpResult.basis); reading it back from the solver costs about as
    much as setting up a small LP, so only callers that keep it ask.
    purpose names the caller in the counters.lp_counts tally.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    box: float = 1.0
    rows: tuple = None
    basis: tuple = None
    keep_basis: bool = False
    purpose: str = "lp"


@dataclass
class LpResult:
    """The answer to a stack of k objectives over one feasible region.

    status "infeasible" means a solve proved the region empty, and x and
    objectives are None.  Otherwise status is "feasible" (an empty stack
    solves nothing and gets it too), x (k, m) holds each objective's
    optimum and objectives (k,) its value.  basis is the optimal basis the
    last solve ended in, as (col_status, row_status) int8 arrays of HiGHS
    basis status codes (LOWER, BASIC, or 2 for a column at +box), set only
    when the problem asked for it (keep_basis) and k > 0.
    """

    status: str  # "feasible" | "infeasible"
    x: np.ndarray = None
    objectives: np.ndarray = None
    basis: tuple = None


_OPTIMAL = _highs.HighsModelStatus.kOptimal
_INFEASIBLE = _highs.HighsModelStatus.kInfeasible

# basis status codes, as HiGHS numbers them
LOWER, BASIC = 0, 1
_STATUS = tuple(_highs.HighsBasisStatus(code) for code in range(5))
_ROW_WISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def _highs_model(rows, lo, hi, n, box):
    """A HiGHS instance holding {lo <= A x <= hi, |x| <= box} over n
    variables, zero cost, presolve off (every solve starts from a basis,
    which presolve would discard).  rows is A in row-wise form (start,
    index, value); the arrays are handed over as buffers, not element by
    element."""
    start, index, value = rows
    lb, ub = np.full(n, -box), np.full(n, box)
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    status = highs.passModel(n, lo.size, value.size, _ROW_WISE, _MINIMIZE, 0.0, np.zeros(n),
                             lb, ub, lo, hi, start, index, value, np.zeros(n, dtype=np.int32))
    if status == _highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the LP model")
    return highs


def _start_basis(basis, n, n_rows):
    """A HighsBasis from a basis of the leading columns and rows (see
    LpProblem.basis)."""
    cols, rows = (np.asarray(s, dtype=np.int8).reshape(-1) for s in basis)
    if cols.size > n or rows.size > n_rows or np.count_nonzero(cols == BASIC) + np.count_nonzero(
            rows == BASIC) != rows.size:
        raise ValueError(f"starting basis with {cols.size} columns and {rows.size} rows "
                         f"does not fit the LP's leading block ({n} columns, {n_rows} rows)")
    out = _highs.HighsBasis()
    out.col_status = [_STATUS[s] for s in cols.tolist()] + [_STATUS[LOWER]] * (n - cols.size)
    out.row_status = [_STATUS[s] for s in rows.tolist()] + [_STATUS[BASIC]] * (n_rows - rows.size)
    out.valid = True
    out.alien = False  # a basis HiGHS returned: no need to factor it before the run
    return out


def _solve(highs, tally):
    """Run HiGHS from its current basis; a run that ends in neither an
    optimum nor a proof of infeasibility is repeated cold.  Adds the
    simplex iterations to tally (a dict, or None).  Returns the optimal
    solution, or None when the LP is infeasible."""
    highs.run()
    status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    if status not in (_OPTIMAL, _INFEASIBLE):
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
        iterations += highs.getInfo().simplex_iteration_count
    if tally is not None:
        tally["simplex_iterations"] += iterations
    if status == _OPTIMAL:
        return np.asarray(highs.getSolution().col_value)
    if status == _INFEASIBLE:
        return None
    raise NumericalError(f"LP solver failed: {highs.modelStatusToString(status)}")


def _row_wise(a, n, name):
    """Nonzero counts per row, column indices and values of a dense matrix
    a with n columns, row by row."""
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
    b_eq = np.asarray(problem.b_eq, dtype=float).reshape(-1)
    if not np.all(np.isfinite(b_eq)):
        raise ValueError("b_eq must be finite")
    blocks = [_row_wise(problem.a_eq, n, "A_eq")]
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
    """Solve an LpProblem with HiGHS: one LpResult for its stack of
    objectives.

    The model is built once; the objectives are solved in order, the first
    from problem.basis (or cold) and each later one from the previous
    optimal basis (only the costs change in between).  The first objective
    that proves the region infeasible ends the stack.  No HiGHS object
    outlives the call: what carries over to a later LP is the final basis,
    returned when keep_basis is set.
    """
    costs = np.asarray(problem.c, dtype=float)
    if costs.ndim != 2:
        raise ValueError(f"c must be a stack of objectives (k, m), got shape {costs.shape}")
    k, n = costs.shape
    if n == 0:
        raise ValueError("the LP has no variables")
    if not np.all(np.isfinite(costs)):
        raise ValueError("c must be finite")
    box = float(problem.box)
    if not 0.0 < box < np.inf:
        raise ValueError(f"box must be a finite positive half-width, got {problem.box!r}")
    rows, lo, hi = _rows(problem, n)

    counts = counters.LP.get()
    tally = None
    if counts is not None:
        tally = counts.setdefault(problem.purpose, dict.fromkeys(
            ("calls", "objectives", "cold_starts", "simplex_iterations", "seconds"), 0))
        tally["calls"] += 1
        tally["objectives"] += k
        tally["cold_starts"] += problem.basis is None
        start = time.perf_counter()
    highs = _highs_model(rows, lo, hi, n, box)
    if problem.basis is not None and highs.setBasis(
            _start_basis(problem.basis, n, lo.size)) == _highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the starting basis")
    cols = np.arange(n, dtype=np.int32)
    result = LpResult("feasible", np.empty((k, n)), np.empty(k))
    for i, row in enumerate(costs):
        highs.changeColsCost(n, cols, -row)
        x = _solve(highs, tally)
        if x is None:
            result = LpResult("infeasible")
            break
        result.x[i] = x
        result.objectives[i] = float(row @ x)
    if problem.keep_basis and k and result.status == "feasible":
        final = highs.getBasis()
        result.basis = (np.fromiter(map(int, final.col_status), np.int8, n),
                        np.fromiter(map(int, final.row_status), np.int8, lo.size))
    if tally is not None:
        tally["seconds"] += time.perf_counter() - start
    return result
