import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from datareach import linalg
from datareach.counters import lp_counts
from datareach.linalg import BASIC, RANK_RTOL, LpProblem, lp_solve, svd


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.normal(size=(rows, cols))
        u, s, v, rank = svd(m)
        assert u.shape == (rows, rows) and v.shape == (cols, cols)
        assert rank == min(rows, cols)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.allclose(u.T @ u, np.eye(rows), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(cols), atol=1e-10)
        sigma = np.zeros((rows, cols))
        sigma[: s.size, : s.size] = np.diag(s)
        assert np.allclose(u @ sigma @ v.T, m, atol=1e-10)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError, match="2-D"):
        svd(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        svd(np.array([[1.0, np.nan]]))


def test_rank_counts_singular_values_above_the_one_cutoff():
    # the cutoff is RANK_RTOL * max(rows, cols) * sigma_max, here 3e-10
    cut = RANK_RTOL * 3
    assert svd(np.diag([1.0, 2 * cut, 0.5 * cut])).rank == 2
    assert svd(np.diag([2.0, 2 * cut, 0.5 * cut])).rank == 1
    assert svd(np.zeros((2, 3))).rank == 0
    assert svd(np.zeros((0, 3))).rank == 0


def test_pseudoinverse_penrose_conditions():
    rng = np.random.default_rng(1)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        rank = rng.integers(1, min(rows, cols) + 1)
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        f = svd(m)
        assert f.rank == rank
        p = f.pinv
        assert np.allclose(m @ p @ m, m, atol=1e-8)
        assert np.allclose(p @ m @ p, p, atol=1e-8)
        assert np.allclose((m @ p).T, m @ p, atol=1e-8)
        assert np.allclose((p @ m).T, p @ m, atol=1e-8)
        assert np.allclose(p, np.linalg.pinv(m), atol=1e-8)


def test_pseudoinverse_is_right_inverse_for_full_row_rank():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d, t = 4, 20
        phi = rng.normal(size=(d, t))
        f = svd(phi)
        h = f.pinv
        assert np.allclose(phi @ h, np.eye(d), atol=1e-10)
        # minimal Frobenius norm among all right inverses
        null = f.null
        for _ in range(5):
            perturbed = h + null @ rng.normal(size=(null.shape[1], d))
            assert np.linalg.norm(perturbed, "fro") >= np.linalg.norm(h, "fro") - 1e-10


def test_nullspace_basis_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols)) if rank else np.zeros((rows, cols))
        check_sparse_null_basis(m, rank)
    for _ in range(25):  # wide regressors like Phi = [X; U]
        d = int(rng.integers(2, 10))
        check_sparse_null_basis(rng.normal(size=(d, int(rng.integers(d + 1, 80)))), d)


# Largest |entry| of a null basis: measured 1.24 over the 80 regressors of the
# bundled lti_5d and pwa_2mode configs (rng_seed 0-9, both input modes, whole
# and per mode), 1.44 over 2,000 Gaussian d x T matrices (2 <= d <= 9,
# T < 80) and 1.18 over 20,000 low-rank matrices of at most 8 x 8.
NULL_BASIS_MAX_ENTRY = 2.0


def check_sparse_null_basis(m, rank):
    """M N = 0, N of full column rank, N the identity (in index order) on
    the cols - rank rows that are not pivots, so each column has at most
    rank + 1 nonzeros, and no entry above NULL_BASIS_MAX_ENTRY."""
    f = svd(m)
    n = f.null
    cols = m.shape[1]
    assert f.rank == rank
    assert n.shape == (cols, cols - rank)
    assert n.T.flags.c_contiguous
    assert np.allclose(m @ n, 0.0, atol=1e-9)
    if n.size:
        assert np.linalg.matrix_rank(n) == cols - rank
        assert np.max(np.abs(n)) <= NULL_BASIS_MAX_ENTRY
    free = [i for i in range(cols) if np.count_nonzero(n[i]) == 1 and n[i].max() == 1.0]
    assert len(free) == cols - rank
    assert np.array_equal(n[free], np.eye(cols - rank))
    assert np.all(np.count_nonzero(n, axis=0) <= rank + 1)


def test_is_full_row_rank():
    assert svd(np.diag([3.0, 2.0, 0.5])).full_row_rank
    assert not svd(np.zeros((2, 3))).full_row_rank
    cut = RANK_RTOL * 2   # cutoff of a 2 x 2 matrix with sigma_max 1
    assert not svd(np.diag([1.0, 0.5 * cut])).full_row_rank
    assert svd(np.diag([1.0, 2 * cut])).full_row_rank
    rng = np.random.default_rng(4)
    assert svd(rng.normal(size=(5, 7))).full_row_rank
    assert not svd(rng.normal(size=(7, 5))).full_row_rank  # more rows than columns
    assert not svd(np.zeros((0, 3))).full_row_rank


def test_lp_solve_known_solutions():
    # max x1 over the segment x1 + x2 = 0 inside the unit box: x = (1, -1)
    res = lp_solve(LpProblem(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([0.0])))
    assert res.status == "feasible"
    assert res.x.shape == (1, 2) and res.objectives.shape == (1,)
    assert np.isclose(res.objectives[0], 1.0)
    assert np.allclose(res.x[0], [1.0, -1.0])

    res = lp_solve(LpProblem(np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([5.0])))
    assert res.status == "infeasible"

    # a wider box, and no equality rows
    res = lp_solve(LpProblem(np.array([[1.0, -2.0]]), np.zeros((0, 2)), np.zeros(0), box=1.5))
    assert np.isclose(res.objectives[0], 4.5) and np.allclose(res.x[0], [1.5, -1.5])
    # a row that reads 0 = 1
    res = lp_solve(LpProblem(np.ones((1, 2)), np.zeros((1, 2)), np.ones(1)))
    assert res.status == "infeasible"


def _brute_force_box_lp(c, a_eq, b_eq):
    """Enumerate basic solutions of max c.x, A x = b, x in [-1, 1]^n."""
    n, q = c.size, a_eq.shape[0]
    best = None
    for basic in itertools.combinations(range(n), q):
        nonbasic = [i for i in range(n) if i not in basic]
        sub = a_eq[:, basic]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        for signs in itertools.product([-1.0, 1.0], repeat=n - q):
            x = np.empty(n)
            x[nonbasic] = signs
            rhs = b_eq - a_eq[:, nonbasic] @ x[nonbasic]
            x[list(basic)] = np.linalg.solve(sub, rhs)
            if np.all(np.abs(x) <= 1.0 + 1e-9):
                val = c @ x
                if best is None or val > best:
                    best = val
    return best


def test_lp_solve_matches_vertex_enumeration():
    rng = np.random.default_rng(5)
    rng_batch = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(1, n))
        c = rng.normal(size=n)
        a_eq = rng.normal(size=(q, n))
        # build a feasible rhs from an interior point
        b_eq = a_eq @ rng.uniform(-0.5, 0.5, size=n)
        res = lp_solve(LpProblem(c[None, :], a_eq, b_eq))
        brute = _brute_force_box_lp(c, a_eq, b_eq)
        assert res.status == "feasible"
        assert brute is not None
        assert np.isclose(res.objectives[0], brute, atol=1e-8)
        # more objectives on the same region, solved as one warm-started batch
        costs = np.vstack([c, rng_batch.normal(size=(5, n))])
        batch = lp_solve(LpProblem(costs, a_eq, b_eq))
        assert batch.status == "feasible"
        assert batch.x.shape == costs.shape and batch.objectives.shape == (costs.shape[0],)
        for obj, x, val in zip(costs, batch.x, batch.objectives):
            cold = lp_solve(LpProblem(obj[None, :], a_eq, b_eq))
            assert cold.status == "feasible"
            assert val == float(obj @ x)
            assert np.isclose(val, cold.objectives[0], atol=1e-8)
            assert np.isclose(val, _brute_force_box_lp(obj, a_eq, b_eq), atol=1e-8)


def test_lp_solve_rejects_bad_shapes():
    none = (np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="A_eq"):
        lp_solve(LpProblem(np.ones((1, 3)), np.ones((2, 2)), np.ones(2)))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones((2, 2, 3)), *none))
    with pytest.raises(ValueError, match="b_eq"):
        lp_solve(LpProblem(np.ones((1, 3)), np.ones((2, 3)), np.ones(1)))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones((2, 0)), np.zeros((0, 0)), np.zeros(0)))


def test_lp_solve_rejects_non_finite_data():
    # and a box that is not a finite positive half-width
    none = (np.zeros((0, 2)), np.zeros(0))
    for problem, message in ((LpProblem(np.array([[1.0, np.inf]]), *none), "c must"),
                             (LpProblem(np.ones((1, 2)), np.array([[1.0, np.nan]]), np.zeros(1)),
                              "A_eq"),
                             (LpProblem(np.ones((1, 2)), np.ones((1, 2)), np.array([np.inf])),
                              "b_eq"),
                             (LpProblem(np.ones((1, 2)), *none, box=np.inf), "box"),
                             (LpProblem(np.ones((1, 2)), *none, box=np.nan), "box"),
                             (LpProblem(np.ones((1, 2)), *none, box=0.0), "box"),
                             (LpProblem(np.ones((1, 2)), *none, box=-1.0), "box")):
        with pytest.raises(ValueError, match=message):
            lp_solve(problem)


def test_lp_solve_rejects_a_single_objective_vector():
    with pytest.raises(ValueError, match="stack"):
        lp_solve(LpProblem(np.ones(2), np.zeros((0, 2)), np.zeros(0)))


def test_lp_solve_batch_statuses():
    # infeasible region: the stack has one status, and no solution
    res = lp_solve(LpProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([5.0]), keep_basis=True))
    assert res.status == "infeasible"
    assert res.x is None and res.objectives is None and res.basis is None
    res = lp_solve(LpProblem(np.array([[1.0], [0.0], [-1.0]]), np.zeros((0, 1)), np.zeros(0)))
    assert res.status == "feasible"
    assert res.objectives.tolist() == [1.0, 0.0, 1.0]
    # an empty stack solves nothing
    with lp_counts() as counts:
        res = lp_solve(LpProblem(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), keep_basis=True))
    assert res.status == "feasible" and res.basis is None
    assert res.x.shape == (0, 2) and res.objectives.shape == (0,)
    assert (counts["lp"]["objectives"], counts["lp"]["simplex_iterations"]) == (0, 0)


def test_an_infeasible_stack_stops_at_its_first_objective(monkeypatch):
    solves = []

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    solve = linalg._solve
    monkeypatch.setattr(linalg, "_solve", counting_solve)
    res = lp_solve(LpProblem(np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.array([5.0])))
    assert res.status == "infeasible" and len(solves) == 1
    # a feasible stack solves every objective
    assert lp_solve(LpProblem(np.eye(3), np.ones((1, 3)), np.zeros(1))).status == "feasible"
    assert len(solves) == 4


def test_lp_solve_extra_rows_and_starting_basis():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n, q, k = 8, 3, 2
        a_eq = rng.normal(size=(q, n))
        x0 = rng.uniform(-0.5, 0.5, size=n)
        b_eq = a_eq @ x0
        rows = rng.normal(size=(k, n))
        lo, hi = rows @ x0 - 0.2, np.array([np.inf, rows[1] @ x0 + 0.1])
        c = rng.normal(size=n)
        # the extra rows as inequalities, solved by scipy's linprog
        ref = linprog(-c, A_ub=np.vstack([-rows, rows[1:]]), b_ub=np.concatenate([-lo, hi[1:]]),
                      A_eq=a_eq, b_eq=b_eq, bounds=(-1.0, 1.0))
        assert ref.status == 0
        got = lp_solve(LpProblem(c[None, :], a_eq, b_eq, rows=(rows, lo, hi), keep_basis=True))
        assert np.isclose(got.objectives[0], -ref.fun, atol=1e-9)
        cols, row_status = got.basis
        assert cols.dtype == row_status.dtype == np.int8
        assert (cols.size, row_status.size) == (n, q + k)
        assert np.count_nonzero(cols == BASIC) + np.count_nonzero(row_status == BASIC) == q + k
        # a basis of the equalities alone starts the LP with the extra rows:
        # the extra rows' slacks start basic
        plain = lp_solve(LpProblem(c[None, :], a_eq, b_eq, keep_basis=True))
        warm = lp_solve(LpProblem(c[None, :], a_eq, b_eq, rows=(rows, lo, hi), basis=plain.basis))
        assert np.isclose(warm.objectives[0], -ref.fun, atol=1e-9)
        # and a stack of objectives from the final basis matches cold solves
        costs = rng.normal(size=(4, n))
        again = lp_solve(LpProblem(costs, a_eq, b_eq, basis=plain.basis, keep_basis=True))
        for obj, val in zip(costs, again.objectives):
            assert np.isclose(val, lp_solve(LpProblem(obj[None, :], a_eq, b_eq)).objectives[0],
                              atol=1e-9)
        assert again.basis is not None
        # the final basis is the last objective's optimal basis
        with lp_counts() as counts:
            last = lp_solve(LpProblem(costs[-1:], a_eq, b_eq, basis=again.basis))
        assert counts["lp"]["simplex_iterations"] == 0
        assert np.isclose(last.objectives[0], again.objectives[-1], atol=1e-12)
        # a caller that does not keep the basis is not handed one
        assert lp_solve(LpProblem(costs, a_eq, b_eq, basis=plain.basis)).basis is None


def test_lp_solve_rejects_bad_rows_and_bases():
    c, a_eq, b_eq = np.ones((1, 3)), np.ones((1, 3)), np.zeros(1)
    with pytest.raises(ValueError):
        lp_solve(LpProblem(c, a_eq, b_eq, rows=(np.ones((2, 2)), [0, 0], [1, 1])))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(c, a_eq, b_eq, rows=(np.ones((2, 3)), [0], [1, 1])))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(c, a_eq, b_eq, rows=(np.ones((1, 3)), [np.nan], [1])))
    basis = lp_solve(LpProblem(c, a_eq, b_eq, keep_basis=True)).basis
    for bad in ((basis[0], np.zeros(0, np.int8)),             # basic count off
                (np.concatenate([basis[0], [0]]), basis[1])):  # more columns than the LP
        with pytest.raises(ValueError, match="basis"):
            lp_solve(LpProblem(c, a_eq, b_eq, basis=bad))
    infeasible = lp_solve(LpProblem(c, a_eq, np.array([5.0]), keep_basis=True))
    assert infeasible.status == "infeasible" and infeasible.basis is None


def test_lp_counts_tally_by_purpose():
    c, a_eq, b_eq = np.ones((1, 3)), np.ones((1, 3)), np.zeros(1)
    lp_solve(LpProblem(c, a_eq, b_eq))  # nobody counting
    with lp_counts() as counts:
        first = lp_solve(LpProblem(c, a_eq, b_eq, keep_basis=True, purpose="a"))
        lp_solve(LpProblem(np.eye(3), a_eq, b_eq, basis=first.basis, purpose="a"))
        with lp_counts() as inner:
            lp_solve(LpProblem(c, a_eq, b_eq, purpose="b"))
        lp_solve(LpProblem(c, np.zeros((0, 3)), np.zeros(0)))
    assert set(counts) == {"a", "lp"} and set(inner) == {"b"}
    a = counts["a"]
    assert (a["calls"], a["objectives"], a["cold_starts"]) == (2, 4, 1)
    assert a["simplex_iterations"] >= 1 and a["seconds"] > 0.0
