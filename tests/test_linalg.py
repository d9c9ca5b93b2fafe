import itertools

import numpy as np
import pytest
import scipy.sparse

from datareach.linalg import BASIC, RANK_RTOL, LpProblem, lp_counts, lp_solve, svd


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
        f = svd(m)
        n = f.null
        assert f.rank == rank
        assert n.shape == (cols, cols - rank)
        assert np.allclose(m @ n, 0.0, atol=1e-9)
        assert np.allclose(n.T @ n, np.eye(n.shape[1]), atol=1e-10)


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
    res = lp_solve(LpProblem(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([0.0]),
                             -np.ones(2), np.ones(2)))
    assert res.status == "feasible"
    assert np.isclose(res.objective, 1.0)
    assert np.allclose(res.x, [1.0, -1.0])

    res = lp_solve(LpProblem(np.zeros(2), np.array([[1.0, 0.0]]), np.array([5.0]),
                             -np.ones(2), np.ones(2)))
    assert res.status == "infeasible"

    res = lp_solve(LpProblem(np.array([1.0]), None, None, None, None))
    assert res.status == "unbounded"


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
        res = lp_solve(LpProblem(c, a_eq, b_eq, -np.ones(n), np.ones(n)))
        brute = _brute_force_box_lp(c, a_eq, b_eq)
        assert res.status == "feasible"
        assert brute is not None
        assert np.isclose(res.objective, brute, atol=1e-8)
        # more objectives on the same region, solved as one warm-started batch
        costs = np.vstack([c, rng_batch.normal(size=(5, n))])
        batch = lp_solve(LpProblem(costs, a_eq, b_eq, -np.ones(n), np.ones(n)))
        assert len(batch) == costs.shape[0]
        for obj, r in zip(costs, batch):
            cold = lp_solve(LpProblem(obj, a_eq, b_eq, -np.ones(n), np.ones(n)))
            assert r.status == cold.status == "feasible"
            assert np.isclose(r.objective, cold.objective, atol=1e-8)
            assert np.isclose(r.objective, _brute_force_box_lp(obj, a_eq, b_eq), atol=1e-8)


def test_lp_solve_sparse_equalities():
    rng = np.random.default_rng(6)
    n = 20
    c = rng.normal(size=n)
    a = rng.normal(size=(4, n))
    b = a @ rng.uniform(-0.3, 0.3, size=n)
    dense = lp_solve(LpProblem(c, a, b, -np.ones(n), np.ones(n)))
    sparse = lp_solve(LpProblem(c, scipy.sparse.csr_matrix(a), b, -np.ones(n), np.ones(n)))
    assert dense.status == sparse.status == "feasible"
    assert np.isclose(dense.objective, sparse.objective, atol=1e-8)


def test_lp_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones(3), np.ones((2, 2)), np.ones(2), -np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones((2, 2, 3)), None, None, -np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones((2, 3)), None, None, -np.ones(2), np.ones(3)))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones((2, 0)), None, None, None, None))


def test_lp_solve_rejects_non_finite_data():
    box = (-np.ones(2), np.ones(2))
    for problem in (LpProblem(np.array([1.0, np.inf]), None, None, *box),
                    LpProblem(np.ones(2), np.array([[1.0, np.nan]]), np.zeros(1), *box),
                    LpProblem(np.ones(2), np.ones((1, 2)), np.array([np.inf]), *box),
                    LpProblem(np.ones(2), None, None, np.array([0.0, np.nan]), None)):
        with pytest.raises(ValueError):
            lp_solve(problem)


def test_lp_solve_batch_statuses():
    box = (-np.ones(2), np.ones(2))
    # infeasible region: every objective is infeasible
    res = lp_solve(LpProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([5.0]), *box))
    assert [r.status for r in res] == ["infeasible", "infeasible"]
    # unbounded in some objectives only
    res = lp_solve(LpProblem(np.array([[1.0], [0.0], [-1.0]]), None, None, None, None))
    assert [r.status for r in res] == ["unbounded", "feasible", "unbounded"]
    assert res[1].objective == 0.0
    assert lp_solve(LpProblem(np.zeros((0, 2)), None, None, *box)) == []


def test_lp_solve_extra_rows_and_starting_basis():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n, q, k = 8, 3, 2
        a_eq = rng.normal(size=(q, n))
        x0 = rng.uniform(-0.5, 0.5, size=n)
        b_eq = a_eq @ x0
        rows = rng.normal(size=(k, n))
        lo, hi = rows @ x0 - 0.2, np.array([np.inf, rows[1] @ x0 + 0.1])
        box = (-np.ones(n), np.ones(n))
        c = rng.normal(size=n)
        # the extra rows as equalities on bounded slack columns
        ref = lp_solve(LpProblem(np.concatenate([c, np.zeros(k)]),
                                 np.block([[a_eq, np.zeros((q, k))], [rows, -np.eye(k)]]),
                                 np.concatenate([b_eq, np.zeros(k)]),
                                 np.concatenate([box[0], lo]), np.concatenate([box[1], hi])))
        got = lp_solve(LpProblem(c, a_eq, b_eq, *box, rows=(rows, lo, hi)))
        assert np.isclose(got.objective, ref.objective, atol=1e-9)
        cols, row_status = got.basis
        assert cols.dtype == row_status.dtype == np.int8
        assert (cols.size, row_status.size) == (n, q + k)
        assert np.count_nonzero(cols == BASIC) + np.count_nonzero(row_status == BASIC) == q + k
        # a basis of the equalities alone starts the LP with the extra rows:
        # the extra rows' slacks start basic
        plain = lp_solve(LpProblem(c, a_eq, b_eq, *box))
        warm = lp_solve(LpProblem(c, a_eq, b_eq, *box, rows=(rows, lo, hi), basis=plain.basis))
        assert np.isclose(warm.objective, ref.objective, atol=1e-9)
        # and a stack of objectives from the final basis matches cold solves
        costs = rng.normal(size=(4, n))
        again = lp_solve(LpProblem(costs, a_eq, b_eq, *box, basis=plain.basis))
        for obj, r in zip(costs, again):
            assert np.isclose(r.objective, lp_solve(LpProblem(obj, a_eq, b_eq, *box)).objective,
                              atol=1e-9)
        assert all(r.basis is None for r in again[:-1]) and again[-1].basis is not None


def test_lp_solve_rejects_bad_rows_and_bases():
    box = (-np.ones(3), np.ones(3))
    a_eq, b_eq = np.ones((1, 3)), np.zeros(1)
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, rows=(np.ones((2, 2)), [0, 0], [1, 1])))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, rows=(np.ones((2, 3)), [0], [1, 1])))
    with pytest.raises(ValueError):
        lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, rows=(np.ones((1, 3)), [np.nan], [1])))
    basis = lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box)).basis
    for bad in ((basis[0], np.zeros(0, np.int8)),             # basic count off
                (np.concatenate([basis[0], [0]]), basis[1])):  # more columns than the LP
        with pytest.raises(ValueError, match="basis"):
            lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, basis=bad))
    infeasible = lp_solve(LpProblem(np.ones(3), a_eq, np.array([5.0]), *box))
    assert infeasible.status == "infeasible" and infeasible.basis is None


def test_lp_counts_tally_by_purpose():
    box = (-np.ones(3), np.ones(3))
    a_eq, b_eq = np.ones((1, 3)), np.zeros(1)
    lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box))  # nobody counting
    with lp_counts() as counts:
        first = lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, purpose="a"))
        lp_solve(LpProblem(np.eye(3), a_eq, b_eq, *box, basis=first.basis, purpose="a"))
        with lp_counts() as inner:
            lp_solve(LpProblem(np.ones(3), a_eq, b_eq, *box, purpose="b"))
        lp_solve(LpProblem(np.ones(3), None, None, *box))
    assert set(counts) == {"a", "lp"} and set(inner) == {"b"}
    a = counts["a"]
    assert (a["calls"], a["objectives"], a["cold_starts"]) == (2, 4, 1)
    assert a["simplex_iterations"] >= 1 and a["seconds"] > 0.0
