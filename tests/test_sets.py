import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from datareach import linalg, sets
from datareach.counters import lp_counts, volume_counts
from datareach.linalg import LpProblem, lp_solve
from datareach.reach import propagation_step, replay_step
from datareach.sets import (
    ConstrainedMatrixZonotope,
    ConstrainedZonotope,
    EmptySetError,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    contains_point,
    empty_set,
    girard,
    halfspace_intersection,
    inherit_lp_basis,
    interval_hull,
    is_empty,
    linear_map,
    minkowski_sum,
    polygon_area,
    project_polygon,
    reduce_girard,
    sample_factors,
    sample_points,
    set_from_dict,
    support,
    volume,
)


def random_zonotope(rng, dim, n_gens, scale=1.0):
    return Zonotope(rng.normal(size=dim), scale * rng.normal(size=(dim, n_gens)))


def random_czonotope(rng, dim, n_gens, n_cuts=1):
    """Nonempty constrained zonotope built by cutting a random zonotope with
    halfspaces through one of its interior points."""
    z = random_zonotope(rng, dim, n_gens)
    inside = z.c + z.G @ rng.uniform(-0.5, 0.5, size=n_gens)
    out = z
    for _ in range(n_cuts):
        h = rng.normal(size=dim)
        out = halfspace_intersection(out, h, float(h @ inside) + 0.1)
    return out, inside


def _support_by_vertex_enum(cz, d):
    """Exact support of a constrained zonotope via basic solutions of the
    factor polytope {xi in [-1,1]^m : A xi = b}."""
    m, q = cz.num_generators, cz.num_constraints
    obj = d @ cz.G
    best = None
    for basic in itertools.combinations(range(m), q):
        nonbasic = [i for i in range(m) if i not in basic]
        sub = cz.A[:, basic]
        if q and abs(np.linalg.det(sub)) < 1e-12:
            continue
        for signs in itertools.product([-1.0, 1.0], repeat=m - q):
            xi = np.empty(m)
            xi[nonbasic] = signs
            if q:
                xi[list(basic)] = np.linalg.solve(sub, cz.b - cz.A[:, nonbasic] @ xi[nonbasic])
            if np.all(np.abs(xi) <= 1.0 + 1e-9):
                val = obj @ xi
                if best is None or val > best:
                    best = val
    return None if best is None else float(d @ cz.c + best)


# ---------------------------------------------------------------------------
# construction and basic queries


def test_zonotope_basics():
    z = Zonotope([1.0, 2.0], [[1.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
    assert z.dim == 2 and z.num_generators == 3
    assert np.isclose(support(z, [1.0, 0.0]), 1.0 + 2.0)
    assert np.isclose(support(z, [0.0, -1.0]), -2.0 + 3.0)
    lo, hi = interval_hull(z)
    assert np.allclose(lo, [-1.0, -1.0])
    assert np.allclose(hi, [3.0, 5.0])
    assert not is_empty(z)
    assert contains_point(z, [1.0, 2.0])
    assert contains_point(z, [3.0, 5.0 - 4.0])
    assert not contains_point(z, [3.5, 2.0])


def test_zonotope_without_generators_is_a_point():
    z = Zonotope([2.0, -1.0])
    assert z.num_generators == 0
    assert contains_point(z, [2.0, -1.0])
    assert not contains_point(z, [2.0, -0.9])
    lo, hi = interval_hull(z)
    assert np.allclose(lo, hi)


def test_empty_set_behaviour():
    e = empty_set(3)
    assert (e.num_generators, e.num_constraints, e.b.tolist()) == (0, 1, [1.0])
    assert is_empty(e)
    assert not contains_point(e, np.zeros(3))
    with pytest.raises(EmptySetError):
        support(e, np.ones(3))
    with pytest.raises(EmptySetError):
        interval_hull(e)
    assert is_empty(minkowski_sum(e, Zonotope(np.zeros(3))))
    assert is_empty(linear_map(np.ones((2, 3)), e))


def test_rows_without_factors_are_answered_without_an_lp():
    # rows 0 = 0 over no factors hold the center; rows 0 = 1 hold nothing.
    # support used to build an LP with no variables and raise ValueError
    point = Zonotope([0.5, -1.0], None, a=np.zeros((1, 0)), b=[0.0])
    assert contains_point(point, [0.5, -1.0]) and not is_empty(point)
    assert support(point, [1.0, 0.0]) == 0.5
    assert np.array_equal(support(point, np.eye(2)), [0.5, -1.0])
    lo, hi = interval_hull(point)
    assert np.array_equal(lo, [0.5, -1.0]) and np.array_equal(hi, [0.5, -1.0])
    assert np.allclose(project_polygon(point, (0, 1)), [[0.5, -1.0]])
    assert not is_empty(point, region=[([1.0, 0.0], 0.5)])
    assert is_empty(point, region=[([1.0, 0.0], 0.4)])
    e = empty_set(2)
    for query in (lambda: support(e, [1.0, 0.0]), lambda: interval_hull(e),
                  lambda: project_polygon(e, (0, 1))):
        with pytest.raises(EmptySetError):
            query()
    assert is_empty(e, region=[([1.0, 0.0], 10.0)])


def test_bad_caller_input_raises_value_error():
    with pytest.raises(ValueError, match="generator matrix"):
        Zonotope([0.0, 0.0], np.ones((3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        Zonotope([np.nan])
    with pytest.raises(ValueError, match="rhs"):
        ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="kappa"):
        MatrixZonotope(np.eye(2), np.ones((1, 2, 3)))
    with pytest.raises(ValueError, match="beta"):
        MatrixZonotope(np.eye(2), np.ones((1, 2, 2))).at([0.5, 0.5])
    with pytest.raises(ValueError, match="dimension"):
        minkowski_sum(Zonotope([0.0]), Zonotope([0.0, 0.0]))
    with pytest.raises(ValueError):
        linear_map(np.eye(3), Zonotope([0.0, 0.0]))
    with pytest.raises(ValueError):
        contains_point(Zonotope([0.0, 0.0]), [0.0])
    with pytest.raises(ValueError):
        halfspace_intersection(Zonotope([0.0, 0.0]), [1.0], 0.0)
    with pytest.raises(ValueError):
        project_polygon(Zonotope([0.0, 0.0, 0.0]), (0, 1, 2))
    with pytest.raises(EmptySetError):
        sample_points(empty_set(2), np.random.default_rng(0), 3)


def test_set_validation_survives_python_optimize_flag():
    # python -O strips assert statements; a bad Zonotope must still raise
    code = ("from datareach import Zonotope\n"
            "try:\n"
            "    Zonotope([0.0, 0.0], [[1.0, 0.0, 0.0]])\n"
            "except ValueError:\n"
            "    print('raised')\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_czonotope_support_matches_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cz, _ = random_czonotope(rng, 3, 5, n_cuts=1)
        for _ in range(4):
            d = rng.normal(size=3)
            lp_val = support(cz, d)
            enum_val = _support_by_vertex_enum(cz, d)
            assert enum_val is not None
            assert np.isclose(lp_val, enum_val, atol=1e-7)


def _with_free_columns(rng):
    """A constrained zonotope whose last 4 factors carry no constraint."""
    cz, _ = random_czonotope(rng, 3, 5, n_cuts=2)
    out = minkowski_sum(cz, random_zonotope(rng, 3, 4))
    assert not np.any(out.A[:, -4:]) and np.all(np.any(out.A[:, :-4] != 0.0, axis=0))
    return out


def test_batched_support_matches_single_directions():
    rng = np.random.default_rng(13)
    for _ in range(5):
        cz = _with_free_columns(rng)
        dirs = rng.normal(size=(12, 3))
        batch = support(cz, dirs)
        assert batch.shape == (12,)
        for d, val in zip(dirs, batch):
            assert isinstance(support(cz, d), float)
            assert np.isclose(val, support(cz, d), atol=1e-9)
            # the whole LP, free columns included
            full = lp_solve(LpProblem((d @ cz.G)[None, :], cz.A, cz.b))
            assert np.isclose(val, d @ cz.c + full.objectives[0], atol=1e-9)
        assert support(cz, np.zeros((0, 3))).shape == (0,)


def test_batched_support_is_independent_of_direction_order():
    rng = np.random.default_rng(14)
    for _ in range(5):
        cz = _with_free_columns(rng)
        dirs = rng.normal(size=(24, 3))
        forward = support(cz, dirs)
        backward = support(cz, dirs[::-1])[::-1]
        assert np.max(np.abs(forward - backward)) <= 1e-9


def test_batched_support_of_an_infeasible_set_raises():
    z = Zonotope([0.0, 0.0], np.eye(2))
    cut = halfspace_intersection(z, [1.0, 0.0], -0.5)
    cut = ConstrainedZonotope(cut.c, cut.G, np.vstack([cut.A, [0.0, 1.0, 0.0]]),
                              np.concatenate([cut.b, [2.0]]))   # xi_2 = 2: no member
    assert is_empty(cut)
    with pytest.raises(EmptySetError):
        support(cut, np.eye(2))
    with pytest.raises(EmptySetError):
        support(cut, [1.0, 0.0])


def test_support_rejects_bad_directions():
    cz, _ = random_czonotope(np.random.default_rng(15), 3, 5)
    for bad in (np.ones(2), np.ones((4, 2)), np.ones((2, 2, 3)), [1.0, np.nan, 0.0]):
        with pytest.raises(ValueError):
            support(cz, bad)


def test_interval_hull_equals_axis_supports():
    rng = np.random.default_rng(16)
    for _ in range(5):
        cz = _with_free_columns(rng)
        lo, hi = interval_hull(cz)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.isclose(hi[i], support(cz, e), atol=1e-9)
            assert np.isclose(lo[i], -support(cz, -e), atol=1e-9)


def test_czonotope_interval_hull_bounds_samples():
    rng = np.random.default_rng(12)
    cz, inside = random_czonotope(rng, 3, 6, n_cuts=2)
    pts = sample_points(cz, rng, 200)
    lo, hi = interval_hull(cz)
    assert np.all(pts >= lo[None, :] - 1e-7)
    assert np.all(pts <= hi[None, :] + 1e-7)
    assert contains_point(cz, inside, tol=1e-7)


# ---------------------------------------------------------------------------
# sums, maps, products


def test_minkowski_sum_support_is_additive():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_zonotope(rng, 4, 5)
        b = random_zonotope(rng, 4, 3)
        s = minkowski_sum(a, b)
        assert s.num_generators == 8 and s.num_constraints == 0
        for _ in range(5):
            d = rng.normal(size=4)
            assert np.isclose(support(s, d), support(a, d) + support(b, d), atol=1e-9)


def test_minkowski_sum_constrained_keeps_both_constraint_blocks():
    rng = np.random.default_rng(14)
    ca, _ = random_czonotope(rng, 2, 4, n_cuts=1)
    cb, _ = random_czonotope(rng, 2, 3, n_cuts=1)
    s = minkowski_sum(ca, cb)
    assert s.num_constraints == ca.num_constraints + cb.num_constraints
    for _ in range(6):
        d = rng.normal(size=2)
        assert np.isclose(support(s, d), support(ca, d) + support(cb, d), atol=1e-7)


def test_linear_map_support_identity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        z = random_zonotope(rng, 3, 5)
        m = rng.normal(size=(2, 3))
        mapped = linear_map(m, z)
        d = rng.normal(size=2)
        assert np.isclose(support(mapped, d), support(z, m.T @ d), atol=1e-9)


def test_cartesian_product_supports_decompose():
    rng = np.random.default_rng(16)
    a = random_zonotope(rng, 2, 3)
    b = random_zonotope(rng, 3, 2)
    p = cartesian_product(a, b)
    assert p.dim == 5
    da, db = rng.normal(size=2), rng.normal(size=3)
    d = np.concatenate([da, db])
    assert np.isclose(support(p, d), support(a, da) + support(b, db), atol=1e-9)

    cz, _ = random_czonotope(rng, 2, 4)
    pc = cartesian_product(cz, b)
    assert pc.num_constraints == cz.num_constraints
    assert np.isclose(support(pc, d), support(cz, da) + support(b, db), atol=1e-7)


def product(m, z, max_order=1000.0):
    """M z through the propagation step, with a zero-dimensional input set
    and no disturbance, so the step is the bare product."""
    step, _ = propagation_step(m, z, Zonotope(np.zeros(0)), Zonotope(np.zeros(m.shape[0])),
                               max_order)
    return step


def test_matrix_zonotope_product_block_layout():
    # one matrix generator, two vector generators: check every column exactly
    m = MatrixZonotope(np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    z = Zonotope([1.0, 2.0], np.eye(2))
    prod = product(m, z)
    assert prod.num_constraints == 0
    assert np.allclose(prod.c, [1.0, 2.0])
    expected = np.column_stack([
        [1.0, 0.0], [0.0, 1.0],   # alpha block: C columns of G_z
        [2.0, 1.0],               # beta block: G_1 @ c_z
        [0.0, 1.0], [1.0, 0.0],   # gamma block: G_1 @ g_1, G_1 @ g_2
    ])
    assert prod.G.shape == (2, 5)
    assert np.allclose(prod.G, expected)


def test_matrix_zonotope_product_contains_member_images():
    rng = np.random.default_rng(17)
    for _ in range(8):
        kappa, n, mdim, p = 2, 2, 3, 2
        m = MatrixZonotope(rng.normal(size=(n, mdim)), rng.normal(size=(kappa, n, mdim)))
        z = random_zonotope(rng, mdim, p)
        prod = product(m, z)
        assert prod.num_generators == p + kappa + kappa * p
        for _ in range(5):
            beta = rng.uniform(-1, 1, size=kappa)
            xi = rng.uniform(-1, 1, size=p)
            point = m.at(beta) @ (z.c + z.G @ xi)
            assert contains_point(prod, point, tol=1e-7)


def test_constrained_matrix_product_layout_and_membership():
    rng = np.random.default_rng(18)
    kappa, n, mdim, p = 3, 2, 2, 2
    gens = rng.normal(size=(kappa, n, mdim))
    # constraint pins beta_0 + beta_1 = 0.4; beta_2's column is all zero
    a = np.array([[1.0, 1.0, 0.0]])
    b = np.array([0.4])
    cm = ConstrainedMatrixZonotope(rng.normal(size=(n, mdim)), gens, a, b)
    z = random_zonotope(rng, mdim, p)
    prod = product(cm, z)
    assert prod.num_generators == p + kappa + kappa * p
    assert prod.A.shape == (1, prod.num_generators)
    # the constrained beta columns first, then the free alpha, beta_2 and
    # gamma columns
    beta = np.einsum("lij,j->il", gens, z.c)
    assert np.allclose(prod.A[:, :2], a[:, :2])
    assert np.allclose(prod.A[:, 2:], 0.0)
    assert np.allclose(prod.G[:, :2], beta[:, :2])
    assert np.allclose(prod.G[:, 2 : 2 + p], cm.C @ z.G)
    assert np.allclose(prod.G[:, 2 + p], beta[:, 2])
    for _ in range(5):
        beta = np.array([0.4 - 0.0, 0.0, rng.uniform(-1, 1)])
        beta[0] = rng.uniform(-0.6, 1.0)
        beta[1] = 0.4 - beta[0]
        xi = rng.uniform(-1, 1, size=p)
        point = cm.at(beta) @ (z.c + z.G @ xi)
        assert contains_point(prod, point, tol=1e-7)


def test_constrained_matrix_times_constrained_zonotope():
    rng = np.random.default_rng(19)
    kappa, n, mdim = 2, 2, 2
    cm = ConstrainedMatrixZonotope(
        rng.normal(size=(n, mdim)),
        rng.normal(size=(kappa, n, mdim)),
        np.array([[1.0, -1.0]]),
        np.array([0.2]),
    )
    cz, _ = random_czonotope(rng, mdim, 3, n_cuts=1)
    prod = product(cm, cz)
    p = cz.num_generators
    assert np.all(np.any(cz.A != 0.0, axis=0))  # every alpha column is constrained
    assert prod.num_constraints == cz.num_constraints + 1
    # zero padding: z-constraints touch only alpha columns, matrix constraints only beta
    assert np.allclose(prod.A[: cz.num_constraints, :p], cz.A)
    assert np.allclose(prod.A[: cz.num_constraints, p:], 0.0)
    assert np.allclose(prod.A[cz.num_constraints :, :p], 0.0)
    assert np.allclose(prod.A[cz.num_constraints :, p : p + kappa], cm.A)
    assert np.allclose(prod.A[cz.num_constraints :, p + kappa :], 0.0)
    xi = sample_factors(cz, rng, 5)
    for row in xi:
        beta0 = rng.uniform(-0.8, 1.0)
        beta = np.array([beta0, beta0 - 0.2])
        point = cm.at(beta) @ (cz.c + cz.G @ row)
        assert contains_point(prod, point, tol=1e-7)


# ---------------------------------------------------------------------------
# halfspace intersection


def test_halfspace_intersection_branches():
    z = Zonotope([0.0, 0.0], np.eye(2))
    # does not cut
    same = halfspace_intersection(z, [1.0, 0.0], 2.0)
    assert same is z
    # disjoint
    empty = halfspace_intersection(z, [1.0, 0.0], -1.5)
    assert isinstance(empty, Zonotope) and is_empty(empty)
    # proper cut
    cut = halfspace_intersection(z, [1.0, 0.0], 0.0)
    assert cut.num_generators == 3 and cut.num_constraints == 1
    assert np.isclose(support(cut, [1.0, 0.0]), 0.0, atol=1e-8)
    assert np.isclose(support(cut, [-1.0, 0.0]), 1.0, atol=1e-8)
    assert np.isclose(support(cut, [0.0, 1.0]), 1.0, atol=1e-8)


def test_halfspace_intersection_keeps_the_right_points():
    rng = np.random.default_rng(20)
    for _ in range(10):
        z = random_zonotope(rng, 3, 5)
        h = rng.normal(size=3)
        c = float(h @ z.c)  # cuts roughly through the middle
        cut = halfspace_intersection(z, h, c)
        pts = sample_points(z, rng, 100)
        inside = pts[pts @ h <= c - 1e-9]
        outside = pts[pts @ h > c + 1e-7]
        for x in inside[:20]:
            assert contains_point(cut, x, tol=1e-7)
        for x in outside[:20]:
            assert not contains_point(cut, x, tol=1e-9)
        for _ in range(4):
            d = rng.normal(size=3)
            assert support(cut, d) <= support(z, d) + 1e-7


def test_halfspace_intersection_empty_detection_agrees_with_lp():
    rng = np.random.default_rng(21)
    hits_empty = 0
    for _ in range(20):
        z = random_zonotope(rng, 2, 4)
        h = rng.normal(size=2)
        lo = -support(z, -h)
        cut = halfspace_intersection(z, h, lo - rng.uniform(0.01, 1.0))
        assert is_empty(cut)
        hits_empty += 1
        # barely feasible slice stays nonempty
        sliver = halfspace_intersection(z, h, lo + 1e-6)
        assert not is_empty(sliver)
    assert hits_empty == 20


def test_is_empty_via_contradictory_constraints():
    # two cuts that cannot both hold
    z = Zonotope([0.0], np.array([[1.0]]))
    cut = halfspace_intersection(z, [1.0], -0.5)   # x <= -0.5
    cut = halfspace_intersection(cut, [-1.0], -0.8)  # x >= 0.8
    assert is_empty(cut)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_girard_cap_and_containment():
    rng = np.random.default_rng(22)
    for _ in range(10):
        z = random_zonotope(rng, 3, 40)
        red = reduce_girard(z, 4)
        assert red.num_generators <= 12
        for _ in range(8):
            d = rng.normal(size=3)
            assert support(red, d) >= support(z, d) - 1e-9


def girard_by_sort_and_gather(g, budget):
    """Girard's reduction spelled out: sort the columns by score (ties in
    index order), box the lowest m - (budget - n) and sum them gathered."""
    n, m = g.shape
    order = np.argsort(np.abs(g).sum(axis=0) - np.abs(g).max(axis=0), kind="stable")
    n_box = m - (budget - n)
    boxed, kept = np.sort(order[:n_box]), np.sort(order[n_box:])
    radii = np.abs(g[:, boxed]).sum(axis=1)
    rows = np.flatnonzero(radii > 0.0)
    return kept, rows, radii[rows]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 40), extra=st.integers(0, 45), data=st.data())
def test_girard_matches_sort_and_gather(n, m, extra, data):
    # entries from a few values give tied scores and zero columns; the
    # budget runs from n up past the column count
    values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 1e-3, 3.0])
    g = np.array(data.draw(st.lists(values, min_size=n * m, max_size=n * m))).reshape(n, m)
    g[:, data.draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
    budget = n + extra
    kept, rows, radii, g_out = girard(g, budget)
    if m <= budget:
        assert np.array_equal(kept, np.arange(m)) and rows.size == 0 and g_out is g
        return
    ref_kept, ref_rows, ref_radii = girard_by_sort_and_gather(g, budget)
    assert np.array_equal(kept, ref_kept) and np.array_equal(rows, ref_rows)
    assert np.all(radii >= 0.0)
    assert np.all(np.abs(radii - ref_radii) <= 1e-12 * ref_radii)
    assert np.array_equal(g_out[:, : kept.size], g[:, kept])
    box = np.zeros((n, rows.size))
    box[rows, np.arange(rows.size)] = radii
    assert np.array_equal(g_out[:, kept.size :], box)


def test_reduce_girard_noop_below_cap():
    rng = np.random.default_rng(23)
    z = random_zonotope(rng, 3, 6)
    assert reduce_girard(z, 2) is z


def identity_model(dim):
    """The singleton model x' = x over [x; u] with a zero-dimensional u."""
    return MatrixZonotope(np.eye(dim))


def test_reduce_girard_plan_replay():
    # a step through the identity model is a bare Girard reduction
    rng = np.random.default_rng(24)
    for _ in range(10):
        z = random_zonotope(rng, 3, 30)
        red, plan = propagation_step(identity_model(3), z, Zonotope(np.zeros(0)),
                                     Zonotope(np.zeros(3)), 3)
        assert red.num_generators <= 9
        assert np.allclose(red.G, reduce_girard(z, 3).G)
        xi = rng.uniform(-1, 1, size=(50, 30))
        out = replay_step(plan, xi, np.zeros((50, 0)), np.zeros(0), np.zeros((50, 0)))
        assert out.shape == (50, red.num_generators)
        assert np.all(np.abs(out) <= 1.0 + 1e-9)
        pts = z.c + xi @ z.G.T
        rec = red.c + out @ red.G.T
        assert np.allclose(pts, rec, atol=1e-9)


def czonotope_with_free_columns(rng, dim, n_free, n_cuts=1):
    """Constrained zonotope whose constraint rows touch only a few columns:
    a cut zonotope Minkowski-summed with a plain one (whose columns are free)."""
    small, _ = random_czonotope(rng, dim, 3, n_cuts=n_cuts)
    bulk = random_zonotope(rng, dim, n_free)
    return minkowski_sum(small, bulk)


def reduce_free(cz, max_order):
    return propagation_step(identity_model(cz.dim), cz, Zonotope(np.zeros(0)),
                            Zonotope(np.zeros(cz.dim)), max_order)


def test_reduce_free_generators_never_touches_constrained_columns():
    rng = np.random.default_rng(25)
    for _ in range(8):
        cz = czonotope_with_free_columns(rng, 3, 30, n_cuts=2)
        cons_in = np.any(cz.A != 0.0, axis=0)
        red, _ = reduce_free(cz, 4)
        # the order cap governs the free columns alone
        assert red.num_generators <= cons_in.sum() + 12
        assert red.num_constraints == cz.num_constraints
        # constrained columns survive unchanged, first, with their coefficients
        n_cons = int(cons_in.sum())
        assert np.array_equal(red.G[:, :n_cons], cz.G[:, cons_in])
        assert np.array_equal(red.A[:, :n_cons], cz.A[:, cons_in])
        assert not np.any(red.A[:, n_cons:])
        for _ in range(5):
            d = rng.normal(size=3)
            assert support(red, d) >= support(cz, d) - 1e-7


def test_reduce_free_generators_plan_replay():
    rng = np.random.default_rng(26)
    cz = czonotope_with_free_columns(rng, 3, 25, n_cuts=1)
    red, plan = reduce_free(cz, 3)
    assert plan.box_rows.size
    xi = sample_factors(cz, rng, 40)
    out = replay_step(plan, xi, np.zeros((40, 0)), np.zeros(0), np.zeros((40, 0)))
    assert np.all(np.abs(out) <= 1.0 + 1e-7)
    assert np.allclose(out @ red.A.T, red.b[None, :], atol=1e-7)
    pts = cz.c + xi @ cz.G.T
    rec = red.c + out @ red.G.T
    assert np.allclose(pts, rec, atol=1e-8)


# ---------------------------------------------------------------------------
# volume and polygons


def test_volume_known_boxes():
    assert np.isclose(volume(Zonotope([0.0, 0.0], np.eye(2))), 4.0)
    assert np.isclose(volume(Zonotope([5.0, -3.0], np.diag([2.0, 0.5]))), 4.0 * 2.0 * 0.5)
    # rotation preserves volume
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.isclose(volume(Zonotope([0.0, 0.0], rot @ np.diag([2.0, 0.5]))), 4.0)
    # degenerate
    assert np.isclose(volume(Zonotope([0.0, 0.0], np.array([[1.0], [1.0]]))), 0.0)
    assert volume(Zonotope([0.0, 0.0, 0.0], np.ones((3, 2)))) == 0.0


def test_volume_matches_parallelogram_determinant():
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = rng.normal(size=(2, 2))
        assert np.isclose(volume(Zonotope(np.zeros(2), g)), 4.0 * abs(np.linalg.det(g)))


def test_volume_matches_convex_hull_of_vertices():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(28)
    for _ in range(6):
        n, m = 3, 5
        g = rng.normal(size=(n, m))
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
        verts = signs @ g.T
        hull_vol = ConvexHull(verts).volume
        assert np.isclose(volume(Zonotope(np.zeros(n), g)), hull_vol, rtol=1e-8)


def test_volume_matches_projected_polygon_area():
    rng = np.random.default_rng(29)
    for _ in range(6):
        z = random_zonotope(rng, 2, 7)
        area = polygon_area(project_polygon(z, (0, 1)))
        assert np.isclose(volume(z), area, rtol=1e-9)


def test_volume_refuses_huge_enumerations():
    # 80 columns in distinct directions: C(80, 5) is about 2.4e7 subsets,
    # over the 1e7 cap
    z = Zonotope(np.zeros(5), np.random.default_rng(48).normal(size=(5, 80)))
    with pytest.raises(ValueError, match="24040016 generator subsets"):
        volume(z)


def test_volume_refuses_after_the_blocks_that_pass_the_cap(monkeypatch):
    # 4000 distinct columns in 5-D compare in blocks of 2^20 // (5 * 4000) =
    # 52 columns, 77 blocks in all; after two blocks the 104 directions found
    # already leave C(104, 5) subsets, and the merge stops there
    checks = []

    def spy(d, n, bound=""):
        checks.append((d, bound))
        return cap(d, n, bound)

    cap = sets._subsets_within_cap
    monkeypatch.setattr(sets, "_subsets_within_cap", spy)
    z = Zonotope(np.zeros(5), np.random.default_rng(50).normal(size=(5, 4000)))
    with pytest.raises(ValueError, match=f"at least {math.comb(104, 5)} generator subsets"):
        volume(z)
    assert checks == [(52, "at least "), (104, "at least ")]


def test_volume_enumerates_distinct_directions():
    # 5 x 80 from 10 directions, each repeated with mixed scale and sign:
    # C(10, 5) = 252 subsets, not C(80, 5), over the merged columns
    rng = np.random.default_rng(49)
    dirs = rng.normal(size=(5, 10))
    pick = rng.permutation(np.arange(80) % 10)
    scale = rng.choice([-1.0, 1.0], 80) * 10.0 ** rng.uniform(-3.0, 3.0, 80)
    g, merged = dirs[:, pick] * scale, dirs * np.bincount(pick, weights=np.abs(scale))
    with volume_counts() as counts:
        got = volume(Zonotope(np.zeros(5), g))
    assert got == pytest.approx(brute_force_volume(merged), rel=1e-12, abs=0.0)
    assert {k: v for k, v in counts.items() if k != "seconds"} == {
        "calls": 1, "columns": 80, "directions": 10, "subsets": 252}
    assert counts["seconds"] > 0.0


@pytest.mark.parametrize("n", range(2, 7))
def test_volume_is_unchanged_by_parallel_and_zero_columns(n):
    rng = np.random.default_rng(50 + n)
    g = rng.normal(size=(n, n + 4))
    base = volume(Zonotope(np.zeros(n), g))
    # g_0 cut into a parallel and an antiparallel piece, g_1 into three,
    # and two zero columns, in a shuffled order
    pieces = np.column_stack([0.25 * g[:, 0], -0.75 * g[:, 0], -0.5 * g[:, 1], 0.3 * g[:, 1],
                              0.2 * g[:, 1], g[:, 2:], np.zeros((n, 2))])
    pieces = pieces[:, rng.permutation(pieces.shape[1])]
    assert volume(Zonotope(np.zeros(n), pieces)) == pytest.approx(base, rel=1e-13)
    # an appended copy c g_j lengthens g_j by |c|
    for j, c in ((0, 1.0), (1, -2.5), (n - 1, 0.125)):
        longer = g.copy()
        longer[:, j] *= 1.0 + abs(c)
        want = volume(Zonotope(np.zeros(n), longer))
        got = volume(Zonotope(np.zeros(n), np.column_stack([g, c * g[:, j]])))
        assert got == pytest.approx(want, rel=1e-13)


def test_volume_keeps_columns_a_small_angle_apart():
    rng = np.random.default_rng(57)
    g = rng.normal(size=(4, 7))
    e = g[:, 1] - (g[:, 1] @ g[:, 0]) / (g[:, 0] @ g[:, 0]) * g[:, 0]
    e *= np.linalg.norm(g[:, 0]) / np.linalg.norm(e)

    def with_turned(angle):
        # g and twice g_0 turned by angle towards e, orthogonal to g_0
        return np.column_stack([g, 2.0 * (np.cos(angle) * g[:, 0] + np.sin(angle) * e)])

    with volume_counts() as counts:
        volume(Zonotope(np.zeros(4), with_turned(1e-13)))  # near rounding level
        got = volume(Zonotope(np.zeros(4), with_turned(1e-9)))
    assert counts["directions"] == 16
    assert got == pytest.approx(brute_force_volume(with_turned(1e-9)), rel=1e-12, abs=0.0)
    # the subsets holding both columns count, 7e-11 of the volume here, far
    # above rounding: merged, the volume is smaller
    merged = g.copy()
    merged[:, 0] *= 3.0
    assert got > volume(Zonotope(np.zeros(4), merged)) * (1.0 + 1e-11)


def exact_volume(g):
    """2^n * sum of |det| over the n-column subsets of a float matrix, in
    exact arithmetic: floats are dyadic, so g times a power of two is an
    integer matrix, and each determinant is a fraction-free (Bareiss)
    elimination on it."""
    n, m = g.shape
    ratios = [x.as_integer_ratio() for x in g.T.ravel().tolist()]
    den = max(d for _, d in ratios)
    cols = [[num * (den // d) for num, d in ratios[j * n:(j + 1) * n]] for j in range(m)]
    total = 0
    for subset in itertools.combinations(range(m), n):
        a = [list(row) for row in zip(*(cols[j] for j in subset))]
        sign, prev = 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                p = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
                if p is None:
                    break
                a[k], a[p], sign = a[p], a[k], -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        else:
            total += abs(a[-1][-1])
    return Fraction(2 ** n * total, den ** n)


@pytest.mark.parametrize("exact_copies, bound", [(True, 1e-12), (False, 1e-7)])
def test_volume_error_on_mixed_scales_with_parallel_copies(exact_copies, bound):
    # against the exact volume of the float columns on 150 draws with
    # columns scaled 1e-6 to 1e3 and parallel copies.  Copies by powers of
    # two are exactly parallel: merged, no singular subset leaves a rounding
    # residue (9.1e-15 worst), where the kernel that enumerated every subset
    # missed by up to 2.3e-10.  Float copies sit at a rounding-level angle,
    # and the merge drops the exact terms of that angle, of relative size
    # eps times the 1e9 spread of lengths: 9.3e-10 worst against 1.6e-9
    # for that kernel, and on 7 other seeds of such draws either one's
    # worst ranged 3e-10 to 4.2e-8, neither always the smaller
    rng = np.random.default_rng(58)
    factors = [-2.0, -1.0, 0.5, 4.0] if exact_copies else [-2.5, -1.0, 0.5, 3.0]
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 6))
        k = n + int(rng.integers(0, 3))
        g = rng.normal(size=(n, k))
        copies = [rng.choice(factors) * g[:, rng.integers(k)]
                  for _ in range(int(rng.integers(1, 5)))]
        g = np.column_stack([g, *copies])
        m = g.shape[1]
        scale = 2.0 ** rng.integers(-20, 11, m) if exact_copies else 10.0 ** rng.uniform(-6, 3, m)
        g = g[:, rng.permutation(m)] * scale
        exact = exact_volume(g)
        worst = max(worst, float(abs(Fraction(volume(Zonotope(np.zeros(n), g))) - exact) / exact))
    assert worst <= bound


def test_volume_rejects_sets_that_are_not_plain_zonotopes():
    rng = np.random.default_rng(30)
    for z in (empty_set(2), random_czonotope(rng, 2, 4)[0]):
        assert z.num_constraints > 0
        with pytest.raises(ValueError):
            volume(z)
        with pytest.raises(ValueError):
            reduce_girard(z, 1)
    # zero constraint rows are a plain zonotope
    z0 = ConstrainedZonotope(np.zeros(2), np.hstack([np.eye(2), np.eye(2)]), np.zeros((0, 4)))
    assert volume(z0) == pytest.approx(16.0)
    assert reduce_girard(z0, 1).num_generators == 2


def brute_force_volume(g):
    """2^n * sum of |det| over every n-column subset, one LU each."""
    n, m = g.shape
    return 2.0 ** n * sum(abs(np.linalg.det(g[:, list(s)]))
                          for s in itertools.combinations(range(m), n))


def assert_volume_matches_brute_force(g, flat=False):
    """rtol 1e-12; where the true volume is 0 (flat), an absolute bound
    scaled by the size of G instead."""
    n = g.shape[0]
    got, want = volume(Zonotope(np.zeros(n), g)), brute_force_volume(g)
    if flat:
        assert abs(got - want) <= 1e-12 * 2.0 ** n * np.prod(np.abs(g).sum(axis=1))
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_volume_matches_brute_force_enumeration(n):
    rng = np.random.default_rng(31 + n)
    for m in range(0, n + 7):
        assert_volume_matches_brute_force(rng.normal(size=(n, m)), flat=m < n)
    m = n + 3
    g = rng.normal(size=(n, m))
    # columns scaled from 1e-6 to 1e3
    assert_volume_matches_brute_force(g * 10.0 ** rng.uniform(-6.0, 3.0, m))
    # a zero column, a parallel one and a duplicate
    g = np.hstack([g, np.zeros((n, 1)), -2.5 * g[:, :1], g[:, 1:2]])
    assert_volume_matches_brute_force(g)
    # rank-deficient: every subset is singular
    low = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, m))
    assert_volume_matches_brute_force(low, flat=True)
    assert_volume_matches_brute_force(np.repeat(g[:, :1], m, axis=1), flat=n > 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_volume_is_invariant_under_column_order_and_homogeneous(n):
    rng = np.random.default_rng(41 + n)
    g = rng.normal(size=(n, n + 5))
    base = volume(Zonotope(np.zeros(n), g))
    for _ in range(3):
        perm = rng.permutation(g.shape[1])
        assert volume(Zonotope(np.zeros(n), g[:, perm])) == pytest.approx(base, rel=1e-13)
    for s in (-3.7, 0.01, 250.0):
        scaled = volume(Zonotope(np.zeros(n), s * g))
        assert scaled == pytest.approx(abs(s) ** n * base, rel=1e-12)


def abs_det_sum_by_loop(g, basis, vol, last, block):
    """The determinant sum with each level built one column at a time, the
    reference whose bits the library's all-columns-at-once levels must
    match."""
    n, m = g.shape
    k = n - basis.shape[1]
    cols = np.arange(last[0] + 1, m - n + k + 1)
    ends = np.searchsorted(last, cols)
    leaf = k == n - 2
    size = last.size * 2 * (m - cols[0]) if leaf else int(ends.sum()) * (n - k) * n
    if size > block and last.size > 1:
        h = last.size // 2
        return (abs_det_sum_by_loop(g, basis[:h], vol[:h], last[:h], block)
                + abs_det_sum_by_loop(g, basis[h:], vol[h:], last[h:], block))
    if leaf:
        p = basis @ g[:, cols[0]:]
        x, y = p[:, 0], p[:, 1]
        cross = np.zeros(last.size)
        for j, end in zip(cols - cols[0], ends):
            t = x[:end, j:j + 1] * y[:end, j + 1:]
            t -= y[:end, j:j + 1] * x[:end, j + 1:]
            cross[:end] += np.abs(t, out=t).sum(axis=1)
        return float(vol @ cross)
    children = int(ends.sum())
    out_basis = np.empty((children, n - k - 1, n))
    out_vol = np.empty(children)
    start = 0
    for j, end in zip(cols, ends):
        q = basis[:end]
        u = q @ g[:, j]
        norm = np.sqrt(np.einsum("sc,sc->s", u, u))
        out_vol[start:start + end] = vol[:end] * norm
        u[:, 0] += np.copysign(norm, u[:, 0])
        scale = norm * np.abs(u[:, 0])
        np.divide(1.0, scale, out=scale, where=scale > 0.0)
        qu = np.einsum("sc,scn->sn", u, q) * scale[:, None]
        out_basis[start:start + end] = q[:, 1:] - u[:, 1:, None] * qu[:, None, :]
        start += end
    return abs_det_sum_by_loop(g, out_basis, out_vol, np.repeat(cols, ends), block)


@pytest.mark.parametrize("block", [1 << 20, 64])
def test_volume_levels_match_the_loop_bit_for_bit(monkeypatch, block):
    monkeypatch.setattr(sets, "_VOLUME_BLOCK", block)
    rng = np.random.default_rng(59)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(n, n + 9))
        g = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, m)
        g[:, rng.random(m) < 0.1] = 0.0
        start = (np.eye(n)[None], np.ones(1), np.array([-1]))
        got = sets._abs_det_sum(g, *start)
        assert got.hex() == abs_det_sum_by_loop(g, *start, block).hex()


@pytest.mark.parametrize("n", range(2, 7))
def test_volume_in_small_blocks_matches_one_block(monkeypatch, n):
    # a block of one entry splits every level down to single rows, the
    # cross-product level included
    rng = np.random.default_rng(43 + n)
    g = rng.normal(size=(n, n + 7))
    whole = volume(Zonotope(np.zeros(n), g))
    leaf_rows, inner = [], sets._abs_det_sum

    def spy(g, basis, vol, last):
        if basis.shape[1] == 2:
            leaf_rows.append(last.size)
        return inner(g, basis, vol, last)

    monkeypatch.setattr(sets, "_VOLUME_BLOCK", 1)
    monkeypatch.setattr(sets, "_abs_det_sum", spy)
    assert volume(Zonotope(np.zeros(n), g)) == pytest.approx(whole, rel=1e-13)
    # every (n - 2)-subset with room for two more of the n + 7 columns
    # reaches the cross products alone
    assert leaf_rows.count(1) == math.comb(n + 5, n - 2)
    assert_volume_matches_brute_force(g)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_volume_matches_brute_force_on_drawn_columns(n, data):
    # k random columns, then zero, duplicate and parallel copies of them in
    # a shuffled order; rank < n (k < n) makes the set flat.  A draw either
    # scales its columns by 1e-6 to 1e3 or has duplicate and parallel
    # copies, not both: a singular subset of large parallel columns leaves
    # a rounding residue that can exceed the volume of small columns in
    # any float determinant sum, the brute-force one too
    m = data.draw(st.integers(0, n + 8))
    k = data.draw(st.integers(0, m))
    scaled = data.draw(st.booleans())
    kinds = ["zero"] if scaled or k == 0 else ["zero", "duplicate", "parallel"]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, k))
    copies = []
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=m - k, max_size=m - k)):
        src = g[:, rng.integers(k)] if k else np.zeros(n)
        copies.append({"zero": 0.0, "duplicate": 1.0,
                       "parallel": rng.choice([-2.5, -1.0, 0.5, 3.0])}[kind] * src)
    g = np.column_stack([g, *copies]) if copies else g
    g = g[:, rng.permutation(m)]
    if scaled:
        g = g * 10.0 ** rng.uniform(-6.0, 3.0, m)
    assert_volume_matches_brute_force(g, flat=k < n)


def outline_by_loop(c, g):
    """The exact outline walked one generator per step, in the sorted order
    of _zonotope_polygon, keeping every vertex: the reference the library's
    cumulative-sum walk must match bit for bit."""
    g = g[:, np.linalg.norm(g, axis=0) > 0.0]
    m = g.shape[1]
    if m == 0:
        return c.reshape(1, 2)
    flip = (g[1] < 0.0) | ((g[1] == 0.0) & (g[0] < 0.0))
    g = np.where(flip, -g, g)
    g = g[:, np.argsort(np.arctan2(g[1], g[0]), kind="stable")]
    verts = np.empty((2 * m, 2))
    v = c - g.sum(axis=1)
    for i in range(m):
        verts[i] = v
        v = v + 2.0 * g[:, i]
    for i in range(m):
        verts[m + i] = v
        v = v - 2.0 * g[:, i]
    return verts


def generators_with_ties(rng, m, k, decades=0.0):
    """m random 2-D generators scaled by 10^-decades to 10^decades, and k
    zero, duplicate or parallel (of either sign) copies of them."""
    g = rng.normal(size=(2, m)) * 10.0 ** rng.uniform(-decades, decades, m)
    src = rng.integers(0, m, k)
    g = np.hstack([g, g[:, src] * rng.choice([0.0, 1.0, -1.0, 2.5, -0.5, 3.0], k)])
    return g[:, rng.permutation(m + k)]


def test_outline_walk_matches_the_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(53)
    for _ in range(200):
        c = rng.normal(size=2)
        g = generators_with_ties(rng, int(rng.integers(1, 25)), int(rng.integers(0, 25)), 3.0)
        want = outline_by_loop(c, g)
        kept = sets._zonotope_polygon(c, g)
        # the kept vertices are the loop's, bit for bit and in order
        rows = [r.tobytes() for r in want]
        idx = [rows.index(r.tobytes()) for r in kept]
        assert idx == sorted(set(idx))
        with monkeypatch.context() as mp:
            # every comparison with a NaN tolerance is false: no vertex drops
            mp.setattr(sets, "_REPEATED_VERTEX_RTOL", float("nan"))
            assert sets._zonotope_polygon(c, g).tobytes() == want.tobytes()


def test_outline_has_no_collinear_middle_vertices():
    rng = np.random.default_rng(54)
    for _ in range(100):
        # unscaled, so that the shoelace area keeps 1e-12
        m, k = int(rng.integers(2, 20)), int(rng.integers(0, 30))
        g = generators_with_ties(rng, m, k)
        poly = project_polygon(Zonotope(rng.normal(size=2), g), (0, 1))
        edges = np.roll(poly, -1, axis=0) - poly
        into = np.roll(edges, 1, axis=0)
        cross = into[:, 0] * edges[:, 1] - into[:, 1] * edges[:, 0]
        size = np.linalg.norm(into, axis=1) * np.linalg.norm(edges, axis=1)
        assert np.all(cross > 1e-9 * size)  # every vertex turns left
        pairs = itertools.combinations(g.T, 2)
        area = 4.0 * np.sum([abs(a[0] * b[1] - a[1] * b[0]) for a, b in pairs])
        assert polygon_area(poly) == pytest.approx(area, rel=1e-12)
        for _ in range(3):
            perm = project_polygon(Zonotope(np.zeros(2), g[:, rng.permutation(m + k)]), (0, 1))
            assert perm.shape == poly.shape
    # parallel generators make a segment: its two ends, where it turns back
    seg = project_polygon(Zonotope([1.0, 0.0], [[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]]), (0, 1))
    assert np.array_equal(seg, [[-2.5, -7.0], [4.5, 7.0]])


def test_project_polygon_square():
    z = Zonotope([1.0, 1.0], np.eye(2))
    poly = project_polygon(z, (0, 1))
    assert poly.shape == (4, 2)
    expect = {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}
    got = {(round(float(x), 9), round(float(y), 9)) for x, y in poly}
    assert got == expect
    assert np.isclose(polygon_area(poly), 4.0)


def _point_in_convex_polygon(poly, x, tol=1e-7):
    n = poly.shape[0]
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        edge = b - a
        if edge[0] * (x[1] - a[1]) - edge[1] * (x[0] - a[0]) < -tol:
            return False
    return True


def test_project_polygon_rejects_too_few_directions():
    # n_dirs of 0 or 2 used to return an empty outline
    cz, _ = random_czonotope(np.random.default_rng(32), 3, 6, n_cuts=2)
    for z in (cz, Zonotope([0.0, 0.0], np.eye(2))):
        for bad in (0, 2, -1, 3.0, True):
            with pytest.raises(ValueError, match="n_dirs"):
                project_polygon(z, (0, 1), n_dirs=bad)
    assert project_polygon(cz, (0, 1), n_dirs=3).shape[1] == 2


def test_project_polygon_constrained_outer_approximation():
    rng = np.random.default_rng(30)
    cz, _ = random_czonotope(rng, 3, 6, n_cuts=2)
    poly = project_polygon(cz, (0, 2), n_dirs=48)
    pts = sample_points(cz, rng, 100)
    for x in pts:
        assert _point_in_convex_polygon(poly, x[[0, 2]], tol=1e-6)


def test_project_polygon_constrained_has_no_repeated_vertices():
    # a square whose constraint does not bind: every support line of a
    # quadrant passes through the same corner
    square = ConstrainedZonotope([0.5, -1.0], np.hstack([np.eye(2), np.zeros((2, 1))]),
                                 np.array([[1.0, 1.0, 3.0]]), [0.0])
    box = ConstrainedZonotope([0.5, -1.0], np.hstack([np.eye(2), np.zeros((2, 1))]),
                              np.array([[0.0, 0.0, 1.0]]), [0.0])
    for z, n_vertices in ((box, 4), (square, 4)):
        poly = project_polygon(z, (0, 1), n_dirs=32)
        assert poly.shape[0] == n_vertices
    rng = np.random.default_rng(31)
    for _ in range(10):
        cz, _ = random_czonotope(rng, 3, 6, n_cuts=2)
        poly = project_polygon(cz, (0, 2), n_dirs=32)
        extent = np.max(np.ptp(poly, axis=0))
        gaps = np.linalg.norm(poly - np.roll(poly, 1, axis=0), axis=1)
        assert np.all(gaps > 1e-12 * extent)
        for x in sample_points(cz, rng, 50):
            assert _point_in_convex_polygon(poly, x[[0, 2]], tol=1e-6)


def test_repeated_vertices_keep_short_edges():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 3e-16], [1.0, 1.0], [1.0 + 3e-8, 1.0],
                      [0.0, 1.0], [1e-16, 0.0]])
    kept = sets._drop_repeated_vertices(verts)
    assert np.array_equal(kept, verts[[0, 1, 3, 4, 5]])
    assert sets._drop_repeated_vertices(np.zeros((3, 2))).shape == (1, 2)


def test_project_polygon_point():
    z = Zonotope([3.0, 4.0])
    poly = project_polygon(z, (0, 1))
    assert poly.shape == (1, 2)
    assert np.allclose(poly[0], [3.0, 4.0])


def test_projection_and_point_dimensions_are_validated():
    z = random_zonotope(np.random.default_rng(32), 3, 4)
    cz, _ = random_czonotope(np.random.default_rng(33), 3, 5)
    for s in (z, cz, empty_set(3)):
        # a negative index used to project the last coordinate, a repeated
        # one a diagonal, and one past the dimension raised IndexError
        for dims in ((-1, 0), (1, 1), (1, 7), (0, 3), (0.5, 1)):
            with pytest.raises(ValueError):
                project_polygon(s, dims)
    assert project_polygon(cz, (2, 0)).shape[1] == 2
    with pytest.raises(ValueError):
        contains_point(empty_set(3), [0.0, 0.0])
    with pytest.raises(ValueError):
        is_empty(cz, region=[([1.0, 0.0], 0.0)])


# ---------------------------------------------------------------------------
# the LP basis kept per constrained set


def random_cz_with_free_factors(rng, n=3, m=14, q=6, n_free=4):
    """A nonempty constrained zonotope with q random constraint rows, whose
    n_free factors carry none, and one member point."""
    a = rng.normal(size=(q, m))
    a[:, rng.choice(m, n_free, replace=False)] = 0.0
    xi = rng.uniform(-0.7, 0.7, m)
    cz = ConstrainedZonotope(rng.normal(size=n), rng.normal(size=(n, m)), a, a @ xi)
    return cz, cz.c + cz.G @ xi


def _cold_support(z, dirs):
    """Support values from one cold LP per direction over all factors."""
    return np.array([d @ z.c + lp_solve(LpProblem((d @ z.G)[None, :], z.A, z.b)).objectives[0]
                     for d in dirs])


def _cold_feasible(z, rows, lo, hi, box):
    """Cold feasibility of |xi| <= box, A xi = b, lo <= rows xi <= hi, with
    the finite row bounds as inequalities, by scipy's linprog."""
    up, down = np.isfinite(hi), np.isfinite(lo)
    res = linprog(np.zeros(z.num_generators), A_ub=np.vstack([rows[up], -rows[down]]),
                  b_ub=np.concatenate([hi[up], -lo[down]]), A_eq=z.A, b_eq=z.b,
                  bounds=(-box, box))
    return res.status == 0


def test_warm_queries_match_cold_lps():
    rng = np.random.default_rng(40)
    for trial in range(8):
        if trial < 6:
            cz, inside = random_cz_with_free_factors(rng)
        else:  # a plain zonotope: the same feasibility LP, with no own rows
            cz = random_zonotope(rng, 3, 8)
            inside = cz.c + cz.G @ rng.uniform(-0.7, 0.7, 8)
        dirs = rng.normal(size=(10, 3))
        h = rng.normal(size=3)
        lo, hi = -_cold_support(cz, [-h])[0], _cold_support(cz, [h])[0]
        outside = cz.c + 10.0 * (hi - h @ cz.c + 1.0) * h / (h @ h)
        queries = [
            ("support", lambda: support(cz, dirs), lambda: _cold_support(cz, dirs)),
            ("hull", lambda: np.concatenate(interval_hull(cz)),
             lambda: np.concatenate([-_cold_support(cz, -np.eye(3)), _cold_support(cz, np.eye(3))])),
            ("inside", lambda: contains_point(cz, inside, tol=1e-7),
             lambda: _cold_feasible(cz, cz.G, inside - cz.c - 1e-7, inside - cz.c + 1e-7, 1 + 1e-7)),
            ("outside", lambda: contains_point(cz, outside),
             lambda: _cold_feasible(cz, cz.G, outside - cz.c - 1e-9, outside - cz.c + 1e-9, 1 + 1e-9)),
            ("cut", lambda: is_empty(cz, region=[(h, 0.5 * (lo + hi))]), lambda: False),
            ("disjoint", lambda: is_empty(cz, region=[(h, lo - 0.1)]), lambda: True),
            ("two cuts", lambda: is_empty(cz, region=[(h, 0.5 * (lo + hi)), (-h, -hi + 0.1)]),
             lambda: not _cold_feasible(cz, np.vstack([h, -h]) @ cz.G, np.full(2, -np.inf),
                                        np.array([0.5 * (lo + hi), -hi + 0.1])
                                        - np.vstack([h, -h]) @ cz.c, 1.0)),
            ("own", lambda: is_empty(cz), lambda: False),
        ]
        order = rng.permutation(len(queries)) if trial else range(len(queries))
        for i in order:
            name, warm, cold = queries[i]
            got, expect = warm(), cold()
            if isinstance(expect, bool):
                assert got is expect, name
            else:
                assert np.max(np.abs(got - expect)) <= 1e-9, name
        # the polygon: its support in each of its directions is the cold one
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        flat = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        poly = project_polygon(cz, (2, 0), n_dirs=16)
        full = np.zeros((16, 3))
        full[:, 2], full[:, 0] = flat[:, 0], flat[:, 1]
        assert np.max(np.abs(np.max(poly @ flat.T, axis=0) - _cold_support(cz, full))) <= 1e-9


def test_outside_point_leaves_later_supports_unchanged():
    # only support LPs write the cached basis: no membership or
    # multi-halfspace emptiness LP, whatever its answer, moves later supports
    rng = np.random.default_rng(41)
    for _ in range(5):
        cz, inside = random_cz_with_free_factors(rng)
        twin = cz.copy()
        dirs = rng.normal(size=(8, 3))
        first = support(cz, dirs)
        assert np.array_equal(first, support(twin, dirs))
        h = rng.normal(size=3)
        mid, wide = float(h @ inside), float(abs(h @ cz.c) + np.abs(h @ cz.G).sum() + 1.0)
        far = cz.c + 2.0 * (np.abs(cz.G).sum(axis=1) + 1.0)
        # the last region cuts nothing, so its LP ends in a basis of the set's
        # own LP, which it still must not cache
        for query, expect in ((lambda: contains_point(cz, far), False),
                              (lambda: contains_point(cz, inside, tol=1e-7), True),
                              (lambda: is_empty(cz, region=[(h, mid), (-h, -mid + 0.1)]), False),
                              (lambda: is_empty(cz, region=[(h, wide), (-h, wide)]), False)):
            kept = cz._lp_basis
            assert query() is expect
            assert cz._lp_basis is kept
            dirs = dirs[::-1]
            assert np.array_equal(support(cz, dirs), support(twin, dirs))


def test_only_the_first_lp_on_a_set_starts_cold():
    rng = np.random.default_rng(42)
    cz, inside = random_cz_with_free_factors(rng)
    h = rng.normal(size=3)
    mid = float(h @ inside)
    with lp_counts() as counts:
        support(cz, rng.normal(size=(5, 3)))
        interval_hull(cz)
        is_empty(cz, region=[(h, mid)])
        is_empty(cz, region=[(h, mid), (-h, -mid + 0.1)])
        contains_point(cz, inside, tol=1e-7)
        project_polygon(cz, (0, 1))
        is_empty(cz)
        support(cz, h)
    assert set(counts) == {"support", "is_empty", "contains_point"}
    assert sum(c["cold_starts"] for c in counts.values()) == 1
    assert counts["support"]["cold_starts"] == 1
    assert sum(c["calls"] for c in counts.values()) == 8
    assert counts["support"]["objectives"] == 5 + 6 + 32 + 1
    # a fresh set pays its own cold start
    with lp_counts() as counts:
        is_empty(cz.copy(), region=[(h, mid)])
    assert counts["is_empty"]["cold_starts"] == 1


def test_each_halfspace_alone_in_one_lp():
    # each=True decides every halfspace of the region alone, as the
    # one-halfspace query does, with one LP whose objectives are the
    # halfspaces
    rng = np.random.default_rng(44)
    for trial in range(8):
        z = random_zonotope(rng, 3, 5) if trial % 4 == 0 else random_cz_with_free_factors(rng)[0]
        normals = rng.normal(size=(4, 3))
        lo = -support(z, -normals)
        offsets = lo + np.array([-0.1, 0.2, -1e-3, 1.0])
        region = list(zip(normals, offsets))
        with lp_counts() as counts:
            got = is_empty(z, region, each=True)
        assert got.dtype == bool and got.tolist() == [True, False, True, False]
        assert got.tolist() == [is_empty(z, [h]) for h in region]
        if z.num_constraints:
            assert (counts["is_empty"]["calls"], counts["is_empty"]["objectives"]) == (1, 4)
        else:
            assert counts == {}
        with lp_counts() as counts:
            assert is_empty(z, [], each=True).tolist() == []
        assert counts == {}
    assert is_empty(empty_set(3), region, each=True).tolist() == [True] * 4


def test_a_basis_is_inherited_only_across_a_leading_block():
    # the hand-off needs the parent's own columns to lead its columns and
    # its rows to lead the child's, with the same coefficients on those
    # columns and zeros past them
    rng = np.random.default_rng(45)
    a = rng.normal(size=(2, 4))
    parent = Zonotope(np.zeros(2), rng.normal(size=(2, 6)), np.hstack([a, np.zeros((2, 2))]),
                      a @ rng.uniform(-0.5, 0.5, 4))
    support(parent, np.eye(2))
    assert parent._lp_basis[0].size == 4

    def child(rows):
        # three more columns, rows appended below the parent's
        g = np.hstack([parent.G, rng.normal(size=(2, 3))])
        return Zonotope(np.zeros(2), g, rows, np.zeros(rows.shape[0]))

    extended = np.vstack([np.hstack([parent.A, np.zeros((2, 3))]), rng.normal(size=(3, 9))])
    moved, beyond = extended.copy(), extended.copy()
    moved[0, 1] += 1.0  # a coefficient of the leading block differs
    beyond[1, 7] = 1.0  # a parent row reaches a later column
    for rows, inherits in ((extended, True), (moved, False), (beyond, False),
                           (extended[:1], False)):
        z = child(rows)
        inherit_lp_basis(z, parent)
        assert (z._lp_basis is parent._lp_basis) is inherits
        if inherits:
            with lp_counts() as counts:
                warm = support(z, np.eye(2))
            assert counts["support"]["cold_starts"] == 0
            assert np.allclose(warm, _cold_support(z, np.eye(2)), atol=1e-9)
    # own columns that do not lead, or no nonzero column at all (the own LP
    # then takes every column): no hand-off, even to a child whose rows
    # match the parent's on as many leading columns as it has own ones
    for a_parent in (np.hstack([np.zeros((2, 2)), a]), np.zeros((1, 6))):
        odd = Zonotope(np.zeros(2), parent.G, a_parent, np.zeros(a_parent.shape[0]))
        support(odd, np.eye(2))
        q, k = a_parent.shape[0], np.count_nonzero(np.any(a_parent != 0.0, axis=0))
        z = child(np.vstack([np.hstack([a_parent[:, :k], np.zeros((q, 9 - k))]),
                             rng.normal(size=(1, 9))]))
        inherit_lp_basis(z, odd)
        assert z._lp_basis is None


def test_region_emptiness_agrees_with_halfspace_intersection():
    rng = np.random.default_rng(43)
    for trial in range(12):
        z = random_zonotope(rng, 3, 5) if trial % 3 == 0 else random_cz_with_free_factors(rng)[0]
        h = rng.normal(size=3)
        lo, hi = -support(z, -h), support(z, h)
        for offset in (lo - 0.05 * (hi - lo), lo + 0.3 * (hi - lo), lo + 1e-6):
            expect = is_empty(halfspace_intersection(z, h, offset))
            assert is_empty(z, region=[(h, offset)]) is expect
            assert expect is (offset < lo)
        g = rng.normal(size=3)
        for o1, o2 in ((lo + 0.5 * (hi - lo), -lo - 0.6 * (hi - lo)), (hi, -support(z, g) + 0.1)):
            for a_h, b_h in (((h, o1), (-h, o2)), ((h, o1), (g, o2))):
                two = halfspace_intersection(halfspace_intersection(z, *a_h), *b_h)
                assert is_empty(z, region=[a_h, b_h]) is is_empty(two)


def test_lp_basis_slot_holds_status_arrays_only(monkeypatch):
    made = []
    real = linalg._highs_model

    def tracked(*args):
        highs = real(*args)
        made.append(weakref.ref(highs))
        return highs

    monkeypatch.setattr(linalg, "_highs_model", tracked)
    cz, inside = random_cz_with_free_factors(np.random.default_rng(44))
    assert "_lp_basis" in ConstrainedZonotope.__slots__
    assert cz._lp_basis is None and cz.copy()._lp_basis is None
    support(cz, np.eye(3))
    contains_point(cz, inside, tol=1e-7)
    assert type(cz._lp_basis) is tuple and len(cz._lp_basis) == 2
    cols, rows = cz._lp_basis
    assert type(cols) is type(rows) is np.ndarray and cols.dtype == rows.dtype == np.int8
    assert cols.shape == (int(np.count_nonzero(np.any(cz.A != 0.0, axis=0))),)
    assert rows.shape == (cz.num_constraints,)
    assert np.count_nonzero(cols == 1) + np.count_nonzero(rows == 1) == cz.num_constraints
    # no solver instance outlives its call
    assert len(made) == 2 and all(ref() is None for ref in made)


# ---------------------------------------------------------------------------
# sampling and serialization


def test_sample_points_stay_inside():
    rng = np.random.default_rng(31)
    z = random_zonotope(rng, 3, 5)
    pts = sample_points(z, rng, 200)
    for x in pts[:30]:
        assert contains_point(z, x, tol=1e-9)


def test_sample_factors_respect_constraints():
    rng = np.random.default_rng(32)
    cz, _ = random_czonotope(rng, 3, 6, n_cuts=2)
    xi = sample_factors(cz, rng, 50)
    assert xi.shape == (50, cz.num_generators)
    assert np.all(np.abs(xi) <= 1.0 + 1e-9)
    assert np.allclose(xi @ cz.A.T, cz.b[None, :], atol=1e-7)


def test_sample_factors_raises_on_infeasible():
    cz = ConstrainedZonotope([0.0], np.array([[1.0]]), np.array([[1.0]]), np.array([5.0]))
    with pytest.raises(EmptySetError):
        sample_factors(cz, np.random.default_rng(0), 10, max_tries=3)


def test_sample_factors_tells_an_empty_set_from_a_thin_one():
    # the factor rows of an empty summand cannot be met: after one round of
    # projections one is_empty LP ends the search with the set named empty
    empty = minkowski_sum(empty_set(3), Zonotope(np.zeros(3), np.eye(3)))
    with lp_counts() as counts, pytest.raises(EmptySetError, match="cannot sample an empty set"):
        sample_factors(empty, np.random.default_rng(0), 10)
    assert counts["is_empty"]["calls"] == 1
    # xi_1 + 1e-3 xi_2 = 1 + 1e-3 meets the box only at (1, 1), at so small an
    # angle that no projection converges: nonempty, so the rounds go on
    thin = ConstrainedZonotope([0.0, 0.0], np.eye(2), np.array([[1.0, 1e-3]]),
                               np.array([1.0 + 1e-3]))
    with lp_counts() as counts, pytest.raises(EmptySetError, match="may be empty or thin"):
        sample_factors(thin, np.random.default_rng(0), 10, max_tries=3)
    assert counts["is_empty"]["calls"] == 1
    # a set that samples at once pays no LP
    rng = np.random.default_rng(34)
    cz, _ = random_czonotope(rng, 3, 6, n_cuts=2)
    with lp_counts() as counts:
        sample_factors(cz, rng, 20)
    assert counts == {}


def test_serialization_round_trip():
    rng = np.random.default_rng(33)
    z = random_zonotope(rng, 3, 4)
    cz, _ = random_czonotope(rng, 2, 5)
    mz = MatrixZonotope(rng.normal(size=(2, 3)), rng.normal(size=(2, 2, 3)))
    cmz = ConstrainedMatrixZonotope(
        rng.normal(size=(2, 2)), rng.normal(size=(3, 2, 2)),
        rng.normal(size=(1, 3)), rng.normal(size=1),
    )
    for s in [z, cz, mz, cmz, empty_set(4)]:
        payload = json.dumps(s.to_dict(), sort_keys=True)
        back = set_from_dict(json.loads(payload))
        assert type(back) is type(s)
        again = json.dumps(back.to_dict(), sort_keys=True)
        assert again == payload


def test_zero_row_constrained_json_loads_without_rows():
    # the zero-row constrained spellings that earlier versions wrote load as
    # sets without rows and write back in the plain spelling
    old = [
        ({"type": "constrained_zonotope", "c": [1.0, -1.0], "G": [[1.0, 0.5], [0.0, 2.0]],
          "A": [], "b": []},
         {"type": "zonotope", "c": [1.0, -1.0], "G": [[1.0, 0.5], [0.0, 2.0]]}),
        ({"type": "constrained_matrix_zonotope", "C": [[1.0, 2.0]],
          "generators": [[[0.5, 0.0]], [[0.0, 0.25]]], "A": [], "b": []},
         {"type": "matrix_zonotope", "C": [[1.0, 2.0]],
          "generators": [[[0.5, 0.0]], [[0.0, 0.25]]]}),
    ]
    for written, plain in old:
        s = set_from_dict(json.loads(json.dumps(written)))
        assert s.num_constraints == 0 and s.A.shape == (0, 2) and s.b.shape == (0,)
        assert s.to_dict() == plain
        assert set_from_dict(plain).to_dict() == plain
    # sets with rows keep the constrained spelling, and round-trip unchanged
    rng = np.random.default_rng(34)
    cz = ConstrainedZonotope(rng.normal(size=2), rng.normal(size=(2, 3)), [[1.0, 0.0, 1.0]], [0.5])
    cmz = ConstrainedMatrixZonotope(rng.normal(size=(2, 2)), rng.normal(size=(3, 2, 2)),
                                    [[1.0, -1.0, 0.0]], [0.0])
    for s, kind in ((cz, "constrained_zonotope"), (cmz, "constrained_matrix_zonotope")):
        payload = json.dumps(s.to_dict())
        assert json.loads(payload)["type"] == kind
        back = set_from_dict(json.loads(payload))
        assert back.num_constraints == 1 and json.dumps(back.to_dict()) == payload


def test_serialization_uses_sparse_blocks_for_large_sparse_matrices():
    # constraint matrix 2 x 400, nearly all zeros: triplet form expected
    a = np.zeros((2, 400))
    a[0, 3] = 1.5
    a[1, 250] = -2.0
    cz = ConstrainedZonotope(np.zeros(2), np.ones((2, 400)) * 1e-3, a, np.zeros(2))
    d = cz.to_dict()
    assert isinstance(d["A"], dict) and d["A"]["shape"] == [2, 400]
    back = set_from_dict(json.loads(json.dumps(d)))
    assert np.allclose(back.A, a)
    assert np.allclose(back.G, cz.G)


def test_triplet_arrays_load_only_when_well_formed():
    good = {"type": "zonotope", "c": [0.0, 0.0],
            "G": {"shape": [2, 3], "rows": [0, 1], "cols": [2, 0], "vals": [0.3, -0.5]}}
    z = set_from_dict(json.loads(json.dumps(good)))
    assert np.array_equal(z.G, [[0.0, 0.0, 0.3], [-0.5, 0.0, 0.0]])
    empty = dict(good, G={"shape": [2, 0], "rows": [], "cols": [], "vals": []})
    assert set_from_dict(empty).G.shape == (2, 0)
    bad = (
        ({"shape": [2], "rows": [0], "cols": [0], "vals": [1.0]}, "shape"),
        ({"shape": [2, 2, 1], "rows": [0], "cols": [0], "vals": [1.0]}, "shape"),
        ({"shape": [2, -1], "rows": [], "cols": [], "vals": []}, "shape"),
        ({"shape": [2, 2.0], "rows": [0], "cols": [0], "vals": [1.0]}, "shape"),
        ({"shape": [True, True], "rows": [0], "cols": [0], "vals": [1.0]}, "shape"),
        ({"shape": 4, "rows": [0], "cols": [0], "vals": [1.0]}, "shape"),
        ({"shape": [2, 2], "rows": [0, 1], "cols": [0], "vals": [1.0, 1.0]}, "one length"),
        ({"shape": [2, 2], "rows": [0, 1], "cols": [0, 1], "vals": [1.0]}, "one length"),
        ({"shape": [2, 2], "rows": [[0, 1]], "cols": [[0, 1]], "vals": [[1.0, 1.0]]},
         "one length"),
        ({"shape": [2, 2], "rows": [0, 5], "cols": [0, 1], "vals": [0.3, 0.3]}, "rows must"),
        ({"shape": [2, 2], "rows": [0, -1], "cols": [0, 1], "vals": [0.3, 0.3]}, "rows must"),
        ({"shape": [2, 2], "rows": [0, 1], "cols": [0, 2], "vals": [0.3, 0.3]}, "cols must"),
        ({"shape": [2, 2], "rows": [0, 1.5], "cols": [0, 1], "vals": [0.3, 0.3]}, "rows must"),
        ({"shape": [2, 2], "rows": [0, 1], "cols": [False, True], "vals": [0.3, 0.3]},
         "cols must"),
    )
    for triplet, match in bad:
        with pytest.raises(ValueError, match=match):
            set_from_dict(json.loads(json.dumps(dict(good, G=triplet))))
