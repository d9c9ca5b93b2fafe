"""Property tests: soundness of the one propagation loop on random systems,
containment of the set operations on operands with and without constraint
rows, and the empty set staying empty through them."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datareach.counters import lp_counts
from datareach.modelset import DataSet, build_model_sets
from datareach.reach import (
    Halfspace,
    PwaMode,
    PwaSpec,
    certify_pwa,
    partition_data_by_mode,
    propagate_pwa,
    propagation_step,
    replay_split,
)
from datareach.rightinv import pinv_right_inverse
from datareach.sets import (
    EmptySetError,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    contains_point,
    halfspace_intersection,
    halfspace_intersection_with_plan,
    inherit_lp_basis,
    interval_hull,
    is_empty,
    linear_map,
    minkowski_sum,
    project_polygon,
    reduce_girard,
    set_from_dict,
    support,
    volume,
)


def random_pwa(rng, n_x, n_u, n_modes):
    """Contracting modes; two modes split the state space at a random
    hyperplane through the origin, mode 0 owning the guard."""
    def matrices():
        a = rng.normal(size=(n_x, n_x))
        return 0.8 * a / max(1.0, np.linalg.norm(a, 2)), rng.normal(size=(n_x, n_u))

    if n_modes == 1:
        return PwaSpec([PwaMode([], *matrices())])
    h = rng.normal(size=n_x)
    return PwaSpec([PwaMode([Halfspace(h, 0.0)], *matrices()),
                    PwaMode([Halfspace(-h, 0.0)], *matrices())])


def one_step_data(rng, pwa, w, per_mode):
    """A DataSet of per_mode one-step transitions starting in each mode, with
    the noise factors of every transition (p_w, T)."""
    n_x, n_u = pwa.modes[0].b.shape
    columns, xi_w = [], []
    for q in range(pwa.n_modes):
        for _ in range(per_mode):
            x = rng.uniform(-2.0, 2.0, n_x)
            if pwa.classify(x) != q:
                x = -x
            u = rng.uniform(-1.0, 1.0, n_u)
            xiw = rng.uniform(-1.0, 1.0, w.num_generators)
            a, b = pwa.modes[q].a, pwa.modes[q].b
            x_next = a @ x + b @ u + w.G @ xiw
            columns.append((x_next, x, u))
            xi_w.append(xiw)
    return DataSet(*(np.column_stack(c) for c in zip(*columns))), np.column_stack(xi_w)


def simulate(pwa, x0, u_prop, w, horizon, n_traj, rng):
    xi0 = rng.uniform(-1, 1, (n_traj, x0.num_generators))
    xi_u = rng.uniform(-1, 1, (horizon, n_traj, u_prop.num_generators))
    xi_w = rng.uniform(-1, 1, (horizon, n_traj, w.num_generators))
    states = np.empty((n_traj, horizon + 1, x0.dim))
    states[:, 0] = x0.c + xi0 @ x0.G.T
    for k in range(horizon):
        x = states[:, k]
        u = u_prop.c + xi_u[k] @ u_prop.G.T
        modes = pwa.classify_batch(x)
        for q in range(pwa.n_modes):
            sel = modes == q
            a, b = pwa.modes[q].a, pwa.modes[q].b
            states[sel, k + 1] = x[sel] @ a.T + u[sel] @ b.T + xi_w[k][sel] @ w.G.T
    return states, xi0, xi_u, xi_w


def cmz_run(n_x, n_u, n_modes, horizon, seed):
    """A random system with one data-consistent cmz model per mode,
    propagated over horizon steps; returns (pwa, models, betas, result,
    trajectory draws), betas holding the true model's factors per mode."""
    rng = np.random.default_rng(seed)
    pwa = random_pwa(rng, n_x, n_u, n_modes)
    w = Zonotope(np.zeros(n_x), 0.02 * np.eye(n_x))
    data, xi_w = one_step_data(rng, pwa, w, per_mode=3 * (n_x + n_u))
    parts, indices = partition_data_by_mode(data, pwa)
    models, betas = [], []
    for part, idx in zip(parts, indices):
        assert part.T >= part.d
        models.append(build_model_sets(part, w.G, pinv_right_inverse(part.phi).h).cmz)
        # the true model's factors: the realized noise, t-major
        betas.append(xi_w[:, idx].T.reshape(-1))
    x0 = Zonotope(rng.uniform(-0.5, 0.5, n_x), 0.3 * rng.normal(size=(n_x, n_x)))
    u_prop = Zonotope(np.zeros(n_u), 0.2 * np.eye(n_u))
    res = propagate_pwa(models, pwa, x0, u_prop, w, horizon, max_order=5)
    return pwa, models, betas, res, simulate(pwa, x0, u_prop, w, horizon, 40, rng)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n_x=st.integers(1, 3), n_u=st.integers(1, 2), n_modes=st.integers(1, 2),
       horizon=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_certificates_hold_for_data_consistent_cmz_models(n_x, n_u, n_modes, horizon, seed):
    pwa, _, betas, res, draws = cmz_run(n_x, n_u, n_modes, horizon, seed)
    assert certify_pwa(res, betas, pwa, *draws).ok()


@settings(derandomize=True, max_examples=15, deadline=None)
@given(n_x=st.integers(1, 3), n_u=st.integers(1, 2), n_modes=st.integers(1, 2),
       horizon=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_each_mode_keeps_one_beta_block_along_a_lineage(n_x, n_u, n_modes, horizon, seed):
    # a mode's constrained beta takes a block of constrained columns on its
    # first visit, right after the constrained state columns and under the
    # model's rows, and every later fragment of the lineage keeps that block
    pwa, models, betas, res, draws = cmz_run(n_x, n_u, n_modes, horizon, seed)
    cons_b = [np.any(m.A != 0.0, axis=0) for m in models]
    for k in range(1, horizon + 1):
        for f in res.steps[k].fragments:
            parent = res.steps[k - 1].fragments[f.parent].beta_starts
            assert len(f.beta_starts) == pwa.n_modes and f.beta_starts[f.mode] is not None
            for q, start in enumerate(f.beta_starts):
                if start is None:
                    assert parent[q] is None
                    continue
                stop = start + np.count_nonzero(cons_b[q])
                assert 0 <= start and stop <= f.set.num_generators
                assert np.all(np.any(f.set.A[:, start:stop] != 0.0, axis=0))
                if parent[q] is not None:
                    assert start == parent[q]
                else:
                    assert q == f.mode and start == np.count_nonzero(f.plan.cons[: f.plan.p])
                    rows = f.set.A[f.set.num_constraints - models[q].num_constraints :]
                    assert np.array_equal(rows[:, start:stop], models[q].A[:, cons_b[q]])
    assert certify_pwa(res, betas, pwa, *draws).ok()


@settings(derandomize=True, max_examples=15, deadline=None)
@given(n_x=st.integers(1, 3), n_u=st.integers(1, 2), n_modes=st.integers(1, 2),
       horizon=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_a_child_starts_from_its_parents_basis(n_x, n_u, n_modes, horizon, seed):
    # a parent's own LP (its constrained columns, which lead, and all its
    # rows) is the leading block of its child's own LP, so the parent's
    # basis starts the child's LPs, and they end where cold ones do
    _, _, _, res, _ = cmz_run(n_x, n_u, n_modes, horizon, seed)
    dirs = np.random.default_rng(seed % 997).normal(size=(6, n_x))
    handed = 0
    for k in range(1, horizon + 1):
        for f in res.steps[k].fragments:
            parent = res.steps[k - 1].fragments[f.parent].set
            own = np.any(parent.A != 0.0, axis=0)
            n_own, q = np.count_nonzero(own), parent.num_constraints
            if not n_own:
                continue  # no rows (the initial set here): nothing to hand over
            assert own[:n_own].all()
            assert np.all(np.any(f.set.A != 0.0, axis=0)[:n_own])
            assert np.array_equal(f.set.A[:q, :n_own], parent.A[:, :n_own])
            assert not np.any(f.set.A[:q, n_own:])
            if parent._lp_basis is None:
                support(parent, dirs)  # a root: give it a basis of its own LP
            child = f.set.copy()
            inherit_lp_basis(child, parent)
            assert child._lp_basis is parent._lp_basis
            with lp_counts() as counts:
                warm = support(child, dirs)
            assert counts["support"]["cold_starts"] == 0
            assert np.max(np.abs(warm - support(f.set.copy(), dirs))) <= 1e-9
            handed += 1
    assert handed > 0


# ---------------------------------------------------------------------------
# containment of the set operations, on operands with and without rows


def operand(rng, dim, rows, members=3):
    """A zonotope with rows constraint rows and the factors (members, m) of
    members of its points: the rows are drawn from the null space of the
    members' factor differences, and b is their common value."""
    m = members + rows + int(rng.integers(1, 3))
    xi = rng.uniform(-1.0, 1.0, (members, m))
    null = np.linalg.svd(xi[1:] - xi[0])[2][members - 1:]
    a = rng.normal(size=(rows, null.shape[0])) @ null
    z = Zonotope(rng.normal(size=dim), rng.normal(size=(dim, m)), a, a @ xi[0])
    return z, xi


def points(z, xi):
    return z.c + xi @ z.G.T


def assert_members(z, xi, x, tol=1e-9):
    """xi are factors of z that place its points at x, rows included."""
    assert xi.shape == (x.shape[0], z.num_generators)
    assert np.all(np.abs(xi) <= 1.0 + tol)
    assert np.allclose(xi @ z.A.T, z.b, atol=tol)
    assert np.allclose(points(z, xi), x, atol=tol)


ROWS = [(0, 0), (0, 2), (1, 0), (2, 1)]
SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("rows", ROWS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), seed=SEEDS)
def test_minkowski_sum_contains_sums_of_members(rows, dim, seed):
    rng = np.random.default_rng(seed)
    (a, xa), (b, xb) = operand(rng, dim, rows[0]), operand(rng, dim, rows[1])
    s = minkowski_sum(a, b)
    assert s.num_constraints == sum(rows)
    assert_members(s, np.hstack([xa, xb]), points(a, xa) + points(b, xb))


@pytest.mark.parametrize("rows", ROWS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=SEEDS)
def test_cartesian_product_contains_pairs_of_members(rows, dims, seed):
    rng = np.random.default_rng(seed)
    (a, xa), (b, xb) = operand(rng, dims[0], rows[0]), operand(rng, dims[1], rows[1])
    p = cartesian_product(a, b)
    assert p.num_constraints == sum(rows)
    assert_members(p, np.hstack([xa, xb]), np.hstack([points(a, xa), points(b, xb)]))


@pytest.mark.parametrize("rows", [0, 2])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), out=st.integers(1, 3), seed=SEEDS)
def test_linear_map_contains_images_of_members(rows, dim, out, seed):
    rng = np.random.default_rng(seed)
    z, xi = operand(rng, dim, rows)
    m = rng.normal(size=(out, dim))
    image = linear_map(m, z)
    assert image.num_constraints == rows
    assert_members(image, xi, points(z, xi) @ m.T)


@pytest.mark.parametrize("rows", [0, 2])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), lift=st.floats(0.0, 5.0), seed=SEEDS)
def test_halfspace_intersection_contains_members_inside(rows, dim, lift, seed):
    rng = np.random.default_rng(seed)
    z, xi = operand(rng, dim, rows)
    x = points(z, xi)
    h = rng.normal(size=dim)
    offset = float(h @ x[0]) + lift  # member 0 is always inside
    cut = halfspace_intersection(z, h, offset)
    for p in x[x @ h <= offset]:
        assert contains_point(cut, p, tol=1e-7)


@pytest.mark.parametrize("rows", [0, 2])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), lift=st.floats(0.0, 5.0), seed=SEEDS)
def test_pass_and_cut_events_replay_member_factors(rows, dim, lift, seed):
    rng = np.random.default_rng(seed)
    z, xi = operand(rng, dim, rows)
    x = points(z, xi)
    h = rng.normal(size=dim)
    offset = float(h @ x[0]) + lift
    piece, event = halfspace_intersection_with_plan(z, h, offset)
    assert event[0] in ("pass", "cut")
    inside = x @ h <= offset
    # a fragment records only the cut events of its split
    cuts = [event] if event[0] == "cut" else []
    assert_members(piece, replay_split(cuts, xi[inside]), x[inside])


def empty_results(rng, dim, rows):
    """The empty set a disjoint cut returns, and the sets that every
    operation makes from it with partners that have rows constraint rows."""
    z, _ = operand(rng, dim, rows)
    h = rng.normal(size=dim)
    empty, event = halfspace_intersection_with_plan(
        z, h, float(h @ z.c) - float(np.abs(h @ z.G).sum()) - 1.0)
    assert event == ("empty",) and isinstance(empty, Zonotope)
    partner, _ = operand(rng, dim, rows)
    u, _ = operand(rng, 1, rows)
    kappa = rows + 2
    beta = rng.uniform(-1.0, 1.0, kappa)
    a_model = rng.normal(size=(rows, kappa))
    model = MatrixZonotope(rng.normal(size=(dim, dim + 1)),
                           rng.normal(size=(kappa, dim, dim + 1)), a_model, a_model @ beta)
    total = minkowski_sum(empty, partner)
    return [empty, total, minkowski_sum(partner, empty),
            cartesian_product(empty, partner), cartesian_product(partner, empty),
            linear_map(rng.normal(size=(dim + 1, dim)), empty),
            halfspace_intersection(empty, h, 1.0), halfspace_intersection(empty, h, -1.0),
            halfspace_intersection(total, h, float(h @ total.c)),
            propagation_step(model, empty, u, Zonotope(np.zeros(dim), np.eye(dim)), 4)[0],
            propagation_step(model, total, u, Zonotope(np.zeros(dim), np.eye(dim)), 4)[0]]


@pytest.mark.parametrize("rows", [0, 2])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), seed=SEEDS)
def test_operations_keep_the_empty_set_empty(rows, dim, seed):
    rng = np.random.default_rng(seed)
    for s in empty_results(rng, dim, rows):
        assert is_empty(s)
        h = rng.normal(size=s.dim)
        wide = float(np.abs(h @ s.G).sum() + abs(h @ s.c)) + 1.0
        assert is_empty(s, region=[(h, wide)])
        assert is_empty(s, region=[(h, wide), (-h, wide)])
        assert not contains_point(s, s.c)
        queries = [lambda: support(s, h), lambda: interval_hull(s)]
        if s.dim >= 2:
            queries.append(lambda: project_polygon(s, (0, 1)))
        for query in queries:
            with pytest.raises(EmptySetError):
                query()
        for query in (lambda: volume(s), lambda: reduce_girard(s, 1)):
            with pytest.raises(ValueError, match="without constraint rows"):
                query()
        payload = json.dumps(s.to_dict())
        back = set_from_dict(json.loads(payload))
        assert s.to_dict()["type"] == "constrained_zonotope"
        assert json.dumps(back.to_dict()) == payload and is_empty(back)
