import numpy as np
import pytest

from datareach.counters import design_counts
from datareach.inputdesign import (
    DesignConfig,
    InfoState,
    delta_A,
    design_input,
    info_init,
    info_update,
    sample_input,
)
from datareach.sets import (
    Zonotope,
    contains_point,
    halfspace_intersection,
    project_factors,
    sample_factors,
)


def test_info_init():
    st = info_init(4, delta=1e-3)
    assert np.allclose(st.s_matrix, 1e-3 * np.eye(4))
    assert np.allclose(st.s_inv, 1e3 * np.eye(4))
    assert st.count == 0
    assert np.isclose(st.trace_inverse, 4e3)


def test_information_state_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        info_init(3, delta=0.0)
    st = info_init(3)
    with pytest.raises(ValueError):
        info_update(st, np.ones(4))
    with pytest.raises(ValueError):
        info_update(st, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        delta_A(st, np.ones(2), np.ones(2))


def test_sherman_morrison_matches_direct_inverse_over_many_updates():
    rng = np.random.default_rng(0)
    d = 8
    st = info_init(d)
    for k in range(200):
        s = rng.normal(size=d) * rng.uniform(0.1, 5.0)
        st = info_update(st, s)
        direct = np.linalg.inv(st.s_matrix)
        assert np.max(np.abs(st.s_inv - direct)) <= 1e-8, k
    assert st.count == 200


def test_trace_decrease_identity_is_exact():
    rng = np.random.default_rng(1)
    d = 8
    st = info_init(d)
    for _ in range(200):
        x = rng.normal(size=5)
        u = rng.normal(size=3)
        gain = delta_A(st, x, u)
        assert gain >= 0.0
        new = info_update(st, np.concatenate([x, u]))
        assert abs((st.trace_inverse - new.trace_inverse) - gain) <= 1e-10
        st = new


def test_drift_triggers_refactorization():
    # plant a corrupted inverse; the next update must repair it
    d = 3
    st = info_init(d)
    bad = InfoState(st.s_matrix, st.s_inv + 1e-3, st.delta, st.count)
    repaired = info_update(bad, np.ones(d))
    direct = np.linalg.inv(repaired.s_matrix)
    assert np.max(np.abs(repaired.s_inv - direct)) <= 1e-9


def test_design_input_beats_grid_search_one_dimensional():
    rng = np.random.default_rng(2)
    u_set = Zonotope([0.5], np.array([[2.0]]))
    st = info_init(3)
    for _ in range(6):
        st = info_update(st, rng.normal(size=3))
    x = rng.normal(size=2)
    u, gain = design_input(st, x, u_set, DesignConfig(rng_seed=5))
    # dense scan over the single factor
    grid = np.linspace(-1.0, 1.0, 4001)
    best = max(delta_A(st, x, np.array([0.5 + 2.0 * g])) for g in grid)
    assert gain >= best - 1e-9
    assert np.isclose(delta_A(st, x, u), gain, atol=1e-12)
    assert contains_point(u_set, u, tol=1e-9)


def test_design_input_beats_grid_search_two_dimensional():
    rng = np.random.default_rng(3)
    u_set = Zonotope([1.0, -1.0], np.array([[1.0, 0.5], [0.0, 2.0]]))
    st = info_init(4)
    for _ in range(10):
        st = info_update(st, rng.normal(size=4) * rng.uniform(0.2, 2.0))
    x = rng.normal(size=2)
    u, gain = design_input(st, x, u_set, DesignConfig(rng_seed=6))
    xs = np.linspace(-1, 1, 121)
    best = 0.0
    for g1 in xs:
        for g2 in xs:
            best = max(best, delta_A(st, x, u_set.c + u_set.G @ np.array([g1, g2])))
    assert gain >= best - 1e-6
    assert contains_point(u_set, u, tol=1e-9)


def test_design_input_on_constrained_input_set():
    rng = np.random.default_rng(4)
    base = Zonotope([0.0, 0.0], np.eye(2))
    u_set = halfspace_intersection(base, [1.0, 1.0], 0.5)
    st = info_init(4)
    for _ in range(8):
        st = info_update(st, rng.normal(size=4))
    x = np.array([0.3, -0.7])
    u, gain = design_input(st, x, u_set, DesignConfig(rng_seed=7))
    assert contains_point(u_set, u, tol=1e-7)
    assert np.sum(u) <= 0.5 + 1e-7
    assert gain > 0.0


def test_design_is_at_least_as_good_as_random_on_average():
    rng = np.random.default_rng(5)
    u_set = Zonotope([0.0, 0.0], np.diag([1.0, 2.0]))
    wins = 0
    for trial in range(10):
        st = info_init(4)
        for _ in range(5):
            st = info_update(st, rng.normal(size=4))
        x = rng.normal(size=2)
        _, designed = design_input(st, x, u_set, DesignConfig(rng_seed=trial))
        random_gain = delta_A(st, x, sample_input(u_set, rng))
        if designed >= random_gain - 1e-12:
            wins += 1
    assert wins == 10  # keep-best over 100 uniform candidates dominates one draw


def test_design_input_is_deterministic_for_fixed_seed():
    rng_state = np.random.default_rng(6)
    st = info_init(3)
    for _ in range(4):
        st = info_update(st, rng_state.normal(size=3))
    u_set = Zonotope([0.0], np.array([[1.5]]))
    x = np.array([0.2, 0.1])
    u1, g1 = design_input(st, x, u_set, DesignConfig(rng_seed=42))
    u2, g2 = design_input(st, x, u_set, DesignConfig(rng_seed=42))
    assert np.array_equal(u1, u2) and g1 == g2


def _reference_gain(state, x, u_set, xi):
    """The gain over factor rows xi in the xi-form the design kernel replaced:
    (c2 + 2 q2.xi + xi.Q2.xi) / (1 + c1 + 2 q1.xi + xi.Q1.xi)."""
    a = np.concatenate([x, u_set.c])
    b = np.vstack([np.zeros((x.size, u_set.num_generators)), u_set.G])
    p1 = state.s_inv
    p2 = p1 @ p1
    num = (a @ p2 @ a + 2.0 * xi @ (b.T @ (p2 @ a))
           + np.einsum("ni,ij,nj->n", xi, b.T @ p2 @ b, xi))
    den = (1.0 + a @ p1 @ a + 2.0 * xi @ (b.T @ (p1 @ a))
           + np.einsum("ni,ij,nj->n", xi, b.T @ p1 @ b, xi))
    return num / den


def _design_cases():
    """Seeded information states, some with fewer updates than dimensions,
    on box input sets with 1..4 factors and one constrained input set."""
    constrained = halfspace_intersection(Zonotope([0.0, 0.0], np.eye(2)), [1.0, 1.0], 0.5)
    for seed in range(40):
        rng = np.random.default_rng(100 + seed)
        n_x, n_u, m = int(rng.integers(1, 5)), int(rng.integers(1, 3)), 1 + seed % 4
        u_set = Zonotope(rng.normal(size=n_u), rng.normal(size=(n_u, m)))
        if seed == 39:
            n_u, u_set = 2, constrained
        st = info_init(n_x + n_u)
        for _ in range(int(rng.integers(0, 4 * (n_x + n_u) + 10))):
            st = info_update(st, rng.normal(size=n_x + n_u) * rng.uniform(0.2, 3.0))
        yield seed, st, rng.normal(size=n_x), u_set


def test_design_kernel_matches_reference_objective_and_delta_a():
    for seed, st, x, u_set in _design_cases():
        cands = sample_factors(u_set, np.random.default_rng(seed), 100)
        best = float(np.max(_reference_gain(st, x, u_set, cands)))
        _, start = design_input(st, x, u_set, DesignConfig(rng_seed=seed, refine_iters=0))
        assert abs(start - best) <= 1e-12 * best, seed
        u, gain = design_input(st, x, u_set, DesignConfig(rng_seed=seed))
        assert abs(delta_A(st, x, u) - gain) <= 1e-9 * gain, seed
        assert gain >= start, seed
        assert contains_point(u_set, u, tol=1e-7), seed


def _dot(a, b):
    """sum(map(mul, a, b)) as CPython 3.11 adds floats: left to right from 0."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _reference_design(state, x, u_set, config):
    """design_input as it was before the generated ascent kernel: the gain and
    its gradient from lists, and the ascent loop over lists.  The dot products
    add left to right explicitly, so the arithmetic does not depend on the
    interpreter's builtin sum.  Returns (u, gain, accepted steps)."""
    n_x = state.dim - u_set.dim
    lift = np.zeros((state.dim, u_set.num_generators + 1))
    lift[:n_x, 0], lift[n_x:, 0], lift[n_x:, 1:] = x, u_set.c, u_set.G
    pl = state.s_inv @ lift
    forms = np.stack([pl.T @ pl, lift.T @ pl])
    forms[1, 0, 0] += 1.0
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    cands = sample_factors(u_set, np.random.default_rng(config.rng_seed), config.n_candidates)
    zs = np.hstack([np.ones((len(cands), 1)), cands])
    num, den = np.einsum("ni,kij,nj->kn", zs, forms, zs)
    forms, xi = forms.tolist(), cands[int(np.argmax(num / den))].tolist()

    def gain_at(xi):
        z = [1.0, *xi]
        nz, dz = ([_dot(row, z) for row in form] for form in forms)
        num, den = _dot(nz, z), _dot(dz, z)
        scale = 2.0 / (den * den)
        return num / den, [scale * (a * den - num * b) for a, b in zip(nz[1:], dz[1:])]

    val, grad = gain_at(xi)
    box = u_set.num_constraints == 0
    steps = 0
    while steps < config.refine_iters:
        step = config.refine_step
        while step > 1e-12:
            trial = [a + step * g for a, g in zip(xi, grad)]
            if box:
                trial, feasible = [min(max(t, -1.0), 1.0) for t in trial], True
            else:
                proj, ok = project_factors(u_set.A, u_set.b, np.array([trial]))
                trial, feasible = proj[0].tolist(), bool(ok[0])
            if feasible:
                t_val, t_grad = gain_at(trial)
                gap = _dot(grad, [t - a for t, a in zip(trial, xi)])
                if t_val >= val + 1e-4 * gap and t_val > val:
                    xi, val, grad, steps = trial, t_val, t_grad, steps + 1
                    break
            step *= 0.5
        else:
            break
    return u_set.c + u_set.G @ np.array(xi), val, steps


def test_ascent_kernel_is_bit_identical_to_the_reference():
    point = Zonotope([0.4, -1.1], np.zeros((2, 0)))  # no factors: nothing to ascend
    point_state = info_init(5)
    for s in np.random.default_rng(8).normal(size=(3, 5)):
        point_state = info_update(point_state, s)
    cases = [*_design_cases(), (40, point_state, np.array([0.3, -0.2, 1.5]), point)]
    for seed, st, x, u_set in cases:
        for iters in (0, 1, 3, 50):
            cfg = DesignConfig(rng_seed=seed, refine_iters=iters)
            ref_u, ref_gain, ref_steps = _reference_design(st, x, u_set, cfg)
            with design_counts() as counts:
                u, gain = design_input(st, x, u_set, cfg)
            assert u.tobytes() == ref_u.tobytes(), (seed, iters)
            assert np.float64(gain).tobytes() == np.float64(ref_gain).tobytes(), (seed, iters)
            assert counts["refine_iterations"] == ref_steps, (seed, iters)


def test_design_config_is_validated():
    for bad in ({"n_candidates": 0}, {"n_candidates": 2.5}, {"n_candidates": True},
                {"refine_iters": -3}, {"refine_iters": 1.0}, {"refine_step": -1.0},
                {"refine_step": 0.0}, {"refine_step": float("nan")},
                {"refine_step": float("inf")}, {"refine_step": "0.5"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DesignConfig(**bad)
    assert DesignConfig(n_candidates=np.int64(3), refine_iters=0, refine_step=1).refine_iters == 0


def test_design_input_rejects_bad_state_vector():
    st = info_init(4)
    u_set = Zonotope([0.0, 0.0], np.eye(2))
    for x in (np.ones(3), np.ones(1), np.array([0.0, np.nan]), np.array([np.inf, 0.0])):
        with pytest.raises(ValueError, match="finite entries"):
            design_input(st, x, u_set)
    with pytest.raises(ValueError, match="dimension 1, fewer than the input set's 2"):
        design_input(info_init(1), [], u_set)


def test_design_counts_tally_calls_and_steps():
    st = info_init(3)
    u_set = Zonotope([0.0], np.array([[1.5]]))
    x = np.array([0.2, 0.1])
    design_input(st, x, u_set)  # nobody counting
    with design_counts() as counts:
        design_input(st, x, u_set, DesignConfig(refine_iters=0))
        with design_counts() as inner:
            design_input(st, x, u_set)
        design_input(st, x, u_set, DesignConfig(refine_iters=3))
    assert counts["calls"] == 2 and inner["calls"] == 1
    assert counts["capped_calls"] >= 1  # refine_iters=0 always stops at its cap
    assert counts["refine_iterations"] <= 3 and inner["refine_iterations"] <= 50
    # one evaluation at each start, at least one more per accepted step
    assert counts["evaluations"] >= counts["calls"] + counts["refine_iterations"]
    assert inner["evaluations"] >= inner["calls"] + inner["refine_iterations"]
    assert counts["seconds"] > 0.0
    with design_counts() as counts:
        design_input(st, x, u_set, DesignConfig(refine_iters=0))
        design_input(st, x, Zonotope([0.3], np.zeros((1, 0))), DesignConfig(refine_iters=5))
    # no ascent step, and every trial over no factors equals its point
    assert (counts["calls"], counts["refine_iterations"], counts["evaluations"]) == (2, 0, 2)


def test_sample_input_stays_inside():
    rng = np.random.default_rng(7)
    u_set = Zonotope([1.0, 2.0], np.diag([0.5, 0.25]))
    for _ in range(20):
        u = sample_input(u_set, rng)
        assert contains_point(u_set, u, tol=1e-9)
