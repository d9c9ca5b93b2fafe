import numpy as np
import pytest

from datareach import reach
from datareach.reach import (
    LINEAR,
    Fragment,
    Halfspace,
    PwaMode,
    PwaSpec,
    certify_lti,
    certify_pwa,
    model_based_reference,
    partition_data_by_mode,
    propagate_lti,
    propagate_pwa,
    propagation_step,
    replay_split,
    replay_step,
)
from datareach.linalg import lp_counts
from datareach.sets import (
    ConstrainedMatrixZonotope,
    ConstrainedZonotope,
    EmptySet,
    MatrixZonotope,
    Zonotope,
    contains_point,
    halfspace_intersection,
    halfspace_intersection_with_plan,
    is_empty,
    sample_factors,
    support,
)


def simulate_recorded(model_at, x0, u_prop, w, horizon, n_traj, rng):
    """Trajectories x' = M [x; u] + w with all factor draws recorded."""
    m0, mu, pw = x0.num_generators, u_prop.num_generators, w.num_generators
    xi0 = rng.uniform(-1, 1, size=(n_traj, m0))
    x = x0.c[None, :] + xi0 @ x0.G.T
    n_x = x0.dim
    states = np.empty((n_traj, horizon + 1, n_x))
    states[:, 0] = x
    xi_u = rng.uniform(-1, 1, size=(horizon, n_traj, mu))
    xi_w = rng.uniform(-1, 1, size=(horizon, n_traj, pw))
    for k in range(horizon):
        u = u_prop.c[None, :] + xi_u[k] @ u_prop.G.T
        wk = w.c[None, :] + xi_w[k] @ w.G.T
        lifted = np.hstack([x, u])
        x = lifted @ model_at.T + wk
        states[:, k + 1] = x
    return states, xi0, xi_u, xi_w


def test_singleton_model_matches_exact_affine_recursion():
    rng = np.random.default_rng(0)
    n_x, n_u = 3, 2
    a = 0.5 * rng.normal(size=(n_x, n_x))
    b = rng.normal(size=(n_x, n_u))
    model = MatrixZonotope(np.hstack([a, b]))
    x0 = Zonotope(rng.normal(size=n_x), rng.normal(size=(n_x, 4)))
    u0 = rng.normal(size=n_u)
    u_prop = Zonotope(u0)          # singleton input
    w = Zonotope(np.zeros(n_x))    # no disturbance
    horizon = 4
    res = propagate_lti(model, x0, u_prop, w, horizon, max_order=100)
    # closed form: c_{k+1} = A c_k + B u0, G_{k+1} = A G_k
    c, g = x0.c.copy(), x0.G.copy()
    for k in range(1, horizon + 1):
        c = a @ c + b @ u0
        g = a @ g
        rset = res.steps[k].fragments[0].set
        for _ in range(6):
            d = rng.normal(size=n_x)
            exact = d @ c + np.sum(np.abs(d @ g))
            assert np.isclose(support(rset, d), exact, atol=1e-9)


def make_uncertain_model(rng, n_x, n_u, kappa, spread=0.05):
    a = 0.6 * rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    b = rng.normal(size=(n_x, n_u))
    gens = spread * rng.normal(size=(kappa, n_x, n_x + n_u))
    return MatrixZonotope(np.hstack([a, b]), gens)


def test_plain_propagation_contains_sampled_trajectories():
    rng = np.random.default_rng(1)
    n_x, n_u, kappa = 2, 1, 3
    model = make_uncertain_model(rng, n_x, n_u, kappa)
    x0 = Zonotope([1.0, -0.5], 0.2 * np.eye(n_x))
    u_prop = Zonotope([0.3], np.array([[0.5]]))
    w = Zonotope(np.zeros(n_x), 0.01 * np.eye(n_x))
    horizon = 4
    res = propagate_lti(model, x0, u_prop, w, horizon, max_order=100)
    for _ in range(15):
        beta = rng.uniform(-1, 1, size=kappa)
        states, _, _, _ = simulate_recorded(model.at(beta), x0, u_prop, w, horizon, 1, rng)
        for k in range(horizon + 1):
            assert contains_point(res.steps[k].fragments[0].set, states[0, k], tol=1e-7), k


def test_certificates_plain_path_with_reduction():
    rng = np.random.default_rng(2)
    n_x, n_u, kappa = 3, 2, 4
    model = make_uncertain_model(rng, n_x, n_u, kappa, spread=0.03)
    beta_star = rng.uniform(-1, 1, size=kappa)
    x0 = Zonotope(rng.normal(size=n_x), 0.3 * rng.normal(size=(n_x, 5)))
    u_prop = Zonotope(rng.normal(size=n_u), 0.2 * np.eye(n_u))
    w = Zonotope(np.zeros(n_x), 0.02 * np.eye(n_x))
    horizon = 5
    states, xi0, xi_u, xi_w = simulate_recorded(model.at(beta_star), x0, u_prop, w,
                                                horizon, 40, rng)
    # tight order cap: reductions fire at every step
    res = propagate_lti(model, x0, u_prop, w, horizon, 3)
    report = certify_lti(res, beta_star, states, xi0, xi_u, xi_w)
    assert all(f.set.num_generators <= 9 for s in res.steps[1:] for f in s.fragments)
    assert report.n_trajectories == 40 and report.n_steps == horizon
    assert report.max_factor <= 1.0 + 1e-9
    assert report.max_point_error <= 1e-8
    assert report.ok(tol=1e-6)
    # spot-check with the LP oracle too
    for k in (2, horizon):
        rset = res.steps[k].fragments[0].set
        for i in range(0, 40, 13):
            assert contains_point(rset, states[i, k], tol=1e-7)


def make_constrained_model(rng, n_x, n_u, kappa):
    base = make_uncertain_model(rng, n_x, n_u, kappa, spread=0.04)
    a = np.zeros((1, kappa))
    a[0, 0] = 1.0
    a[0, 1] = 1.0
    b = np.array([0.3])
    return ConstrainedMatrixZonotope(base.C, base.generators, a, b)


def feasible_beta(rng, kappa):
    beta = rng.uniform(-1, 1, size=kappa)
    beta[1] = 0.3 - beta[0]
    if abs(beta[1]) > 1.0:
        beta[0] = 0.15
        beta[1] = 0.15
    return beta


def test_certificates_constrained_path():
    rng = np.random.default_rng(3)
    n_x, n_u, kappa = 2, 1, 4
    model = make_constrained_model(rng, n_x, n_u, kappa)
    beta_star = feasible_beta(rng, kappa)
    x0 = Zonotope([0.5, -1.0], 0.25 * rng.normal(size=(n_x, 4)))
    u_prop = Zonotope([0.1], np.array([[0.4]]))
    w = Zonotope(np.zeros(n_x), 0.01 * np.eye(n_x))
    horizon = 4
    states, xi0, xi_u, xi_w = simulate_recorded(model.at(beta_star), x0, u_prop, w,
                                                horizon, 30, rng)
    res = propagate_lti(model, x0, u_prop, w, horizon, 6)
    report = certify_lti(res, beta_star, states, xi0, xi_u, xi_w)
    assert report.ok(tol=1e-6)
    assert report.max_constraint <= 1e-9
    final = res.steps[-1].fragments[0].set
    assert isinstance(final, ConstrainedZonotope)
    for i in range(0, 30, 11):
        assert contains_point(final, states[i, horizon], tol=1e-7)


def test_constrained_model_never_beats_plain_support():
    # without order reduction the constrained result has the same generators
    # plus constraints, so it is a subset of the plain result
    rng = np.random.default_rng(4)
    n_x, n_u, kappa = 2, 1, 4
    cmz = make_constrained_model(rng, n_x, n_u, kappa)
    mz = MatrixZonotope(cmz.C, cmz.generators)
    x0 = Zonotope([1.0, 0.0], 0.2 * np.eye(n_x))
    u_prop = Zonotope([0.0], np.array([[0.3]]))
    w = Zonotope(np.zeros(n_x), 0.005 * np.eye(n_x))
    horizon = 3
    res_c = propagate_lti(cmz, x0, u_prop, w, horizon, max_order=1000)
    res_p = propagate_lti(mz, x0, u_prop, w, horizon, max_order=1000)
    for k in range(horizon + 1):
        for _ in range(8):
            d = rng.normal(size=n_x)
            assert (support(res_c.steps[k].fragments[0].set, d)
                    <= support(res_p.steps[k].fragments[0].set, d) + 1e-6)


def test_replay_step_alone_reconstructs_points():
    rng = np.random.default_rng(5)
    model = make_uncertain_model(rng, 2, 1, 3)
    beta = rng.uniform(-1, 1, size=3)
    r = Zonotope(rng.normal(size=2), rng.normal(size=(2, 12)))
    u_prop = Zonotope([0.2], np.array([[0.3]]))
    w = Zonotope(np.zeros(2), 0.02 * np.eye(2))
    out, plan = propagation_step(model, r, u_prop, w, max_order=3)
    xi_r = rng.uniform(-1, 1, size=(25, 12))
    xi_u = rng.uniform(-1, 1, size=(25, 1))
    xi_w = rng.uniform(-1, 1, size=(25, 2))
    lifted = np.hstack([r.c[None, :] + xi_r @ r.G.T, u_prop.c[None, :] + xi_u @ u_prop.G.T])
    target = lifted @ model.at(beta).T + w.c[None, :] + xi_w @ w.G.T
    xi_out = replay_step(plan, xi_r, xi_u, beta, xi_w)
    assert np.all(np.abs(xi_out) <= 1.0 + 1e-9)
    rec = out.c[None, :] + xi_out @ out.G.T
    assert np.allclose(rec, target, atol=1e-9)


def test_step_output_type_rule():
    # plain state and plain model give a Zonotope; a constrained model gives a
    # ConstrainedZonotope even when it has no constraint rows, and so does a
    # constrained state or an input with constraint rows
    rng = np.random.default_rng(10)
    mz = make_uncertain_model(rng, 2, 1, 2)
    cmz0 = ConstrainedMatrixZonotope(mz.C, mz.generators, np.zeros((0, 2)), np.zeros(0))
    r = Zonotope([0.5, -0.5], 0.1 * np.eye(2))
    u_prop = Zonotope([0.0], np.array([[0.2]]))
    w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
    plain, plan = propagation_step(mz, r, u_prop, w, 10)
    assert type(plain) is Zonotope
    assert plan.cons_alpha.size == 0 and plan.beta_free
    out, plan = propagation_step(cmz0, r, u_prop, w, 10)
    assert isinstance(out, ConstrainedZonotope) and out.num_constraints == 0
    assert np.array_equal(out.G, plain.G) and np.array_equal(out.c, plain.c)
    out, _ = propagation_step(mz, r.to_constrained(), u_prop, w, 10)
    assert isinstance(out, ConstrainedZonotope) and out.num_constraints == 0
    assert np.array_equal(out.G, plain.G)
    # a constrained input with constraint rows makes the step constrained too:
    # x' = x + u from x = 0 keeps u <= -0.5, as the constrained state path does
    ident = MatrixZonotope(np.array([[1.0, 1.0]]))
    x, w1 = Zonotope([0.0]), Zonotope([0.0])
    out, plan = propagation_step(ident, x, _cut_input(), w1, 10)
    assert isinstance(out, ConstrainedZonotope) and out.num_constraints == 1
    assert plan.cons_alpha.size == 2
    assert np.isclose(support(out, [1.0]), -0.5, atol=1e-9)
    assert np.isclose(support(out, [-1.0]), 1.0, atol=1e-9)
    via_state, _ = propagation_step(ident, x.to_constrained(), _cut_input(), w1, 10)
    assert np.isclose(support(via_state, [1.0]), support(out, [1.0]), atol=1e-12)
    # without constraint rows a constrained input leaves the step plain
    out, _ = propagation_step(ident, x, Zonotope([0.0], [[1.0]]).to_constrained(), w1, 10)
    assert type(out) is Zonotope


def _cut_input():
    """U = [-1, 1] cut to u <= -0.5: one extra factor, one constraint row."""
    return halfspace_intersection(Zonotope([0.0], np.array([[1.0]])), [1.0], -0.5)


def test_certificates_through_a_constrained_input():
    rng = np.random.default_rng(12)
    n_x, kappa, horizon, n_traj = 2, 3, 4, 25
    model = make_uncertain_model(rng, n_x, 1, kappa, spread=0.03)
    beta_star = rng.uniform(-1, 1, size=kappa)
    x0 = Zonotope([0.5, -0.2], 0.2 * np.eye(n_x))
    u_prop = _cut_input()
    w = Zonotope(np.zeros(n_x), 0.01 * np.eye(n_x))
    xi0 = rng.uniform(-1, 1, size=(n_traj, n_x))
    xi_u = np.stack([sample_factors(u_prop, rng, n_traj) for _ in range(horizon)])
    xi_w = rng.uniform(-1, 1, size=(horizon, n_traj, n_x))
    states = np.empty((n_traj, horizon + 1, n_x))
    states[:, 0] = x0.c + xi0 @ x0.G.T
    for k in range(horizon):
        u = u_prop.c + xi_u[k] @ u_prop.G.T
        assert np.all(u <= -0.5 + 1e-9)
        states[:, k + 1] = np.hstack([states[:, k], u]) @ model.at(beta_star).T + xi_w[k] @ w.G.T
    res = propagate_lti(model, x0, u_prop, w, horizon, 4)
    assert all(isinstance(s.fragments[0].set, ConstrainedZonotope) for s in res.steps[1:])
    report = certify_lti(res, beta_star, states, xi0, xi_u, xi_w)
    assert report.ok(tol=1e-6)
    assert report.max_constraint <= 1e-9
    final = res.steps[-1].fragments[0].set
    for i in range(0, n_traj, 8):
        assert contains_point(final, states[i, horizon], tol=1e-7)


def test_propagate_lti_rejects_negative_horizon():
    model = MatrixZonotope(np.ones((1, 2)))
    with pytest.raises(ValueError, match="horizon"):
        propagate_lti(model, Zonotope([0.0]), Zonotope([0.0]), Zonotope([0.0]), -1, 10)


def test_propagate_pwa_rejects_negative_horizon():
    model = MatrixZonotope(np.ones((1, 2)))
    with pytest.raises(ValueError, match="horizon"):
        propagate_pwa([model], LINEAR, Zonotope([0.0]), Zonotope([0.0]), Zonotope([0.0]), -1, 10)


def test_uncut_pieces_skip_the_emptiness_lp(monkeypatch):
    # a one-mode region that holds every reachable set never cuts, so no
    # piece needs an emptiness LP, and the result is the linear one
    rng = np.random.default_rng(14)
    model = make_constrained_model(rng, 2, 1, 4)
    x0 = Zonotope([0.5, -1.0], 0.2 * np.eye(2))
    u_prop = Zonotope([0.1], np.array([[0.4]]))
    w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
    wide = PwaSpec([PwaMode(region=[Halfspace([1.0, 0.0], 1e6)])])
    calls = []
    monkeypatch.setattr(reach, "is_empty", lambda z: calls.append(z) or False)
    res = propagate_pwa([model], wide, x0, u_prop, w, 4, 6)
    assert calls == []
    lti = propagate_lti(model, x0, u_prop, w, 4, 6)
    for k in range(1, 5):
        (frag,), (ref,) = res.steps[k].fragments, lti.steps[k].fragments
        assert frag.mode == ref.mode == 0 and frag.parent == 0 and frag.split == (("pass",),)
        assert isinstance(frag.set, ConstrainedZonotope) and frag.set.num_constraints > 0
        assert np.array_equal(frag.set.G, ref.set.G) and np.array_equal(frag.set.A, ref.set.A)


def test_guard_cut_emptiness_is_asked_of_the_parent(monkeypatch):
    # three guarded modes, one with a two-halfspace region, and constrained
    # models: every emptiness LP is a region query on a parent fragment, and
    # the kept children are exactly the pieces whose cut set is nonempty
    rng = np.random.default_rng(15)
    pwa = PwaSpec([
        PwaMode(region=[Halfspace([1.0, 0.0], 0.0)]),
        PwaMode(region=[Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.3)]),
        PwaMode(region=[Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], -0.3)]),
    ])
    models = [make_constrained_model(rng, 2, 1, 4) for _ in range(3)]
    x0 = halfspace_intersection(Zonotope([0.05, 0.2], 0.3 * np.eye(2)), [1.0, 1.0], 0.4)
    support(x0, np.eye(2))  # x0 now carries a basis of its own LP
    u_prop = Zonotope([0.0], np.array([[0.2]]))
    w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
    asked = []

    def recording(z, region=()):
        asked.append((z, len(region)))
        return is_empty(z, region=region)

    monkeypatch.setattr(reach, "is_empty", recording)
    with lp_counts() as counts:
        res = propagate_pwa(models, pwa, x0, u_prop, w, 3, 8)
    assert res.steps[0].fragments[0].set is not x0  # a fresh copy: no basis carried in
    assert counts["is_empty"]["calls"] == len(asked) > 0
    assert {n for _, n in asked} == {1, 2}
    for k in range(1, 4):
        parents = res.steps[k - 1].fragments
        kept = {(f.parent, f.mode) for f in res.steps[k].fragments}
        for z, _ in asked:
            assert any(z is p.set for step in res.steps for p in step.fragments)
        for fi, frag in enumerate(parents):
            for q, mode in enumerate(pwa.modes):
                piece = frag.set.copy()
                for h in mode.region:
                    piece, _ = halfspace_intersection_with_plan(piece, h.normal, h.offset)
                    if isinstance(piece, EmptySet):
                        break
                nonempty = not isinstance(piece, EmptySet) and not is_empty(piece)
                assert ((fi, q) in kept) is nonempty, (k, fi, q)


def test_replay_step_rejects_wrong_factor_width():
    rng = np.random.default_rng(11)
    model = make_uncertain_model(rng, 2, 1, 2)
    r = Zonotope([0.0, 0.0], np.eye(2))
    u_prop = Zonotope([0.0], np.array([[0.3]]))
    _, plan = propagation_step(model, r, u_prop, Zonotope(np.zeros(2)), 10)
    assert plan.p == 3
    with pytest.raises(ValueError, match="expects 3"):
        replay_step(plan, np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2), np.zeros((4, 0)))


def test_replay_split_factor_is_valid():
    rng = np.random.default_rng(6)
    z = Zonotope(rng.normal(size=2), rng.normal(size=(2, 5)))
    h = rng.normal(size=2)
    c = float(h @ z.c)
    cut, ev = halfspace_intersection_with_plan(z, h, c)
    assert ev[0] == "cut"
    xi = rng.uniform(-1, 1, size=(200, 5))
    pts = z.c[None, :] + xi @ z.G.T
    inside = pts @ h <= c
    xi_in = replay_split([ev], xi[inside])
    assert np.all(np.abs(xi_in) <= 1.0 + 1e-9)
    assert np.allclose(xi_in @ cut.A.T, cut.b[None, :], atol=1e-9)
    rec = cut.c[None, :] + xi_in @ cut.G.T
    assert np.allclose(rec, pts[inside], atol=1e-9)


# ---------------------------------------------------------------------------
# piecewise-affine


def one_dim_pwa():
    # x >= 0: x' = 0.5 x + u;  x < 0: x' = -0.8 x + u.  Boundary owned by mode 0.
    return PwaSpec([
        PwaMode(region=[Halfspace([-1.0], 0.0)], a=np.array([[0.5]]), b=np.array([[1.0]])),
        PwaMode(region=[Halfspace([1.0], 0.0)], a=np.array([[-0.8]]), b=np.array([[1.0]])),
    ])


def test_pwa_classify_tie_goes_to_first_declared():
    pwa = one_dim_pwa()
    assert pwa.classify(np.array([0.0])) == 0
    assert pwa.classify(np.array([1.0])) == 0
    assert pwa.classify(np.array([-0.1])) == 1
    assert np.array_equal(pwa.classify_batch(np.array([[0.0], [2.0], [-3.0]])), [0, 0, 1])


def simulate_pwa_recorded(pwa, x0, u_prop, w, horizon, n_traj, rng):
    m0, mu, pw = x0.num_generators, u_prop.num_generators, w.num_generators
    xi0 = rng.uniform(-1, 1, size=(n_traj, m0))
    x = x0.c[None, :] + xi0 @ x0.G.T
    states = np.empty((n_traj, horizon + 1, x0.dim))
    states[:, 0] = x
    xi_u = rng.uniform(-1, 1, size=(horizon, n_traj, mu))
    xi_w = rng.uniform(-1, 1, size=(horizon, n_traj, pw))
    mats = pwa.true_matrices()
    for k in range(horizon):
        u = u_prop.c[None, :] + xi_u[k] @ u_prop.G.T
        wk = w.c[None, :] + xi_w[k] @ w.G.T
        modes = pwa.classify_batch(x)
        nxt = np.empty_like(x)
        for q, (a, b) in enumerate(mats):
            sel = modes == q
            nxt[sel] = x[sel] @ a.T + u[sel] @ b.T + wk[sel]
        x = nxt
        states[:, k + 1] = x
    return states, xi0, xi_u, xi_w


def test_pwa_propagation_and_certificates():
    rng = np.random.default_rng(7)
    pwa = one_dim_pwa()
    models = [MatrixZonotope(np.hstack([a, b])) for a, b in pwa.true_matrices()]
    x0 = Zonotope([0.2], np.array([[1.0]]))  # straddles the guard
    u_prop = Zonotope([0.0], np.array([[0.1]]))
    w = Zonotope([0.0], np.array([[0.01]]))
    horizon = 4
    states, xi0, xi_u, xi_w = simulate_pwa_recorded(pwa, x0, u_prop, w, horizon, 60, rng)
    betas = [np.zeros(0), np.zeros(0)]
    res = propagate_pwa(models, pwa, x0, u_prop, w, horizon, 20)
    report = certify_pwa(res, betas, pwa, states, xi0, xi_u, xi_w)
    assert report.ok(tol=1e-6)
    counts = res.fragment_counts()
    assert counts[0] == 1
    assert all(c <= 2 ** (k or 1) for k, c in enumerate(counts))
    # lineage bookkeeping
    for k in range(1, horizon + 1):
        for f in res.steps[k].fragments:
            assert f.mode in (0, 1)
            assert 0 <= f.parent < len(res.steps[k - 1].fragments)
    # union containment, LP spot check
    for k in range(horizon + 1):
        for i in range(0, 60, 17):
            assert any(contains_point(f.set, states[i, k], tol=1e-7)
                       for f in res.steps[k].fragments)


def test_pwa_uncertain_models_still_sound():
    rng = np.random.default_rng(8)
    pwa = one_dim_pwa()
    models = []
    for a, b in pwa.true_matrices():
        gens = 0.02 * rng.normal(size=(2, 1, 2))
        models.append(MatrixZonotope(np.hstack([a, b]), gens))
    x0 = Zonotope([0.1], np.array([[0.8]]))
    u_prop = Zonotope([0.05], np.array([[0.1]]))
    w = Zonotope([0.0], np.array([[0.005]]))
    horizon = 3
    states, xi0, xi_u, xi_w = simulate_pwa_recorded(pwa, x0, u_prop, w, horizon, 40, rng)
    # true system corresponds to beta = 0 in each mode's model set
    betas = [np.zeros(2), np.zeros(2)]
    res = propagate_pwa(models, pwa, x0, u_prop, w, horizon, 25)
    report = certify_pwa(res, betas, pwa, states, xi0, xi_u, xi_w)
    assert report.ok(tol=1e-6)


def small_pwa_study(rng, horizon=2, n_traj=30):
    pwa = one_dim_pwa()
    models = [MatrixZonotope(np.hstack([a, b])) for a, b in pwa.true_matrices()]
    x0 = Zonotope([0.2], np.array([[1.0]]))  # straddles the guard
    u_prop = Zonotope([0.0], np.array([[0.1]]))
    w = Zonotope([0.0], np.array([[0.01]]))
    res = propagate_pwa(models, pwa, x0, u_prop, w, horizon, 20)
    draws = simulate_pwa_recorded(pwa, x0, u_prop, w, horizon, n_traj, rng)
    return pwa, res, draws


def test_propagate_pwa_rejects_wrong_model_count():
    pwa = one_dim_pwa()
    model = MatrixZonotope(np.ones((1, 2)))
    with pytest.raises(ValueError, match="2 modes"):
        propagate_pwa([model], pwa, Zonotope([0.0]), Zonotope([0.0]), Zonotope([0.0]), 1, 10)


def test_certificates_reject_draws_that_do_not_match_the_result():
    rng = np.random.default_rng(12)
    pwa, res, (states, xi0, xi_u, xi_w) = small_pwa_study(rng)
    betas = [np.zeros(0), np.zeros(0)]
    assert certify_pwa(res, betas, pwa, states, xi0, xi_u, xi_w).ok()
    lti = propagate_lti(MatrixZonotope(np.array([[0.5, 1.0]])), Zonotope([0.2], [[1.0]]),
                        Zonotope([0.0], [[0.1]]), Zonotope([0.0], [[0.01]]), 2, 20)
    bad = (
        (states[:, :2], xi0, xi_u, xi_w),          # one step short of the horizon
        (states, xi0[:5], xi_u, xi_w),             # trajectory count differs
        (states, xi0, xi_u[:1], xi_w),             # input draws for one step only
        (states, xi0, xi_u, xi_w[:, :5]),          # noise draws for 5 trajectories
    )
    for args in bad:
        with pytest.raises(ValueError):
            certify_pwa(res, betas, pwa, *args)
        with pytest.raises(ValueError):
            certify_lti(lti, np.zeros(0), *args)
    with pytest.raises(ValueError, match="1 factor vectors for 2 modes"):
        certify_pwa(res, betas[:1], pwa, states, xi0, xi_u, xi_w)


def test_certify_pwa_raises_when_a_trajectory_enters_a_pruned_piece():
    rng = np.random.default_rng(13)
    pwa, res, draws = small_pwa_study(rng, horizon=1)
    # drop the mode-1 child, as if that piece had been pruned as empty
    res.steps[1].fragments = [f for f in res.steps[1].fragments if f.mode != 1]
    with pytest.raises(ValueError, match="pruned"):
        certify_pwa(res, [np.zeros(0), np.zeros(0)], pwa, *draws)


def test_pwa_fragment_cap():
    pwa = one_dim_pwa()
    models = [MatrixZonotope(np.hstack([a, b])) for a, b in pwa.true_matrices()]
    x0 = Zonotope([0.0], np.array([[1.0]]))
    u_prop = Zonotope([0.0], np.array([[0.5]]))
    w = Zonotope([0.0], np.array([[0.05]]))
    with pytest.raises(ValueError):
        propagate_pwa(models, pwa, x0, u_prop, w, 4, 30, fragment_cap=2)


def test_partition_data_by_mode():
    pwa = one_dim_pwa()
    x_traj = np.array([[1.0, 0.5, -0.3, 0.0, 2.0]])
    u_traj = np.array([[0.1, 0.2, 0.3, 0.4]])
    with pytest.warns(UserWarning):  # mode 1 sees a single transition
        parts, indices = partition_data_by_mode([(x_traj, u_traj)], pwa)
    # start states 1.0, 0.5, -0.3, 0.0 -> modes 0, 0, 1, 0 (boundary to mode 0)
    assert parts[0].T == 3 and parts[1].T == 1
    assert np.allclose(parts[0].x_minus, [[1.0, 0.5, 0.0]])
    assert np.allclose(parts[0].x_plus, [[0.5, -0.3, 2.0]])
    assert np.allclose(parts[0].u_minus, [[0.1, 0.2, 0.4]])
    assert np.allclose(parts[1].x_minus, [[-0.3]])
    assert indices[0].tolist() == [0, 1, 3] and indices[1].tolist() == [2]


def test_partition_warns_on_starved_mode():
    pwa = one_dim_pwa()
    x_traj = np.array([[1.0, 0.5, 0.25]])
    u_traj = np.array([[0.0, 0.0]])
    with pytest.warns(UserWarning):
        partition_data_by_mode([(x_traj, u_traj)], pwa)


def test_model_based_reference_lti_and_pwa():
    rng = np.random.default_rng(9)
    a = 0.5 * np.eye(2)
    b = np.array([[1.0], [0.0]])
    x0 = Zonotope([1.0, 1.0], 0.1 * np.eye(2))
    u_prop = Zonotope([0.0], np.array([[0.2]]))
    w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
    ref = model_based_reference(PwaSpec([PwaMode(region=[], a=a, b=b)]), x0, u_prop, w, 3, 50)
    direct = propagate_lti(MatrixZonotope(np.hstack([a, b])), x0, u_prop, w, 3, 50)
    for k in range(4):
        for _ in range(5):
            d = rng.normal(size=2)
            assert np.isclose(ref.union_support(k, d), direct.union_support(k, d), atol=1e-10)

    pwa = one_dim_pwa()
    ref = model_based_reference(pwa, Zonotope([0.2], [[0.5]]),
                                Zonotope([0.0], [[0.1]]), Zonotope([0.0], [[0.01]]), 3, 50)
    assert ref.horizon == 3
    with pytest.raises(ValueError, match="true matrices"):
        model_based_reference(LINEAR, x0, u_prop, w, 3, 50)


def test_union_interval_hull():
    res = model_based_reference(
        one_dim_pwa(), Zonotope([0.3], [[0.6]]),
        Zonotope([0.0], [[0.1]]), Zonotope([0.0], [[0.005]]), 2, 50,
    )
    lo, hi = res.union_interval_hull(1)
    # every fragment hull sits inside the union hull
    from datareach.sets import interval_hull

    for f in res.steps[1].fragments:
        flo, fhi = interval_hull(f.set)
        assert np.all(flo >= lo - 1e-12) and np.all(fhi <= hi + 1e-12)
