"""Property tests: soundness of the one propagation loop on random systems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from datareach.modelset import build_model_sets
from datareach.reach import (
    Halfspace,
    PwaMode,
    PwaSpec,
    certify_pwa,
    partition_data_by_mode,
    propagate_pwa,
)
from datareach.rightinv import pinv_right_inverse
from datareach.sets import Zonotope


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
    """per_mode one-step transitions starting in each mode, with the noise
    factors of every transition (p_w, T)."""
    n_x, n_u = pwa.modes[0].b.shape
    trajectories, xi_w = [], []
    for q in range(pwa.n_modes):
        for _ in range(per_mode):
            x = rng.uniform(-2.0, 2.0, n_x)
            if pwa.classify(x) != q:
                x = -x
            u = rng.uniform(-1.0, 1.0, n_u)
            xiw = rng.uniform(-1.0, 1.0, w.num_generators)
            a, b = pwa.modes[q].a, pwa.modes[q].b
            x_next = a @ x + b @ u + w.G @ xiw
            trajectories.append((np.column_stack([x, x_next]), u[:, None]))
            xi_w.append(xiw)
    return trajectories, np.column_stack(xi_w)


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


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n_x=st.integers(1, 3), n_u=st.integers(1, 2), n_modes=st.integers(1, 2),
       horizon=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_certificates_hold_for_data_consistent_cmz_models(n_x, n_u, n_modes, horizon, seed):
    rng = np.random.default_rng(seed)
    pwa = random_pwa(rng, n_x, n_u, n_modes)
    w = Zonotope(np.zeros(n_x), 0.02 * np.eye(n_x))
    trajectories, xi_w = one_step_data(rng, pwa, w, per_mode=3 * (n_x + n_u))
    parts, indices = partition_data_by_mode(trajectories, pwa)
    models, betas = [], []
    for part, idx in zip(parts, indices):
        assert part.T >= part.d
        models.append(build_model_sets(part, w.G, pinv_right_inverse(part.phi).h).cmz)
        # the true model's factors: the realized noise, t-major
        betas.append(xi_w[:, idx].T.reshape(-1))
    x0 = Zonotope(rng.uniform(-0.5, 0.5, n_x), 0.3 * rng.normal(size=(n_x, n_x)))
    u_prop = Zonotope(np.zeros(n_u), 0.2 * np.eye(n_u))
    res = propagate_pwa(models, pwa, x0, u_prop, w, horizon, max_order=5)
    draws = simulate(pwa, x0, u_prop, w, horizon, 40, rng)
    assert certify_pwa(res, betas, pwa, *draws).ok()
