"""Randomized invariant suite over the library's core guarantees.

Every check draws fresh problems from its own stream of one suite seed,
exercises an invariant the rest of the code relies on (set operations
over-approximate, reductions only grow sets, solver certificates hold),
and reports the worst violation it saw.  run_selfcheck bundles them into
one deterministic report; the whole suite is sized to finish well under
a minute.
"""

import time

import numpy as np

from .inputdesign import delta_A, info_init, info_update
from .linalg import svd
from .modelset import DataSet, build_model_sets
from .rightinv import pinv_right_inverse, row_norm_right_inverse, verify_sandwich
from .sets import (
    Zonotope,
    cartesian_product,
    contains_point,
    halfspace_intersection,
    interval_hull,
    linear_map,
    minkowski_sum,
    reduce_girard,
    sample_factors,
    support,
    volume,
)

# stream ids for the per-check rngs
_STREAMS = {
    "minkowski": 10,
    "product": 11,
    "linear_map": 12,
    "girard": 13,
    "volume_mc": 14,
    "split_cover": 15,
    "info_update": 16,
    "right_inverse": 17,
    "kernel": 18,
}


def _rng(seed, name):
    return np.random.default_rng([seed, _STREAMS[name]])


def _random_zonotope(rng, dim, n_gens, scale=1.0):
    c = rng.uniform(-1.0, 1.0, dim)
    g = rng.uniform(-scale, scale, (dim, n_gens))
    return Zonotope(c, g)


def _point_of(z, rng):
    return z.c + z.G @ rng.uniform(-1.0, 1.0, z.num_generators)


def check_minkowski_containment(seed, trials=200):
    """p + q stays inside the Minkowski sum for sampled members p, q."""
    rng = _rng(seed, "minkowski")
    failures = 0
    for _ in range(trials):
        dim = int(rng.integers(2, 6))
        a = _random_zonotope(rng, dim, int(rng.integers(1, 7)))
        b = _random_zonotope(rng, dim, int(rng.integers(1, 7)))
        if not contains_point(minkowski_sum(a, b), _point_of(a, rng) + _point_of(b, rng), 1e-7):
            failures += 1
    return {"name": "minkowski_containment", "trials": trials,
            "failures": failures, "ok": failures == 0}


def check_product_containment(seed, trials=200):
    """(p, q) stays inside the Cartesian product of its parts."""
    rng = _rng(seed, "product")
    failures = 0
    for _ in range(trials):
        a = _random_zonotope(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        b = _random_zonotope(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        p = np.concatenate([_point_of(a, rng), _point_of(b, rng)])
        if not contains_point(cartesian_product(a, b), p, 1e-7):
            failures += 1
    return {"name": "product_containment", "trials": trials,
            "failures": failures, "ok": failures == 0}


def check_linear_map_containment(seed, trials=200):
    """M p stays inside M Z for sampled members p of Z."""
    rng = _rng(seed, "linear_map")
    failures = 0
    for _ in range(trials):
        dim = int(rng.integers(2, 6))
        rows = int(rng.integers(1, 5))
        z = _random_zonotope(rng, dim, int(rng.integers(1, 8)))
        m = rng.uniform(-2.0, 2.0, (rows, dim))
        if not contains_point(linear_map(m, z), m @ _point_of(z, rng), 1e-7):
            failures += 1
    return {"name": "linear_map_containment", "trials": trials,
            "failures": failures, "ok": failures == 0}


def check_girard_dominance(seed, trials=20, n_dirs=64):
    """Order reduction never shrinks the support in any probed direction."""
    rng = _rng(seed, "girard")
    worst = -np.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 6))
        z = _random_zonotope(rng, dim, int(rng.integers(3 * dim, 7 * dim)))
        red = reduce_girard(z, float(rng.uniform(1.0, 3.0)))
        dirs = rng.normal(size=(n_dirs, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for d in dirs:
            worst = max(worst, support(z, d) - support(red, d))
    return {"name": "girard_dominance", "trials": trials, "directions": n_dirs,
            "worst_gap": float(worst), "ok": worst <= 1e-9}


def _facet_normals(g):
    # facet normals of a full-rank zonotope: perpendiculars (2-D) or
    # pairwise cross products (3-D) of its generators
    dim, m = g.shape
    if dim == 2:
        normals = np.column_stack([-g[1], g[0]]).reshape(m, 2)
    else:
        normals = np.array([np.cross(g[:, i], g[:, j])
                            for i in range(m) for j in range(i + 1, m)])
    keep = np.linalg.norm(normals, axis=1) > 1e-9
    return normals[keep]


def check_volume_monte_carlo(seed, n_samples=60_000, rtol=0.05):
    """Exact determinant-sum volume against hit-or-miss estimates (n <= 3)."""
    rng = _rng(seed, "volume_mc")
    worst = 0.0
    cases = 0
    for dim in (2, 3):
        for _ in range(3):
            z = _random_zonotope(rng, dim, dim + int(rng.integers(1, 4)))
            normals = _facet_normals(z.G)
            radii = np.sum(np.abs(normals @ z.G), axis=1)
            low, high = interval_hull(z)
            pts = rng.uniform(low, high, (n_samples, dim))
            inside = np.all(np.abs((pts - z.c) @ normals.T) <= radii + 1e-12, axis=1)
            estimate = float(np.prod(high - low)) * float(np.mean(inside))
            exact = volume(z)
            worst = max(worst, abs(estimate - exact) / exact)
            cases += 1
    return {"name": "volume_monte_carlo", "cases": cases, "samples": n_samples,
            "worst_relative_error": float(worst), "ok": worst <= rtol}


def check_split_cover(seed, trials=20, points=10):
    """The two halves of a halfspace split jointly cover the original set."""
    rng = _rng(seed, "split_cover")
    failures = 0
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        z = _random_zonotope(rng, dim, int(rng.integers(dim, 2 * dim + 3)))
        h = rng.normal(size=dim)
        h /= np.linalg.norm(h)
        radius = float(np.sum(np.abs(h @ z.G)))
        off = float(h @ z.c + rng.uniform(-0.5, 0.5) * radius)
        below = halfspace_intersection(z, h, off)
        above = halfspace_intersection(z, -h, -off)
        for xi in sample_factors(z, rng, points):
            p = z.c + z.G @ xi
            part = below if float(h @ p) <= off else above
            if not contains_point(part, p, 1e-7):
                failures += 1
    return {"name": "split_cover", "trials": trials, "points_per_trial": points,
            "failures": failures, "ok": failures == 0}


def check_info_update(seed, dim=8, updates=50):
    """Maintained inverse and predicted trace decrease stay exact."""
    rng = _rng(seed, "info_update")
    state = info_init(dim)
    worst_inv, worst_dec = 0.0, 0.0
    for _ in range(updates):
        s = rng.normal(size=dim)
        predicted = delta_A(state, s[: dim // 2], s[dim // 2 :])
        new = info_update(state, s)
        worst_inv = max(worst_inv, float(np.linalg.norm(
            new.s_inv - np.linalg.inv(new.s_matrix), "fro")))
        worst_dec = max(worst_dec, abs(state.trace_inverse - new.trace_inverse - predicted))
        state = new
    return {"name": "info_update", "updates": updates,
            "worst_inverse_drift": worst_inv, "worst_decrease_error": worst_dec,
            "ok": worst_inv <= 1e-8 and worst_dec <= 1e-10}


def check_right_inverse(seed, trials=5):
    """Identity residual and the row-norm bounds on random regressors."""
    rng = _rng(seed, "right_inverse")
    worst_res, sandwich_ok = 0.0, True
    for _ in range(trials):
        d = int(rng.integers(3, 7))
        t = d * int(rng.integers(4, 9))
        phi = rng.normal(size=(d, t))
        res = row_norm_right_inverse(phi)
        worst_res = max(worst_res, float(np.max(np.abs(phi @ res.h - np.eye(d)))))
        sandwich_ok &= verify_sandwich(phi, res).holds
    return {"name": "right_inverse", "trials": trials,
            "worst_identity_residual": worst_res,
            "ok": sandwich_ok and worst_res <= 1e-6}


def check_kernel_consistency(seed):
    """The realized noise factors satisfy the model-set constraints and
    reproduce the generating matrices exactly; the null-space basis N is
    one (Phi N = 0) and is sparse, so a kernel row has at most
    (d + 1) nnz(G_w row) nonzeros."""
    rng = _rng(seed, "kernel")
    n_x, n_u, t = 3, 2, 40
    truth = rng.uniform(-0.5, 0.5, (n_x, n_x + n_u))
    phi = rng.uniform(-1.0, 1.0, (n_x + n_u, t))
    g_w = 0.01 * np.eye(n_x)
    xi = rng.uniform(-1.0, 1.0, (n_x, t))
    x_plus = truth @ phi + g_w @ xi
    data = DataSet(x_plus, phi[:n_x], phi[n_x:])
    beta = xi.T.reshape(-1)
    worst, row_nnz = 0.0, 0
    for solver in (pinv_right_inverse, row_norm_right_inverse):
        cmz = build_model_sets(data, g_w, solver(phi).h).cmz
        worst = max(worst, float(np.max(np.abs(cmz.A @ beta - cmz.b))))
        model = cmz.C + np.einsum("l,lnm->nm", beta, cmz.generators)
        worst = max(worst, float(np.max(np.abs(model - truth))))
        row_nnz = max(row_nnz, int(np.max(np.count_nonzero(cmz.A, axis=1))))
    null_residual = float(np.max(np.abs(phi @ svd(phi).null)))
    nnz_bound = (n_x + n_u + 1) * int(np.max(np.count_nonzero(g_w, axis=1)))
    return {"name": "kernel_consistency", "worst_error": worst,
            "max_row_nonzeros": row_nnz, "null_residual": null_residual,
            "ok": worst <= 1e-7 and row_nnz <= nnz_bound and null_residual <= 1e-9}


_CHECKS = (
    check_minkowski_containment,
    check_product_containment,
    check_linear_map_containment,
    check_girard_dominance,
    check_volume_monte_carlo,
    check_split_cover,
    check_info_update,
    check_right_inverse,
    check_kernel_consistency,
)


def run_selfcheck(seed=0):
    """Run every registered check; report is deterministic for a seed."""
    t0 = time.perf_counter()
    checks = [fn(seed) for fn in _CHECKS]
    return {
        "seed": seed,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "runtime_s": time.perf_counter() - t0,
    }
