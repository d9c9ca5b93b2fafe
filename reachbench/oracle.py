"""Correctness checks computed apart from the library, run outside the
timed region.

The true dynamics come from the config itself (zero-order hold through
``expm`` of the augmented matrix, or the PWA modes with a first-match rule
of our own).  Fresh trajectories are simulated with our own RNG: uniform
and vertex factor draws, plus, for every checked direction and step, the
trajectory that maximizes that direction under linear dynamics.  Those
extremal trajectories make the checks sharp: on the exact-model reference
the reported bound is attained, so a bound shrunk by a small margin fails.

Every check returns a list of failure messages; an empty list passes.
"""

import csv
import itertools
import json
import os
from collections import defaultdict

import numpy as np
from scipy.linalg import expm
from scipy.spatial import ConvexHull

TOL = 1e-6
N_RANDOM = 400


# ---------------------------------------------------------------------------
# the true system, simulated independently


def true_dynamics(cfg):
    """[(A, B, region)] per mode; a linear system is one mode with no region."""
    s = cfg.system
    if s["type"] == "pwa":
        return [(np.asarray(m["a"], dtype=float), np.asarray(m["b"], dtype=float),
                 [(np.asarray(h["normal"], dtype=float), float(h["offset"])) for h in m["region"]])
                for m in s["modes"]]
    if s["type"] == "continuous":
        a_c = np.asarray(s["a_c"], dtype=float)
        b_c = np.asarray(s["b_c"], dtype=float)
        n, m = b_c.shape
        aug = np.zeros((n + m, n + m))
        aug[:n, :n] = a_c
        aug[:n, n:] = b_c
        e = expm(aug * float(s["dt"]))
        return [(e[:n, :n], e[:n, n:], [])]
    return [(np.asarray(s["a"], dtype=float), np.asarray(s["b"], dtype=float), [])]


def mode_of(modes, x):
    """Index of the first declared mode whose closed region holds each row of x."""
    out = np.full(x.shape[0], -1)
    for q in reversed(range(len(modes))):
        ok = np.ones(x.shape[0], dtype=bool)
        for normal, offset in modes[q][2]:
            ok &= x @ normal <= offset
        out[ok] = q
    if np.any(out < 0):
        raise ValueError("a simulated state lies in no mode region")
    return out


def simulate(modes, cfg, xi0, xi_u, xi_w):
    """States (N, H + 1, n) for factor draws xi0 (N, m0), xi_u (H, N, mu), xi_w (H, N, mw)."""
    x0, u, w = cfg.x0, cfg.u_prop, cfg.w
    x = x0.c + xi0 @ x0.G.T
    states = [x]
    for k in range(xi_u.shape[0]):
        u_k = u.c + xi_u[k] @ u.G.T
        w_k = w.c + xi_w[k] @ w.G.T
        q = mode_of(modes, x)
        nxt = np.empty_like(x)
        for mode in np.unique(q):
            sel = q == mode
            a, b, _ = modes[mode]
            nxt[sel] = x[sel] @ a.T + u_k[sel] @ b.T + w_k[sel]
        x = nxt
        states.append(x)
    return np.stack(states, axis=1)


def _random_factors(rng, cfg, horizon):
    m0, mu, mw = cfg.x0.G.shape[1], cfg.u_prop.G.shape[1], cfg.w.G.shape[1]
    xi0 = rng.uniform(-1.0, 1.0, (N_RANDOM, m0))
    xi_u = rng.uniform(-1.0, 1.0, (horizon, N_RANDOM, mu))
    xi_w = rng.uniform(-1.0, 1.0, (horizon, N_RANDOM, mw))
    half = N_RANDOM // 2  # vertex draws press hardest on the bounds
    xi0[:half] = np.sign(xi0[:half])
    xi_u[:, :half] = np.sign(xi_u[:, :half])
    xi_w[:, :half] = np.sign(xi_w[:, :half])
    return xi0, xi_u, xi_w


def _extremal_factors(a, b, cfg, horizon, targets):
    """Factors of the trajectories maximizing d . x_k, one per (k, d) target,
    under x' = a x + b u + w.  Factors after step k are zero."""
    g0, gu, gw = cfg.x0.G, cfg.u_prop.G, cfg.w.G
    n_t = len(targets)
    xi0 = np.zeros((n_t, g0.shape[1]))
    xi_u = np.zeros((horizon, n_t, gu.shape[1]))
    xi_w = np.zeros((horizon, n_t, gw.shape[1]))
    powers = [np.eye(a.shape[0])]
    for _ in range(horizon):
        powers.append(a @ powers[-1])
    for i, (k, d) in enumerate(targets):
        xi0[i] = np.sign(d @ powers[k] @ g0)
        for j in range(k):
            p = d @ powers[k - 1 - j]
            xi_u[j, i] = np.sign(p @ b @ gu)
            xi_w[j, i] = np.sign(p @ gw)
    return xi0, xi_u, xi_w


def trajectories(cfg, rng, targets, dynamics=None):
    """Random trajectories plus the extremal ones for targets [(k, d)].

    Extremal factors are chosen under the dynamics of the mode holding the
    initial centre; every trajectory is then simulated with the true
    (possibly piecewise) system, so all of them are genuine.
    """
    modes = dynamics or true_dynamics(cfg)
    a, b, _ = modes[mode_of(modes, cfg.x0.c[None, :])[0]]
    h = cfg.horizon
    rand = simulate(modes, cfg, *_random_factors(rng, cfg, h))
    if not targets:
        return rand
    ext = simulate(modes, cfg, *_extremal_factors(a, b, cfg, h, targets))
    return np.concatenate([rand, ext])


def linear_reach(a, b, cfg, k):
    """Centre and generators of the exact reachable set at step k."""
    x0, u, w = cfg.x0, cfg.u_prop, cfg.w
    p = np.linalg.matrix_power(a, k)
    c = p @ x0.c
    gens = [p @ x0.G]
    for j in range(k):
        pj = np.linalg.matrix_power(a, k - 1 - j)
        c = c + pj @ (b @ u.c + w.c)
        gens += [pj @ b @ u.G, pj @ w.G]
    return c, np.hstack(gens)


# ---------------------------------------------------------------------------
# reading emitted files without the library


def decode_array(a):
    """Dense list or the {shape, rows, cols, vals} triplet form of the set files."""
    if isinstance(a, dict):
        out = np.zeros(tuple(a["shape"]))
        out[np.asarray(a["rows"], dtype=int), np.asarray(a["cols"], dtype=int)] = a["vals"]
        return out
    return np.asarray(a, dtype=float)


def load_set(out_dir, combo, k):
    """(c, G) of the single fragment in sets/<combo>/step<k>.json."""
    with open(os.path.join(out_dir, "sets", combo, f"step{k}.json")) as f:
        s = json.load(f)["fragments"][0]["set"]
    return np.asarray(s["c"], dtype=float), decode_array(s["G"])


def load_polygons(out_dir, combo, dims):
    """{(step, fragment): vertices} from polygons/<combo>_<i>-<j>.csv."""
    polys = defaultdict(list)
    path = os.path.join(out_dir, "polygons", f"{combo}_{dims[0]}-{dims[1]}.csv")
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            polys[(int(row["step"]), int(row["fragment"]))].append((float(row["x"]), float(row["y"])))
    return {key: np.asarray(v) for key, v in polys.items()}


# ---------------------------------------------------------------------------
# geometry


def shoelace(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def outside_polygon(v, pts):
    """Largest distance by which a point lies outside the convex hull of v.

    The hull, not the vertex list: support lines that meet almost at one
    point leave edges whose direction is LP rounding, and a vertex a hair
    inside its neighbours would make the list non-convex.
    """
    eq = ConvexHull(v).equations  # unit normals, normal . x + offset <= 0 inside
    return float(np.max(pts @ eq[:, :2].T + eq[:, 2]))


def zonotope_area(g2):
    """4 * sum_{i<j} |det[g_i g_j]| for 2-D generators g2 (2 x m)."""
    cross = np.outer(g2[0], g2[1]) - np.outer(g2[1], g2[0])
    return 2.0 * float(np.abs(cross).sum())  # every unordered pair appears twice


def zonotope_volume(g, chunk=20_000):
    """2^n * sum over n-column subsets of |det|, by plain enumeration."""
    n, m = g.shape
    gt = g.T
    total = 0.0
    subsets = itertools.combinations(range(m), n)
    while True:
        idx = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, chunk)),
                          dtype=np.intp)
        if idx.size == 0:
            break
        total += float(np.abs(np.linalg.det(gt[idx.reshape(-1, n)])).sum())
    return 2.0**n * total


def _polygon_targets(a, b, cfg, dims):
    """Directions in the plane of dims that select every vertex of the
    projected exact reachable set: each edge normal tilted both ways."""
    targets = []
    i, j = dims[0] - 1, dims[1] - 1
    for k in range(1, cfg.horizon + 1):
        _, g = linear_reach(a, b, cfg, k)
        for gx, gy in zip(g[i], g[j]):
            base = np.arctan2(gx, -gy)
            for tilt in (-1e-3, 1e-3, np.pi - 1e-3, np.pi + 1e-3):
                d = np.zeros(cfg.x0.dim)
                d[i], d[j] = np.cos(base + tilt), np.sin(base + tilt)
                targets.append((k, d))
    return targets


def _unit_directions(rng, count, dim):
    d = rng.normal(size=(count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# per-workload checks


def check_lti_cmz(cfg, report, out_dir, rng, dynamics=None):
    """Supports bound every state in every reported direction; the exact
    reference is within the constrained set; polygons hold the states."""
    modes = dynamics or true_dynamics(cfg)
    a, b, _ = modes[0]
    h = cfg.horizon
    dirs = np.asarray(report["support_directions"])
    dims = cfg.projection_dims[0]
    targets = [(k, d) for k in range(1, h + 1) for d in dirs]
    targets += _polygon_targets(a, b, cfg, dims)
    states = trajectories(cfg, rng, targets, modes)
    fails = []
    combos = report["combos"]
    reach = np.einsum("tkn,dn->tkd", states, dirs).max(axis=0)
    for combo in combos:
        sup = np.asarray(report["supports"][combo])
        excess = reach - sup - TOL * np.maximum(1.0, np.abs(sup))
        if np.max(excess) > 0.0:
            fails.append(f"{combo}: a state exceeds a reported support by {np.max(reach - sup):.3e}")
    for combo in combos:
        gap = np.max(np.asarray(report["supports"]["model"]) - np.asarray(report["supports"][combo]))
        if gap > TOL:
            fails.append(f"reference support exceeds the {combo} one by {gap:.3e}")
    for combo in combos:
        polys = load_polygons(out_dir, combo, dims)
        for k in range(h + 1):
            pts = states[:, k, [dims[0] - 1, dims[1] - 1]]
            out = outside_polygon(polys[(k, 0)], pts)
            if out > TOL:
                fails.append(f"{combo} step {k}: a state lies {out:.3e} outside the polygon")
    return fails


def check_lti_volume(cfg, report, out_dir, rng, dynamics=None):
    """States lie inside every emitted plain set; exact polygons have the
    area of their generators; the reference volume row recomputes."""
    modes = dynamics or true_dynamics(cfg)
    a, b, _ = modes[0]
    h = cfg.horizon
    dirs = _unit_directions(rng, 32, cfg.x0.dim)
    targets = [(k, d) for k in range(1, h + 1) for d in dirs]
    states = trajectories(cfg, rng, targets, modes)
    fails = []
    for combo in report["combos"]:
        for k in range(h + 1):
            c, g = load_set(out_dir, combo, k)
            sup = dirs @ c + np.abs(dirs @ g).sum(axis=1)
            excess = np.max((states[:, k] @ dirs.T).max(axis=0) - sup)
            if excess > TOL * max(1.0, float(np.max(np.abs(sup)))):
                fails.append(f"{combo} step {k}: a state lies {excess:.3e} outside the set")
            for dims in cfg.projection_dims:
                poly = load_polygons(out_dir, combo, dims)[(k, 0)]
                want = zonotope_area(g[[dims[0] - 1, dims[1] - 1]])
                got = abs(shoelace(poly))
                if abs(got - want) > 1e-9 * want + 1e-15:
                    fails.append(f"{combo} step {k} dims {dims}: polygon area {got:.12e} "
                                 f"!= generator area {want:.12e}")
    table = {row["method"]: row for row in report["volume_table"]}
    _, g = linear_reach(a, b, cfg, report["volume_step"])
    if g.shape[1] <= cfg.max_order * cfg.x0.dim:  # the library reduces larger ones first
        want = zonotope_volume(g)
        got = table["model"]["volume"]
        if abs(got - want) > 1e-9 * want:
            fails.append(f"reference volume {got:.12e} != recomputed {want:.12e}")
    else:
        fails.append("reference set too large to recompute its volume row")
    base = table["model"]["volume"]
    for method, row in table.items():
        if abs(row["ratio"] - row["volume"] / base) > 1e-12 * abs(row["ratio"]):
            fails.append(f"{method}: ratio does not match its volumes")
    return fails


def check_pwa(cfg, report, rng, dynamics=None):
    """States lie inside the union interval hull at every step; fragment
    counts stay within 2^k."""
    modes = dynamics or true_dynamics(cfg)
    n = cfg.x0.dim
    targets = [(k, s * np.eye(n)[i]) for k in range(1, cfg.horizon + 1)
               for i in range(n) for s in (1.0, -1.0)]
    states = trajectories(cfg, rng, targets, modes)
    fails = []
    for combo in report["combos"]:
        for k, hull in enumerate(report["interval_hulls"][combo]):
            low, high = np.asarray(hull["low"]), np.asarray(hull["high"])
            out = max(np.max(low - states[:, k]), np.max(states[:, k] - high))
            if out > TOL * max(1.0, float(np.max(np.abs(np.r_[low, high])))):
                fails.append(f"{combo} step {k}: a state lies {out:.3e} outside the hull")
        counts = report["fragment_counts"][combo]
        if any(c > 2**k for k, c in enumerate(counts)):
            fails.append(f"{combo}: fragment counts {counts} exceed 2^k")
    return fails


def check_model_sets(cfg, outputs, dynamics=None):
    """The pseudoinverse is the Moore-Penrose right inverse of the data, and
    the realized noise factors satisfy the constraints and rebuild [A B]."""
    a, b, _ = (dynamics or true_dynamics(cfg))[0]
    ab = np.hstack([a, b])
    fails = []
    for mode, (trajs, xi_w, built) in outputs.per_mode.items():
        x_minus = np.hstack([s[:, :-1] for s, _ in trajs])
        u_minus = np.hstack([u for _, u in trajs])
        phi = np.vstack([x_minus, u_minus])
        beta = np.asarray(xi_w).T.reshape(-1)  # factor l = t * p_w + j
        if np.max(np.abs(beta)) > 1.0 + 1e-12:
            fails.append(f"{mode}: realized noise factor outside [-1, 1]")
        for rinv, (h, bundle) in built.items():
            res = np.max(np.abs(phi @ h - np.eye(phi.shape[0])))
            if res > 1e-8:
                fails.append(f"{mode}/{rinv}: Phi H - I = {res:.3e}")
            own = np.linalg.pinv(phi)
            if np.max(np.abs(h - own)) > 1e-9 * np.max(np.abs(own)):
                fails.append(f"{mode}/{rinv}: H differs from the pseudoinverse by "
                             f"{np.max(np.abs(h - own)):.3e}")
            for label, mset in (("mz", bundle.mz), ("cmz", bundle.cmz)):
                rebuilt = mset.C + np.einsum("l,lij->ij", beta, mset.generators)
                err = np.max(np.abs(rebuilt - ab))
                if err > 1e-7:
                    fails.append(f"{mode}/{rinv}/{label}: beta* rebuilds [A B] only to {err:.3e}")
            cons = np.max(np.abs(bundle.cmz.A @ beta - bundle.cmz.b)) if bundle.cmz.b.size else 0.0
            if cons > 1e-9:
                fails.append(f"{mode}/{rinv}: A beta* - b = {cons:.3e}")
    return fails


def check_row_norm(phi, result):
    """A row-norm right inverse: Phi H = I within 1e-8, the sandwich
    ||pinv Phi||_F <= sum_t ||H_t|| <= sqrt(T) ||pinv Phi||_F, and a row-norm
    sum no larger than the pseudoinverse's."""
    fails = []
    h = result.h
    res = np.max(np.abs(phi @ h - np.eye(phi.shape[0])))
    if res > 1e-8:
        fails.append(f"row_norm: Phi H - I = {res:.3e}")
    pinv = np.linalg.pinv(phi)
    fro = float(np.linalg.norm(pinv, "fro"))
    value = float(np.linalg.norm(h, axis=1).sum())
    if not fro - 1e-9 <= value <= np.sqrt(phi.shape[1]) * fro + 1e-9:
        fails.append(f"row_norm: sum {value:.6e} outside the sandwich [{fro:.6e}, sqrt(T) {fro:.6e}]")
    pinv_sum = float(np.linalg.norm(pinv, axis=1).sum())
    if value > pinv_sum * (1.0 + 1e-6):
        fails.append(f"row_norm: sum {value:.6e} exceeds the pseudoinverse's {pinv_sum:.6e}")
    return fails
