"""Reachable-set propagation for piecewise-affine dynamics, linear ones
included.

One step maps the current state set R through

    R' = M (R x U) + W

where M is a (possibly constrained) matrix zonotope of models over the lifted
vector [x; u], U is the propagation input set, and W the disturbance set.
propagation_step is the one kernel for this: a plain step is the same step
with zero constraint rows.  With a plain matrix zonotope and a plain state
set the result is a zonotope; matrix-factor constraints or guard splits turn
the state sets into constrained zonotopes, whose constrained columns are
exempt from order reduction.

propagate_pwa is the one propagation loop: it splits every fragment along
the mode guards, propagates each nonempty piece through its mode's model
set, and tracks the fragment lineage.  A linear system is the one-mode case
LINEAR, whose region has no guard, so its single fragment per step passes
through uncut.

Every fragment records how it was made: the guard-split events applied to
its parent and the StepPlan of its step.  replay_step and replay_split push
explicit factor certificates for sampled trajectories through those records,
so certify_pwa checks the very sets a study emitted, one constructive
containment proof per trajectory and much cheaper than one LP per point.
propagate_lti and certify_lti are the LINEAR entries to the same two loops.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .modelset import DataSet
from .sets import (
    ConstrainedMatrixZonotope,
    ConstrainedZonotope,
    EmptySet,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    girard,
    halfspace_intersection_with_plan,
    interval_hull,
    is_empty,
    support,
)


# ---------------------------------------------------------------------------
# results


@dataclass
class StepPlan:
    """Replay data for one propagation step.

    The free block is [alpha[:, free_alpha], beta (if beta_free), gamma, W];
    kept indexes its columns that survive the reduction (kept_cols), and
    box_rows / box_radii give the box columns that cover the rest.
    """

    model: MatrixZonotope
    c_lift: np.ndarray
    g_lift: np.ndarray
    w_g: np.ndarray
    cons_alpha: np.ndarray      # alpha columns whose factors carry constraints
    free_alpha: np.ndarray
    beta_free: bool             # beta block unconstrained, hence in the free block
    kept: np.ndarray
    kept_cols: np.ndarray
    box_rows: np.ndarray
    box_radii: np.ndarray

    @property
    def p(self):
        """Factor count of the lifted set R x U."""
        return self.g_lift.shape[1]


@dataclass
class Fragment:
    """One piece of a reachable set: its set, the mode whose model it went
    through (None for the initial set; 0 at every later step of a linear
    system, which has one model), the index of its parent fragment at the
    previous step, the guard-split events that cut the parent, and the plan
    of the step that produced the set."""

    set: object
    mode: object = None
    parent: int = -1
    split: tuple = ()
    plan: StepPlan = None


@dataclass
class StepRecord:
    """The fragments of one step; each carries the guard-split events and
    the StepPlan that produced it, which is what the certificates replay."""

    fragments: list


@dataclass
class ReachResult:
    """Reachable fragments per step; steps[0] holds the initial set."""

    steps: list

    @property
    def horizon(self):
        return len(self.steps) - 1

    def fragment_counts(self):
        return [len(s.fragments) for s in self.steps]

    def union_support(self, k, direction):
        """Support of the union of step k's fragments: a float for one
        direction (n,), an array for a stack of directions (m, n)."""
        vals = np.max([support(f.set, direction) for f in self.steps[k].fragments], axis=0)
        return float(vals) if np.ndim(direction) == 1 else vals

    def union_interval_hull(self, k):
        lows, highs = zip(*(interval_hull(f.set) for f in self.steps[k].fragments))
        return np.min(lows, axis=0), np.max(highs, axis=0)


# ---------------------------------------------------------------------------
# the propagation step and its replay


def propagation_step(model, r, u_prop, w, max_order):
    """R' = model (R x U) + W with order reduction; returns (set, StepPlan).

    For M = <C, {G_l}> (kappa generators) and R x U = <c, g> (p generators)
    the product M (R x U) is over-approximated with generator columns in
    three blocks:
        alpha: C @ g[:, i]     p columns, factor xi_i
        beta:  G_l @ c         kappa columns, factor beta_l
        gamma: G_l @ g[:, i]   kappa * p columns, l-major (l slow, i fast)
    The bilinear products beta_l * xi_i are relaxed to fresh gamma factors,
    which is what makes this an over-approximation.  Factor constraints of
    R x U stay on their alpha columns, matrix-factor constraints on the beta
    block; gamma and W columns are unconstrained.

    Constrained columns are never boxed.  The free block (unconstrained
    alpha, beta when the model is plain, gamma, W) is Girard-reduced to
    max(n, max_order * n) columns: the order cap governs the free block
    alone, because subtracting the constrained count would collapse the free
    budget to n once the model constraints alone exceed the cap.  Output
    columns: constrained alpha, constrained beta, reduced free block.

    The result is a Zonotope exactly when neither R nor the model is a
    constrained type and U carries no constraint rows; the constraints of a
    constrained U stay on its alpha columns like those of R.
    """
    lifted = cartesian_product(r, u_prop)
    c_lift, g_lift = lifted.c, lifted.G
    n, p = model.shape[0], g_lift.shape[1]
    kappa = model.num_generators
    model_constrained = isinstance(model, ConstrainedMatrixZonotope)
    q_m = model.num_constraints if model_constrained else 0
    if isinstance(lifted, ConstrainedZonotope):
        a_z, b_z = lifted.A, lifted.b
    else:
        a_z, b_z = np.zeros((0, p)), np.zeros(0)
    constrained = isinstance(r, ConstrainedZonotope) or model_constrained or a_z.shape[0] > 0

    center = model.C @ c_lift + w.c
    alpha = model.C @ g_lift
    beta = np.einsum("lij,j->il", model.generators, c_lift)
    gamma = np.einsum("lij,jp->lip", model.generators, g_lift)
    gamma = gamma.transpose(1, 0, 2).reshape(n, kappa * p)

    cons = np.any(a_z != 0.0, axis=0)
    cons_alpha, free_alpha = np.nonzero(cons)[0], np.nonzero(~cons)[0]
    beta_free = q_m == 0
    head = [alpha[:, cons_alpha]] + ([] if beta_free else [beta])
    free = np.hstack([alpha[:, free_alpha]] + ([beta] if beta_free else []) + [gamma, w.G])
    kept, box_rows, box_radii, free_out = girard(free, max(n, int(math.floor(max_order * n))))
    g_out = np.hstack(head + [free_out])
    plan = StepPlan(model, c_lift, g_lift, w.G, cons_alpha, free_alpha, beta_free,
                    kept, free_out[:, : kept.size], box_rows, box_radii)
    if not constrained:
        return Zonotope(center, g_out), plan

    q_z = a_z.shape[0]
    a_out = np.zeros((q_z + q_m, g_out.shape[1]))
    a_out[:q_z, : cons_alpha.size] = a_z[:, cons_alpha]
    b_out = b_z
    if q_m:
        a_out[q_z:, cons_alpha.size : cons_alpha.size + kappa] = model.A
        b_out = np.concatenate([b_z, model.b])
    return ConstrainedZonotope(center, g_out, a_out, b_out), plan


def _free_factors(plan, idx, xi_lift, beta_star, xi_w):
    """Factor values for the columns idx (sorted) of the free block."""
    p, kappa = plan.p, plan.model.num_generators
    b0 = plan.free_alpha.size
    b1 = b0 + (kappa if plan.beta_free else 0)
    b2 = b1 + kappa * p
    out = np.empty((xi_lift.shape[0], idx.size))
    for j, col in enumerate(idx):
        if col < b0:
            out[:, j] = xi_lift[:, plan.free_alpha[col]]
        elif col < b1:
            out[:, j] = beta_star[col - b0]
        elif col < b2:
            g = col - b1
            out[:, j] = beta_star[g // p] * xi_lift[:, g % p]
        else:
            out[:, j] = xi_w[:, col - b2]
    return out


def replay_step(plan, xi_state, xi_u, beta_star, xi_w):
    """Factors in the step's result for points with known factors.

    xi_state (N, m_r), xi_u (N, m_u) and xi_w (N, p_w) are the factors of N
    points of R, U and W; beta_star the factors of the member model.  Row i
    of the result reproduces M(beta_star) [x_i; u_i] + w_i in the output set.
    """
    xi_lift = np.hstack([xi_state, xi_u])
    if xi_lift.shape[1] != plan.p:
        raise ValueError(f"state and input factors have {xi_lift.shape[1]} columns, "
                         f"the step expects {plan.p}")
    n_tr = xi_lift.shape[0]
    kappa = plan.model.num_generators
    kept_f = _free_factors(plan, plan.kept, xi_lift, beta_star, xi_w)
    parts = [xi_lift[:, plan.cons_alpha]]
    if not plan.beta_free:
        parts.append(np.broadcast_to(beta_star, (n_tr, kappa)))
    parts.append(kept_f)
    if plan.box_rows.size:
        # the box factors carry what the kept free columns miss of the free
        # block's total contribution, computed in closed form
        m_beta = np.einsum("l,lij->ij", beta_star, plan.model.generators)
        fa = plan.free_alpha
        full = (xi_lift @ plan.g_lift.T) @ m_beta.T + xi_w @ plan.w_g.T
        full = full + (xi_lift[:, fa] @ plan.g_lift[:, fa].T) @ plan.model.C.T
        if plan.beta_free:
            full = full + (m_beta @ plan.c_lift)[None, :]
        resid = full - kept_f @ plan.kept_cols.T
        parts.append(resid[:, plan.box_rows] / plan.box_radii)
    return np.hstack(parts)


def replay_split(events, xi, w_floor=1e-12):
    """Push factors through a recorded guard split (list of halfspace events)."""
    for ev in events:
        if ev[0] == "pass":
            continue
        assert ev[0] == "cut"
        _, row, w, rhs = ev
        # w ~ 0 means the slice is a face; the new factor is then arbitrary
        sigma = (rhs - xi @ row) / w if abs(w) > w_floor else np.zeros(xi.shape[0])
        xi = np.hstack([xi, sigma[:, None]])
    return xi


# ---------------------------------------------------------------------------
# piecewise-affine systems


@dataclass
class Halfspace:
    """normal . x <= offset"""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float).reshape(-1)
        self.offset = float(self.offset)


@dataclass
class PwaMode:
    """One affine mode x' = a x + b u (+ w) active on the region given by the
    conjunction of halfspaces.  a and b may be None for data-driven use."""

    region: list
    a: np.ndarray = None
    b: np.ndarray = None

    def __post_init__(self):
        self.region = [h if isinstance(h, Halfspace) else Halfspace(*h) for h in self.region]
        if self.a is not None:
            self.a = np.asarray(self.a, dtype=float)
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=float)


@dataclass
class PwaSpec:
    """Modes with guard regions.  Classification is first-match over the
    declared order, with closed regions: a state exactly on a shared guard
    belongs to the earliest declared mode, so the mode owning the boundary
    must come first."""

    modes: list

    @property
    def n_modes(self):
        return len(self.modes)

    def classify(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        for q, mode in enumerate(self.modes):
            if all(h.normal @ x <= h.offset for h in mode.region):
                return q
        raise ValueError(f"state {x} matches no mode region")

    def classify_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.full(xs.shape[0], -1, dtype=int)
        for q in reversed(range(self.n_modes)):
            ok = np.ones(xs.shape[0], dtype=bool)
            for h in self.modes[q].region:
                ok &= xs @ h.normal <= h.offset
            out[ok] = q
        if np.any(out < 0):
            raise ValueError("some states match no mode region")
        return out

    def true_matrices(self):
        if any(m.a is None or m.b is None for m in self.modes):
            raise ValueError("every mode needs its true matrices a and b")
        return [(m.a, m.b) for m in self.modes]


# A linear system: one mode whose region has no guard.
LINEAR = PwaSpec([PwaMode(region=[])])


def partition_data_by_mode(trajectories, pwa):
    """Split transition data by the mode active at the start state.

    trajectories: list of (X, U) with X of shape (n_x, T_i + 1) and U of
    shape (n_u, T_i).  Returns (parts, indices): one DataSet per mode, and
    per mode the global transition index of every column (counting across
    trajectories in order).  Modes with fewer transitions than n_x + n_u
    trigger a warning.
    """
    buckets = [([], [], [], []) for _ in range(pwa.n_modes)]
    n_x = n_u = 0
    offset = 0
    for x_traj, u_traj in trajectories:
        x_traj = np.asarray(x_traj, dtype=float)
        u_traj = np.asarray(u_traj, dtype=float)
        n_x, n_u = x_traj.shape[0], u_traj.shape[0]
        modes = pwa.classify_batch(x_traj[:, :-1].T)
        for t, q in enumerate(modes):
            buckets[q][0].append(x_traj[:, t + 1])
            buckets[q][1].append(x_traj[:, t])
            buckets[q][2].append(u_traj[:, t])
            buckets[q][3].append(offset + t)
        offset += modes.size
    out = []
    indices = []
    for q, (xp, xm, um, idx) in enumerate(buckets):
        if xp:
            data = DataSet(np.column_stack(xp), np.column_stack(xm), np.column_stack(um))
        else:
            data = DataSet(np.zeros((n_x, 0)), np.zeros((n_x, 0)), np.zeros((n_u, 0)))
        if data.T < data.d:
            warnings.warn(f"mode {q}: only {data.T} transitions for {data.d} unknowns")
        out.append(data)
        indices.append(np.asarray(idx, dtype=int))
    return out, indices


def propagate_pwa(models, pwa, x0, u_prop, w, horizon, max_order, fragment_cap=256):
    """Reachable fragments of a piecewise-affine system for k = 0..horizon.

    models: one (constrained) matrix zonotope per mode, over [x; u].
    Every fragment is split along each mode region; nonempty pieces are
    propagated through that mode's model.  A piece that no guard cut is its
    parent fragment, which was kept already, so only cut pieces pay an
    emptiness LP, and that LP is asked of the parent with the cutting
    halfspaces as a region: the parent's own LP, warm from its cached
    basis.  Raises if the fragment count would exceed fragment_cap.
    """
    if len(models) != pwa.n_modes:
        raise ValueError(f"{len(models)} models for {pwa.n_modes} modes")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    # a fresh copy of a constrained x0, so that no LP of this result starts
    # from a basis that earlier queries left on the caller's set
    steps = [StepRecord([Fragment(x0.copy() if isinstance(x0, ConstrainedZonotope) else x0)])]
    for _ in range(horizon):
        children = []
        for fi, frag in enumerate(steps[-1].fragments):
            for q, mode in enumerate(pwa.modes):
                piece = frag.set
                events = []
                for h in mode.region:
                    piece, ev = halfspace_intersection_with_plan(piece, h.normal, h.offset)
                    events.append(ev)
                    if isinstance(piece, EmptySet):
                        break
                if isinstance(piece, EmptySet):
                    continue
                cuts = [(h.normal, h.offset) for h, ev in zip(mode.region, events)
                        if ev[0] == "cut"]
                if cuts and is_empty(frag.set, region=cuts):
                    continue
                new_set, plan = propagation_step(models[q], piece, u_prop, w, max_order)
                children.append(Fragment(new_set, mode=q, parent=fi, split=tuple(events),
                                         plan=plan))
        if not children:
            raise ValueError("all fragments became empty; check the mode regions")
        if len(children) > fragment_cap:
            raise ValueError(f"fragment count {len(children)} exceeds cap {fragment_cap}")
        steps.append(StepRecord(children))
    return ReachResult(steps)


def propagate_lti(model, x0, u_prop, w, horizon, max_order):
    """Reachable sets of x' = M [x; u] + w for k = 0..horizon: propagate_pwa
    with the one model over the unguarded mode LINEAR."""
    return propagate_pwa([model], LINEAR, x0, u_prop, w, horizon, max_order)


def model_based_reference(pwa, x0, u_prop, w, horizon, max_order):
    """Propagation with the true dynamics as singleton model sets.

    pwa: a PwaSpec whose modes carry their true matrices; a linear system is
    one mode with an empty region.
    """
    models = [MatrixZonotope(np.hstack([a, b])) for a, b in pwa.true_matrices()]
    return propagate_pwa(models, pwa, x0, u_prop, w, horizon, max_order)


# ---------------------------------------------------------------------------
# trajectory certificates


@dataclass
class CertificateReport:
    """Worst-case evidence over all trajectories and steps.

    A sound run has max_factor <= 1 + tol, max_constraint ~ 0, and
    max_point_error ~ 0 (reconstruction matches the simulated states).
    """

    max_factor: float
    max_constraint: float
    max_point_error: float
    n_trajectories: int
    n_steps: int

    def ok(self, tol=1e-6):
        return (self.max_factor <= 1.0 + tol
                and self.max_constraint <= tol
                and self.max_point_error <= tol)


def _check_step(rset, xi, states_k, report):
    report["max_factor"] = max(report["max_factor"], float(np.max(np.abs(xi))) if xi.size else 0.0)
    rec = rset.c[None, :] + xi @ rset.G.T
    report["max_point_error"] = max(report["max_point_error"],
                                    float(np.max(np.abs(rec - states_k))))
    if isinstance(rset, ConstrainedZonotope) and rset.num_constraints:
        res = xi @ rset.A.T - rset.b[None, :]
        report["max_constraint"] = max(report["max_constraint"], float(np.max(np.abs(res))))


def _certificate_inputs(result, states, xi0, xi_u, xi_w):
    """The recorded draws as arrays, checked against the result's horizon
    and the trajectory count."""
    states, xi0, xi_u, xi_w = (np.asarray(a, dtype=float) for a in (states, xi0, xi_u, xi_w))
    n_traj, horizon = states.shape[0], result.horizon
    if states.ndim != 3 or states.shape[1] != horizon + 1:
        raise ValueError(f"states must be (N, {horizon + 1}, n_x), got {states.shape}")
    if xi0.ndim != 2 or xi0.shape[0] != n_traj:
        raise ValueError(f"xi0 must be ({n_traj}, m0), got {xi0.shape}")
    for name, xi in (("xi_u", xi_u), ("xi_w", xi_w)):
        if xi.ndim != 3 or xi.shape[:2] != (horizon, n_traj):
            raise ValueError(f"{name} must be ({horizon}, {n_traj}, m), got {xi.shape}")
    return states, xi0, xi_u, xi_w


def _report(worst, states):
    return CertificateReport(worst["max_factor"], worst["max_constraint"],
                             worst["max_point_error"], states.shape[0], states.shape[1] - 1)


def certify_pwa(result, beta_stars, pwa, states, xi0, xi_u, xi_w):
    """Constructive containment certificates for simulated trajectories.

    result: the propagate_pwa result whose sets are certified.  states:
    (N, horizon+1, n_x) simulated with recorded factor draws xi0 (N, m0),
    xi_u (horizon, N, m_u), xi_w (horizon, N, p_w); beta_stars holds one
    model-set factor vector per mode, recovered from the data noise (empty
    for singleton models).  Each trajectory follows its own fragment
    lineage: at step k its state's mode selects the child fragment, the
    guard-split events append the slice factors, and the recorded step plan
    pushes the rest.  Raises ValueError when a trajectory enters a piece
    that propagation pruned as empty.
    """
    states, xi0, xi_u, xi_w = _certificate_inputs(result, states, xi0, xi_u, xi_w)
    if len(beta_stars) != pwa.n_modes:
        raise ValueError(f"{len(beta_stars)} factor vectors for {pwa.n_modes} modes")
    beta_stars = [np.asarray(b, dtype=float).reshape(-1) for b in beta_stars]
    worst = {"max_factor": 0.0, "max_constraint": 0.0, "max_point_error": 0.0}
    _check_step(result.steps[0].fragments[0].set, xi0, states[:, 0, :], worst)
    # trajectory ids (sorted) and their factors, per fragment of the step
    groups = {0: (np.arange(states.shape[0]), xi0)}
    for k, step in enumerate(result.steps[1:]):
        child = {(f.parent, f.mode): ci for ci, f in enumerate(step.fragments)}
        modes_k = pwa.classify_batch(states[:, k, :])
        merged = {}
        for fi, (ids, xi_f) in groups.items():
            for q in np.unique(modes_k[ids]):
                ci = child.get((fi, int(q)))
                if ci is None:
                    raise ValueError(f"trajectory fell into a pruned fragment "
                                     f"(step {k}, parent {fi}, mode {q})")
                pick = modes_k[ids] == q
                sel = ids[pick]
                frag = step.fragments[ci]
                xi_next = replay_step(frag.plan, replay_split(frag.split, xi_f[pick]),
                                      xi_u[k][sel], beta_stars[int(q)], xi_w[k][sel])
                _check_step(frag.set, xi_next, states[sel, k + 1, :], worst)
                merged.setdefault(ci, []).append((sel, xi_next))
        groups = {}
        for ci, parts in merged.items():
            ids = np.concatenate([s for s, _ in parts])
            order = np.argsort(ids)
            groups[ci] = (ids[order], np.vstack([x for _, x in parts])[order])
    return _report(worst, states)


def certify_lti(result, beta_star, states, xi0, xi_u, xi_w):
    """certify_pwa for a propagate_lti result, whose one model has the
    factor vector beta_star."""
    return certify_pwa(result, [beta_star], LINEAR, states, xi0, xi_u, xi_w)
