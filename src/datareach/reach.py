"""Reachable-set propagation for piecewise-affine dynamics, linear ones
included.

One step maps the current state set R through

    R' = M (R x U) + W

where M is a matrix zonotope of models over the lifted vector [x; u], U is
the propagation input set, and W the disturbance set.  propagation_step is
the one kernel for this.  The constraint rows of R and U carry over to R',
and so do the model's rows, but only the first time a set's lineage goes
through that model: its constrained factors beta then form a block of
columns after the constrained state columns, and every later step through
the same model adds its beta products into that block and appends no row.
When none of R, U and M has rows, R' has none either.  One mask marks the
product columns that rows touch, which order reduction never boxes; the
rest form the free block that it reduces.

Sharing beta makes a constrained set hold the trajectories of every fixed
member model per mode, the true system being one of them; the certificates
replay one factor vector beta* per mode, which is exactly that.  A model
without rows has no constrained beta and is drawn afresh at every step.

propagate_pwa is the one propagation loop: it splits every fragment along
the mode guards, propagates each nonempty piece through its mode's model
set, and tracks the fragment lineage.  A mode's beta block keeps the
columns of its first visit, since a step puts the constrained columns of
its result first and keeps them constrained and a guard cut only appends a
column and a row: Fragment.beta_starts records its first column per mode.
A piece is dropped when a guard split reports the "empty" event or when
is_empty finds it empty; the empty set is a Zonotope like any other
(sets.empty_set: no factors and the one row 0 = 1), so no step here tests a
set's type.  A linear system is the one-mode case LINEAR, whose region has
no guard, so its single fragment per step passes through uncut.
partition_data_by_mode splits a data set's columns by the mode of their
start state, for one model set per mode.

Every fragment records how it was made: the "cut" events of the guard
split of its parent and the StepPlan of its step.  replay_step and
replay_split push explicit factor certificates for sampled trajectories
through those records, so certify_pwa checks the very sets a study
emitted, one constructive containment proof per trajectory and much
cheaper than one LP per point.
propagate_lti and certify_lti are the LINEAR entries to the same two loops.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .modelset import DataSet
from .sets import (
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    girard,
    halfspace_intersection_with_plan,
    inherit_lp_basis,
    interval_hull,
    is_empty,
    support,
)


# ---------------------------------------------------------------------------
# results


@dataclass
class StepPlan:
    """Replay data for one propagation step.

    cons masks the constrained product columns of [alpha | beta] that lead
    the result (no beta column on a revisit of the model, which adds its
    constrained beta into the state columns that carry it); kept holds the
    product columns of [alpha | beta | gamma | W] that survive the reduction
    of the free block, in order, with their generator columns kept_cols.
    box_rows / box_radii give the box columns that cover the rest.
    """

    model: MatrixZonotope
    c_lift: np.ndarray
    g_lift: np.ndarray
    w_g: np.ndarray
    cons: np.ndarray
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
    previous step, the "cut" events of the guard split of the parent, the
    plan of the step that produced the set, and per mode the first column
    of the mode's beta block (None until the lineage enters the mode)."""

    set: object
    mode: object = None
    parent: int = -1
    split: tuple = ()
    plan: StepPlan = None
    beta_starts: tuple = ()


@dataclass
class StepRecord:
    """The fragments of one step; each carries the guard cuts and the
    StepPlan that produced it, which is what the certificates replay."""

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


def propagation_step(model, r, u_prop, w, max_order, beta_start=None):
    """R' = model (R x U) + W with order reduction; returns (set, StepPlan).

    For M = <C, {G_l}> (kappa generators) and R x U = <c, g> (p generators)
    the product M (R x U) is over-approximated with generator columns in
    four blocks, the product columns:
        alpha: C @ g[:, i]     p columns, factor xi_i
        beta:  G_l @ c         kappa columns, factor beta_l
        gamma: G_l @ g[:, i]   kappa * p columns, l-major (l slow, i fast)
        W:     the columns of w
    The bilinear products beta_l * xi_i are relaxed to fresh gamma factors,
    which is what makes this an over-approximation.

    One mask over [alpha | beta] marks the constrained columns: the nonzero
    columns of the rows of R x U on alpha and of the model's rows on beta,
    the rule the set LPs apply to their own factors.  gamma and W are never
    constrained.  Constrained columns are never boxed.  The free block (the
    rest of alpha and beta, then gamma and W) is Girard-reduced to
    max(n, max_order * n) columns: the order cap governs the free block
    alone, because subtracting the constrained count would collapse the free
    budget to n once the model constraints alone exceed the cap.  Output
    columns: constrained alpha, constrained beta, reduced free block.

    beta_start is None on the first step through the model in R's lineage:
    constrained beta then follows constrained alpha, and the result has the
    rows of R and U followed by the model's.  On a revisit beta_start is the
    first of the kappa_c columns of R that carry the kappa_c constrained beta;
    each constrained beta column is added into its alpha column there
    (C g_i + G_l c with xi_i = beta_l), and the result has the rows of R and
    U alone.  Rows of W are not kept, which only enlarges the result.  Raises
    ValueError unless beta_start is an int and that block lies in R's
    constrained columns.
    """
    lifted = cartesian_product(r, u_prop)
    c_lift, g_lift, a_z, b_z = lifted.c, lifted.G, lifted.A, lifted.b
    n, p, kappa = model.shape[0], g_lift.shape[1], model.num_generators

    center = model.C @ c_lift + w.c
    alpha = model.C @ g_lift
    beta = np.einsum("lij,j->il", model.generators, c_lift)

    cons_a, cons_b = np.any(a_z != 0.0, axis=0), np.any(model.A != 0.0, axis=0)
    new_b, a_m, b_m = cons_b, model.A, model.b
    if beta_start is not None:
        alpha[:, _beta_block(beta_start, r, cons_b)] += beta[:, cons_b]
        new_b, a_m, b_m = np.zeros_like(cons_b), model.A[:0], model.b[:0]
    cons = np.concatenate([cons_a, new_b])
    # the free block's columns as product columns of [alpha | beta | gamma | W]
    free_cols = np.concatenate([np.flatnonzero(~cons_a), p + np.flatnonzero(~cons_b),
                                np.arange(cons.size, cons.size + kappa * p + w.G.shape[1])])
    free = np.empty((n, free_cols.size))
    n_ab = free_cols.size - kappa * p - w.G.shape[1]
    free[:, : n_ab] = np.hstack([alpha[:, ~cons_a], beta[:, ~cons_b]])
    # gamma in place: the (n, kappa, p) reshape of its contiguous column
    # range is a view of free
    gamma = free[:, n_ab : n_ab + kappa * p].reshape(n, kappa, p)
    np.matmul(model.generators, g_lift, out=gamma.transpose(1, 0, 2))
    free[:, n_ab + kappa * p :] = w.G
    kept, box_rows, box_radii, free_out = girard(free, max(n, int(math.floor(max_order * n))))
    plan = StepPlan(model, c_lift, g_lift, w.G, cons, free_cols[kept],
                    free_out[:, : kept.size], box_rows, box_radii)
    g_out = np.hstack([alpha[:, cons_a], beta[:, new_b], free_out])
    q_z, n_a, n_b = a_z.shape[0], np.count_nonzero(cons_a), np.count_nonzero(new_b)
    a_out = np.zeros((q_z + a_m.shape[0], g_out.shape[1]))
    a_out[:q_z, :n_a] = a_z[:, cons_a]
    a_out[q_z:, n_a : n_a + n_b] = a_m[:, new_b]
    return Zonotope(center, g_out, a_out, np.concatenate([b_z, b_m])), plan


def _beta_block(start, r, cons_b):
    """The slice of R's columns from start that carries the constrained beta;
    ValueError unless start is an int and the slice lies in R's constrained
    columns."""
    if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
        raise ValueError(f"beta_start must be an int column index, got {start!r}")
    stop, m = start + np.count_nonzero(cons_b), r.G.shape[1]
    if start < 0 or stop > m:
        raise ValueError(f"beta block [{start}, {stop}) out of range for a set with {m} columns")
    if not np.all(np.any(r.A[:, start:stop] != 0.0, axis=0)):
        raise ValueError(f"beta block [{start}, {stop}) holds columns that are not "
                         f"constrained in the set")
    return slice(start, stop)


def _factors(plan, cols, xi_lift, beta_star, xi_w):
    """Factor values of the product columns cols of [alpha | beta | gamma | W]
    for N points: xi_lift (N, p) and xi_w (N, p_w) are their lifted and
    noise factors, beta_star the factors of the member model."""
    p, kappa = plan.p, plan.model.num_generators
    starts = np.array([0, p, p + kappa, p + kappa + kappa * p])
    block = np.searchsorted(starts, cols, side="right") - 1
    j = cols - starts[block]
    alpha, beta, gamma, w = (block == k for k in range(4))
    out = np.empty((xi_lift.shape[0], cols.size))
    out[:, alpha] = xi_lift[:, j[alpha]]
    out[:, beta] = beta_star[j[beta]]
    out[:, gamma] = beta_star[j[gamma] // p] * xi_lift[:, j[gamma] % p]
    out[:, w] = xi_w[:, j[w]]
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
    head = _factors(plan, np.flatnonzero(plan.cons), xi_lift, beta_star, xi_w)
    kept = _factors(plan, plan.kept, xi_lift, beta_star, xi_w)
    if not plan.box_rows.size:
        return np.hstack([head, kept])
    # the box factors carry what the kept free columns miss of the free
    # block's total contribution, computed in closed form
    gens = plan.model.generators
    free_a, free_b = ~plan.cons[: plan.p], ~np.any(plan.model.A != 0.0, axis=0)
    m_beta = np.einsum("l,lij->ij", beta_star, gens)
    full = (xi_lift @ plan.g_lift.T) @ m_beta.T + xi_w @ plan.w_g.T
    full = full + (xi_lift[:, free_a] @ plan.g_lift[:, free_a].T) @ plan.model.C.T
    full = full + np.einsum("l,lij->ij", beta_star[free_b], gens[free_b]) @ plan.c_lift
    resid = full - kept @ plan.kept_cols.T
    return np.hstack([head, kept, resid[:, plan.box_rows] / plan.box_radii])


_FACE_W = 1e-12


def replay_split(cuts, xi):
    """Push factors through a recorded guard split: the ("cut", row, w, rhs)
    events of halfspace_intersection_with_plan, in order, each appending one
    factor."""
    for _, row, w, rhs in cuts:
        # |w| <= _FACE_W: the slice is a face, and the new factor is then arbitrary
        sigma = (rhs - xi @ row) / w if abs(w) > _FACE_W else np.zeros(xi.shape[0])
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


def partition_data_by_mode(data, pwa):
    """Split a DataSet's transitions by the mode active at their start state.

    Returns (parts, indices): one DataSet per mode with its transitions in
    data's column order (data itself for a mode holding every column), and
    per mode the columns of data it holds.  Modes with fewer transitions
    than n_x + n_u trigger a warning.
    """
    modes = pwa.classify_batch(data.x_minus.T)
    parts, indices = [], []
    for q in range(pwa.n_modes):
        idx = np.flatnonzero(modes == q)
        part = data if idx.size == data.T else DataSet(
            *(np.take(a, idx, axis=1) for a in (data.x_plus, data.x_minus, data.u_minus)))
        if part.T < part.d:
            warnings.warn(f"mode {q}: only {part.T} transitions for {part.d} unknowns")
        parts.append(part)
        indices.append(idx)
    return parts, indices


def propagate_pwa(models, pwa, x0, u_prop, w, horizon, max_order, fragment_cap=256):
    """Reachable fragments of a piecewise-affine system for k = 0..horizon.

    models: one matrix zonotope per mode, over [x; u].
    Every fragment is split along each mode region; nonempty pieces are
    propagated through that mode's model.  A piece that no guard cut is its
    parent fragment, which was kept already, so only cut pieces pay an
    emptiness LP, asked of the parent with the cutting halfspaces: the
    parent's own LP, warm from its cached basis.  The pieces that one
    halfspace cut share one batched LP per fragment; a piece that several
    cut takes a region query of its own.  A child starts from its parent's
    basis (sets.inherit_lp_basis), since the parent's own LP is the leading
    block of the child's, so only the first LP of a lineage starts cold.
    Each mode's constrained beta enters a lineage once, as a block of
    columns whose first column the fragments record in beta_starts and pass
    to propagation_step on every later step through the mode.  Raises if
    the fragment count would exceed fragment_cap.
    """
    if len(models) != pwa.n_modes:
        raise ValueError(f"{len(models)} models for {pwa.n_modes} modes")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    # a fresh copy of x0, so that no LP of this result starts from a basis
    # that earlier queries left on the caller's set
    steps = [StepRecord([Fragment(x0.copy(), beta_starts=(None,) * pwa.n_modes)])]
    for _ in range(horizon):
        children = []
        for fi, frag in enumerate(steps[-1].fragments):
            splits = {}  # mode -> (piece, cut events, cutting halfspaces), for pieces not empty
            for q, mode in enumerate(pwa.modes):
                piece, events, cuts = frag.set, [], []
                for h in mode.region:
                    piece, ev = halfspace_intersection_with_plan(piece, h.normal, h.offset)
                    if ev[0] == "empty":
                        break
                    if ev[0] == "cut":
                        events.append(ev)
                        cuts.append((h.normal, h.offset))
                else:
                    splits[q] = (piece, events, cuts)
            # a cut piece is empty when the parent is empty on the cutting
            # halfspaces: the pieces that one halfspace cut share one LP
            single = [q for q, (_, _, cuts) in splits.items() if len(cuts) == 1]
            found = is_empty(frag.set, [splits[q][2][0] for q in single], each=True) if single else ()
            empty = {q for q, e in zip(single, found) if e}
            empty.update(q for q, (_, _, cuts) in splits.items()
                         if len(cuts) > 1 and is_empty(frag.set, region=cuts))
            for q, (piece, events, _) in splits.items():
                if q in empty:
                    continue
                starts = frag.beta_starts
                new_set, plan = propagation_step(models[q], piece, u_prop, w, max_order, starts[q])
                if starts[q] is None:
                    starts = starts[:q] + (np.count_nonzero(plan.cons[: plan.p]),) + starts[q + 1 :]
                inherit_lp_basis(new_set, frag.set)
                children.append(Fragment(new_set, mode=q, parent=fi, split=tuple(events),
                                         plan=plan, beta_starts=starts))
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
    if rset.num_constraints:
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


def certify_pwa(result, beta_stars, pwa, states, xi0, xi_u, xi_w):
    """Constructive containment certificates for simulated trajectories.

    result: the propagate_pwa result whose sets are certified.  states:
    (N, horizon+1, n_x) simulated with recorded factor draws xi0 (N, m0),
    xi_u (horizon, N, m_u), xi_w (horizon, N, p_w); beta_stars holds one
    model-set factor vector per mode, recovered from the data noise (empty
    for singleton models).  Each trajectory follows its own fragment
    lineage: at step k its state's mode selects the child fragment, the
    guard cuts append the slice factors, and the recorded step plan
    pushes the rest.  Raises ValueError when a trajectory enters a piece
    that propagation pruned as empty.
    """
    states, xi0, xi_u, xi_w = _certificate_inputs(result, states, xi0, xi_u, xi_w)
    if len(beta_stars) != pwa.n_modes:
        raise ValueError(f"{len(beta_stars)} factor vectors for {pwa.n_modes} modes")
    beta_stars = [np.asarray(b, dtype=float).reshape(-1) for b in beta_stars]
    worst = {"max_factor": 0.0, "max_constraint": 0.0, "max_point_error": 0.0}
    _check_step(result.steps[0].fragments[0].set, xi0, states[:, 0, :], worst)
    # trajectory ids and their factors, per fragment of the step; a child
    # has one parent and one mode, so exactly one group feeds it
    groups = {0: (np.arange(states.shape[0]), xi0)}
    for k, step in enumerate(result.steps[1:]):
        child = {(f.parent, f.mode): ci for ci, f in enumerate(step.fragments)}
        modes_k = pwa.classify_batch(states[:, k, :])
        next_groups = {}
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
                next_groups[ci] = (sel, xi_next)
        groups = next_groups
    return CertificateReport(**worst, n_trajectories=states.shape[0], n_steps=result.horizon)


def certify_lti(result, beta_star, states, xi0, xi_u, xi_w):
    """certify_pwa for a propagate_lti result, whose one model has the
    factor vector beta_star."""
    return certify_pwa(result, [beta_star], LINEAR, states, xi0, xi_u, xi_w)
