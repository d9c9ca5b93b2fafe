"""Experiment harness: true-system simulation, data collection, and the
reachability study with file emission.

The harness owns everything the library proper must not know: the ground
truth matrices, the realized noise, and the bookkeeping that turns recorded
factor draws into containment certificates.  An experiment is described by
an ExperimentConfig (JSON round-trippable, versioned schema) and produces a
deterministic report dict; wall-clock data goes to a separate metadata file
so reports stay byte-identical for a fixed config and seed.

The true system is the config's PwaSpec and its noise set the config's w;
a linear system is the one-mode case, so one study driver serves both
studies.  One fit loop collects each input mode once, splits its
transitions by mode and builds each mode's model sets from one SVD per
data set; one propagation loop, one support table and one self-check
follow.  Only the summaries that exist for one kind alone differ.

RNG streams are derived from the config seed with fixed stream ids.  The
trajectory stream (initial states and process noise) is shared by both
input modes, so the random and designed collections see identical
disturbance realizations and differ only through the chosen inputs; input
draws, self-check trajectories, and probe directions get their own
streams.

Output layout (when an output directory is given):

    report.json                     all numeric results, deterministic
    metadata.json                   timestamps, runtime, phase times, LP, design and
                                    volume counts, per-step set sizes, versions
    sets/<combo>/step<k>.json       reachable fragments per step, compact JSON
    polygons/<combo>_<i>-<j>.csv    2-D projection outlines per step
    volume_table.csv                tabulated-step volumes and ratios (lti)
    hull_widths.csv                 per-step interval hulls (pwa)
"""

import csv
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import __version__
from .counters import design_counts, lp_counts, volume_counts
from .inputdesign import (
    DesignConfig,
    check_counts,
    design_input,
    info_init,
    info_update,
    sample_input,
)
from .linalg import NumericalError
from .modelset import DataSet, build_model_sets, generator_norm_proxy
from .reach import (
    Halfspace,
    PwaMode,
    PwaSpec,
    certify_pwa,
    model_based_reference,
    partition_data_by_mode,
    propagate_pwa,
)
from .rightinv import (
    RightInverseError,
    pinv_right_inverse,
    row_norm_right_inverse,
    verify_sandwich,
)
from .sets import (
    Zonotope,
    contains_point,
    project_polygon,
    reduce_girard,
    sample_factors,
    set_from_dict,
    volume,
)

SCHEMA_VERSION = 1

# rng stream ids; every consumer owns one stream of the config seed
_TRAJ_STREAM = 0
_INPUT_STREAM = 1
_CHECK_STREAM = 2
_DIRECTION_STREAM = 3
_MODES = ("random", "designed")
_RIGHT_INVERSES = {"pinv": pinv_right_inverse, "row_norm": row_norm_right_inverse}
_MODEL_SETS = ("mz", "cmz")


class HarnessError(RuntimeError):
    """Configuration or self-check failure; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# true systems


def discretize(a_c, b_c, dt):
    """Zero-order-hold discretization via one augmented matrix exponential."""
    a_c = np.asarray(a_c, dtype=float)
    b_c = np.asarray(b_c, dtype=float)
    if b_c.ndim != 2 or a_c.shape != (b_c.shape[0],) * 2:
        raise ValueError(f"a_c {a_c.shape} must be square and match the rows of b_c {b_c.shape}")
    n, m = b_c.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a_c
    aug[:n, n:] = b_c
    e = expm(aug * float(dt))
    return e[:n, :n], e[:n, n:]


def _entry(d, key, where, kind="finite array"):
    """d[key] of a system dict, checked to be a kind: "finite array" or
    "finite number" (returned as a float array) or "list"; kind None takes
    any value.  HarnessError naming where and key otherwise."""
    if not isinstance(d, dict):
        raise HarnessError(f"{where} must be a dict, got {d!r}")
    if key not in d:
        raise HarnessError(f"{where} has no {key!r} entry")
    v = d[key]
    if kind in ("finite array", "finite number"):
        try:
            v = np.asarray(v, dtype=float)
        except (TypeError, ValueError):
            v = np.array(np.nan)
        ok = np.all(np.isfinite(v)) and (kind == "finite array" or v.ndim == 0)
    else:
        ok = kind is None or isinstance(v, (list, tuple))
    if not ok:
        raise HarnessError(f"{where} {key!r} must be a {kind}, got {d[key]!r}")
    return v


def _check_modes(modes):
    """HarnessError unless every mode has an n x n a, an n x m b and region
    normals of length n, with one n and one m for all modes."""
    if not modes:
        raise HarnessError("the system has no modes")
    n, m = np.atleast_1d(modes[0].a).shape[0], np.atleast_1d(modes[0].b).shape[-1]
    for q, mode in enumerate(modes):
        if mode.a.shape != (n, n) or mode.b.shape != (n, m):
            raise HarnessError(f"mode {q}: a is {mode.a.shape} and b is {mode.b.shape}, "
                               f"expected ({n}, {n}) and ({n}, {m})")
        for h in mode.region:
            if h.normal.size != n:
                raise HarnessError(f"mode {q}: region normal has length {h.normal.size}, "
                                   f"expected {n}")


# ---------------------------------------------------------------------------
# configuration


def _set_from_config(d):
    if d is None or isinstance(d, Zonotope):
        return d
    d = dict(d)
    # accept the friendly {"center", "generators", "a", "b"} spelling too
    for alias, key in (("center", "c"), ("generators", "G"), ("a", "A")):
        if alias in d:
            if key in d:
                raise HarnessError(f"a set gives both {alias!r} and {key!r}")
            d[key] = d.pop(alias)
    d.setdefault("type", "zonotope")
    return set_from_dict(d)


@dataclass
class ExperimentConfig:
    """One experiment, fully specified and JSON round-trippable.

    system is a plain dict: {"type": "continuous", "a_c", "b_c", "dt"},
    {"type": "discrete", "a", "b"}, or {"type": "pwa", "modes": [{"a", "b",
    "region": [{"normal", "offset"}, ...]}, ...]}.  PWA regions are matched
    in declaration order, so the mode owning a shared guard (its closed
    side) must come first.  Sets accept {"center", "generators"} dicts or
    the serialized {"c", "G"} form.  x0_data, when given, replaces x0 as
    the initial set for data collection only.  x0_sampling picks how data
    trajectories draw their initial state from that set: "uniform" draws
    factors uniformly, "vertex" snaps them to extreme points, which keeps
    the regressor blocks well conditioned when x0_data is wide.  The
    volume table is evaluated at volume_step (default: the horizon).
    """

    kind: str
    system: dict
    x0: object
    w: object
    u_data: object
    u_prop: object
    name: str = ""
    x0_data: object = None
    k_trajectories: int = 12
    t_steps: int = 5
    horizon: int = 6
    max_order: float = 10.0
    input_modes: tuple = ("random", "designed")
    right_inverses: tuple = ("pinv", "row_norm")
    model_sets: tuple = ("mz", "cmz")
    pwa_variants: tuple = (("random", "pinv"), ("designed", "row_norm"))
    rng_seed: int = 0
    design: DesignConfig = field(default_factory=DesignConfig)
    projection_dims: tuple = ((1, 2),)
    x0_sampling: str = "uniform"
    volume_step: object = None
    n_check: int = 200
    n_directions: int = 32
    n_lp_spot: int = 5
    fragment_cap: int = 256
    compute_supports: bool = True
    compute_volumes: bool = True

    def __post_init__(self):
        if self.kind not in ("lti", "pwa"):
            raise HarnessError(f"kind must be 'lti' or 'pwa', got {self.kind!r}")
        if self.x0_sampling not in ("uniform", "vertex"):
            raise HarnessError(f"x0_sampling must be 'uniform' or 'vertex', got {self.x0_sampling!r}")
        counts = [("k_trajectories", 1), ("t_steps", 1), ("horizon", 0), ("n_check", 1),
                  ("n_directions", 1), ("n_lp_spot", 0), ("fragment_cap", 1), ("rng_seed", 0)]
        if self.volume_step is not None:
            counts.append(("volume_step", 0))
        try:
            check_counts(self, counts)
        except ValueError as e:
            raise HarnessError(str(e)) from e
        if isinstance(self.max_order, bool) or not (isinstance(self.max_order, numbers.Real)
                                                    and 1.0 <= self.max_order < np.inf):
            raise HarnessError(f"max_order must be a finite real >= 1, got {self.max_order!r}")
        if self.volume_step is not None and self.volume_step > self.horizon:
            raise HarnessError(f"volume_step {self.volume_step} outside 0..{self.horizon}")
        for name in ("x0", "w", "u_data", "u_prop", "x0_data"):
            setattr(self, name, _set_from_config(getattr(self, name)))
        self.input_modes = tuple(self.input_modes)
        self.right_inverses = tuple(self.right_inverses)
        self.model_sets = tuple(self.model_sets)
        self.pwa_variants = tuple((m, r) for m, r in self.pwa_variants)
        names = [("input_modes", m, _MODES) for m in self.input_modes]
        names += [("right_inverses", r, _RIGHT_INVERSES) for r in self.right_inverses]
        names += [("model_sets", s, _MODEL_SETS) for s in self.model_sets]
        for m, r in self.pwa_variants:
            names += [("pwa_variants", m, _MODES), ("pwa_variants", r, _RIGHT_INVERSES)]
        for label, name, known in names:
            if name not in known:
                raise HarnessError(f"{label}: unknown name {name!r}, expected one of {list(known)}")
        dims = [list(p) for p in self.projection_dims]
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for p in dims for i in p):
            raise HarnessError(f"projection_dims entries must hold ints, got {dims}")
        self.projection_dims = tuple(tuple(int(i) for i in p) for p in dims)
        if isinstance(self.design, dict):
            try:
                self.design = DesignConfig(**self.design)
            except (TypeError, ValueError) as e:  # an unknown key or a bad value
                raise HarnessError(f"design: {e}") from e

    @property
    def x0_collect(self):
        return self.x0_data if self.x0_data is not None else self.x0

    def true_system(self):
        """The true system, a PwaSpec with the true matrices of every mode,
        with every set dimension checked against it."""
        s = self.system
        kind = _entry(s, "type", "system", None)
        if kind == "pwa":
            modes = []
            for q, m in enumerate(_entry(s, "modes", "system", "list")):
                at = f"system mode {q}"
                region = [Halfspace(_entry(h, "normal", f"{at} region {i}"),
                                    _entry(h, "offset", f"{at} region {i}", "finite number"))
                          for i, h in enumerate(_entry(m, "region", at, "list"))]
                modes.append(PwaMode(region=region, a=_entry(m, "a", at), b=_entry(m, "b", at)))
        elif kind == "continuous":
            dt = _entry(s, "dt", "system", "finite number")
            if not dt > 0.0:
                raise HarnessError(f"system 'dt' must be positive, got {s['dt']!r}")
            a, b = discretize(_entry(s, "a_c", "system"), _entry(s, "b_c", "system"), dt)
            modes = [PwaMode(region=[], a=a, b=b)]
        elif kind == "discrete":
            modes = [PwaMode(region=[], a=_entry(s, "a", "system"), b=_entry(s, "b", "system"))]
        else:
            raise HarnessError(f"unknown system type {kind!r}")
        if (kind == "pwa") != (self.kind == "pwa"):
            raise HarnessError(f"config kind {self.kind!r} does not match system type {kind!r}")
        _check_modes(modes)
        n_x, n_u = modes[0].b.shape
        checks = (
            ("x0", self.x0, n_x),
            ("x0_data", self.x0_collect, n_x),
            ("w", self.w, n_x),
            ("u_data", self.u_data, n_u),
            ("u_prop", self.u_prop, n_u),
        )
        for label, z, dim in checks:
            if z.dim != dim:
                raise HarnessError(f"{label} has dimension {z.dim}, expected {dim}")
        for pair in self.projection_dims:
            if len(pair) != 2 or len(set(pair)) != 2 or not all(1 <= i <= n_x for i in pair):
                raise HarnessError(f"projection_dims entry {list(pair)} is not two distinct "
                                   f"1-based state indices in 1..{n_x}")
        return PwaSpec(modes)

    def to_dict(self):
        out = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "design":
                v = asdict(v)
            elif isinstance(v, Zonotope):
                v = v.to_dict()
            elif isinstance(v, tuple):
                v = [list(x) if isinstance(x, tuple) else x for x in v]
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise HarnessError(f"unsupported config schema version {version}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise HarnessError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def load_config(path):
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


def bundled_config(name):
    """One of the shipped configs: 'lti_5d' or 'pwa_2mode'."""
    ref = resources.files("datareach") / "configs" / f"{name}.json"
    if not ref.is_file():
        raise HarnessError(f"no bundled config named {name!r}")
    return ExperimentConfig.from_dict(json.loads(ref.read_text()))


# ---------------------------------------------------------------------------
# simulation and data collection


def simulate_batch(pwa, w, x0_set, u_set, horizon, count, rng):
    """Many rollouts of pwa under noise from w at once, every draw recorded.

    Initial states and inputs are sampled uniformly from the factor sets,
    noise uniformly from its box.  Shapes match the certificate replays:
    states (count, horizon + 1, n_x), xi_u and xi_w indexed by step.
    """
    xi0 = sample_factors(x0_set, rng, count)
    states = np.empty((count, horizon + 1, x0_set.dim))
    states[:, 0, :] = xi0 @ x0_set.G.T + x0_set.c
    xi_u = np.empty((horizon, count, u_set.num_generators))
    xi_w = np.empty((horizon, count, w.num_generators))
    for k in range(horizon):
        xi_u[k] = sample_factors(u_set, rng, count)
        xi_w[k] = rng.uniform(-1.0, 1.0, (count, w.num_generators))
        u_pts = xi_u[k] @ u_set.G.T + u_set.c
        w_pts = xi_w[k] @ w.G.T + w.c
        x = states[:, k, :]
        modes = pwa.classify_batch(x)
        for q in np.unique(modes):
            sel = modes == q
            mode = pwa.modes[q]
            states[sel, k + 1, :] = x[sel] @ mode.a.T + u_pts[sel] @ mode.b.T + w_pts[sel]
    return states, xi0, xi_u, xi_w


@dataclass
class CollectLog:
    """Everything recorded during data collection that the data set itself
    cannot carry: the trajectories and the factor draws."""

    trajectories: list        # (states, inputs) per trajectory
    xi_w: np.ndarray          # (p_w, T) noise factors, global column order
    xi0: np.ndarray           # (K, m0) initial-state factors


def collect_data(cfg, pwa, input_mode):
    """K trajectories of T_i transitions each of pwa under noise from cfg.w.

    Random mode draws inputs uniformly from u_data; designed mode picks each
    input by information-gain maximization, with a single information state
    shared across all trajectories.  Initial states come from the collection
    set's factor box, uniformly or snapped to its corners per cfg.x0_sampling.

    Initial states and process noise come from a trajectory stream that
    depends only on the seed, never on the input mode, so the two modes are
    compared on identical disturbance realizations.  Random inputs draw from
    a separate stream; both derive from cfg.rng_seed.  Design candidates
    draw from cfg.design.rng_seed.
    """
    if input_mode not in _MODES:
        raise HarnessError(f"unknown input mode {input_mode!r}")
    designed = input_mode == "designed"
    rng_traj = np.random.default_rng([cfg.rng_seed, _TRAJ_STREAM])
    if designed:
        rng_inp = np.random.default_rng(cfg.design.rng_seed)
    else:
        rng_inp = np.random.default_rng([cfg.rng_seed, _INPUT_STREAM])
    w = cfg.w
    x0_set = cfg.x0_collect
    if cfg.x0_sampling == "vertex" and x0_set.num_constraints:
        raise HarnessError("vertex x0 sampling needs an initial set without constraint rows")
    info = info_init(x0_set.dim + cfg.u_data.dim) if designed else None
    trajectories, xi_w_cols, xi0s = [], [], []
    for _ in range(cfg.k_trajectories):
        xi0 = sample_factors(x0_set, rng_traj, 1)[0]
        if cfg.x0_sampling == "vertex":
            # snap the factor draw to a corner of the factor box; data rows
            # then start from extreme points of x0, which props up the weak
            # singular values of the regressor and tightens every model set
            xi0 = np.where(xi0 >= 0.0, 1.0, -1.0)
        x = x0_set.c + x0_set.G @ xi0
        xs, us = [x], []
        for _ in range(cfg.t_steps):
            if designed:
                u, _ = design_input(info, x, cfg.u_data, cfg.design, rng_inp)
            else:
                u = sample_input(cfg.u_data, rng_inp)
            xiw = rng_traj.uniform(-1.0, 1.0, w.num_generators)
            mode = pwa.modes[pwa.classify(x)]
            x_next = mode.a @ x + mode.b @ u + (w.c + w.G @ xiw)
            xs.append(x_next)
            us.append(u)
            xi_w_cols.append(xiw)
            if designed:
                info = info_update(info, np.concatenate([x, u]))
            x = x_next
        trajectories.append((np.column_stack(xs), np.column_stack(us)))
        xi0s.append(xi0)
    x_stack = [t[0] for t in trajectories]
    data = DataSet(np.hstack([s[:, 1:] for s in x_stack]), np.hstack([s[:, :-1] for s in x_stack]),
                   np.hstack([t[1] for t in trajectories]))
    return data, CollectLog(trajectories, np.column_stack(xi_w_cols), np.asarray(xi0s))


def true_noise_coefficients(log, columns=None):
    """Factor vector placing the realized data noise inside the noise matrix
    zonotope (t-major).  columns restricts to a subset of global transition
    columns, e.g. one mode's share after partitioning."""
    xi_w = log.xi_w if columns is None else log.xi_w[:, np.asarray(columns, dtype=int)]
    return xi_w.T.reshape(-1).copy()


@dataclass
class _Fit:
    """One (input mode, right inverse) variant: the input mode's whole data
    set and, per mode of the true system, the data part, right inverse,
    model sets and true noise factors."""

    data: DataSet
    parts: list
    rinvs: list
    bundles: list
    betas: list


def _fit_variants(cfg, pwa, variants):
    """{(input mode, right inverse): _Fit} for each variant.

    Each input mode is collected once and its transitions are split by the
    mode active at their start; a linear system has one mode, whose part
    holds every column in collection order.
    """
    collected, fits = {}, {}
    for mode, rinv in variants:
        if mode not in collected:
            data, log = collect_data(cfg, pwa, mode)
            collected[mode] = (data, log, *partition_data_by_mode(data, pwa))
        data, log, parts, indices = collected[mode]
        rinvs = [_RIGHT_INVERSES[rinv](part.phi) for part in parts]
        fits[(mode, rinv)] = _Fit(
            data, parts, rinvs,
            [build_model_sets(part, cfg.w.G, res.h) for part, res in zip(parts, rinvs)],
            [true_noise_coefficients(log, idx) for idx in indices],
        )
    return fits


# ---------------------------------------------------------------------------
# report helpers


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)!r}")


def _write_json(path, obj, indent=1):
    """obj as JSON with sorted keys and a final newline.  Without an indent
    json.dumps runs the C encoder; json.dump, or any indent, runs the
    pure-Python one, so the large set files are written compact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=indent, default=_json_default) + "\n")


def _write_table(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _unit_directions(rng, count, dim):
    d = rng.normal(size=(count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _rinv_summary(res):
    return {f.name: getattr(res, f.name) for f in fields(res) if f.name != "h"}


def _lp_spot_check(result, states, rng, n_spot, tol=1e-6):
    """A few independent membership LPs on random (trajectory, step) pairs,
    as a cross-check on the factor certificates.  Returns (checks, failures):
    the points checked, none when there is no step after the initial set,
    and those that no fragment of their step contains."""
    if result.horizon == 0:
        return 0, 0
    failures = 0
    for _ in range(n_spot):
        i, k = int(rng.integers(states.shape[0])), int(rng.integers(1, result.horizon + 1))
        if not any(contains_point(f.set, states[i, k], tol=tol) for f in result.steps[k].fragments):
            failures += 1
    return n_spot, failures


def _ordering(inner, outer):
    """Whether the supports inner stay within outer: the largest excess over
    steps and directions, and whether it is at most 1e-6."""
    gap = float(np.max(np.asarray(inner) - np.asarray(outer)))
    return {"max_gap": gap, "ok": gap <= 1e-6}


def _emit_sets(out, combo, result):
    for k, step in enumerate(result.steps):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "step": k,
            "fragments": [
                {"mode": f.mode, "parent": f.parent, "set": f.set.to_dict()}
                for f in step.fragments
            ],
        }
        _write_json(out / "sets" / combo / f"step{k}.json", payload, indent=None)


def _emit_polygons(out, combo, result, dims_pairs):
    for i, j in dims_pairs:
        rows = []
        for k, step in enumerate(result.steps):
            for fi, frag in enumerate(step.fragments):
                poly = project_polygon(frag.set, (i - 1, j - 1))
                rows.extend([k, fi, x, y] for x, y in poly.tolist())
        _write_table(out / "polygons" / f"{combo}_{i}-{j}.csv",
                     ["step", "fragment", "x", "y"], rows)


class _Laps:
    """Wall time (perf_counter) per study phase, for metadata.json: each
    call charges the time since the previous one to the named phase."""

    def __init__(self, names):
        self.seconds = dict.fromkeys(names, 0.0)
        self._mark = time.perf_counter()

    def __call__(self, name):
        now = time.perf_counter()
        self.seconds[name] += now - self._mark
        self._mark = now


def _emit_common(out, cfg, report, runs, tables, t0, lap, tallies):
    """Write the full output layout; metadata.json comes last so that its
    runtime_seconds (counted from perf_counter t0, before lap started)
    covers all the rest, the phases timed by lap included, and its tallies
    (the study's lp_counts, design_counts and volume_counts, one block
    each) include the polygon LPs.  Its set_sizes block gives, per
    combination and step, the constraint rows, their nonzero coefficients
    and the generator counts of each fragment."""
    _write_json(out / "report.json", report)
    for combo, run in runs.items():
        _emit_sets(out, combo, run)
        _emit_polygons(out, combo, run, cfg.projection_dims)
    for name, header, rows in tables:
        _write_table(out / name, header, rows)
    lap("emit")
    _write_json(out / "metadata.json", {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_seconds": time.perf_counter() - t0,
        "phase_seconds": lap.seconds,
        **tallies,
        "set_sizes": {c: {"constraint_rows": [[f.set.num_constraints for f in s.fragments]
                                              for s in run.steps],
                          "constraint_nnz": [[int(np.count_nonzero(f.set.A))
                                              for f in s.fragments] for s in run.steps],
                          "generators": [[f.set.num_generators for f in s.fragments]
                                         for s in run.steps]}
                      for c, run in runs.items()},
        "versions": {
            "datareach": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
    })


# ---------------------------------------------------------------------------
# experiments


def _self_check(cfg, pwa, runs, report, betas):
    """Containment self-check of every run: factor certificates for fresh
    simulated trajectories, cross-checked by a few membership LPs.

    betas[combo] holds the true model's factor vector in each mode's model
    set of runs[combo].  Sets report["self_check"] and report["status"];
    raises HarnessError (carrying the report) if any combination fails.
    """
    rng_chk = np.random.default_rng([cfg.rng_seed, _CHECK_STREAM])
    draws = simulate_batch(pwa, cfg.w, cfg.x0, cfg.u_prop, cfg.horizon, cfg.n_check, rng_chk)
    checks, failed = {}, []
    for combo, run in runs.items():
        cert = certify_pwa(run, betas[combo], pwa, *draws)
        spot_checks, spot_failures = _lp_spot_check(run, draws[0], rng_chk, cfg.n_lp_spot)
        ok = bool(cert.ok() and spot_failures == 0)
        checks[combo] = {
            "trajectories": cfg.n_check,
            "max_factor": cert.max_factor,
            "max_constraint": cert.max_constraint,
            "max_point_error": cert.max_point_error,
            "lp_spot_checks": spot_checks,
            "lp_spot_failures": spot_failures,
            "ok": ok,
        }
        if not ok:
            failed.append(combo)
    report["self_check"] = checks
    if failed:
        report["status"] = "self_check_failed"
        raise HarnessError(f"containment self-check failed for: {', '.join(failed)}",
                           report=report)
    report["status"] = "ok"


def run_lti_experiment(cfg, out_dir=None):
    """The linear study: data collection, model sets, propagation, checks.

    Runs every requested (model set x right inverse x input mode) combination
    plus the exact-matrix reference, self-checks each against fresh simulated
    trajectories, and (optionally) compares supports and final volumes.
    Returns the report dict; with out_dir the full file layout is written.
    """
    return _study(cfg, "lti", out_dir)


def run_pwa_experiment(cfg, out_dir=None):
    """The piecewise-affine study: per-mode data, guard-split propagation.

    Runs the exact-matrix reference plus one constrained model set per
    requested (input mode, right inverse) variant, self-checks all of them
    with per-mode trajectory certificates, and reports fragment counts,
    interval hulls, and (optionally) union supports.
    """
    return _study(cfg, "pwa", out_dir)


def _study(cfg, kind, out_dir):
    """Both studies; a linear system is the one-mode case.  An LP the
    solver cannot finish (linalg.NumericalError) or a right inverse that
    cannot be found (rightinv.RightInverseError) ends the study in a
    HarnessError that carries the report of the phases done so far, with
    status "lp_failed" or "right_inverse_failed"."""
    report = {}
    try:
        return _study_phases(cfg, kind, out_dir, report)
    except (NumericalError, RightInverseError) as err:
        report["status"] = "lp_failed" if isinstance(err, NumericalError) else "right_inverse_failed"
        raise HarnessError(str(err), report=report) from err


def _study_phases(cfg, kind, out_dir, report):
    """The phases of _study, filling report as they go.  Only the summaries
    that exist for one kind alone branch on kind: the linear study reports
    singular values, the sandwich bound, generator counts, the cmz-within-mz
    ordering and the volume table; the piecewise-affine study reports
    per-mode data, fragment counts and interval hulls."""
    with lp_counts() as lp, design_counts() as design, volume_counts() as volumes:
        t0 = time.perf_counter()
        lti = kind == "lti"
        lap = _Laps(("collect", "propagate", "supports", "self_check", "volumes", "emit") if lti
                    else ("collect", "propagate", "hulls", "supports", "self_check", "emit"))
        if cfg.kind != kind:
            raise HarnessError(f"config kind is {cfg.kind!r}, expected {kind!r}")
        pwa = cfg.true_system()
        if np.any(cfg.w.c != 0.0):
            raise HarnessError("model-set construction assumes zero-centered noise")
        if cfg.w.num_constraints:
            raise HarnessError("w must have no constraint rows: noise is drawn from its generators")
        report.update(schema_version=SCHEMA_VERSION, kind=kind, name=cfg.name,
                      config=cfg.to_dict())

        variants = product(cfg.input_modes, cfg.right_inverses) if lti else cfg.pwa_variants
        fits = _fit_variants(cfg, pwa, variants)
        data_stats, rinv_stats = {}, {}
        for (mode, rinv), fit in fits.items():
            factors = fit.data.factors
            stats = data_stats[mode] = {
                "transitions": fit.data.T,
                "trace_inverse": float(np.sum(factors.s[: factors.rank] ** -2.0))}
            if lti:
                stats.update(sigma_min=float(factors.s[-1]), sigma_max=float(factors.s[0]))
                res = fit.rinvs[0]
                rinv_stats[f"{rinv}_{mode}"] = _rinv_summary(res)
                if rinv == "row_norm":
                    check = verify_sandwich(factors, res)
                    rinv_stats[f"{rinv}_{mode}"]["sandwich"] = {
                        "lower": check.lower, "value": check.value,
                        "upper": check.upper, "holds": check.holds,
                    }
            else:
                stats["per_mode"] = [{"mode": q, "transitions": part.T}
                                     for q, part in enumerate(fit.parts)]
                for q, (res, bundle) in enumerate(zip(fit.rinvs, fit.bundles)):
                    rinv_stats[f"{rinv}_{mode}_mode{q}"] = {
                        **_rinv_summary(res), "proxy": generator_norm_proxy(bundle.mz)}
        report["data"] = data_stats
        report["right_inverses"] = rinv_stats
        if lti:
            report["proxies"] = {f"{rinv}_{mode}": generator_norm_proxy(fit.bundles[0].mz)
                                 for (mode, rinv), fit in fits.items()}
        lap("collect")

        runs, betas = {}, {}
        for (mode, rinv), fit in fits.items():
            for mset in cfg.model_sets if lti else ("cmz",):
                combo = f"{mset}_{rinv}_{mode}"
                models = [getattr(b, mset) for b in fit.bundles]
                runs[combo] = propagate_pwa(models, pwa, cfg.x0, cfg.u_prop, cfg.w, cfg.horizon,
                                            cfg.max_order, fragment_cap=cfg.fragment_cap)
                betas[combo] = fit.betas
        runs["model"] = model_based_reference(pwa, cfg.x0, cfg.u_prop, cfg.w,
                                              cfg.horizon, cfg.max_order)
        betas["model"] = [np.zeros(0)] * pwa.n_modes
        combos = report["combos"] = list(runs)
        if lti:
            report["generator_counts"] = {
                c: [[f.set.num_generators for f in s.fragments] for s in run.steps]
                for c, run in runs.items()
            }
        lap("propagate")

        if not lti:
            counts = report["fragment_counts"] = {c: run.fragment_counts() for c, run in runs.items()}
            report["fragment_bound_ok"] = {
                c: bool(all(n <= 2 ** k for k, n in enumerate(counts[c]))) for c in combos
            }
            hulls = report["interval_hulls"] = {}
            for c, run in runs.items():
                hulls[c] = []
                for k in range(cfg.horizon + 1):
                    low, high = run.union_interval_hull(k)
                    hulls[c].append({"low": low.tolist(), "high": high.tolist(),
                                     "width": (high - low).tolist()})
            lap("hulls")

        if cfg.compute_supports:
            rng_dir = np.random.default_rng([cfg.rng_seed, _DIRECTION_STREAM])
            dirs = _unit_directions(rng_dir, cfg.n_directions, cfg.x0.dim)
            sup = {c: [run.union_support(k, dirs).tolist() for k in range(cfg.horizon + 1)]
                   for c, run in runs.items()}
            report["support_directions"] = dirs.tolist()
            report["supports"] = sup
            orderings = {"model_within": {c: _ordering(sup["model"], sup[c])
                                          for c in combos if c != "model"}}
            if lti:
                both = {"mz", "cmz"} <= set(cfg.model_sets)
                orderings["cmz_le_mz"] = {
                    f"{rinv}_{mode}": _ordering(sup[f"cmz_{rinv}_{mode}"], sup[f"mz_{rinv}_{mode}"])
                    for mode, rinv in fits if both
                }
            report["orderings"] = orderings
        lap("supports")

        _self_check(cfg, pwa, runs, report, betas)
        lap("self_check")

        if lti:
            if cfg.compute_volumes:
                vstep = cfg.horizon if cfg.volume_step is None else cfg.volume_step

                def _row_volume(run):
                    # cap at 50 generators so the determinant sum stays
                    # tractable; the cap fixes the reported numbers: they are
                    # exact volumes of the Girard-reduced sets, not of the
                    # full ones
                    z = reduce_girard(run.steps[vstep].fragments[0].set, 50.0 / cfg.x0.dim)
                    return volume(z)

                table = [{"method": c, "volume": _row_volume(runs[c])}
                         for c in ["model"] + [c for c in combos if c.startswith("mz_")]]
                report["volume_table"] = table
                report["volume_step"] = vstep
                if not table[0]["volume"] > 0.0:
                    report["status"] = "zero_reference_volume"
                    raise HarnessError(f"the model-based set has volume 0 at step {vstep}, so the "
                                       "volume ratios are undefined", report=report)
                for row in table:
                    row["ratio"] = row["volume"] / table[0]["volume"]
            lap("volumes")

        if out_dir is not None:
            tables = []
            if "volume_table" in report:
                tables.append(("volume_table.csv", ["method", "volume", "ratio"],
                               [[r["method"], r["volume"], r["ratio"]]
                                for r in report["volume_table"]]))
            if not lti:
                tables.append(("hull_widths.csv", ["method", "step", "dim", "low", "high", "width"],
                               [[c, k, dim + 1, h["low"][dim], h["high"][dim], h["width"][dim]]
                                for c in combos for k, h in enumerate(hulls[c])
                                for dim in range(cfg.x0.dim)]))
            _emit_common(Path(out_dir), cfg, report, runs, tables, t0, lap,
                         {"lp": lp, "design": design, "volume": volumes})
        return report
