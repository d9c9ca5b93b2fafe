"""Online input design for informative data collection.

The regressor samples s = [x; u] accumulate into an information matrix
S = delta I + sum_t s_t s_t'.  The next input maximizes the decrease of
trace(S^{-1}) (A-optimality), a ratio of quadratic forms in the input set's
factors xi: with u = c + G xi, s = L z for z = [1; xi], and with P = S^{-1}
the gain is z'Nz / z'Dz, N = (PL)'(PL), D = e0 e0' + L'PL.  It is attacked
with random candidates plus projected gradient ascent.  The ratio is known
to about 1e-9 relative only: the forms inherit the conditioning of S^{-1}.

The ascent runs in a straight-line Python function generated per factor
count and kind of input set (box or constrained), compiled on first use and
cached: its state is scalar locals, since for a few factors numpy's per-call
overhead, and even Python lists, outweigh the work.  It adds floats with +,
left to right, never with the builtin sum, which CPython 3.12 made
compensated: the designed inputs are the same on every interpreter.
"""

import functools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import counters
from .sets import project_factors, sample_factors

# Maintained-inverse drift (||S S_inv - I||_F) above which the inverse is
# recomputed from scratch.
DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class InfoState:
    """Information matrix with its maintained inverse.

    s_matrix = delta I + sum of s s' over the updates applied so far.
    """

    s_matrix: np.ndarray
    s_inv: np.ndarray
    delta: float
    count: int = 0

    @property
    def dim(self):
        return self.s_matrix.shape[0]

    @property
    def trace_inverse(self):
        return float(np.trace(self.s_inv))


def check_counts(obj, bounds):
    """ValueError unless each (name, low) of bounds names an attribute of obj
    that is an int (a bool is not) and at least low."""
    for name, low in bounds:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
            raise ValueError(f"{name} must be an int >= {low}, got {v!r}")


@dataclass
class DesignConfig:
    n_candidates: int = 100
    refine_iters: int = 50
    refine_step: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        check_counts(self, (("n_candidates", 1), ("refine_iters", 0), ("rng_seed", 0)))
        if isinstance(self.refine_step, bool) or not (isinstance(self.refine_step, numbers.Real)
                                                      and 0.0 < self.refine_step < np.inf):
            raise ValueError(f"refine_step must be finite and positive, got {self.refine_step!r}")


def info_init(d, delta=1e-3):
    """Fresh information state delta * I (delta > 0 keeps it invertible)."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return InfoState(delta * np.eye(d), np.eye(d) / delta, float(delta), 0)


def info_update(state, s):
    """Rank-one update S + s s' with a Sherman-Morrison inverse update.

    If the maintained inverse has drifted (drift > 1e-6) it is re-factorized
    before the update, so the trace-decrease identity stays exact across the
    returned pair of states.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size != state.dim or not np.all(np.isfinite(s)):
        raise ValueError(f"sample must have {state.dim} finite entries, got {s}")
    s_inv = state.s_inv
    drift = np.linalg.norm(state.s_matrix @ s_inv - np.eye(state.dim), "fro")
    if drift > DRIFT_LIMIT:
        s_inv = np.linalg.inv(state.s_matrix)
    v = s_inv @ s
    denom = 1.0 + float(s @ v)
    new_inv = s_inv - np.outer(v, v) / denom
    new_mat = state.s_matrix + np.outer(s, s)
    return InfoState(new_mat, new_inv, state.delta, state.count + 1)


def delta_A(state, x, u):
    """Decrease of trace(S^{-1}) caused by appending the sample s = [x; u]."""
    s = np.concatenate([np.asarray(x, dtype=float).reshape(-1),
                        np.asarray(u, dtype=float).reshape(-1)])
    if s.size != state.dim:
        raise ValueError(f"[x; u] has {s.size} entries, the information state {state.dim}")
    v = state.s_inv @ s
    return float(v @ v) / (1.0 + float(s @ v))


def sample_input(u_set, rng):
    """One input drawn from the input set (uniform factors, projected)."""
    xi = sample_factors(u_set, rng, 1)[0]
    return u_set.c + u_set.G @ xi


# The ascent over m factors; each {name} alone on a line stands for a block of
# lines at that indent, and every other {name} for an expression.
_ASCENT = """\
def ascent(f, xi, refine_step, refine_iters, project):
    {unpack} = f
    {rows} = {rows_from_zero}
    [{xs}] = xi
    {gain_at_x}
    val, evaluations, steps = num / den, 1, 0
    {grad}
    while steps < refine_iters:
        step = refine_step
        while step > 1e-12:
            {trial}
            if {moved}:
                {gain_at_t}
                t_val, evaluations = num / den, evaluations + 1
                if t_val >= val + 1e-4 * ({gap}) and t_val > val:
                    [{xs}], val, steps = [{ts}], t_val, steps + 1
                    {grad}
                    break
            step *= 0.5
        else:  # no step length was accepted
            break
    return [{xs}], val, steps, evaluations
"""


def _ascent_source(m, box):
    """Source of the projected gradient ascent from the point xi over m input
    factors, in scalar locals: x1..xm the point, g1..gm its gradient, t1..tm
    the trial.  It returns (point, gain, accepted steps, gain evaluations).

    f lists the 2m + 2 rows of the stacked [N; D].  The floating-point
    operations and their order are those of summing each dot product left to
    right from 0.0: at z = [1; t], p_i = (0.0 + f[i][0]) + f[i][1]*t1 + ...,
    num = p_0 + p_1*t1 + ... and den = p_{m+1} + p_{m+2}*t1 + ...  A box set
    clips the trial as min(max(t, -1.0), 1.0) does; otherwise project(trial)
    returns it projected, or None when the projection did not converge.  A
    trial equal to the point has the point's gain, which the ascent never
    accepts, so it is not evaluated.
    """
    js = range(1, m + 1)
    xs, gs, ts = ([f"{v}{j}" for j in js] for v in "xgt")
    rows = [f"c{i}" for i in range(2 * m + 2)]
    d0 = m + 1  # the index of D's first row

    def gain_at(pt):
        return [f"p{i} = {c}" + "".join(f" + f{i}_{j}*{v}" for j, v in zip(js, pt))
                for i, c in enumerate(rows)] + [
            "num = p0" + "".join(f" + p{j}*{v}" for j, v in zip(js, pt)),
            f"den = p{d0}" + "".join(f" + p{d0 + j}*{v}" for j, v in zip(js, pt))]

    if box:
        trial = [line for t, x, g in zip(ts, xs, gs) for line in (
            f"{t} = {x} + step * {g}", f"{t} = 1.0 if {t} > 1.0 else -1.0 if {t} < -1.0 else {t}")]
    else:
        trial = [f"q = project([{', '.join(f'{x} + step * {g}' for x, g in zip(xs, gs))}])",
                 f"[{', '.join(ts)}] = [{', '.join(xs)}] if q is None else q"]
    blocks = {
        "gain_at_x": gain_at(xs), "gain_at_t": gain_at(ts), "trial": trial,
        "grad": ["scale = 2.0 / (den * den)"] + [
            f"{g} = scale * (p{j} * den - num * p{d0 + j})" for j, g in zip(js, gs)]}
    fills = {
        "unpack": "[" + ", ".join("[" + ", ".join([c, *(f"f{i}_{j}" for j in js)]) + "]"
                                  for i, c in enumerate(rows)) + "]",
        "rows": ", ".join(rows), "rows_from_zero": ", ".join(f"0.0 + {c}" for c in rows),
        "xs": ", ".join(xs), "ts": ", ".join(ts),
        "moved": " or ".join(f"{t} != {x}" for t, x in zip(ts, xs)) or "False",
        "gap": " + ".join(f"{g} * ({t} - {x})" for g, t, x in zip(gs, ts, xs)) or "0.0"}
    out = []
    for line in _ASCENT.splitlines():
        body = line.lstrip()
        if body.startswith("{") and body[1:-1] in blocks:
            out += [line[:-len(body)] + b for b in blocks[body[1:-1]]]
        else:
            out.append(line.format(**fills))
    return "\n".join(out) + "\n"


@functools.lru_cache(maxsize=None)
def _ascent_kernel(m, box):
    """The compiled ascent of _ascent_source(m, box)."""
    namespace = {}
    exec(compile(_ascent_source(m, box), f"<ascent m={m} box={box}>", "exec"), namespace)
    return namespace["ascent"]


def design_input(state, x, u_set, config=None, rng=None):
    """Pick the input in u_set that maximizes the information gain delta_A.

    Random candidate factors seed a projected gradient ascent with a halving
    (Armijo) line search from the best of them.  Returns (u, gain).
    """
    counts, start = counters.DESIGN.get(), time.perf_counter()
    config = config or DesignConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    n_x = state.dim - u_set.dim
    if n_x < 0:
        raise ValueError(f"the information state has dimension {state.dim}, fewer than "
                         f"the input set's {u_set.dim}")
    if x.size != n_x or not np.all(np.isfinite(x)):
        raise ValueError(f"x must have {n_x} finite entries, got {x}")
    rng = np.random.default_rng(config.rng_seed) if rng is None else rng
    lift = np.zeros((state.dim, u_set.num_generators + 1))  # L, with s = L z
    lift[:n_x, 0], lift[n_x:, 0], lift[n_x:, 1:] = x, u_set.c, u_set.G
    pl = state.s_inv @ lift
    forms = np.stack([pl.T @ pl, lift.T @ pl])  # N and D
    forms[1, 0, 0] += 1.0
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    cands = sample_factors(u_set, rng, config.n_candidates)
    zs = np.hstack([np.ones((len(cands), 1)), cands])
    num, den = np.einsum("ni,kij,nj->kn", zs, forms, zs)
    xi = cands[int(np.argmax(num / den))].tolist()

    def project(trial):
        proj, ok = project_factors(u_set.A, u_set.b, np.array([trial]))
        return proj[0].tolist() if ok[0] else None

    m = u_set.num_generators
    ascent = _ascent_kernel(m, u_set.num_constraints == 0)
    xi, val, steps, evaluations = ascent(forms.reshape(-1, m + 1).tolist(), xi,
                                         config.refine_step, config.refine_iters, project)
    if counts is not None:
        counts["calls"] += 1
        counts["refine_iterations"] += steps
        counts["capped_calls"] += steps == config.refine_iters
        counts["evaluations"] += evaluations
        counts["seconds"] += time.perf_counter() - start
    return u_set.c + u_set.G @ np.array(xi), val
