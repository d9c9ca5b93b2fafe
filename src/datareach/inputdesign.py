"""Online input design for informative data collection.

The regressor samples s = [x; u] accumulate into an information matrix
S = delta I + sum_t s_t s_t'.  The next input maximizes the decrease of
trace(S^{-1}) (A-optimality), a ratio of quadratic forms in the input set's
factors xi: with u = c + G xi, s = L z for z = [1; xi], and with P = S^{-1}
the gain is z'Nz / z'Dz, N = (PL)'(PL), D = e0 e0' + L'PL.  It is attacked
with random candidates plus projected gradient ascent.  The ratio is known
to about 1e-9 relative only: the forms inherit the conditioning of S^{-1}.
"""

import numbers
import time
from dataclasses import dataclass
from operator import mul

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
        check_counts(self, (("n_candidates", 1), ("refine_iters", 0)))
        if not (isinstance(self.refine_step, numbers.Real) and 0.0 < self.refine_step < np.inf):
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


def _gain_at(forms, xi):
    """The gain z'Nz / z'Dz at z = [1; xi] and its gradient in xi, in Python
    floats: for a few factors, numpy's per-call overhead outweighs the work."""
    z = [1.0, *xi]
    nz, dz = ([sum(map(mul, row, z)) for row in form] for form in forms)
    num, den = sum(map(mul, nz, z)), sum(map(mul, dz, z))
    scale = 2.0 / (den * den)
    return num / den, [scale * (a * den - num * b) for a, b in zip(nz[1:], dz[1:])]


def design_input(state, x, u_set, config=None, rng=None):
    """Pick the input in u_set that maximizes the information gain delta_A.

    Random candidate factors seed a projected gradient ascent with a halving
    (Armijo) line search from the best of them.  Returns (u, gain).
    """
    counts, start = counters.DESIGN.get(), time.perf_counter()
    config = config or DesignConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    n_x = state.dim - u_set.dim
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
    forms, xi = forms.tolist(), cands[int(np.argmax(num / den))].tolist()
    val, grad = _gain_at(forms, xi)
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
                t_val, t_grad = _gain_at(forms, trial)
                gap = sum([g * (t - a) for g, t, a in zip(grad, trial, xi)])
                if t_val >= val + 1e-4 * gap and t_val > val:
                    xi, val, grad, steps = trial, t_val, t_grad, steps + 1
                    break
            step *= 0.5
        else:  # no step length was accepted
            break
    if counts is not None:
        counts["calls"] += 1
        counts["refine_iterations"] += steps
        counts["capped_calls"] += steps == config.refine_iters
        counts["seconds"] += time.perf_counter() - start
    return u_set.c + u_set.G @ np.array(xi), val
