"""Online input design for informative data collection.

The regressor samples s = [x; u] accumulate into an information matrix
S_k = delta I + sum_t s_t s_t'.  Choosing the next input to maximize the
decrease of trace(S^{-1}) (the A-optimality criterion) is a fractional
quadratic program over the input set's factors; it is attacked with random
candidates plus projected gradient ascent.
"""

from dataclasses import dataclass

import numpy as np

from .sets import ConstrainedZonotope, Zonotope, project_factors, sample_factors

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


@dataclass
class DesignConfig:
    n_candidates: int = 100
    refine_iters: int = 50
    refine_step: float = 0.5
    rng_seed: int = 0


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


def _fractional_terms(state, x, u_set):
    """Coefficients of the objective over factors xi:

        f(xi) = (c2 + 2 q2.xi + xi.Q2.xi) / (1 + c1 + 2 q1.xi + xi.Q1.xi)
    """
    n_x = np.asarray(x).size
    a = np.concatenate([np.asarray(x, dtype=float).reshape(-1), u_set.c])
    b = np.vstack([np.zeros((n_x, u_set.num_generators)), u_set.G])
    p1 = state.s_inv
    p2 = p1 @ p1
    return {
        "q1": b.T @ (p1 @ a), "q2": b.T @ (p2 @ a),
        "Q1": b.T @ p1 @ b, "Q2": b.T @ p2 @ b,
        "c1": float(a @ p1 @ a), "c2": float(a @ p2 @ a),
    }


def _objective(terms, xi):
    """Vectorized objective for factor rows xi (N, m) or a single row."""
    xi = np.atleast_2d(xi)
    num = terms["c2"] + 2.0 * xi @ terms["q2"] + np.einsum("ni,ij,nj->n", xi, terms["Q2"], xi)
    den = 1.0 + terms["c1"] + 2.0 * xi @ terms["q1"] + np.einsum("ni,ij,nj->n", xi, terms["Q1"], xi)
    return num / den


def _gradient(terms, xi):
    num = float(terms["c2"] + 2.0 * xi @ terms["q2"] + xi @ terms["Q2"] @ xi)
    den = 1.0 + float(terms["c1"] + 2.0 * xi @ terms["q1"] + xi @ terms["Q1"] @ xi)
    d_num = 2.0 * (terms["q2"] + terms["Q2"] @ xi)
    d_den = 2.0 * (terms["q1"] + terms["Q1"] @ xi)
    return (d_num * den - num * d_den) / den**2


def _project(u_set, xi):
    if isinstance(u_set, Zonotope) or u_set.num_constraints == 0:
        return np.clip(xi, -1.0, 1.0), True
    proj, ok = project_factors(u_set.A, u_set.b, xi[None, :])
    return proj[0], bool(ok[0])


def design_input(state, x, u_set, config=None, rng=None):
    """Pick the input in u_set that maximizes the information gain delta_A.

    Random candidate factors seed a projected gradient ascent with a halving
    (Armijo) line search; the best point seen anywhere is kept.  Returns
    (u, gain).
    """
    config = config or DesignConfig()
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    terms = _fractional_terms(state, x, u_set)
    cands = sample_factors(u_set, rng, config.n_candidates)
    vals = _objective(terms, cands)
    best_idx = int(np.argmax(vals))
    best_xi, best_val = cands[best_idx].copy(), float(vals[best_idx])

    xi, val = best_xi.copy(), best_val
    for _ in range(config.refine_iters):
        grad = _gradient(terms, xi)
        step = config.refine_step
        moved = False
        while step > 1e-12:
            cand, feasible = _project(u_set, xi + step * grad)
            if feasible:
                cand_val = float(_objective(terms, cand)[0])
                gap = float(grad @ (cand - xi))
                if cand_val >= val + 1e-4 * gap and cand_val > val:
                    xi, val, moved = cand, cand_val, True
                    break
            step *= 0.5
        if not moved:
            break
    if val > best_val:
        best_xi, best_val = xi, val
    return u_set.c + u_set.G @ best_xi, best_val
