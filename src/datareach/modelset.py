"""Model sets consistent with noisy state-transition data.

Given trajectory data X_plus = M Phi + W_minus with Phi = [X_minus; U_minus]
and columns of W_minus drawn from a zonotope <0, G_w>, every right inverse H
of Phi yields a matrix zonotope of models {(X_plus - W) H} guaranteed to
contain the true M.  Adding the kernel-consistency constraints
(X_plus - W) Phi_perp = 0 tightens this to a constrained matrix zonotope.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_full_row_rank, nullspace_basis
from .sets import ConstrainedMatrixZonotope, MatrixZonotope


class ModelSetError(ValueError):
    """Raised when the data cannot support model-set construction."""


@dataclass
class DataSet:
    """Stacked one-step transition data from one or more trajectories.

    x_minus / u_minus hold the state and input at the start of each
    transition (columns), x_plus the successor state.  traj_lengths gives the
    number of transitions contributed by each trajectory, in column order.
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    u_minus: np.ndarray
    traj_lengths: tuple = ()

    def __post_init__(self):
        self.x_plus = np.asarray(self.x_plus, dtype=float)
        self.x_minus = np.asarray(self.x_minus, dtype=float)
        self.u_minus = np.asarray(self.u_minus, dtype=float)
        t = self.x_plus.shape[1]
        assert self.x_minus.shape == self.x_plus.shape
        assert self.u_minus.ndim == 2 and self.u_minus.shape[1] == t
        self.traj_lengths = tuple(int(k) for k in self.traj_lengths)
        if self.traj_lengths:
            assert sum(self.traj_lengths) == t, "trajectory lengths must sum to T"

    @property
    def n_x(self):
        return self.x_plus.shape[0]

    @property
    def n_u(self):
        return self.u_minus.shape[0]

    @property
    def d(self):
        return self.n_x + self.n_u

    @property
    def T(self):
        return self.x_plus.shape[1]

    @property
    def phi(self):
        """Regressor [X_minus; U_minus], shape (d, T)."""
        return np.vstack([self.x_minus, self.u_minus])

    def to_dict(self):
        return {
            "x_plus": self.x_plus.tolist(),
            "x_minus": self.x_minus.tolist(),
            "u_minus": self.u_minus.tolist(),
            "traj_lengths": list(self.traj_lengths),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            np.asarray(d["x_plus"]), np.asarray(d["x_minus"]),
            np.asarray(d["u_minus"]), tuple(d.get("traj_lengths", ())),
        )


def build_noise_mz(w_generators, t):
    """Matrix zonotope of all noise matrices with columns from <0, G_w>.

    One rank-one generator per (time column, noise direction): generator
    l = t * p_w + j places noise direction j in column t (t-major order).
    """
    g_w = np.asarray(w_generators, dtype=float)
    assert g_w.ndim == 2
    n_x, p_w = g_w.shape
    gens = np.zeros((p_w * t, n_x, t))
    for k in range(t):
        gens[k * p_w : (k + 1) * p_w, :, k] = g_w.T
    return MatrixZonotope(np.zeros((n_x, t)), gens)


def build_denoised(x_plus, noise_mz):
    """Matrix zonotope X_plus - noise set: contains M Phi for the true M."""
    x_plus = np.asarray(x_plus, dtype=float)
    assert x_plus.shape == noise_mz.shape
    return MatrixZonotope(x_plus - noise_mz.C, -noise_mz.generators)


def kernel_constraints(denoised, phi_perp, consistency_rtol=1e-9):
    """Constraints on the denoised factors from (X_plus - W) Phi_perp = 0.

    Column l of A is vec(G_l @ Phi_perp) (column-major), b = -vec(C @ Phi_perp).
    Rows whose generator coefficients all vanish are dropped after checking
    the corresponding rhs is consistent (near zero).  Returns (A, b).
    """
    phi_perp = np.asarray(phi_perp, dtype=float)
    kappa = denoised.num_generators
    n_x = denoised.shape[0]
    r = phi_perp.shape[1]
    assert phi_perp.shape[0] == denoised.shape[1]
    blocks = np.einsum("lnt,tr->lnr", denoised.generators, phi_perp)
    # vec in column-major order: entry (i, j) of a block lands at j * n_x + i
    a = blocks.transpose(0, 2, 1).reshape(kappa, r * n_x).T
    b = (-(denoised.C @ phi_perp)).flatten(order="F")
    zero_rows = ~np.any(a != 0.0, axis=1) if kappa else np.ones(b.size, dtype=bool)
    if np.any(zero_rows):
        scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
        bad = np.abs(b[zero_rows]) > consistency_rtol * scale
        if np.any(bad):
            raise ModelSetError(
                "kernel constraints are inconsistent: a zero row demands a "
                f"nonzero rhs (max |rhs| = {np.max(np.abs(b[zero_rows])):.3e})"
            )
        keep = ~zero_rows
        a, b = a[keep], b[keep]
    return a, b


@dataclass
class ModelSetBundle:
    """Everything derived from one data set and one right inverse."""

    mz: MatrixZonotope
    cmz: ConstrainedMatrixZonotope
    right_inverse: np.ndarray
    noise_mz: MatrixZonotope
    denoised: MatrixZonotope
    phi: np.ndarray
    phi_perp: np.ndarray

    @property
    def nullity(self):
        return self.phi_perp.shape[1]


def build_model_sets(data, w_generators, h):
    """Model sets (plain and constrained) from data and a right inverse H.

    Requires Phi full row rank and Phi H = I within 1e-8.
    """
    phi = data.phi
    d, t = phi.shape
    h = np.asarray(h, dtype=float)
    assert h.shape == (t, d), f"right inverse must be {t} x {d}"
    if not is_full_row_rank(phi):
        raise ModelSetError("regressor is not full row rank")
    residual = phi @ h - np.eye(d)
    if np.max(np.abs(residual)) > 1e-8:
        raise ModelSetError(
            f"H is not a right inverse of Phi (max residual {np.max(np.abs(residual)):.2e})"
        )
    noise_mz = build_noise_mz(w_generators, t)
    denoised = build_denoised(data.x_plus, noise_mz)
    phi_perp = nullspace_basis(phi)
    a, b = kernel_constraints(denoised, phi_perp)
    center = denoised.C @ h
    kappa = denoised.num_generators
    if kappa:
        gens = np.einsum("lnt,td->lnd", denoised.generators, h)
    else:
        gens = np.zeros((0, data.n_x, d))
    mz = MatrixZonotope(center, gens)
    cmz = ConstrainedMatrixZonotope(center, gens, a, b)
    return ModelSetBundle(mz, cmz, h, noise_mz, denoised, phi, phi_perp)


def generator_norm_proxy(m):
    """Sum of Frobenius norms of the generators: a cheap size proxy for a
    matrix zonotope (its exact volume is intractable)."""
    gens = m.generators
    if gens.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.einsum("lij,lij->l", gens, gens)).sum())
