"""Model sets consistent with noisy state-transition data.

Given trajectory data X_plus = M Phi + W_minus with Phi = [X_minus; U_minus]
and columns of W_minus drawn from a zonotope <0, G_w>, every right inverse H
of Phi yields a matrix zonotope of models {(X_plus - W) H} guaranteed to
contain the true M.  Adding the kernel-consistency constraints
(X_plus - W) N = 0, for a basis N of the null space of Phi, tightens this to
a constrained matrix zonotope.  Any basis gives the same set; the sparse one
that linalg.Svd.null reads from the SVD of Phi gives kernel rows with at
most rank(Phi) + 1 nonzero coefficients per noise direction.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import svd
from .sets import MatrixZonotope


# Largest |rhs|, relative to max(1, max |b|), that a kernel-constraint row
# with all-zero coefficients may carry before the data count as inconsistent.
CONSISTENCY_RTOL = 1e-9


class ModelSetError(ValueError):
    """Raised when the data cannot support model-set construction."""


@dataclass
class DataSet:
    """Stacked one-step transition data from one or more trajectories.

    x_minus / u_minus hold the state and input at the start of each
    transition (columns), x_plus the successor state.
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    u_minus: np.ndarray

    def __post_init__(self):
        self.x_plus = np.asarray(self.x_plus, dtype=float)
        self.x_minus = np.asarray(self.x_minus, dtype=float)
        self.u_minus = np.asarray(self.u_minus, dtype=float)
        t = self.x_plus.shape[1]
        if self.x_minus.shape != self.x_plus.shape:
            raise ModelSetError(f"x_minus has shape {self.x_minus.shape}, "
                                f"x_plus {self.x_plus.shape}")
        if self.u_minus.ndim != 2 or self.u_minus.shape[1] != t:
            raise ModelSetError(f"u_minus must be n_u x {t}, got {self.u_minus.shape}")

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


@dataclass
class ModelSetBundle:
    """The plain and the kernel-constrained model set of one data set and one
    right inverse."""

    mz: MatrixZonotope
    cmz: MatrixZonotope


def build_model_sets(data, w_generators, h):
    """Model sets (plain and constrained) from data and a right inverse H.

    The noise set holds every W whose column t lies in <0, G_w>; its factor
    l = t * p_w + j places noise direction g_j in column t (t-major), so its
    generators are the rank-one g_j e_t'.  The model set (X_plus - W) H then
    has center X_plus H and generators -g_j H[t, :].  The kernel constraints
    (X_plus - W) N = 0, with N the sparse null-space basis of Phi (each
    column has at most d + 1 nonzeros), in column-major vec form read
    A = -kron(N', G_w) and b = -vec(X_plus N), so a row of A has at most
    (d + 1) times as many nonzeros as its row of G_w.  Rows of A that are
    all zero are dropped after checking that their rhs is near zero.

    Requires Phi full row rank and Phi H = I within 1e-8.
    """
    phi = data.phi
    d, t = phi.shape
    h = np.asarray(h, dtype=float)
    if h.shape != (t, d):
        raise ModelSetError(f"right inverse must be {t} x {d}, got {h.shape}")
    g_w = np.asarray(w_generators, dtype=float)
    if g_w.ndim != 2 or g_w.shape[0] != data.n_x:
        raise ModelSetError(f"noise generators must be {data.n_x} x p_w, got {g_w.shape}")
    factors = svd(phi)
    if not factors.full_row_rank:
        raise ModelSetError("regressor is not full row rank")
    residual = phi @ h - np.eye(d)
    if np.max(np.abs(residual)) > 1e-8:
        raise ModelSetError(
            f"H is not a right inverse of Phi (max residual {np.max(np.abs(residual)):.2e})"
        )
    n_x, p_w = g_w.shape
    null = factors.null
    # kron(N', -G_w) as one broadcast product; "+= 0.0" (and "+ 0.0" on the
    # generators) maps the -0.0 products of zero entries to 0.0, so emitted
    # set files never print "-0.0"
    a = (null.T[:, None, :, None] * -g_w[None, :, None, :]).reshape(null.shape[1] * n_x, t * p_w)
    a += 0.0
    b = (-(data.x_plus @ null)).flatten(order="F")
    zero_rows = ~np.any(a != 0.0, axis=1)
    if np.any(zero_rows):
        scale = max(1.0, float(np.max(np.abs(b))))
        if np.any(np.abs(b[zero_rows]) > CONSISTENCY_RTOL * scale):
            raise ModelSetError(
                "kernel constraints are inconsistent: a zero row demands a "
                f"nonzero rhs (max |rhs| = {np.max(np.abs(b[zero_rows])):.3e})"
            )
        a, b = a[~zero_rows], b[~zero_rows]
    center = data.x_plus @ h
    gens = (-g_w.T[None, :, :, None] * h[:, None, None, :]).reshape(t * p_w, n_x, d) + 0.0
    return ModelSetBundle(MatrixZonotope(center, gens),
                          MatrixZonotope(center, gens, a, b))


def generator_norm_proxy(m):
    """Sum of Frobenius norms of the generators: a cheap size proxy for a
    matrix zonotope (its exact volume is intractable)."""
    gens = m.generators
    if gens.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.einsum("lij,lij->l", gens, gens)).sum())
