"""Zonotopic set representations and operations.

A vector set is a Zonotope <c, G, A, b>: the points c + G xi for factors
xi in [-1, 1]^m with A xi = b.  A plain zonotope is the case with no
constraint rows; a constrained zonotope (Scott et al., Automatica 2016) has
some.  A matrix set is a MatrixZonotope <C, {G_l}, A, b>, whose factors beta
satisfy A beta = b in the same way.  The row count alone decides how a set
is serialized and which queries have a closed form, so a set never changes
class: ConstrainedZonotope and ConstrainedMatrixZonotope are other names of
the same two classes.  The empty set is a Zonotope too: empty_set builds
it with no factors and the one row 0 = 1, and every operation carries such
a row along like any other, so none treats the empty set apart.  A set is
empty exactly when no factors in the box satisfy its rows, which is_empty
decides.  Operations are module-level functions; the classes are thin
containers with validation and JSON round-tripping.
"""

import math
import numbers

import numpy as np

from .linalg import LpProblem, lp_solve, svd


class EmptySetError(ValueError):
    """Raised when an operation needs a nonempty set but got an empty one."""


def _vector(x):
    v = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def _gen_matrix(g, dim):
    if g is None:
        return np.zeros((dim, 0))
    a = np.asarray(g, dtype=float)
    if a.ndim == 1:
        a = a.reshape(dim, -1) if dim == 1 else a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] != dim:
        raise ValueError(f"generator matrix must be {dim} x m, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("generators have non-finite entries")
    return a


def _constraints(a, b, m):
    """(A, b) as a q x m matrix and a q-vector; a None a means no rows, an
    empty a keeps its row count when it is 2-D, and a None b is zero."""
    a = np.zeros((0, m)) if a is None else np.asarray(a, dtype=float)
    a = np.zeros((a.shape[0] if a.ndim == 2 else 0, m)) if a.size == 0 else a.reshape(-1, m)
    b = np.zeros(a.shape[0]) if b is None else _vector(b)
    if b.size != a.shape[0]:
        raise ValueError(f"constraint rhs has {b.size} entries for {a.shape[0]} rows")
    if not np.all(np.isfinite(a)):
        raise ValueError("constraint matrix has non-finite entries")
    return a, b


def _block_diag(a, b):
    """The block-diagonal matrix [[a, 0], [0, b]]."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


class Zonotope:
    """<c, G, A, b>: {c + G xi : xi in [-1, 1]^m, A xi = b}, with no rows
    (a plain zonotope) unless a is given.

    _lp_basis caches the optimal simplex basis of the last support LP on
    the set's own feasible region (see _own_columns) as the two status
    arrays (columns, rows) that lp_solve returns, never a solver instance;
    every later LP on the set starts from it, and only support LPs replace
    it.  Copies and derived sets start without one; the one exception is
    a propagated fragment, which inherit_lp_basis hands its parent's basis
    when the parent's own LP is the leading block of the fragment's.
    """

    __slots__ = ("c", "G", "A", "b", "_lp_basis")

    def __init__(self, center, generators=None, a=None, b=None):
        self.c = _vector(center)
        self.G = _gen_matrix(generators, self.c.size)
        self.A, self.b = _constraints(a, b, self.G.shape[1])
        self._lp_basis = None

    @property
    def dim(self):
        return self.c.size

    @property
    def num_generators(self):
        return self.G.shape[1]

    @property
    def num_constraints(self):
        return self.A.shape[0]

    def copy(self):
        return Zonotope(self.c.copy(), self.G.copy(), self.A.copy(), self.b.copy())

    def __repr__(self):
        return (f"Zonotope(dim={self.dim}, gens={self.num_generators}, "
                f"cons={self.num_constraints})")

    def to_dict(self):
        """{"type": "zonotope", "c", "G"} without rows, else the
        "constrained_zonotope" form that adds "A" and "b"."""
        d = {"type": "zonotope", "c": self.c.tolist(), "G": _array_to_json(self.G)}
        if self.num_constraints:
            d.update(type="constrained_zonotope", A=_array_to_json(self.A), b=self.b.tolist())
        return d


class MatrixZonotope:
    """<C, {G_l}, A, b>: {C + sum_l beta_l G_l : beta in [-1, 1]^kappa,
    A beta = b}, with no rows unless a is given.

    Generators are stored as one (kappa, rows, cols) array.
    """

    __slots__ = ("C", "generators", "A", "b")

    def __init__(self, center, generators=None, a=None, b=None):
        self.C = np.asarray(center, dtype=float)
        if self.C.ndim != 2:
            raise ValueError(f"matrix-zonotope center must be 2-D, got shape {self.C.shape}")
        if generators is None:
            gens = np.zeros((0,) + self.C.shape)
        else:
            gens = np.asarray(generators, dtype=float)
            if gens.ndim == 2:
                gens = gens[None, :, :]
        if gens.ndim != 3 or gens.shape[1:] != self.C.shape:
            raise ValueError(f"generators must be (kappa, {self.C.shape[0]}, {self.C.shape[1]}), "
                             f"got shape {gens.shape}")
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(gens))):
            raise ValueError("matrix zonotope has non-finite entries")
        self.generators = gens
        self.A, self.b = _constraints(a, b, gens.shape[0])

    @property
    def shape(self):
        return self.C.shape

    @property
    def num_generators(self):
        return self.generators.shape[0]

    @property
    def num_constraints(self):
        return self.A.shape[0]

    def at(self, beta):
        """The member matrix C + sum_l beta_l G_l."""
        beta = _vector(beta)
        if beta.size != self.num_generators:
            raise ValueError(f"beta has {beta.size} entries, expected {self.num_generators}")
        if beta.size == 0:
            return self.C.copy()
        return self.C + np.einsum("l,lij->ij", beta, self.generators)

    def __repr__(self):
        return (f"MatrixZonotope(shape={self.shape}, gens={self.num_generators}, "
                f"cons={self.num_constraints})")

    def to_dict(self):
        """{"type": "matrix_zonotope", "C", "generators"} without rows, else
        the "constrained_matrix_zonotope" form that adds "A" and "b"."""
        d = {
            "type": "matrix_zonotope",
            "C": _array_to_json(self.C),
            "generators": [_array_to_json(g) for g in self.generators],
        }
        if self.num_constraints:
            d.update(type="constrained_matrix_zonotope", A=_array_to_json(self.A),
                     b=self.b.tolist())
        return d


# Other names of the two classes: a set with constraint rows is no other type.
ConstrainedZonotope = Zonotope
ConstrainedMatrixZonotope = MatrixZonotope


def empty_set(dim):
    """The empty subset of R^dim: no factors and the one row 0 = 1."""
    return Zonotope(np.zeros(dim), None, np.zeros((1, 0)), [1.0])


# ---------------------------------------------------------------------------
# JSON round-tripping.  Large sparse matrices are stored in triplet form.

_SPARSE_MIN_SIZE = 256
_SPARSE_MAX_DENSITY = 0.25


def _array_to_json(a):
    a = np.asarray(a, dtype=float)
    if a.size >= _SPARSE_MIN_SIZE:
        nz = np.nonzero(a)
        if len(nz[0]) <= _SPARSE_MAX_DENSITY * a.size:
            return {
                "shape": list(a.shape),
                "rows": nz[0].tolist(),
                "cols": nz[1].tolist(),
                "vals": a[nz].tolist(),
            }
    return a.tolist()


def _array_from_json(d):
    """A nested list, or a {"shape", "rows", "cols", "vals"} triplet, as a
    float array; ValueError unless the triplet's shape is two nonnegative
    ints and its lists are flat, of one length and index into that shape."""
    if not isinstance(d, dict):
        return np.asarray(d, dtype=float)
    shape, rows, cols, vals = (np.asarray(d[k]) for k in ("shape", "rows", "cols", "vals"))
    if shape.shape != (2,) or shape.dtype.kind not in "iu" or np.any(shape < 0):
        raise ValueError(f"triplet shape must be two nonnegative ints, got {d['shape']!r}")
    if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
        raise ValueError(f"triplet rows, cols and vals must be flat lists of one length, "
                         f"got shapes {rows.shape}, {cols.shape} and {vals.shape}")
    for name, idx, bound in (("rows", rows, shape[0]), ("cols", cols, shape[1])):
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= bound):
            raise ValueError(f"triplet {name} must be ints in 0..{bound - 1}, got {idx.tolist()}")
    a = np.zeros(shape)
    a[rows.astype(int), cols.astype(int)] = vals.astype(float)
    return a


def set_from_dict(d):
    """Inverse of the to_dict methods.  Either spelling of a vector or a
    matrix set loads; its "A" and "b", when present, are its rows."""
    kind = d["type"]
    a = _array_from_json(d["A"]) if "A" in d else None
    if kind in ("zonotope", "constrained_zonotope"):
        return Zonotope(d["c"], _array_from_json(d["G"]), a, d.get("b"))
    if kind in ("matrix_zonotope", "constrained_matrix_zonotope"):
        c = _array_from_json(d["C"])
        gens = (np.stack([_array_from_json(g) for g in d["generators"]]) if d["generators"]
                else np.zeros((0,) + c.shape))
        return MatrixZonotope(c, gens, a, d.get("b"))
    raise ValueError(f"unknown set type {kind!r}")


# ---------------------------------------------------------------------------
# Basic operations


def _check_dims(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def minkowski_sum(a, b):
    """Minkowski sum; the constraint rows of both operands stay on their
    factors."""
    _check_dims(a, b)
    return Zonotope(a.c + b.c, np.hstack([a.G, b.G]), _block_diag(a.A, b.A),
                    np.concatenate([a.b, b.b]))


def linear_map(m, z):
    """Image under x -> M x."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != z.dim:
        raise ValueError(f"map of shape {m.shape} does not apply to dimension {z.dim}")
    return Zonotope(m @ z.c, m @ z.G, z.A, z.b)


def cartesian_product(a, b):
    """Stacked set {(x, y) : x in a, y in b}."""
    return Zonotope(np.concatenate([a.c, b.c]), _block_diag(a.G, b.G), _block_diag(a.A, b.A),
                    np.concatenate([a.b, b.b]))


# ---------------------------------------------------------------------------
# Queries
#
# Every LP on a set z extends z's own LP {A xi = b, |xi| <= 1} over the
# factors _own_columns picks: supports change only its costs, emptiness and
# membership add rows (and the remaining factors as columns).  Each starts
# from the basis cached on z.  A support LP is the own LP itself, so its
# final basis replaces the cache; the feasibility LPs never write it.


def _own_columns(z):
    """Mask of the factors in z's own LP: those with a nonzero A column, or
    all of them when A is zero (the LP still decides whether 0 = b).  The
    other factors are separable and enter supports in closed form."""
    cons = np.any(z.A != 0.0, axis=0)
    if not cons.any():
        cons[:] = True
    return cons


def _support(z, dirs, purpose):
    """Support values for the rows of dirs (k, n): closed form for a set
    without rows and for separable factors, one batched LP on the own LP for
    the rest.  Raises EmptySetError when the set is empty."""
    dg = dirs @ z.G
    vals = dirs @ z.c
    if z.num_constraints == 0:
        vals += np.sum(np.abs(dg), axis=1)
        return vals
    if z.num_generators == 0:  # A xi = b has no factors and needs b = 0
        if np.any(z.b):
            raise EmptySetError("support of an empty zonotope")
        return vals
    cons = _own_columns(z)
    res = lp_solve(LpProblem(dg[:, cons], z.A[:, cons], z.b, basis=z._lp_basis,
                             keep_basis=True, purpose=purpose))
    if res.status == "infeasible":
        raise EmptySetError("support of an empty zonotope")
    if res.basis is not None:
        z._lp_basis = res.basis
    vals += np.sum(np.abs(dg[:, ~cons]), axis=1) + res.objectives
    return vals


def inherit_lp_basis(child, parent):
    """Start child's LPs from parent's cached basis when parent's own LP is
    the leading block of child's: parent's own columns are its first k, and
    its q rows are child's first q, with the same coefficients on child's
    first k columns and zeros on the rest.  A basis of a leading block of
    parent's own LP (the one it inherited counts), padded as
    LpProblem.basis describes, is then a basis of a leading block of
    child's own LP.  A propagation step keeps this, since it puts the
    constrained columns first and appends its rows, and so does a guard
    cut, which appends one column and one row.  Otherwise child keeps the
    basis it has."""
    if parent._lp_basis is None:
        return
    own = np.any(parent.A != 0.0, axis=0)
    k, q = np.count_nonzero(own), parent.num_constraints
    # k = 0 (an A without a nonzero column) fails: _own_columns then takes
    # every column
    if (k and own[:k].all() and np.array_equal(child.A[:q, :k], parent.A[:, :k])
            and not np.any(child.A[:q, k:])):
        child._lp_basis = parent._lp_basis


def _feasible(z, rows, lo, hi, box, purpose):
    """Whether some factors xi with |xi| <= box and A xi = b satisfy
    lo <= rows @ xi <= hi: the own LP plus these rows, with the other
    factors as extra columns, from z's cached basis."""
    m = z.num_generators
    if m == 0:  # rows @ xi is 0, and A xi = b needs b = 0
        return bool(np.all(lo <= 0.0) and np.all(hi >= 0.0) and not np.any(z.b))
    cons = _own_columns(z)
    order = np.concatenate([np.flatnonzero(cons), np.flatnonzero(~cons)])
    problem = LpProblem(np.zeros((1, m)), z.A[:, order], z.b, box, rows=(rows[:, order], lo, hi),
                        basis=z._lp_basis, purpose=purpose)
    return lp_solve(problem).status == "feasible"


def support(z, direction):
    """Support value max{d . x : x in z}.

    direction is one direction (n,), which gives a float, or a stack (k, n),
    which gives an array of k values.  On a set with rows the factors whose
    A column is zero are separable and add sum |d . g| in closed form; the
    other factors make one LP whose k objectives share one warm-started
    solver model, started from the set's cached basis.  Raises
    EmptySetError on empty sets.
    """
    d = np.asarray(direction, dtype=float)
    if d.ndim not in (1, 2) or d.shape[-1] != z.dim:
        raise ValueError(f"direction must be ({z.dim},) or (k, {z.dim}), got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("direction has non-finite entries")
    vals = _support(z, d.reshape(-1, z.dim), "support")
    return float(vals[0]) if d.ndim == 1 else vals


def interval_hull(z):
    """Tight axis-aligned bounds as a (lo, hi) pair of arrays."""
    n = z.dim
    vals = support(z, np.vstack([np.eye(n), -np.eye(n)]))
    return -vals[n:], vals[:n]


def is_empty(z, region=(), each=False):
    """Whether z, or z intersected with a region, is empty.

    region is a sequence of (normal, offset) pairs, the halfspaces
    normal . x <= offset.  One halfspace is decided by whether min normal . x
    over z (its support in -normal) exceeds the offset; otherwise by the
    feasibility of z's own LP with the rows normal . G xi <= offset -
    normal . c added.  The result equals is_empty of the set that
    halfspace_intersection cuts from z, without building that set.

    With each=True every halfspace of region is taken alone: the result is
    a bool array whose entry i tells whether z cut by halfspace i is empty,
    and one support LP with an objective per halfspace decides them all.
    """
    halfspaces = [(_vector(h), float(o)) for h, o in region]
    for h, _ in halfspaces:
        if h.size != z.dim:
            raise ValueError(f"normal has {h.size} entries, the set dimension {z.dim}")
    normals = np.array([h for h, _ in halfspaces]).reshape(-1, z.dim)
    offsets = np.array([o for _, o in halfspaces])
    if each or offsets.size == 1:
        empty = np.zeros(offsets.size, dtype=bool)
        if offsets.size:
            try:
                empty = -_support(z, -normals, "is_empty") > offsets
            except EmptySetError:
                empty[:] = True
        return empty if each else bool(empty[0])
    if not halfspaces and z.num_constraints == 0:
        return False
    return not _feasible(z, normals @ z.G, np.full(offsets.size, -np.inf),
                         offsets - normals @ z.c, 1.0, "is_empty")


def contains_point(z, x, tol=1e-9):
    """LP membership test: is x within tol of the set?

    Looks for factors xi with |xi| <= 1 + tol, A xi = b, and
    |c + G xi - x| <= tol componentwise: the n rows
    G xi in [x - c - tol, x - c + tol] added to the set's own LP.
    """
    x = _vector(x)
    if x.size != z.dim:
        raise ValueError(f"point has {x.size} entries, the set dimension {z.dim}")
    return _feasible(z, z.G, x - z.c - tol, x - z.c + tol, 1.0 + tol, "contains_point")


def halfspace_intersection_with_plan(z, normal, offset):
    """halfspace_intersection that also reports what happened.

    The second return value is ("pass",) when the halfspace does not cut,
    ("empty",) when the sets are disjoint, which returns empty_set(dim), and
    ("cut", row, w, rhs) when a factor and constraint row [row, w] xi' = rhs
    were appended.  A member point with factors xi gets the new factor
    (rhs - row . xi) / w.
    """
    h = _vector(normal)
    c = float(offset)
    if h.size != z.dim:
        raise ValueError(f"normal has {h.size} entries, the set dimension {z.dim}")
    d = float(h @ z.c)
    row = h @ z.G
    r = float(np.sum(np.abs(row)))
    if d + r <= c:
        return z, ("pass",)
    if d - r > c:
        return empty_set(z.dim), ("empty",)
    w = (c - d + r) / 2.0
    rhs = (c - d - r) / 2.0
    g = np.hstack([z.G, np.zeros((z.dim, 1))])
    a_new = _block_diag(z.A, np.array([[w]]))
    a_new[-1, :-1] = row
    return Zonotope(z.c, g, a_new, np.concatenate([z.b, [rhs]])), ("cut", row, w, rhs)


def halfspace_intersection(z, normal, offset):
    """Intersection with {x : h . x <= c}.

    Returns the input unchanged when the halfspace does not cut it,
    empty_set(dim) when they are disjoint, and otherwise the set with one
    extra factor and one extra constraint row.  Disjointness is read from c
    and G alone, so a set with rows can also be cut into a set that is
    empty only through its rows; is_empty decides that.
    """
    return halfspace_intersection_with_plan(z, normal, offset)[0]


# ---------------------------------------------------------------------------
# Order reduction


def girard(g, budget):
    """Girard reduction of the generator columns g to at most budget columns.

    Keeps the budget - dim columns with the largest l1-minus-linf score
    (of equal scores, the later columns) and covers the rest with an
    axis-aligned box, one column per nonzero row.  Returns (kept, box_rows,
    box_radii, g_out): kept indexes the surviving columns of g (sorted), and
    g_out is g[:, kept] followed by the box columns.  When g already fits,
    every column is kept and g is returned.
    """
    n, m = g.shape
    if m <= budget:
        return np.arange(m), np.zeros(0, dtype=int), np.zeros(0), g
    a = np.abs(g)
    order = np.argsort(a.sum(axis=0) - a.max(axis=0), kind="stable")
    kept = np.sort(order[m - (budget - n):])
    # the boxed columns' row sums, without gathering them: zero the kept
    # columns of |g| and sum whole rows
    a[:, kept] = 0.0
    radii = a.sum(axis=1)
    rows = np.flatnonzero(radii > 0.0)
    g_out = np.zeros((n, kept.size + rows.size))
    g_out[:, : kept.size] = g[:, kept]
    g_out[rows, kept.size + np.arange(rows.size)] = radii[rows]
    return kept, rows, radii[rows], g_out


def reduce_girard(z, max_order):
    """Girard order reduction: box the lowest-scoring generators so that at
    most max_order * dim generators remain.  Returns z itself when it
    already fits.  Only a zonotope without constraint rows is reduced."""
    if z.num_constraints:
        raise ValueError("reduce_girard needs a zonotope without constraint rows")
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    kept, _, _, g = girard(z.G, int(math.floor(max_order * z.dim)))
    return z if g is z.G else Zonotope(z.c, g)


# ---------------------------------------------------------------------------
# Volume and projections


# Generator subsets volume() will enumerate before refusing.  Its work grows
# with this count; up to 1e7 an exact volume takes seconds (on one 2-core
# host: 0.11 s for the 8.6e6 subsets of a 5 x 66 set, 1.6 s for the 3.3e6 of
# a 15 x 25 one).  Past it, reduce the zonotope first.
_MAX_VOLUME_SUBSETS = 10_000_000

# Entries of the largest array one level of the volume recursion builds.
_VOLUME_BLOCK = 1 << 20


def volume(z):
    """Exact volume of a zonotope without constraint rows: 2^n * sum over
    n-column subsets S of |det G_S|.  Refuses when there are more than
    _MAX_VOLUME_SUBSETS subsets."""
    if z.num_constraints:
        raise ValueError("volume is defined for zonotopes without constraint rows")
    n, m = z.dim, z.num_generators
    if m < n:
        return 0.0
    n_subsets = math.comb(m, n)
    if n_subsets > _MAX_VOLUME_SUBSETS:
        raise ValueError(
            f"volume would enumerate {n_subsets} generator subsets "
            f"(> {_MAX_VOLUME_SUBSETS}); reduce the zonotope first"
        )
    if n == 0:
        return 1.0
    if n == 1:
        return 2.0 * float(np.abs(z.G).sum())
    return (2.0 ** n) * _abs_det_sum(z.G, np.eye(n)[None], np.ones(1), np.array([-1]))


def _abs_det_sum(g, basis, vol, last):
    """Sum of |det G_S| over the n-column subsets S that extend the given
    k-column subsets by larger columns.

    Each k-subset keeps its wedge product in factored form: vol, the
    k-volume of its columns, and basis (n - k orthonormal rows spanning the
    orthogonal complement of their span).  Adding column j multiplies vol
    by the length of g_j's component p in that complement, and one
    Householder reflection of p drops it from the basis.  The subsets with
    last column j extend the prefix of rows with last < j, so every level
    stays ordered by last (nondecreasing).  At k = n - 2 the last two
    columns close in the plane of the basis: |det G_(S + j + l)| is vol
    times the 2-D cross product of the projections of g_j and g_l.
    """
    n, m = g.shape
    k = n - basis.shape[1]
    # columns that leave room for n - k - 1 larger ones
    cols = np.arange(last[0] + 1, m - n + k + 1)
    ends = np.searchsorted(last, cols)
    # the largest array of the last level is the projection of columns
    # cols[0].., of a level above it the children's bases
    leaf = k == n - 2
    size = last.size * 2 * (m - cols[0]) if leaf else int(ends.sum()) * (n - k) * n
    if size > _VOLUME_BLOCK and last.size > 1:
        h = last.size // 2
        return (_abs_det_sum(g, basis[:h], vol[:h], last[:h])
                + _abs_det_sum(g, basis[h:], vol[h:], last[h:]))
    if leaf:
        p = basis @ g[:, cols[0]:]
        x, y = p[:, 0], p[:, 1]  # (rows, columns cols[0]..) each
        cross = np.zeros(last.size)
        for j, end in zip(cols - cols[0], ends):
            t = x[:end, j:j + 1] * y[:end, j + 1:]
            t -= y[:end, j:j + 1] * x[:end, j + 1:]
            cross[:end] += np.abs(t, out=t).sum(axis=1)
        return float(vol @ cross)
    children = int(ends.sum())
    out_basis = np.empty((children, n - k - 1, n))
    out_vol = np.empty(children)
    start = 0
    for j, end in zip(cols, ends):
        q = basis[:end]
        u = q @ g[:, j]  # p, in basis coordinates
        norm = np.sqrt(np.einsum("sc,sc->s", u, u))
        out_vol[start:start + end] = vol[:end] * norm
        # Householder vector u = p + sign(p_0) |p| e_0: the reflection
        # I - 2 u u^T / |u|^2 maps p onto the first basis row, and
        # |u|^2 = 2 |p| |u_0|; a zero p (vol 0 from here on) drops row 0
        u[:, 0] += np.copysign(norm, u[:, 0])
        scale = norm * np.abs(u[:, 0])
        np.divide(1.0, scale, out=scale, where=scale > 0.0)
        qu = np.einsum("sc,scn->sn", u, q) * scale[:, None]
        out_basis[start:start + end] = q[:, 1:] - u[:, 1:, None] * qu[:, None, :]
        start += end
    return _abs_det_sum(g, out_basis, out_vol, np.repeat(cols, ends))


def polygon_area(vertices):
    """Shoelace area of an ordered 2-D vertex list."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _zonotope_polygon(c, g):
    """Exact boundary of a 2-D zonotope, counterclockwise, without the
    middle vertices of straight runs of parallel generators."""
    norms = np.linalg.norm(g, axis=0)
    g = g[:, norms > 0.0]
    m = g.shape[1]
    if m == 0:
        return c.reshape(1, 2)
    # flip generators into the upper half-plane, then sort by angle
    flip = (g[1] < 0.0) | ((g[1] == 0.0) & (g[0] < 0.0))
    g = np.where(flip, -g, g)
    g = g[:, np.argsort(np.arctan2(g[1], g[0]), kind="stable")]
    steps = np.concatenate([(c - g.sum(axis=1))[:, None], 2.0 * g, -2.0 * g[:, :-1]], axis=1)
    verts = np.cumsum(steps.T, axis=0)  # adds each 2 g_i in turn, then subtracts them
    # vertices i and m + i lie between g_(i-1) and g_i (-g_(m-1) and g_0 for
    # i = 0), in the middle of an edge when |cross| <= rtol * dot: parallel
    # and pointing the same way, so a segment keeps its two ends
    e = np.concatenate([-g[:, -1:], g], axis=1)
    a, b = e[:, :-1], e[:, 1:]
    cross, dot = a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]
    middle = np.abs(cross) <= _REPEATED_VERTEX_RTOL * dot
    return verts[~np.concatenate([middle, middle])]


def project_polygon(z, dims, n_dirs=32):
    """Vertices of the projection onto coordinates dims = (i, j), 0-based
    and distinct, counterclockwise.

    A set without constraint rows is projected exactly.  A set with rows is
    over-approximated by intersecting n_dirs support halfplanes, taken on
    the set itself in the directions the 2-D ones select.  n_dirs must be an
    int >= 3 either way.
    """
    if isinstance(n_dirs, bool) or not isinstance(n_dirs, numbers.Integral) or n_dirs < 3:
        raise ValueError(f"n_dirs must be an int >= 3, got {n_dirs!r}")
    if len(dims) != 2 or any(int(d) != d for d in dims):
        raise ValueError(f"project_polygon needs two coordinate indices, got {dims}")
    u, v = (int(d) for d in dims)
    if not (0 <= u < z.dim and 0 <= v < z.dim and u != v):
        raise ValueError(f"coordinates {dims} are not two distinct indices in 0..{z.dim - 1}")
    sel = np.zeros((2, z.dim))
    sel[0, u] = 1.0
    sel[1, v] = 1.0
    if z.num_constraints == 0:
        return _zonotope_polygon(sel @ z.c, sel @ z.G)
    angles = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = support(z, dirs @ sel)
    # vertex i is where the support lines of directions i and i + 1 meet
    pairs = np.stack([dirs, np.roll(dirs, -1, axis=0)], axis=1)
    verts = np.linalg.solve(pairs, np.stack([vals, np.roll(vals, -1)], axis=1)[:, :, None])
    return _drop_repeated_vertices(verts[:, :, 0])


# Where several support lines meet in one point, neighbouring line pairs give
# the same vertex up to rounding.  This relative threshold is far below the LP
# tolerance the supports carry, so genuine short edges stay.  An exact outline
# drops the vertex between two generators parallel within it.
_REPEATED_VERTEX_RTOL = 1e-12


def _drop_repeated_vertices(verts):
    """Drop each vertex within _REPEATED_VERTEX_RTOL * extent of the last kept
    one (cyclically)."""
    if verts.shape[0] < 2:
        return verts
    tol = _REPEATED_VERTEX_RTOL * float(np.max(np.ptp(verts, axis=0)))
    keep = [0]
    for i in range(1, verts.shape[0]):
        if np.linalg.norm(verts[i] - verts[keep[-1]]) > tol:
            keep.append(i)
    while len(keep) > 1 and np.linalg.norm(verts[keep[-1]] - verts[keep[0]]) <= tol:
        keep.pop()
    return verts[keep]


# ---------------------------------------------------------------------------
# Sampling


_PROJECTION_PASSES = 100
_PROJECTION_TOL = 1e-9


def project_factors(a, b, xi):
    """Alternating projection of factor rows onto {A xi = b} intersect the unit
    box, for up to _PROJECTION_PASSES passes.  xi is (N, m); returns
    (projected, converged_mask), converged meaning every row residual is at
    most _PROJECTION_TOL."""
    xi = np.array(xi, dtype=float, ndmin=2)
    if a.shape[0] == 0:
        return np.clip(xi, -1.0, 1.0), np.ones(xi.shape[0], dtype=bool)
    a_pinv = svd(a).pinv
    for _ in range(_PROJECTION_PASSES):
        xi = xi - (xi @ a.T - b) @ a_pinv.T
        xi = np.clip(xi, -1.0, 1.0)
        ok = np.max(np.abs(xi @ a.T - b), axis=1) <= _PROJECTION_TOL
        if ok.all():
            break
    return xi, ok


def sample_factors(z, rng, count, max_tries=50):
    """count feasible factor rows (count x m) of a zonotope, drawn uniformly
    then projected onto its constraint rows (if any).  When the first round
    of projections converges for no row, one is_empty LP tells an empty set
    (EmptySetError at once) from a thin one (more rounds)."""
    m = z.num_generators
    if z.num_constraints == 0:
        return rng.uniform(-1.0, 1.0, size=(count, m))
    out = np.empty((0, m))
    for attempt in range(max_tries):
        raw = rng.uniform(-1.0, 1.0, size=(count, m))
        proj, ok = project_factors(z.A, z.b, raw)
        out = np.vstack([out, proj[ok]])
        if out.shape[0] >= count:
            return out[:count]
        if attempt == 0 and out.shape[0] == 0 and is_empty(z):
            raise EmptySetError("cannot sample an empty set: its rows admit no factors "
                                "in the unit box")
    raise EmptySetError("could not sample feasible factors; set may be empty or thin")


def sample_points(z, rng, count):
    """count points from the set, via factors drawn with sample_factors."""
    xi = sample_factors(z, rng, count)
    return z.c + xi @ z.G.T
