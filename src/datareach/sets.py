"""Zonotopic set representations and operations.

Vector sets: Zonotope <c, G>, ConstrainedZonotope <c, G, A, b> (factors
xi in [-1, 1]^m with A xi = b), and EmptySet.  Matrix sets: MatrixZonotope
<C, {G_l}> and ConstrainedMatrixZonotope (adds A beta = b over the matrix
factors).  Operations are module-level functions; the classes are thin
containers with validation and JSON round-tripping.
"""

import math

import numpy as np

from .linalg import BASIC, LpProblem, lp_solve, svd


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


def _check_constraints(a, b):
    if b.size != a.shape[0]:
        raise ValueError(f"constraint rhs has {b.size} entries for {a.shape[0]} rows")
    if not np.all(np.isfinite(a)):
        raise ValueError("constraint matrix has non-finite entries")


class EmptySet:
    """The empty subset of R^dim."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        self.dim = int(dim)

    def __repr__(self):
        return f"EmptySet(dim={self.dim})"

    def to_dict(self):
        return {"type": "empty", "dim": self.dim}


class Zonotope:
    """<c, G>: the set {c + G xi : xi in [-1, 1]^m}."""

    __slots__ = ("c", "G")

    def __init__(self, center, generators=None):
        self.c = _vector(center)
        self.G = _gen_matrix(generators, self.c.size)

    @property
    def dim(self):
        return self.c.size

    @property
    def num_generators(self):
        return self.G.shape[1]

    def to_constrained(self):
        m = self.num_generators
        return ConstrainedZonotope(self.c, self.G, np.zeros((0, m)), np.zeros(0))

    def copy(self):
        return Zonotope(self.c.copy(), self.G.copy())

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, gens={self.num_generators})"

    def to_dict(self):
        return {"type": "zonotope", "c": self.c.tolist(), "G": _array_to_json(self.G)}


class ConstrainedZonotope:
    """<c, G, A, b>: {c + G xi : xi in [-1, 1]^m, A xi = b}.

    _lp_basis caches the optimal simplex basis of the last LP on the set's
    own feasible region (see _own_columns) as the two status arrays
    (columns, rows) that lp_solve returns, never a solver instance; every
    later LP on the set starts from it.  Copies and derived sets start
    without one.
    """

    __slots__ = ("c", "G", "A", "b", "_lp_basis")

    def __init__(self, center, generators, a=None, b=None):
        self.c = _vector(center)
        self.G = _gen_matrix(generators, self.c.size)
        m = self.G.shape[1]
        if a is None:
            a = np.zeros((0, m))
        a = np.asarray(a, dtype=float)
        if a.size == 0:
            self.A = np.zeros((a.shape[0] if a.ndim == 2 else 0, m))
        else:
            self.A = a.reshape(-1, m)
        self.b = np.zeros(self.A.shape[0]) if b is None else _vector(b)
        _check_constraints(self.A, self.b)
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
        return ConstrainedZonotope(self.c.copy(), self.G.copy(), self.A.copy(), self.b.copy())

    def __repr__(self):
        return (
            f"ConstrainedZonotope(dim={self.dim}, gens={self.num_generators}, "
            f"cons={self.num_constraints})"
        )

    def to_dict(self):
        return {
            "type": "constrained_zonotope",
            "c": self.c.tolist(),
            "G": _array_to_json(self.G),
            "A": _array_to_json(self.A),
            "b": self.b.tolist(),
        }


class MatrixZonotope:
    """<C, {G_l}>: {C + sum_l beta_l G_l : beta in [-1, 1]^kappa}.

    Generators are stored as one (kappa, rows, cols) array.
    """

    __slots__ = ("C", "generators")

    def __init__(self, center, generators=None):
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

    @property
    def shape(self):
        return self.C.shape

    @property
    def num_generators(self):
        return self.generators.shape[0]

    def at(self, beta):
        """The member matrix C + sum_l beta_l G_l."""
        beta = _vector(beta)
        if beta.size != self.num_generators:
            raise ValueError(f"beta has {beta.size} entries, expected {self.num_generators}")
        if beta.size == 0:
            return self.C.copy()
        return self.C + np.einsum("l,lij->ij", beta, self.generators)

    def __repr__(self):
        return f"MatrixZonotope(shape={self.shape}, gens={self.num_generators})"

    def to_dict(self):
        return {
            "type": "matrix_zonotope",
            "C": _array_to_json(self.C),
            "generators": [_array_to_json(g) for g in self.generators],
        }


class ConstrainedMatrixZonotope(MatrixZonotope):
    """Matrix zonotope whose factors also satisfy A beta = b."""

    __slots__ = ("A", "b")

    def __init__(self, center, generators, a, b):
        super().__init__(center, generators)
        kappa = self.num_generators
        a = np.asarray(a, dtype=float)
        if a.size == 0:
            self.A = np.zeros((a.shape[0] if a.ndim == 2 else 0, kappa))
        else:
            self.A = a.reshape(-1, kappa)
        self.b = _vector(b)
        _check_constraints(self.A, self.b)

    @property
    def num_constraints(self):
        return self.A.shape[0]

    def __repr__(self):
        return (
            f"ConstrainedMatrixZonotope(shape={self.shape}, gens={self.num_generators}, "
            f"cons={self.num_constraints})"
        )

    def to_dict(self):
        d = super().to_dict()
        d["type"] = "constrained_matrix_zonotope"
        d["A"] = _array_to_json(self.A)
        d["b"] = self.b.tolist()
        return d


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
    if isinstance(d, dict):
        a = np.zeros(tuple(d["shape"]))
        a[np.asarray(d["rows"], dtype=int), np.asarray(d["cols"], dtype=int)] = d["vals"]
        return a
    return np.asarray(d, dtype=float)


def set_from_dict(d):
    """Inverse of the to_dict methods; dispatches on d["type"]."""
    kind = d["type"]
    if kind == "empty":
        return EmptySet(d["dim"])
    if kind == "zonotope":
        return Zonotope(d["c"], _array_from_json(d["G"]))
    if kind == "constrained_zonotope":
        return ConstrainedZonotope(d["c"], _array_from_json(d["G"]), _array_from_json(d["A"]), d["b"])
    if kind == "matrix_zonotope":
        gens = np.stack([_array_from_json(g) for g in d["generators"]]) if d["generators"] else None
        c = _array_from_json(d["C"])
        return MatrixZonotope(c, gens if gens is not None else np.zeros((0,) + c.shape))
    if kind == "constrained_matrix_zonotope":
        gens = np.stack([_array_from_json(g) for g in d["generators"]]) if d["generators"] else None
        c = _array_from_json(d["C"])
        if gens is None:
            gens = np.zeros((0,) + c.shape)
        return ConstrainedMatrixZonotope(c, gens, _array_from_json(d["A"]), d["b"])
    raise ValueError(f"unknown set type {kind!r}")


# ---------------------------------------------------------------------------
# Basic operations


def _check_dims(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def minkowski_sum(a, b):
    """Minkowski sum.  Plain + plain stays plain; otherwise constrained."""
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        _check_dims(a, b)
        return EmptySet(a.dim)
    _check_dims(a, b)
    if isinstance(a, Zonotope) and isinstance(b, Zonotope):
        return Zonotope(a.c + b.c, np.hstack([a.G, b.G]))
    za, zb = _to_cz(a), _to_cz(b)
    qa, qb = za.num_constraints, zb.num_constraints
    ma, mb = za.num_generators, zb.num_generators
    g = np.hstack([za.G, zb.G])
    a_new = np.block([
        [za.A, np.zeros((qa, mb))],
        [np.zeros((qb, ma)), zb.A],
    ])
    return ConstrainedZonotope(za.c + zb.c, g, a_new, np.concatenate([za.b, zb.b]))


def _to_cz(z):
    return z.to_constrained() if isinstance(z, Zonotope) else z


def linear_map(m, z):
    """Image under x -> M x."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != z.dim:
        raise ValueError(f"map of shape {m.shape} does not apply to dimension {z.dim}")
    if isinstance(z, EmptySet):
        return EmptySet(m.shape[0])
    if isinstance(z, Zonotope):
        return Zonotope(m @ z.c, m @ z.G)
    return ConstrainedZonotope(m @ z.c, m @ z.G, z.A, z.b)


def cartesian_product(a, b):
    """Stacked set {(x, y) : x in a, y in b}."""
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return EmptySet(a.dim + b.dim)
    if isinstance(a, Zonotope) and isinstance(b, Zonotope):
        c = np.concatenate([a.c, b.c])
        g = np.block([
            [a.G, np.zeros((a.dim, b.num_generators))],
            [np.zeros((b.dim, a.num_generators)), b.G],
        ])
        return Zonotope(c, g)
    za, zb = _to_cz(a), _to_cz(b)
    c = np.concatenate([za.c, zb.c])
    g = np.block([
        [za.G, np.zeros((za.dim, zb.num_generators))],
        [np.zeros((zb.dim, za.num_generators)), zb.G],
    ])
    a_new = np.block([
        [za.A, np.zeros((za.num_constraints, zb.num_generators))],
        [np.zeros((zb.num_constraints, za.num_generators)), zb.A],
    ])
    return ConstrainedZonotope(c, g, a_new, np.concatenate([za.b, zb.b]))


# ---------------------------------------------------------------------------
# Queries
#
# Every LP on a constrained set z extends z's own LP {A xi = b, |xi| <= 1}
# over the factors _own_columns picks: supports change only its costs,
# emptiness and membership add rows (and the remaining factors as columns).
# Each starts from the basis cached on z, and an LP whose final basis is
# again a basis of the own LP (every added row's slack basic, every added
# column nonbasic) caches it for the next.


def _own_columns(z):
    """Mask of the factors in z's own LP: those with a nonzero A column, or
    all of them when A is zero (the LP still decides whether 0 = b).  The
    other factors are separable and enter supports in closed form."""
    cons = np.any(z.A != 0.0, axis=0)
    if not cons.any():
        cons[:] = True
    return cons


def _solve_own(z, problem, cons):
    """lp_solve problem, whose leading columns (z's factors in cons) and
    leading rows (A) are z's own LP, from z's cached basis; cache its final
    basis when that is a basis of the own LP again."""
    problem.basis = z._lp_basis
    res = lp_solve(problem)
    final = (res[-1].basis if res else None) if isinstance(res, list) else res.basis
    if final is None:
        return res
    n_cols, n_rows = int(np.count_nonzero(cons)), z.num_constraints
    cols, rows = final
    if np.all(rows[n_rows:] == BASIC) and not np.any(cols[n_cols:] == BASIC):
        z._lp_basis = (cols[:n_cols].copy(), rows[:n_rows].copy())
    return res


def _support(z, dirs, purpose):
    """Support values of a set that is not an EmptySet for the rows of dirs
    (k, n): closed form for plain sets and separable factors, one batched LP
    on the own LP for the rest."""
    dg = dirs @ z.G
    vals = dirs @ z.c
    if isinstance(z, Zonotope) or z.num_constraints == 0:
        vals += np.sum(np.abs(dg), axis=1)
        return vals
    cons = _own_columns(z)
    m = int(np.count_nonzero(cons))
    res = _solve_own(z, LpProblem(dg[:, cons], z.A[:, cons], z.b, -np.ones(m), np.ones(m),
                                  purpose=purpose), cons)
    if any(r.status == "infeasible" for r in res):
        raise EmptySetError("support of an empty constrained zonotope")
    vals += np.sum(np.abs(dg[:, ~cons]), axis=1) + [r.objective for r in res]
    return vals


def _feasible(z, rows, lo, hi, box, purpose):
    """Whether some factors xi with |xi| <= box (and A xi = b on a
    constrained z) satisfy lo <= rows @ xi <= hi.  On a constrained z this
    is the own LP plus these rows, with the other factors as extra columns."""
    m = z.num_generators
    constrained = isinstance(z, ConstrainedZonotope) and z.num_constraints > 0
    if m == 0:  # rows @ xi is 0, and A xi = b needs b = 0
        return bool(np.all(lo <= 0.0) and np.all(hi >= 0.0)
                    and not (constrained and np.any(z.b)))
    bounds = np.full(m, float(box))
    if not constrained:
        problem = LpProblem(np.zeros(m), None, None, -bounds, bounds, rows=(rows, lo, hi),
                            purpose=purpose)
        return lp_solve(problem).status == "feasible"
    cons = _own_columns(z)
    order = np.concatenate([np.flatnonzero(cons), np.flatnonzero(~cons)])
    problem = LpProblem(np.zeros(m), z.A[:, order], z.b, -bounds, bounds,
                        rows=(rows[:, order], lo, hi), purpose=purpose)
    return _solve_own(z, problem, cons).status == "feasible"


def support(z, direction):
    """Support value max{d . x : x in z}.

    direction is one direction (n,), which gives a float, or a stack (k, n),
    which gives an array of k values.  On a constrained set the factors whose
    A column is zero are separable and add sum |d . g| in closed form; the
    other factors make one LP whose k objectives share one warm-started
    solver model, started from the set's cached basis.  Raises
    EmptySetError on empty sets.
    """
    d = np.asarray(direction, dtype=float)
    if isinstance(z, EmptySet):
        raise EmptySetError("support of the empty set")
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


def is_empty(z, region=()):
    """Whether z, or z intersected with a region, is empty.

    region is a sequence of (normal, offset) pairs, the halfspaces
    normal . x <= offset.  One halfspace is decided by whether min normal . x
    over z (its support in -normal) exceeds the offset; otherwise by the
    feasibility of z's own LP with the rows normal . G xi <= offset -
    normal . c added.  The result equals is_empty of the set that halfspace_intersection
    cuts from z, without building that set.
    """
    halfspaces = [(_vector(h), float(o)) for h, o in region]
    for h, _ in halfspaces:
        if h.size != z.dim:
            raise ValueError(f"normal has {h.size} entries, the set dimension {z.dim}")
    if isinstance(z, EmptySet):
        return True
    if len(halfspaces) == 1:
        h, offset = halfspaces[0]
        try:
            return float(-_support(z, -h[None, :], "is_empty")[0]) > offset
        except EmptySetError:
            return True
    if not halfspaces and (isinstance(z, Zonotope) or z.num_constraints == 0):
        return False
    normals = np.array([h for h, _ in halfspaces]).reshape(-1, z.dim)
    offsets = np.array([o for _, o in halfspaces])
    return not _feasible(z, normals @ z.G, np.full(offsets.size, -np.inf),
                         offsets - normals @ z.c, 1.0, "is_empty")


def contains_point(z, x, tol=1e-9):
    """LP membership test: is x within tol of the set?

    Looks for factors xi with |xi| <= 1 + tol, A xi = b, and
    |c + G xi - x| <= tol componentwise: on a constrained set, the n rows
    G xi in [x - c - tol, x - c + tol] added to its own LP.
    """
    x = _vector(x)
    if x.size != z.dim:
        raise ValueError(f"point has {x.size} entries, the set dimension {z.dim}")
    if isinstance(z, EmptySet):
        return False
    return _feasible(z, z.G, x - z.c - tol, x - z.c + tol, 1.0 + tol, "contains_point")


def halfspace_intersection_with_plan(z, normal, offset):
    """halfspace_intersection that also reports what happened.

    The second return value is ("pass",) when the halfspace does not cut,
    ("empty",) when the sets are disjoint, and ("cut", row, w, rhs) when a
    factor and constraint row [row, w] xi' = rhs were appended.  A member
    point with factors xi gets the new factor (rhs - row . xi) / w.
    """
    h = _vector(normal)
    c = float(offset)
    if isinstance(z, EmptySet):
        return z, ("empty",)
    if h.size != z.dim:
        raise ValueError(f"normal has {h.size} entries, the set dimension {z.dim}")
    cz = _to_cz(z)
    d = float(h @ cz.c)
    row = h @ cz.G
    r = float(np.sum(np.abs(row)))
    if d + r <= c:
        return z, ("pass",)
    if d - r > c:
        return EmptySet(z.dim), ("empty",)
    w = (c - d + r) / 2.0
    rhs = (c - d - r) / 2.0
    m, q = cz.num_generators, cz.num_constraints
    g = np.hstack([cz.G, np.zeros((cz.dim, 1))])
    a_new = np.block([
        [cz.A, np.zeros((q, 1))],
        [row.reshape(1, m), np.array([[w]])],
    ])
    out = ConstrainedZonotope(cz.c, g, a_new, np.concatenate([cz.b, [rhs]]))
    return out, ("cut", row, w, rhs)


def halfspace_intersection(z, normal, offset):
    """Intersection with {x : h . x <= c}.

    Returns the input unchanged when the halfspace does not cut it, EmptySet
    when they are disjoint, and otherwise a constrained zonotope with one
    extra factor and one extra constraint row.
    """
    return halfspace_intersection_with_plan(z, normal, offset)[0]


# ---------------------------------------------------------------------------
# Order reduction


def girard(g, budget):
    """Girard reduction of the generator columns g to at most budget columns.

    Keeps the budget - dim columns with the largest l1-minus-linf score and
    covers the rest with an axis-aligned box, one column per nonzero row.
    Returns (kept, box_rows, box_radii, g_out): kept indexes the surviving
    columns of g (sorted), and g_out is g[:, kept] followed by the box
    columns.  When g already fits, every column is kept and g is returned.
    """
    n, m = g.shape
    if m <= budget:
        return np.arange(m), np.zeros(0, dtype=int), np.zeros(0), g
    score = np.sum(np.abs(g), axis=0) - np.max(np.abs(g), axis=0)
    order = np.argsort(score, kind="stable")
    n_box = m - (budget - n)
    boxed, kept = np.sort(order[:n_box]), np.sort(order[n_box:])
    radii = np.sum(np.abs(g[:, boxed]), axis=1)
    rows = np.nonzero(radii > 0.0)[0]
    box = np.zeros((n, rows.size))
    box[rows, np.arange(rows.size)] = radii[rows]
    return kept, rows, radii[rows], np.hstack([g[:, kept], box])


def reduce_girard(z, max_order):
    """Girard order reduction: box the lowest-scoring generators so that at
    most max_order * dim generators remain.  Returns z itself when it
    already fits."""
    if not isinstance(z, Zonotope):
        raise ValueError("reduce_girard needs a plain zonotope")
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    kept, _, _, g = girard(z.G, int(math.floor(max_order * z.dim)))
    return z if g is z.G else Zonotope(z.c, g)


# ---------------------------------------------------------------------------
# Volume and projections


# Generator subsets volume() will enumerate before refusing.  Its work grows
# with this count; up to 1e7 an exact volume takes seconds (on one 2-core
# host: 0.2 s for the 8.6e6 subsets of a 5 x 66 set, 2.3 s for the 3.3e6 of
# a 15 x 25 one).  Past it, reduce the zonotope first.
_MAX_VOLUME_SUBSETS = 10_000_000

# Entries of the largest array one level of the volume recursion builds.
_VOLUME_BLOCK = 1 << 20


def volume(z):
    """Exact volume of a plain zonotope: 2^n * sum over n-column subsets S
    of |det G_S|.  Refuses when there are more than _MAX_VOLUME_SUBSETS
    subsets."""
    if not isinstance(z, Zonotope):
        raise ValueError("volume is defined for plain zonotopes")
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
    stays ordered by last (nondecreasing).  At k = n - 1, vol * basis is,
    up to sign, the cofactor vector of S: det G_(S + j) = +-cofactor . g_j.
    """
    n, m = g.shape
    k = n - basis.shape[1]
    # columns that leave room for n - k - 1 larger ones
    cols = np.arange(last[0] + 1, m - n + k + 1)
    ends = np.searchsorted(last, cols)
    if k == n - 1:
        cof = basis[:, 0] * vol[:, None]
        return float(sum(np.abs(cof[:end] @ g[:, j]).sum() for j, end in zip(cols, ends)))
    children = int(ends.sum())
    if children * (n - k) * n > _VOLUME_BLOCK and last.size > 1:
        h = last.size // 2
        return (_abs_det_sum(g, basis[:h], vol[:h], last[:h])
                + _abs_det_sum(g, basis[h:], vol[h:], last[h:]))
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
    """Exact boundary of a 2-D zonotope, counterclockwise."""
    norms = np.linalg.norm(g, axis=0)
    g = g[:, norms > 0.0]
    m = g.shape[1]
    if m == 0:
        return c.reshape(1, 2)
    # flip generators into the upper half-plane, then sort by angle
    flip = (g[1] < 0.0) | ((g[1] == 0.0) & (g[0] < 0.0))
    g = np.where(flip, -g, g)
    order = np.argsort(np.arctan2(g[1], g[0]), kind="stable")
    g = g[:, order]
    verts = np.empty((2 * m, 2))
    v = c - g.sum(axis=1)
    for i in range(m):
        verts[i] = v
        v = v + 2.0 * g[:, i]
    for i in range(m):
        verts[m + i] = v
        v = v - 2.0 * g[:, i]
    return verts


def project_polygon(z, dims, n_dirs=32):
    """Vertices of the projection onto coordinates dims = (i, j), 0-based
    and distinct, counterclockwise.

    Plain zonotopes are projected exactly.  Constrained zonotopes are
    over-approximated by intersecting n_dirs support halfplanes, taken on
    the set itself in the directions the 2-D ones select.
    """
    if len(dims) != 2 or any(int(d) != d for d in dims):
        raise ValueError(f"project_polygon needs two coordinate indices, got {dims}")
    u, v = (int(d) for d in dims)
    if not (0 <= u < z.dim and 0 <= v < z.dim and u != v):
        raise ValueError(f"coordinates {dims} are not two distinct indices in 0..{z.dim - 1}")
    if isinstance(z, EmptySet):
        raise EmptySetError("projection of the empty set")
    sel = np.zeros((2, z.dim))
    sel[0, u] = 1.0
    sel[1, v] = 1.0
    if isinstance(z, Zonotope) or z.num_constraints == 0:
        return _zonotope_polygon(sel @ z.c, sel @ z.G)
    angles = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = support(z, dirs @ sel)
    verts = []
    for i in range(n_dirs):
        j = (i + 1) % n_dirs
        a = np.stack([dirs[i], dirs[j]])
        det = np.linalg.det(a)
        if abs(det) < 1e-12:
            continue
        verts.append(np.linalg.solve(a, np.array([vals[i], vals[j]])))
    return _drop_repeated_vertices(np.asarray(verts))


# Where several support lines meet in one point, neighbouring line pairs give
# the same vertex up to rounding.  This relative threshold is far below the LP
# tolerance the supports carry, so genuine short edges stay.
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


def project_factors(a, b, xi, passes=100, tol=1e-9):
    """Alternating projection of factor rows onto {A xi = b} intersect the unit
    box.  xi is (N, m); returns (projected, converged_mask)."""
    xi = np.array(xi, dtype=float, ndmin=2)
    if a.shape[0] == 0:
        return np.clip(xi, -1.0, 1.0), np.ones(xi.shape[0], dtype=bool)
    a_pinv = svd(a).pinv
    for _ in range(passes):
        xi = xi - (xi @ a.T - b) @ a_pinv.T
        xi = np.clip(xi, -1.0, 1.0)
        eq_res = np.max(np.abs(xi @ a.T - b), axis=1)
        if np.all(eq_res <= tol):
            break
    ok = np.max(np.abs(xi @ a.T - b), axis=1) <= tol
    return xi, ok


def sample_factors(z, rng, count, max_tries=50):
    """count feasible factor rows (count x m) for a zonotope or constrained
    zonotope, drawn uniformly then projected onto the constraints."""
    cz = _to_cz(z)
    m = cz.num_generators
    if cz.num_constraints == 0:
        return rng.uniform(-1.0, 1.0, size=(count, m))
    out = np.empty((0, m))
    for _ in range(max_tries):
        raw = rng.uniform(-1.0, 1.0, size=(count, m))
        proj, ok = project_factors(cz.A, cz.b, raw)
        out = np.vstack([out, proj[ok]])
        if out.shape[0] >= count:
            return out[:count]
    raise EmptySetError("could not sample feasible factors; set may be empty or thin")


def sample_points(z, rng, count):
    """count points from the set, via factors drawn with sample_factors."""
    if isinstance(z, EmptySet):
        raise EmptySetError("sampling from the empty set")
    xi = sample_factors(z, rng, count)
    return z.c + xi @ z.G.T
