"""Exact lattice geometry: fans, support functions, polytopes, point counts.

Everything in this module is exact and no floating point is used anywhere:
the geometry (vertices, halfspace bounds, determinants) is in
`fractions.Fraction`, and normals are primitive integer vectors.  Two
algorithms are bounded to n <= 3 and raise UnsupportedDimension past it:
the convex hull and the fan completeness test, each one algorithm for every
n up to the bound.  Counting and membership are dimension-agnostic: lattice
points come from one integer column sweep, `_lattice_columns`, that gives
each column of the box its interval of last coordinates by floor division.
Two readers sit on it: the public `lattice_points` and
`interior_lattice_points` return `Fraction` points, and the private
`_lattice_numerators` returns the integer numerators k of the points k/d,
which the Floer ladder, the ring bases and the isomorphism check read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd
from operator import mul
from typing import Iterable, Sequence


class MalformedFan(ValueError):
    """Fan data fails basic validation (ray shapes, cone sizes, indices)."""


class NotConvex(ValueError):
    """A support function is not convex across some pair of adjacent cones."""


class Unbounded(ValueError):
    """The requested polytope is unbounded (fan support too small)."""


class LowerDimensional(ValueError):
    """Operation needs a full-dimensional polytope but got a degenerate one."""


class UnsupportedDimension(ValueError):
    """An algorithm bounded to dimension <= 3 met a higher-dimensional input."""


Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(_frac(x) for x in xs)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((_frac(x) * _frac(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# small exact linear algebra: one rational row reduction, thin readers
# ---------------------------------------------------------------------------

def _rref(
    rows: Sequence[Sequence], ncols: int
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form over Q, pivoting in the first ncols columns.

    Columns past ncols (an augmented right-hand side) are carried along.
    Returns the reduced rows, the pivot columns, and the product of the
    pivots times the sign of the row swaps, which for a square nonsingular
    matrix is its determinant.
    """
    m = [list(map(_frac, r)) for r in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = -det
        p = m[row][col]
        det *= p
        m[row] = [x / p for x in m[row]]
        for r in range(len(m)):
            f = m[r][col]
            if r != row and f != 0:
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots, det


def mat_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a small square matrix, exact."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, det = _rref(rows, n)
    return det if len(pivots) == n else Fraction(0)


def mat_rank(rows: Sequence[Sequence]) -> int:
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def solve_square(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """Solve M x = rhs exactly; None if M is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_square needs a square matrix and a matching right-hand side")
    m, pivots, _ = _rref([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(r[n] for r in m)


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : M x = 0} over Q (possibly empty)."""
    m, pivots, _ = _rref(rows, ncols)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            x[pcol] = -m[r][fcol]
        basis.append(tuple(x))
    return basis


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector, keeping
    its direction."""
    fr = [_frac(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive representative")
    denom = 1
    for x in fr:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def primitive_row(a: Sequence, b) -> tuple[tuple[int, ...], Fraction]:
    """Rescale the row <a, y> (=, <=) b by a positive factor so that the
    normal becomes primitive(a); ValueError for a zero normal."""
    p = primitive(a)
    i = next(k for k, x in enumerate(p) if x != 0)
    return p, _frac(b) * p[i] / _frac(a[i])


def frac_str(x: Fraction) -> str:
    """A rational as the "p/q" string used in every emitted file."""
    return f"{x.numerator}/{x.denominator}"


def affine_dim(points: Sequence[Sequence]) -> int:
    pts = [vec(p) for p in points]
    if not pts:
        return -1
    p0 = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in pts[1:]]
    return mat_rank(diffs)


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Bounded rational polytope carried in both V- and H-representation.

    halfspaces are pairs (normal, bound) with the convention
    <normal, y> <= bound; normals are primitive integer vectors.  A
    lower-dimensional polytope (dim < n) keeps its affine hull as pairs of
    opposite inequalities and sets `degenerate`.
    """

    n: int
    vertices: tuple[Vec, ...]
    halfspaces: tuple[tuple[tuple[int, ...], Fraction], ...]
    dim: int
    degenerate: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    # -- membership ---------------------------------------------------
    def contains(self, point: Sequence) -> bool:
        p = vec(point)
        return all(dot(a, p) <= b for a, b in self.halfspaces)

    def contains_strictly(self, point: Sequence) -> bool:
        """Interior membership (in the ambient sense; degenerate => False)."""
        if self.degenerate:
            return False
        p = vec(point)
        return all(dot(a, p) < b for a, b in self.halfspaces)

    @property
    def contains_origin(self) -> bool:
        return all(b >= 0 for _, b in self.halfspaces)

    def same_set(self, other: "Polytope") -> bool:
        """Geometric equality (same vertex set), ignoring H-rep presentation."""
        return self.n == other.n and self.vertices == other.vertices

    # -- transforms ---------------------------------------------------
    def dilate(self, k) -> "Polytope":
        k = _frac(k)
        if k <= 0:
            raise ValueError("dilation factor must be positive")
        return Polytope(
            self.n,
            tuple(tuple(k * x for x in v) for v in self.vertices),
            tuple((a, k * b) for a, b in self.halfspaces),
            self.dim,
            self.degenerate,
        )

    def translate(self, w: Sequence) -> "Polytope":
        t = vec(w)
        return Polytope(
            self.n,
            tuple(tuple(x + y for x, y in zip(v, t)) for v in self.vertices),
            tuple((a, b + dot(a, t)) for a, b in self.halfspaces),
            self.dim,
            self.degenerate,
        )

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        return [
            (min(v[i] for v in self.vertices), max(v[i] for v in self.vertices))
            for i in range(self.n)
        ]

    @staticmethod
    def from_halfspaces(normals: Sequence[Sequence], bounds: Sequence) -> "Polytope":
        """Build the polytope {y : <a_i, y> <= b_i}; exact vertex enumeration.

        Raises Unbounded if the recession cone is nontrivial and ValueError
        if the region is empty.
        """
        n = len(normals[0])
        rows = [vec(a) for a in normals]
        bs = [_frac(b) for b in bounds]
        if _recession_nontrivial(rows, n):
            raise Unbounded("halfspace intersection has a nontrivial recession cone")
        verts: set[Vec] = set()
        for idx in itertools.combinations(range(len(rows)), n):
            sol = solve_square([rows[i] for i in idx], [bs[i] for i in idx])
            if sol is None:
                continue
            if all(dot(a, sol) <= b for a, b in zip(rows, bs)):
                verts.add(sol)
        if not verts:
            raise ValueError("halfspace intersection is empty")
        hs = tuple(sorted({primitive_row(a, b) for a, b in zip(rows, bs) if any(a)}))
        d = affine_dim(sorted(verts))
        return Polytope(n, tuple(sorted(verts)), hs, d, degenerate=d < n)


def _recession_nontrivial(rows: list[Vec], n: int) -> bool:
    """Is there d != 0 with <a_i, d> <= 0 for all i?  Exact, n <= 3."""
    if len(rows) < n:
        return True
    # candidate extreme ray directions come from (n-1)-subsets of normals
    cands: list[Vec] = []
    for idx in itertools.combinations(range(len(rows)), n - 1):
        for d in nullspace([rows[i] for i in idx], n):
            cands.append(d)
            cands.append(tuple(-x for x in d))
    for d in cands:
        if any(x != 0 for x in d) and all(dot(a, d) <= 0 for a in rows):
            return True
    return False


def hull(points: Sequence[Sequence]) -> Polytope:
    """Exact convex hull for n <= 3.

    Lower-dimensional input is not an error: the result keeps its affine
    hull as equality pairs in the H-representation and is flagged via
    `degenerate` (vertices are still the true extreme points).
    """
    pts = sorted(set(vec(p) for p in points))
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    if n > 3:
        raise UnsupportedDimension("hull is only supported for n <= 3")
    d = affine_dim(pts)
    if d == 0:
        hs = []
        p = pts[0]
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            hs.append((e, p[i]))
            hs.append((tuple(-x for x in e), -p[i]))
        return Polytope(n, (p,), tuple(sorted(hs)), 0, degenerate=n > 0)
    if d < n:
        return _hull_degenerate(pts, n, d)
    return _hull_fulldim(pts, n)


def _hull_fulldim(pts: list[Vec], n: int) -> Polytope:
    facets: set[tuple[tuple[int, ...], Fraction]] = set()
    for idx in itertools.combinations(range(len(pts)), n):
        base = pts[idx[0]]
        diffs = [tuple(a - b for a, b in zip(pts[i], base)) for i in idx[1:]]
        ns = nullspace(diffs, n)
        if len(ns) != 1:
            continue  # affinely dependent subset
        a = ns[0]
        b = dot(a, base)
        vals = [dot(a, p) - b for p in pts]
        if all(v <= 0 for v in vals):
            facets.add(primitive_row(a, b))
        elif all(v >= 0 for v in vals):
            facets.add(primitive_row(tuple(-x for x in a), -b))
    verts = []
    for p in pts:
        tight = [a for a, b in facets if dot(a, p) == b]
        if mat_rank(tight) == n:
            verts.append(p)
    return Polytope(n, tuple(verts), tuple(sorted(facets)), n, degenerate=False)


def _hull_degenerate(pts: list[Vec], n: int, d: int) -> Polytope:
    """Hull of points spanning a d < n dimensional affine subspace."""
    p0 = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in pts[1:]]
    # pick d independent direction rows
    basis: list[Vec] = []
    for df in diffs:
        if mat_rank(basis + [df]) > len(basis):
            basis.append(df)
        if len(basis) == d:
            break
    # coordinates within the affine hull: choose d columns where basis is invertible
    for cols in itertools.combinations(range(n), d):
        sq = [[row[c] for c in cols] for row in basis]
        if mat_det(sq) != 0:
            break
    else:  # pragma: no cover - cannot happen if rank is d
        raise ValueError("no invertible coordinate projection found")

    def coords(p: Vec) -> Vec:
        rhs = [p[c] - p0[c] for c in cols]
        lam = solve_square([[basis[j][c] for j in range(d)] for c in cols], rhs)
        assert lam is not None
        return lam

    inner = hull([coords(p) for p in pts]) if d > 0 else None
    assert inner is not None
    lift = {coords(p): p for p in pts}
    verts = tuple(lift[v] for v in inner.vertices)

    hs: list[tuple[tuple[int, ...], Fraction]] = []
    # affine-hull equalities: normals orthogonal to every direction
    for a in nullspace(basis, n):
        pa = primitive(a)
        b = dot(pa, p0)
        hs.append((pa, b))
        hs.append((tuple(-x for x in pa), -b))
    # facet inequalities pulled back through the coordinate chart: with
    # lam = M^{-1} (p - p0)|cols, the inner facet <c, lam> <= b reads
    # <y, (p - p0)|cols> <= b where y solves M^T y = c, and M^T is sq
    for c_in, b_in in inner.halfspaces:
        y = solve_square(sq, c_in)
        amb = [Fraction(0)] * n
        for j in range(d):
            amb[cols[j]] = y[j]
        a_t = tuple(amb)
        if all(x == 0 for x in a_t):
            continue
        hs.append(primitive_row(a_t, _frac(b_in) + dot(a_t, p0)))
    return Polytope(n, verts, tuple(sorted(set(hs))), d, degenerate=True)


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def lattice_points(poly: Polytope, d: int = 1) -> list[Vec]:
    """Points of poly in the (1/d)-refined lattice, in lexicographic order.

    d=1 gives ordinary lattice points.  The points are found column by
    column with exact integer arithmetic, so the order is deterministic.
    """
    return _fraction_points(poly, d, strict=False)


def interior_lattice_points(poly: Polytope, d: int = 1) -> list[Vec]:
    """Strictly interior points of the (1/d)-lattice; needs full dimension."""
    return _fraction_points(poly, d, strict=True)


class _FractionCache(dict):
    """k -> Fraction(k, d), each built on first use."""

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, k: int) -> Fraction:
        self[k] = x = Fraction(k, self.d)
        return x


def _fraction_points(poly: Polytope, d: int, strict: bool) -> list[Vec]:
    """The points k/d of the columns as `Fraction` tuples, in column order;
    each Fraction(k, d) is built once per call."""
    columns = _lattice_columns(poly, d, strict)
    frac = _FractionCache(d)
    out: list[Vec] = []
    for head, lo, hi in columns:
        fhead = tuple(frac[k] for k in head)
        out.extend(fhead + (frac[k],) for k in range(lo, hi + 1))
    return out


def _lattice_numerators(poly: Polytope, d: int, strict: bool) -> list[tuple[int, ...]]:
    """The numerators k of the points k/d, as int tuples in column order:
    the same points, in the same order, as the public readers."""
    return [head + (k,) for head, lo, hi in _lattice_columns(poly, d, strict)
            for k in range(lo, hi + 1)]


def _lattice_columns(
    poly: Polytope, d: int, strict: bool
) -> list[tuple[tuple[int, ...], int, int]]:
    """Column sweep of the (1/d)-lattice, boundary kept unless strict.

    Returns the nonempty columns (head, lo, hi): the points of poly (of its
    interior when strict) in the (1/d)-lattice are exactly the k/d with
    k = head + (last,) and lo <= last <= hi, and listing each column's
    range in turn gives them in lexicographic order.

    A point k/d satisfies <a, k/d> <= b iff the integer <a, k> is at most
    floor(d b), and <a, k/d> < b iff it is at most ceil(d b) - 1, so each
    halfspace becomes one integer limit.  The sweep runs over the first
    n - 1 box coordinates only.  In each column, what the head leaves of
    a limit bounds the last coordinate by floor division (above when
    a[-1] > 0, below when a[-1] < 0; a[-1] = 0 keeps or empties the whole
    column), so the column's points are one integer interval.
    """
    if strict and (poly.degenerate or poly.dim < poly.n):
        raise LowerDimensional("interior of a lower-dimensional polytope is empty")
    if not isinstance(d, int) or d < 1:
        raise ValueError("refinement d must be a positive integer")
    limits = [
        (a[:-1], a[-1], ceil(b * d) - 1 if strict else floor(b * d)) for a, b in poly.halfspaces
    ]
    ranges = [range(ceil(lo * d), floor(hi * d) + 1) for lo, hi in poly.bounding_box()]
    last = ranges[-1]
    columns = []
    for head in itertools.product(*ranges[:-1]):
        lo, hi = last.start, last.stop - 1
        for a, c, lim in limits:
            rest = lim - sum(map(mul, a, head))
            if c > 0:
                hi = min(hi, rest // c)
            elif c < 0:
                lo = max(lo, -(rest // -c))
            elif rest < 0:
                break
        else:
            if lo <= hi:
                columns.append((head, lo, hi))
    return columns


# ---------------------------------------------------------------------------
# fans and support functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Rational fan given by primitive rays and maximal cones (ray indices)."""

    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rays = tuple(tuple(_exact_int(x, "ray coordinate") for x in r) for r in self.rays)
            cones = tuple(
                tuple(sorted(_exact_int(i, "cone index") for i in c)) for c in self.max_cones
            )
        except TypeError as e:  # a ray or cone list that is not a sequence
            raise MalformedFan(f"rays and cones must be lists of integers: {e}") from e
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if not rays:
            raise MalformedFan("fan needs at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise MalformedFan("rays have inconsistent dimensions")
        for r in rays:
            if all(x == 0 for x in r):
                raise MalformedFan("zero vector is not a valid ray")
            g = 0
            for x in r:
                g = gcd(g, abs(x))
            if g != 1:
                raise MalformedFan(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise MalformedFan("duplicate rays")
        for k, c in enumerate(cones):
            if len(set(c)) != len(c):
                raise MalformedFan(f"cone {c} repeats a ray index")
            if any(i < 0 or i >= len(rays) for i in c):
                raise MalformedFan(f"cone {c} references a missing ray")
            if c in cones[:k]:
                raise MalformedFan(f"cone {c} is listed twice")
        if not cones:
            raise MalformedFan("fan needs at least one maximal cone")

    @property
    def n(self) -> int:
        return len(self.rays[0])

    def cone_matrix(self, cone: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.rays[i] for i in cone]

    def is_complete(self) -> bool:
        """Does the fan support cover all of R^n?  Exact degree test, n <= 3.

        Every ridge (n - 1 rays of a maximal cone) must be shared by exactly
        two maximal cones lying on opposite sides of its hyperplane, so the
        cones wrap the sphere of directions with one orientation; then the
        number of cones containing a direction off every hyperplane through
        n - 1 rays is the degree, which must be 1.  In n = 1 the one ridge is
        the empty set and its hyperplane is the origin.
        """
        n = self.n
        if n > 3:
            raise UnsupportedDimension("completeness test implemented for n <= 3 only")
        opposite: dict[tuple[int, ...], list[int]] = {}  # ridge -> opposite rays
        for c in self.max_cones:
            if len(c) != n:
                return False
            for k in c:
                opposite.setdefault(tuple(i for i in c if i != k), []).append(k)
        for ridge, ks in opposite.items():
            if len(ks) != 2:
                return False
            s1, s2 = (mat_det([self.rays[i] for i in ridge] + [self.rays[k]]) for k in ks)
            if s1 * s2 >= 0:
                return False
        w = _generic_direction(self.rays, n)
        inside = 0
        for c in self.max_cones:
            lam = solve_square([[self.rays[i][k] for i in c] for k in range(n)], w)
            inside += all(x > 0 for x in lam)
        return inside == 1


def _exact_int(x, what: str) -> int:
    """x as an int; MalformedFan when int() would change its value (1.5, "1")."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedFan(f"{what} {x!r} is not an integer") from e
    if i != x:
        raise MalformedFan(f"{what} {x!r} is not an integer")
    return i


def _generic_direction(rays, n: int) -> tuple[int, ...]:
    """First w = (1, k, ..., k^(n-1)), k = 1, 2, ..., on no hyperplane
    spanned by n - 1 rays.

    Each hyperplane's normal (from nullspace) dotted with w is a nonzero
    polynomial of degree at most n - 1 in k, so every hyperplane rules out
    at most n - 1 values of k.
    """
    normals = []
    for sub in itertools.combinations(rays, n - 1):
        ns = nullspace(sub, n)
        if len(ns) == 1:
            normals.append(ns[0])
    for k in itertools.count(1):
        w = tuple(k**e for e in range(n))
        if all(dot(nm, w) != 0 for nm in normals):
            return w


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone is unimodular (ray matrix determinant +-1)."""
    n = fan.n
    for c in fan.max_cones:
        if len(c) != n:
            raise MalformedFan(f"maximal cone {c} does not have {n} rays")
        d = mat_det(fan.cone_matrix(c))
        if d not in (1, -1):
            return False
    return True


def support_convexity(fan: Fan, phi: Sequence) -> tuple[str, tuple[int, int] | None]:
    """Classify the piecewise-linear support function determined by phi.

    Returns ("strict", None), ("weak", witness) or ("nonconvex", witness)
    where witness names (cone index, other cone index) for the first pair
    violating strictness / convexity.
    """
    if len(phi) != len(fan.rays):
        raise MalformedFan("phi must assign one value per ray")
    vals = [_frac(p) for p in phi]
    grads = []
    for c in fan.max_cones:
        if len(c) != fan.n:
            raise MalformedFan(f"maximal cone {c} does not have {fan.n} rays")
        m = solve_square(fan.cone_matrix(c), [vals[i] for i in c])
        if m is None:
            raise MalformedFan(f"cone {c} is degenerate (rays do not span)")
        grads.append(m)
    kind = "strict"
    witness = None
    for ci, (c, m) in enumerate(zip(fan.max_cones, grads)):
        for ri, ray in enumerate(fan.rays):
            if ri in c:
                continue
            val = dot(m, ray)
            other = next((cj for cj, cc in enumerate(fan.max_cones) if ri in cc), None)
            if other is None:
                raise MalformedFan(f"ray {ri} lies in no maximal cone")
            if val > vals[ri]:
                return "nonconvex", (ci, other)
            if val == vals[ri] and kind == "strict":
                # the graph is flat across this wall: convex but not strictly
                kind = "weak"
                witness = (ci, other)
    return kind, witness


def require_convex(fan: Fan, phi: Sequence) -> str:
    """support_convexity's verdict, "strict" or "weak"; NotConvex, naming the
    offending cone pair, when phi is not even weakly convex."""
    kind, witness = support_convexity(fan, phi)
    if kind == "nonconvex":
        raise NotConvex(
            f"support function not convex across cone pair {witness[0]} and {witness[1]}"
        )
    return kind


def polytope_from_bundle(fan: Fan, phi: Sequence) -> Polytope:
    """Moment polytope {y : <v_i, y> <= phi(v_i)} of a support function.

    Raises Unbounded when the fan is not complete and NotConvex when phi is
    not even weakly convex.  A weakly-(but not strictly-)convex phi gives a
    degenerate polytope, which is returned flagged rather than rejected.
    """
    if not fan.is_complete():
        raise Unbounded("fan is not complete; moment polytope would be unbounded")
    require_convex(fan, phi)
    vals = [_frac(p) for p in phi]
    return Polytope.from_halfspaces(list(fan.rays), vals)
