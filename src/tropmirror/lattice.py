"""Exact lattice geometry: fans, support functions, polytopes, point counts.

Everything in this module is exact and no floating point is used anywhere:
the geometry (vertices, halfspace bounds, determinants) is in
`fractions.Fraction`, and normals are primitive integer vectors.  Each
algorithm is one algorithm for every dimension n >= 1: the convex hull, the
vertex enumeration with its recession test, and the fan completeness test
are exact for every n (their docstrings give the proofs), at a cost that
grows with the number of n-subsets of their input.  A fan's moment polytope
needs no vertex enumeration: its vertices are the cone gradients that the
convexity pass solves (`polytope_from_bundle`).  The hull is one facet
pass, `hull_facets`, that records which points lie on each facet: the
vertices are read from those index sets, and so are the cells and faces of
the tropical layer's regular subdivision, the lower hull of a height
function's lifted support.  Lattice points come from one integer column
sweep, `_lattice_columns`, that gives each column of the box its interval
of last coordinates by floor division.
Three readers sit on it.  The public `lattice_points` and
`interior_lattice_points` return the points as `Fraction` tuples.  The
private `_lattice_numerators` returns the integer numerators k of the
points k/d, which the Floer ladder, the ring bases and the isomorphism
check read.  The private `_lattice_count` returns only how many points
there are, the sum of the column lengths, and builds none of them: the
dilate-and-count values behind `hilbert` and the Ehrhart fit
(`hilbert_function`, `interior_counts`) and both Serre counts of `verify`
are its counts, and `hilbert` needs no module beyond this one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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


# The tropical and amoeba layers raise these; they live here so that the CLI
# maps every exception to its exit code without importing those layers.

class DegenerateSupport(ValueError):
    """The support points do not affinely span R^n."""


class NotTriangulation(ValueError):
    """An operation requiring simplicial cells met a bigger cell."""


class InvalidEps(ValueError):
    """Scale selection called with a non-positive (or senseless) epsilon."""


class EmptyWindow(ValueError):
    """Hausdorff comparison window contains no data on one side."""


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
    opposite inequalities and is `degenerate`.
    """

    n: int
    vertices: tuple[Vec, ...]
    halfspaces: tuple[tuple[tuple[int, ...], Fraction], ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    @property
    def degenerate(self) -> bool:
        return self.dim < self.n

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
        )

    def translate(self, w: Sequence) -> "Polytope":
        t = vec(w)
        return Polytope(
            self.n,
            tuple(tuple(x + y for x, y in zip(v, t)) for v in self.vertices),
            tuple((a, b + dot(a, t)) for a, b in self.halfspaces),
            self.dim,
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
        return Polytope(n, tuple(verts), hs, affine_dim(verts))


def _recession_nontrivial(rows: list[Vec], n: int) -> bool:
    """Is there d != 0 with <a_i, d> <= 0 for all i?  Exact for every n.

    Every candidate is tested against all rows, so True is always right.
    Fewer than n rows leave a nonzero nullspace, which lies in the cone.
    Otherwise, if the rows have rank r < n, some n - 1 rows contain r
    independent ones; that subset's nullspace is the lineality space of
    the cone, nonzero, so its basis vectors pass.  If r = n the cone is
    pointed, and when it is not {0} it has an extreme ray: a direction
    where n - 1 independent rows are tight, so that subset's nullspace is
    the line through it, and one of its two signs passes.
    """
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
    """Exact convex hull in every dimension.

    The facets and the points on each come from one `hull_facets` pass.  A
    point is a vertex iff the facets through it meet in that point alone:
    every face of a polytope is the intersection of the facets containing
    it, a vertex is the face {p}, and a point that is no vertex lies in the
    relative interior of a face of dimension at least 1, whose vertices (at
    least two input points) lie on every facet through it.  Lower-dimensional
    input is not an error: the result keeps its affine hull as equality
    pairs in the H-representation and is flagged via `degenerate`.
    """
    pts = sorted(set(vec(p) for p in points))
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("hull points have different lengths")
    facets = hull_facets(pts)
    everyone = frozenset(range(len(pts)))
    verts = tuple(p for i, p in enumerate(pts)
                  if everyone.intersection(*(on for _, on in facets if i in on)) == {i})
    return Polytope(n, verts, tuple(row for row, _ in facets), affine_dim(pts))


def hull_facets(
    points: Sequence[Sequence],
) -> list[tuple[tuple[tuple[int, ...], Fraction], frozenset]]:
    """Each facet of the convex hull of the rational points, once, as its row
    <a, y> <= b with a primitive (primitive_row) and the frozenset of the
    indices of the points on it; sorted by row.

    Points spanning R^n: each facet holds n affinely independent points, so
    the hyperplanes through n-subsets with every point on one side are
    exactly the facets.  An n-subset that lies in a facet already found
    spans that facet again and is skipped.  Points spanning an affine
    subspace V of dimension d < n: the facets are those of the points'
    coordinates in a chart of V, pulled back, and V itself as pairs of
    opposite rows that hold every point.  The chart keeps the points in
    order, so the chart's index sets are the input's.  At d = 0 the chart
    has no coordinate and no facet, and V's rows are the unit vectors.
    """
    n = len(points[0])
    p0 = points[0]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in points[1:]]
    # the first independent differences: the pivots of the matrix they are the columns of
    basis = [diffs[j] for j in _rref(list(zip(*diffs)), len(diffs))[1]]
    d = len(basis)
    if d == n:
        found: dict[tuple[tuple[int, ...], Fraction], frozenset] = {}
        for idx in itertools.combinations(range(len(points)), n):
            if any(on.issuperset(idx) for on in found.values()):
                continue  # spans a facet already found
            ns = nullspace([tuple(x - y for x, y in zip(points[i], points[idx[0]]))
                            for i in idx[1:]], n)
            if len(ns) != 1:
                continue  # affinely dependent subset; at n = 0 no subset has a facet
            a = ns[0]
            b = dot(a, points[idx[0]])
            vals, lo, hi = [], 0, 0
            for p in points:  # until points lie on both sides
                vals.append(dot(a, p) - b)
                lo, hi = min(lo, vals[-1]), max(hi, vals[-1])
                if lo < 0 < hi:
                    break
            else:
                row = primitive_row(a, b) if hi == 0 else primitive_row([-x for x in a], -b)
                found[row] = frozenset(i for i, v in enumerate(vals) if v == 0)
        return sorted(found.items())
    # chart: the basis is invertible on its d pivot columns, and one
    # elimination of those columns, augmented by every (p - p0)|cols, gives
    # the coordinates lam of each p = p0 + sum lam_j basis_j
    cols = _rref(basis, n)[1]
    sq = [[row[c] for c in cols] for row in basis]
    red = _rref([[basis[j][c] for j in range(d)] + [p[c] - p0[c] for p in points]
                 for c in cols], d)[0]
    chart = [tuple(r[d + i] for r in red) for i in range(len(points))]
    everyone = frozenset(range(len(points)))
    facets = []
    for a in nullspace(basis, n):
        pa = primitive(a)
        b = dot(pa, p0)
        facets += [((pa, b), everyone), ((tuple(-x for x in pa), -b), everyone)]
    # lam = M^{-1} (p - p0)|cols with M = sq^T, so a chart facet
    # <c, lam> <= b reads <y, (p - p0)|cols> <= b where sq y = c
    for (c, b), on in hull_facets(chart):
        y = solve_square(sq, c)
        amb = [Fraction(0)] * n
        for j, col in enumerate(cols):
            amb[col] = y[j]
        facets.append((primitive_row(amb, b + dot(amb, p0)), on))
    return sorted(facets)


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


def hilbert_function(Q: Polytope, j_max: int) -> list[int]:
    """[|jQ cap Z^n|] for j = 0..j_max, by dilate-and-count: each count is
    `_lattice_count` of the dilate jQ, and no point is built."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return [1] + [_lattice_count(Q.dilate(j), 1, strict=False) for j in range(1, j_max + 1)]


def interior_counts(Q: Polytope, j_max: int) -> list[int]:
    """[|interior(jQ) cap Z^n|] for j = 0..j_max (0 at j=0 by convention),
    counted like `hilbert_function`; LowerDimensional for a degenerate Q
    when j_max >= 1."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return [0] + [_lattice_count(Q.dilate(j), 1, strict=True) for j in range(1, j_max + 1)]


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


def _lattice_count(poly: Polytope, d: int, strict: bool) -> int:
    """How many points `_fraction_points` and `_lattice_numerators` list:
    the sum of the column lengths hi - lo + 1, with no point built.  It
    raises where they raise."""
    return sum(hi - lo + 1 for _, lo, hi in _lattice_columns(poly, d, strict))


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
    if strict and poly.degenerate:
        raise LowerDimensional("interior of a lower-dimensional polytope is empty")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:  # a bool is an int to isinstance
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
    """Rational fan given by primitive rays and maximal cones (ray indices).

    Construction raises MalformedFan for every defect of the data, the two
    structural ones among them: a maximal cone without n rays, and a ray in
    no maximal cone.  No reader of a Fan checks them again.
    """

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
            if len(c) != n:
                raise MalformedFan(f"maximal cone {c} does not have {n} rays")
        if not cones:
            raise MalformedFan("fan needs at least one maximal cone")
        covered = {i for c in cones for i in c}
        for i in range(len(rays)):
            if i not in covered:
                raise MalformedFan(f"ray {i} lies in no maximal cone")

    @property
    def n(self) -> int:
        return len(self.rays[0])

    def cone_matrix(self, cone: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.rays[i] for i in cone]

    def is_complete(self) -> bool:
        """Does the fan support cover all of R^n?  Exact degree test, every n.

        Every ridge (n - 1 rays of a maximal cone) must be shared by exactly
        two maximal cones lying on opposite sides of its hyperplane.  The
        cone that adds the ray v lies on the side of sign <N, v>, N the
        ridge's normal (the nullspace of its rays), since det(ridge, v) =
        <C, v> for the ridge's cofactor vector C, a nonzero multiple of N; a
        zero, or a ridge of dependent rays (no N), is a degenerate cone.
        Then the number of cones containing a generic direction (one off
        every hyperplane spanned by n - 1 rays) is the same everywhere: a
        path between two generic directions can cross those hyperplanes one
        at a time, off every face of dimension n - 2, and at each crossing
        the cones it leaves and enters pair up by the ridge they meet it in,
        one of each pair on each side.  So that count is the degree of the
        cones over the sphere of directions, and the cones cover R^n once,
        as a complete fan's do, iff it is 1.  `_generic_direction` gives one
        such direction from the normals of all (n - 1)-subsets of rays,
        which the ridge test shares; each is computed on first use.  In
        n = 1 the one ridge is the empty set and its hyperplane is the
        origin.
        """
        n = self.n

        @functools.cache
        def normal(idx: tuple[int, ...]) -> Vec | None:
            ns = nullspace([self.rays[i] for i in idx], n)
            return ns[0] if len(ns) == 1 else None

        opposite: dict[tuple[int, ...], list[int]] = {}  # ridge -> opposite rays
        for c in self.max_cones:
            for k in c:
                opposite.setdefault(tuple(i for i in c if i != k), []).append(k)
        for ridge, ks in opposite.items():
            N = normal(ridge) if len(ks) == 2 else None
            if N is None or dot(N, self.rays[ks[0]]) * dot(N, self.rays[ks[1]]) >= 0:
                return False
        subsets = itertools.combinations(range(len(self.rays)), n - 1)
        w = _generic_direction([N for N in map(normal, subsets) if N is not None], n)
        columns = ([[self.rays[i][k] for i in c] for k in range(n)] for c in self.max_cones)
        return sum(all(x > 0 for x in solve_square(m, w)) for m in columns) == 1


def _exact_int(x, what: str) -> int:
    """x as an int; MalformedFan when int() would change its value (1.5, "1")
    and for a bool, which int() keeps equal (a JSON true is not 1)."""
    if isinstance(x, bool):
        raise MalformedFan(f"{what} {x!r} is not an integer")
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedFan(f"{what} {x!r} is not an integer") from e
    if i != x:
        raise MalformedFan(f"{what} {x!r} is not an integer")
    return i


def _generic_direction(normals: Sequence[Vec], n: int) -> tuple[int, ...]:
    """First w = (1, k, ..., k^(n-1)), k = 1, 2, ..., off every hyperplane
    whose normal is given: the hyperplanes spanned by n - 1 rays.

    Each normal dotted with w is a nonzero polynomial of degree at most
    n - 1 in k, so every hyperplane rules out at most n - 1 values of k.
    """
    for k in itertools.count(1):
        w = tuple(k**e for e in range(n))
        if all(dot(nm, w) != 0 for nm in normals):
            return w


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone is unimodular (ray matrix determinant +-1)."""
    return all(mat_det(fan.cone_matrix(c)) in (1, -1) for c in fan.max_cones)


def support_convexity(fan: Fan, phi: Sequence) -> tuple[str, tuple[int, int] | None]:
    """Classify the piecewise-linear support function determined by phi.

    Returns ("strict", None), ("weak", witness) or ("nonconvex", witness)
    where witness names (cone index, other cone index) for the first pair
    violating strictness / convexity.
    """
    kind, witness, _ = _convexity(fan, phi)
    return kind, witness


def _convexity(fan: Fan, phi: Sequence) -> tuple[str, tuple[int, int] | None, list[Vec]]:
    """support_convexity's verdict and witness, and phi's gradient m_sigma on
    each maximal cone sigma, in cone order, tested against every other ray."""
    if len(phi) != len(fan.rays):
        raise MalformedFan("phi must assign one value per ray")
    vals = [_frac(p) for p in phi]
    grads = []
    for c in fan.max_cones:
        m = solve_square(fan.cone_matrix(c), [vals[i] for i in c])
        if m is None:
            raise MalformedFan(f"cone {c} is degenerate (rays do not span)")
        grads.append(m)
    kind, witness = "strict", None
    for ci, (c, m) in enumerate(zip(fan.max_cones, grads)):
        for ri, ray in enumerate(fan.rays):
            if ri in c:
                continue
            val = dot(m, ray)
            other = next(cj for cj, cc in enumerate(fan.max_cones) if ri in cc)
            if val > vals[ri]:
                return "nonconvex", (ci, other), grads
            if val == vals[ri] and kind == "strict":
                # the graph is flat across this wall: convex but not strictly
                kind = "weak"
                witness = (ci, other)
    return kind, witness, grads


def require_convex(fan: Fan, phi: Sequence) -> str:
    """support_convexity's verdict, "strict" or "weak"; NotConvex, naming the
    offending cone pair, when phi is not even weakly convex."""
    return _require_convex(fan, phi)[0]


def _require_convex(fan: Fan, phi: Sequence) -> tuple[str, list[Vec]]:
    """require_convex's verdict, with _convexity's cone gradients."""
    kind, witness, grads = _convexity(fan, phi)
    if kind == "nonconvex":
        raise NotConvex("support function not convex across cone pair {} and {}".format(*witness))
    return kind, grads


def polytope_from_bundle(fan: Fan, phi: Sequence) -> Polytope:
    """Moment polytope Q = {y : <v_i, y> <= phi(v_i)} of a support function.

    Raises Unbounded when the fan is not complete and NotConvex when phi is
    not even weakly convex.  A weakly-(but not strictly-)convex phi gives a
    degenerate polytope, which is returned flagged rather than rejected.
    For a complete fan and a convex phi the vertices of Q are the distinct
    gradients m_sigma of the convexity pass (Cox, Little & Schenck, Thm
    6.1.7): m_sigma is in Q with n independent rows tight, and a vertex u,
    the one maximizer over Q of some w = sum c_i v_i, c_i > 0, inside a
    cone sigma, has <w, u> <= sum c_i phi_i = <w, m_sigma>.  The rays are
    primitive and distinct, so the rows (v_i, phi_i) are Q's halfspaces.
    """
    if not fan.is_complete():
        raise Unbounded("fan is not complete; moment polytope would be unbounded")
    _, grads = _require_convex(fan, phi)
    verts = set(grads)
    return Polytope(fan.n, tuple(verts), tuple(sorted(zip(fan.rays, map(_frac, phi)))),
                    affine_dim(verts))
