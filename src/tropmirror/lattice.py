"""Exact lattice geometry: fans, support functions, polytopes, point counts.

Everything in this module is exact and no floating point is used anywhere:
the geometry (vertices, halfspace bounds, determinants) is in
`fractions.Fraction`, and normals are primitive integer vectors.  Each
algorithm is one algorithm for every dimension n >= 1: the convex hull and
the fan completeness test are exact for every n (their docstrings give the
proofs), at a cost that grows with the number of n-subsets of their input.
A `Fan` solves each maximal cone's dual basis once, when it is built, and
completeness, smoothness and a support function's gradients m_sigma, the
vertices of its moment polytope (`polytope_from_bundle`), are read from
it.  No polytope is built from halfspaces by vertex enumeration: the
tropical layer reads the component of the origin off its cells.  The hull
is one facet pass, `hull_facets`, that records which points lie on each
facet: the vertices are read from those index sets, and so are the cells and
faces of the tropical layer's regular subdivision, the lower hull of a
height function's lifted support.  A lower-dimensional hull is the same
pass on a coordinate projection.  Lattice points come from one integer
column sweep, `_lattice_columns`, that gives each column of the box its
interval of last coordinates by floor division.  `_lattice_numerators`
lists the integer numerators k of the points k/d, which the Floer ladder,
the ring bases and the isomorphism check read; `lattice_points`,
`interior_lattice_points` and the Floer groups' `basis` are the same points
as `Fraction` tuples.  `_lattice_count` returns only how many points there
are, the sum of the column lengths, and builds none of them: the
dilate-and-count values behind `hilbert` and the Ehrhart fit
(`hilbert_function`, `interior_counts`) and both Serre counts of `verify`
are its counts, and `hilbert` needs no module beyond this one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
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
    denom = lcm(*(x.denominator for x in fr))
    ints = [int(x * denom) for x in fr]
    g = gcd(*ints)
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
    spans that facet again and is skipped.

    Points spanning an affine subspace V of dimension d < n: V is pairs of
    opposite rows that hold every point, and the other facets are those of
    the points projected onto the pivot columns `cols` of a basis of V,
    written back with zeros off `cols`.  The basis has full rank on `cols`,
    so the projection is one-to-one on V and keeps the faces, the point
    order and the index sets, and a row zero off `cols` has the same value
    at p as at its projection.  At d = 0 V's rows are the unit vectors.
    """
    n = len(points[0])
    p0 = points[0]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in points[1:]]
    # the first independent differences: the pivots of the matrix they are the columns of
    basis = [diffs[j] for j in _rref(list(zip(*diffs)), len(diffs))[1]]
    if len(basis) == n:
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
    everyone = frozenset(range(len(points)))
    facets = []
    for a in nullspace(basis, n):
        pa = primitive(a)
        b = dot(pa, p0)
        facets += [((pa, b), everyone), ((tuple(-x for x in pa), -b), everyone)]
    cols = _rref(basis, n)[1]
    for (c, b), on in hull_facets([tuple(p[k] for k in cols) for p in points]):
        row = [0] * n
        for k, x in zip(cols, c):
            row[k] = x
        facets.append(((tuple(row), b), on))
    return sorted(facets)


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def lattice_points(poly: Polytope, d: int = 1) -> list[Vec]:
    """Points of poly in the (1/d)-refined lattice (d=1: ordinary lattice
    points), in the lexicographic order of the exact integer column sweep."""
    return _fraction_tuples(_lattice_numerators(poly, d, strict=False), d)


def interior_lattice_points(poly: Polytope, d: int = 1) -> list[Vec]:
    """Strictly interior points of the (1/d)-lattice; needs full dimension."""
    return _fraction_tuples(_lattice_numerators(poly, d, strict=True), d)


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


def _lattice_numerators(poly: Polytope, d: int, strict: bool) -> list[tuple[int, ...]]:
    """The numerators k of the points k/d, as int tuples in column order;
    the public readers are these points as `Fraction` tuples."""
    return [head + (k,) for head, lo, hi in _lattice_columns(poly, d, strict)
            for k in range(lo, hi + 1)]


def _fraction_tuples(numerators: Iterable[Sequence[int]], d: int) -> list[Vec]:
    """The points k/d of the integer numerators k, as `Fraction` tuples."""
    return [tuple(Fraction(x, d) for x in k) for k in numerators]


def _lattice_count(poly: Polytope, d: int, strict: bool) -> int:
    """How many points `_lattice_numerators` lists, and where it raises: the
    sum of the column lengths hi - lo + 1, with no point built."""
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

    Construction raises MalformedFan for every defect of the data, the three
    structural ones among them: a maximal cone without n rays, a ray in no
    maximal cone, and a degenerate cone (rays that do not span).  No reader
    checks them again.  `duals[s]` is the dual basis (w_i) of the cone
    `max_cones[s]`: <w_i, v_j> is 1 if i = j, else 0, for its rays v_j.
    """

    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    duals: tuple[tuple[Vec, ...], ...] = field(init=False, repr=False, compare=False)

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
            if gcd(*r) != 1:
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
        eye = [tuple(int(j == k) for k in range(n)) for j in range(n)]
        duals = []
        for c in cones:  # [M | I], M the rays of c as rows, reduces to [I | M^-1]
            m, pivots, _ = _rref([rays[i] + e for i, e in zip(c, eye)], n)
            if len(pivots) < n:
                raise MalformedFan(f"cone {c} is degenerate (rays do not span)")
            duals.append(tuple(tuple(row[n + i] for row in m) for i in range(n)))
        object.__setattr__(self, "duals", tuple(duals))

    @property
    def n(self) -> int:
        return len(self.rays[0])

    def is_complete(self) -> bool:
        """Does the fan support cover all of R^n?  Exact degree test, every n.

        Every ridge (the rays of a maximal cone sigma but v_k) must be shared
        by exactly two maximal cones on opposite sides of its hyperplane,
        whose normal is w_k, sigma's dual vector of v_k.  sigma is on the side
        <w_k, v_k> = 1 > 0, so the other cone, which adds the ray v_k', is
        on the other iff <w_k, v_k'> < 0.  Then the number of cones holding
        a generic direction w, <w_i, w> != 0 for every cone's every w_i, is
        the same everywhere: w is the sum of the <w_i, w> v_i over any
        cone's rays, so it is interior to the cone iff every <w_i, w> > 0
        and never on its boundary.  A path between two generic directions
        can cross the ridges' hyperplanes one at a time, off every face of
        dimension n - 2, and only a crossing inside a ridge changes the
        count; there the cones it leaves and enters pair up by that ridge,
        one of each pair on each side.  So that count is the degree of the
        cones over the sphere of directions, and the cones cover R^n once,
        as a complete fan's do, iff it is 1.  In n = 1 the one ridge is the
        empty set and its hyperplane is the origin.
        """
        opposite: dict[tuple[int, ...], list[tuple[Vec, tuple[int, ...]]]] = {}
        for c, ws in zip(self.max_cones, self.duals):
            for k, wk in zip(c, ws):  # ridge -> (w_k, v_k) of each cone on it
                opposite.setdefault(tuple(i for i in c if i != k), []).append((wk, self.rays[k]))
        for sides in opposite.values():
            if len(sides) != 2 or dot(sides[0][0], sides[1][1]) >= 0:
                return False
        w = _generic_direction([wi for ws in self.duals for wi in ws], self.n)
        return sum(all(dot(wi, w) > 0 for wi in ws) for ws in self.duals) == 1


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
    whose normal is given: those of a fan's ridges, its cones' dual vectors.

    Each normal dotted with w is a nonzero polynomial of degree at most
    n - 1 in k, so every hyperplane rules out at most n - 1 values of k.
    """
    for k in itertools.count(1):
        w = tuple(k**e for e in range(n))
        if all(dot(nm, w) != 0 for nm in normals):
            return w


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone is unimodular: its dual basis, the columns of M^-1
    for its integer ray matrix M, is integral.  That holds iff det M = +-1,
    as det M^-1 = 1 / det M and M^-1 = adj M / det M."""
    return all(x.denominator == 1 for ws in fan.duals for w in ws for x in w)


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
    each maximal cone sigma, in cone order, tested against every other ray:
    m_sigma = sum phi_i w_i over sigma's dual basis, so <m_sigma, v_i> = phi_i."""
    if len(phi) != len(fan.rays):
        raise MalformedFan("phi must assign one value per ray")
    vals = [_frac(p) for p in phi]
    grads = [tuple(sum((vals[i] * x for i, x in zip(c, coords)), Fraction(0))
                   for coords in zip(*ws))
             for c, ws in zip(fan.max_cones, fan.duals)]
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


def require_convex(fan: Fan, phi: Sequence) -> tuple[str, list[Vec]]:
    """support_convexity's verdict, "strict" or "weak", and phi's gradient
    m_sigma on each maximal cone sigma, in cone order; NotConvex, naming
    the offending cone pair, when phi is not even weakly convex."""
    kind, witness, grads = _convexity(fan, phi)
    if kind == "nonconvex":
        raise NotConvex("support function not convex across cone pair {} and {}".format(*witness))
    return kind, grads


def polytope_from_bundle(fan: Fan, phi: Sequence) -> Polytope:
    """Moment polytope Q = {y : <v_i, y> <= phi(v_i)} of a support function.

    Raises Unbounded when the fan is not complete and NotConvex when phi is
    not even weakly convex.  A weakly (not strictly) convex phi merges some
    gradients; a Q that is lower-dimensional is returned flagged, not rejected.
    For a complete fan and a convex phi the vertices of Q are the distinct
    gradients m_sigma = sum phi_i w_i over the dual bases (Cox, Little &
    Schenck, Thm 6.1.7), with edges along the -w_i: m_sigma is in Q with n
    independent rows tight, and a vertex u, the one maximizer over Q of
    some w = sum c_i v_i, c_i > 0, inside a cone sigma, has <w, u> <=
    sum c_i phi_i = <w, m_sigma>.  The rays are primitive and distinct, so
    the rows (v_i, phi_i) are Q's halfspaces.
    """
    if not fan.is_complete():
        raise Unbounded("fan is not complete; moment polytope would be unbounded")
    _, grads = require_convex(fan, phi)
    verts = set(grads)
    return Polytope(fan.n, tuple(verts), tuple(sorted(zip(fan.rays, map(_frac, phi)))),
                    affine_dim(verts))
