"""Height functions, coherent subdivisions, and the tropical complex.

The combinatorial half of this module (lower-hull subdivision, Legendre
transform, faces and complement components of the tropical hypersurface) is
exact over Q: facet coplanarity is decided by rational elimination and no
epsilon ever enters.  So is the separation constant behind the certified
scale: its square is rational, and only its square root is taken in floats.
The rest of the quantitative half (distortion constants, the patchworking
scale, Hausdorff distances between point clouds and the complex) is
numerical by nature and uses floats; no combinatorial decision depends on a
float.  The nearest point of a component to a float point is exact up to
roundoff, not iterated: project_onto_halfspaces enumerates candidate active
sets and raises rather than return an unconverged point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import (
    Fan,
    Polytope,
    Vec,
    _exact_int,
    affine_dim,
    dot,
    hull,
    mat_det,
    mat_rank,
    primitive_row,
    require_convex,
    solve_square,
    vec,
)


class DegenerateSupport(ValueError):
    """The support points do not affinely span R^n."""


class NotTriangulation(ValueError):
    """An operation requiring simplicial cells met a bigger cell."""


class InvalidEps(ValueError):
    """Scale selection called with a non-positive (or senseless) epsilon."""


class EmptyWindow(ValueError):
    """Hausdorff comparison window contains no data on one side."""


# ---------------------------------------------------------------------------
# height functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightFunction:
    """Finite support A in Z^n with a rational height nu per point."""

    points: tuple[tuple[int, ...], ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        pts = tuple(tuple(_exact_int(x, "support coordinate") for x in p) for p in self.points)
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if len(pts) != len(vals):
            raise ValueError("one height per support point, please")
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be distinct")
        if not pts:
            raise ValueError("empty support")

    @property
    def n(self) -> int:
        return len(self.points[0])

    @classmethod
    def from_bundle(cls, fan: Fan, phi: Sequence) -> "HeightFunction":
        """A = {0} union rays, nu(0) = 0, nu(v_i) = phi(v_i)."""
        zero = (0,) * fan.n
        return cls((zero,) + fan.rays, (Fraction(0),) + tuple(Fraction(p) for p in phi))

    def zero_index(self) -> int | None:
        zero = (0,) * self.n
        return self.points.index(zero) if zero in self.points else None


# ---------------------------------------------------------------------------
# regular subdivisions (exact lower hull)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """Full-dimensional lower-hull cell: tie set plus its supporting affine
    function g(x) = <gradient, x> + offset (equal to nu on the tie set,
    strictly below everywhere else)."""

    indices: tuple[int, ...]
    gradient: Vec
    offset: Fraction


@dataclass(frozen=True)
class CoherentSubdivision:
    height: HeightFunction
    cells: tuple[Cell, ...]
    is_triangulation: bool
    is_maximal: bool

    def edges(self) -> set[frozenset]:
        """1-faces of the subdivision as index pairs (triangulations only)."""
        if not self.is_triangulation:
            raise NotTriangulation("edge enumeration is defined here for triangulations")
        out: set[frozenset] = set()
        for c in self.cells:
            out.update(frozenset(p) for p in itertools.combinations(c.indices, 2))
        return out


def regular_subdivision(h: HeightFunction) -> CoherentSubdivision:
    """Lower-hull subdivision of the lifted points {(alpha, nu(alpha))}.

    A candidate affine function is accepted when it interpolates n+1
    affinely independent lifted points and is nowhere above the lift; the
    cell is its full tie set, so ties stay as bigger (non-simplicial) cells.
    """
    n = h.n
    A = h.points
    nu = h.values
    if affine_dim(A) < n:
        raise DegenerateSupport("support points do not span R^n affinely")
    found: dict[frozenset, tuple[Vec, Fraction]] = {}
    for S in itertools.combinations(range(len(A)), n + 1):
        rows = [list(A[i]) + [1] for i in S]
        sol = solve_square(rows, [nu[i] for i in S])
        if sol is None:
            continue
        m, c = sol[:n], sol[n]
        vals = [dot(m, A[i]) + c for i in range(len(A))]
        if any(vals[i] > nu[i] for i in range(len(A))):
            continue
        tie = frozenset(i for i in range(len(A)) if vals[i] == nu[i])
        if affine_dim([A[i] for i in tie]) == n:
            found[tie] = (tuple(m), c)
    cells = tuple(
        Cell(tuple(sorted(tie)), grad, off)
        for tie, (grad, off) in sorted(found.items(), key=lambda kv: tuple(sorted(kv[0])))
    )
    is_tri = all(len(c.indices) == n + 1 for c in cells)
    is_max = is_tri and all(_unimodular(c, A, n) for c in cells)
    return CoherentSubdivision(h, cells, is_tri, is_max)


def _unimodular(cell: Cell, A, n: int) -> bool:
    anchor = A[cell.indices[0]]
    M = [
        [A[i][k] - anchor[k] for i in cell.indices[1:]]
        for k in range(n)
    ]
    return abs(mat_det(M)) == 1


def check_bundle_subdivision(fan: Fan, phi: Sequence) -> bool:
    """Do the full cells at the origin match conv({0} union cone rays)?

    Only cells containing the origin are compared; cells away from 0 are
    free to differ.  Raises NotConvex for a genuinely non-convex phi.
    """
    require_convex(fan, phi)
    h = HeightFunction.from_bundle(fan, phi)
    subd = regular_subdivision(h)
    zero = 0  # from_bundle puts the origin first
    at_zero = {
        frozenset(c.indices) - {zero} for c in subd.cells if zero in c.indices
    }
    cones = {frozenset(i + 1 for i in c) for c in fan.max_cones}  # ray i -> A index i+1
    return at_zero == cones


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def legendre_value(h: HeightFunction, u: Sequence) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """L_nu(u) = max(<alpha,u> - nu(alpha)) with its full tie set, exactly."""
    uu = vec(u)
    best: Fraction | None = None
    arg: list[tuple[int, ...]] = []
    for p, v in zip(h.points, h.values):
        val = dot(p, uu) - v
        if best is None or val > best:
            best, arg = val, [p]
        elif val == best:
            arg.append(p)
    assert best is not None
    return best, tuple(sorted(arg))


# ---------------------------------------------------------------------------
# the tropical complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TropicalFace:
    """Face of the tropical hypersurface, exact H-description.

    dim is the face's own dimension k; the face is dual to the
    (n-k)-dimensional subdivision face spanned by dual_indices.  Points u on
    the face satisfy every listed equality <a,u> = r and inequality
    <a,u> <= r.
    """

    dim: int
    dual_indices: tuple[int, ...]
    equalities: tuple[tuple[tuple[int, ...], Fraction], ...]
    inequalities: tuple[tuple[tuple[int, ...], Fraction], ...]


@dataclass(frozen=True)
class Component:
    """Closure of a unique-maximizer region C_alpha, as an exact H-rep."""

    index: int
    point: tuple[int, ...]
    normals: tuple[tuple[int, ...], ...]
    bounds: tuple[Fraction, ...]
    active: bool  # does alpha lie on the lower hull (touch some cell)?

    def contains(self, u: Sequence, strict: bool = False) -> bool:
        uu = vec(u)
        if strict:
            return all(dot(a, uu) < b for a, b in zip(self.normals, self.bounds))
        return all(dot(a, uu) <= b for a, b in zip(self.normals, self.bounds))

    def unit_halfspaces(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Float H-rep of scale * C_alpha with unit normals, the input form of
        project_onto_halfspaces: a violation is the distance to its plane."""
        normals = np.array([[float(x) for x in row] for row in self.normals])
        bounds = np.array([float(b) for b in self.bounds]) * scale
        rn = np.linalg.norm(normals, axis=1)
        return normals / rn[:, None], bounds / rn


class TropicalComplex:
    """Tropical hypersurface Pi of a height function, with its duality data."""

    def __init__(self, height: HeightFunction):
        self.height = height
        self.subdivision = regular_subdivision(height)
        n = height.n
        A = height.points
        nu = height.values

        # subdivision faces (saturated tie sets), all dimensions
        face_dims: dict[frozenset, int] = {}
        for cell in self.subdivision.cells:
            face_dims[frozenset(cell.indices)] = n
            for f in _cell_proper_faces(cell.indices, A):
                face_dims[f] = affine_dim([A[i] for i in f])

        faces = []
        for S, m in face_dims.items():
            if m < 1:
                continue  # dual would be a full-dimensional component, not a face
            idx = tuple(sorted(S))
            base = idx[0]
            eqs = []
            for other in idx[1:]:
                diff = tuple(A[other][k] - A[base][k] for k in range(n))
                rhs = nu[other] - nu[base]
                eqs.append(primitive_row(diff, rhs))
            ineqs = []
            for g in range(len(A)):
                if g in S:
                    continue
                diff = tuple(A[g][k] - A[base][k] for k in range(n))
                rhs = nu[g] - nu[base]
                ineqs.append(primitive_row(diff, rhs))
            faces.append(
                TropicalFace(n - m, idx, tuple(sorted(set(eqs))), tuple(sorted(set(ineqs))))
            )
        faces.sort(key=lambda f: (f.dim, f.dual_indices))
        self.faces: tuple[TropicalFace, ...] = tuple(faces)

        active = set()
        for cell in self.subdivision.cells:
            active.update(cell.indices)
        comps = []
        for i in range(len(A)):
            normals, bounds = [], []
            for j in range(len(A)):
                if j == i:
                    continue
                diff = tuple(A[j][k] - A[i][k] for k in range(n))
                rhs = nu[j] - nu[i]
                normals_j, rhs_j = primitive_row(diff, rhs)
                normals.append(normals_j)
                bounds.append(rhs_j)
            comps.append(Component(i, A[i], tuple(normals), tuple(bounds), i in active))
        self.components: tuple[Component, ...] = tuple(comps)

    @property
    def n(self) -> int:
        return self.height.n

    def vertices(self) -> list[tuple[Vec, tuple[int, ...]]]:
        """0-faces of Pi with their dual full cells, in cell order.

        The vertex dual to a cell is the cell's gradient m: at u = m every
        point of the tie set attains max <alpha, u> - nu(alpha) = -offset,
        and every other point falls below it.
        """
        return [(c.gradient, c.indices) for c in self.subdivision.cells]

    def adjacent_component_pairs(self) -> list[tuple[int, int]]:
        """Pairs (i, j) whose components share a facet of Pi."""
        out = set()
        for f in self.faces:
            if f.dim == self.n - 1 and len(f.dual_indices) == 2:
                out.add(tuple(sorted(f.dual_indices)))
        return sorted(out)

    def moment_polytope(self) -> Polytope | None:
        """The bounded component of the origin, as an exact polytope."""
        zi = self.height.zero_index()
        if zi is None:
            return None
        comp = self.components[zi]
        return Polytope.from_halfspaces(list(comp.normals), list(comp.bounds))


def _cell_proper_faces(indices: Sequence[int], A) -> set[frozenset]:
    """All proper faces (every dimension) of the full-dimensional cell
    conv(A[i] for i in indices), as saturated tie sets.

    Every nonempty face of a polytope is an intersection of facets and
    contains a vertex, so the facet tie sets of one hull, closed under
    intersection and cleared of the empty set, are exactly the proper faces.
    """
    cell = tuple(indices)
    facets = {
        frozenset(i for i in cell if dot(a, A[i]) == b)
        for a, b in hull([A[i] for i in cell]).halfspaces
    }
    out = set(facets)
    new = facets
    while new:
        new = {f & g for f in new for g in facets if f & g} - out
        out |= new
    return out


def face_geometry(face: TropicalFace, n: int):
    """Exact geometric realization of a face (n <= 2).

    Returns ("point", p), ("segment", p, q), ("ray", p, direction) or
    ("line", p, direction); None if the face is empty (does not occur for
    faces produced by TropicalComplex).
    """
    if face.dim == 0:
        rows, rhs = [], []
        for a, r in face.equalities:
            if mat_rank(rows + [list(a)]) > len(rows):
                rows.append(list(a))
                rhs.append(r)
            if len(rows) == n:
                break
        sol = solve_square(rows, rhs)
        assert sol is not None
        return ("point", sol)
    if n != 2 or face.dim != 1:
        raise ValueError("geometric realization implemented for n <= 2")
    a, r = face.equalities[0]
    den = Fraction(a[0] * a[0] + a[1] * a[1])
    p0 = (Fraction(a[0]) * r / den, Fraction(a[1]) * r / den)
    d = (Fraction(-a[1]), Fraction(a[0]))
    tlo: Fraction | None = None
    thi: Fraction | None = None
    for g, rr in face.inequalities:
        s = dot(g, d)
        v = rr - dot(g, p0)
        if s == 0:
            if v < 0:
                return None
            continue
        t = v / s
        if s > 0:
            thi = t if thi is None else min(thi, t)
        else:
            tlo = t if tlo is None else max(tlo, t)
    if tlo is not None and thi is not None:
        if tlo > thi:
            return None
        p = tuple(p0[k] + tlo * d[k] for k in range(2))
        q = tuple(p0[k] + thi * d[k] for k in range(2))
        return ("segment", p, q)
    if tlo is None and thi is None:
        return ("line", p0, d)
    if thi is not None:
        base = tuple(p0[k] + thi * d[k] for k in range(2))
        return ("ray", base, tuple(-x for x in d))
    base = tuple(p0[k] + tlo * d[k] for k in range(2))
    return ("ray", base, d)


# ---------------------------------------------------------------------------
# quantitative constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TropicalConstants:
    N: int
    rho: float
    c_est: float
    card_A: int
    diameter: float


def project_onto_halfspaces(x0, normals, bounds):
    """Exact nearest point of {y : normals @ y <= bounds} to each row of x0
    (shape (..., n), any n), computed exactly as for that row alone.

    The rows of normals are unit vectors (Component.unit_halfspaces).  A
    feasible point is returned as is; else its foot on the most violated
    plane, if feasible (to 1e-9); else the nearest feasible projection onto
    the affine hull of a linearly independent set of at most n rows, every
    such set being tried.  An empty intersection raises ValueError.
    """
    x = np.array(x0, dtype=float)
    nrm = np.asarray(normals, dtype=float)
    bnd = np.asarray(bounds, dtype=float)
    pts = x.reshape(-1, x.shape[-1])
    viol = np.matmul(nrm, pts[..., None])[..., 0] - bnd
    k = np.argmax(viol, axis=1)
    far = np.flatnonzero(viol[np.arange(len(pts)), k] > 0.0)
    if not len(far):
        return x
    out = pts.copy()
    out[far] = pts[far] - viol[far, k[far]][:, None] * nrm[k[far]]
    far = far[np.max(np.matmul(nrm, out[far][..., None])[..., 0] - bnd, axis=1) > 1e-9]
    if len(far):
        p, v = pts[far], viol[far]
        cands = []
        for r in range(1, min(len(nrm), x.shape[-1]) + 1):
            sets = np.array(list(itertools.combinations(range(len(nrm)), r)))
            rows = nrm[sets]  # (sets, r, n)
            gram = rows @ rows.transpose(0, 2, 1)
            live = np.linalg.det(gram) > 1e-12  # scale-free for unit rows
            lam = np.linalg.solve(gram[live], v[:, sets[live]][..., None])
            cands.append(p[:, None] - (rows[live].transpose(0, 2, 1) @ lam)[..., 0])
        cands = np.concatenate(cands, axis=1)  # (points, candidates, n)
        feasible = np.max(cands @ nrm.T - bnd, axis=2) <= 1e-9
        if not feasible.any(axis=1).all():
            raise ValueError("the halfspaces have an empty intersection")
        dist = np.where(feasible, np.linalg.norm(cands - p[:, None], axis=2), np.inf)
        out[far] = cands[np.arange(len(far)), np.argmin(dist, axis=1)]
    return out.reshape(x.shape)


def tropical_constants(cx: TropicalComplex) -> TropicalConstants:
    """Norm bound N, distortion bound rho, and the separation constant c_est.

    N is the maximum l1 norm over subdivision edge differences and over the
    support points themselves.  rho bounds the length distortion of the
    affine chart of each simplex (max of the two operator norms).  c_est is
    the separation constant, exact up to one rounding to a float: half the
    smallest ratio <h, r> / d(r, T(C_alpha)) over the vertex cones of Pi
    (see _separation_squared).  It depends on the subdivision alone, so no
    seed or sample enters.  diameter is the largest distance between two
    vertices of Pi (0 for fewer than two).  All of it is read from the
    complex cx and its subdivision.
    """
    h = cx.height
    subd = cx.subdivision
    if not subd.is_triangulation:
        raise NotTriangulation("constants are defined for triangulated supports")
    A = h.points
    n = h.n
    N = 0
    for e in subd.edges():
        i, j = tuple(e)
        N = max(N, sum(abs(A[i][k] - A[j][k]) for k in range(n)))

    # distortion of the best affine chart per simplex: anchoring at a
    # different vertex changes the edge matrix, so take the anchor whose
    # chart distorts least (this keeps rho translation-invariant)
    rho = 1.0
    for cell in subd.cells:
        pts = [A[i] for i in cell.indices]
        best = math.inf
        for anchor in pts:
            others = [p for p in pts if p != anchor]
            M = np.array([[float(p[k] - anchor[k]) for p in others] for k in range(n)])
            s = np.linalg.svd(M, compute_uv=False)
            best = min(best, max(float(s[0]), float(1.0 / s[-1])))
        rho = max(rho, best)

    verts = [np.array([float(x) for x in v], dtype=float) for v, _ in cx.vertices()]
    diam = max((float(np.linalg.norm(a - b)) for a, b in itertools.combinations(verts, 2)),
               default=0.0)
    c_est = 0.5 * math.sqrt(_separation_squared(cx))
    return TropicalConstants(N, rho, c_est, len(A), diam)


def _separation_squared(cx: TropicalComplex) -> Fraction:
    """Square of min <h, r> / d(r, T(C_alpha)), exactly; 1 if no ray is met.

    The minimum runs over ordered adjacent pairs (alpha, beta), the minimal
    faces of C_alpha and C_beta (vertices of Pi: A spans R^n affinely, so
    no component has lineality), and the extreme rays r of the tangent cone
    T(C_beta) at the vertex with r off H(alpha, beta); h is the unit normal
    of H into C_beta.  The maximum of the convex d(., T(C_alpha)) over the
    slice {<h, .> = 1} of T(C_beta) sits at one of these rays, and the
    slice's recession directions lie in T(C_alpha), so the rays suffice.

    At a vertex with dual cell S (a simplex), T(C_x) = {r : <A_j - A_x, r>
    <= 0 for j in S, j != x}, so the extreme rays of T(C_beta) keep all but
    one row tight.  Every ray that keeps the alpha row tight lies in H; the
    one left loosens exactly that row, to <A_alpha - A_beta, r> = -1, so
    <A_beta - A_alpha, r> = 1 and the squared ratio is 1 / (|A_beta -
    A_alpha|^2 d^2(r, T(C_alpha))).
    """
    A = cx.height.points
    n = cx.n

    def cone_rows(S, x):
        return [[A[j][k] - A[x][k] for k in range(n)] for j in S if j != x]

    best = Fraction(1)
    cells = [c.indices for c in cx.subdivision.cells]
    for i, j in cx.adjacent_component_pairs():
        for a, b in ((i, j), (j, i)):
            hh = sum((A[b][k] - A[a][k]) ** 2 for k in range(n))
            for S in cells:
                if a not in S or b not in S:
                    continue
                r = solve_square(cone_rows(S, b), [-int(x == a) for x in S if x != b])
                best = min(best, 1 / (hh * _cone_distance_squared(r, cone_rows(S, a))))
    return best


def _cone_distance_squared(r: Vec, rows) -> Fraction:
    """Squared distance from r to the cone {y : <row, y> <= 0 for each row},
    exactly.  The nearest point is y = r - sum lam_i row_i, the projection
    of r onto the orthogonal complement of its active rows, so every set of
    rows is tried and the nearest feasible projection wins, as
    project_onto_halfspaces does in floats.  A set with a singular Gram
    matrix is skipped: a linearly independent subset spans the same
    complement.  Everything is read from the Gram matrix and <row, r>."""
    gram = [[dot(p, q) for q in rows] for p in rows]
    rr = [dot(p, r) for p in rows]
    feasible = []
    for size in range(len(rows) + 1):
        for act in itertools.combinations(range(len(rows)), size):
            lam = solve_square([[gram[i][j] for j in act] for i in act], [rr[i] for i in act])
            if lam is None:
                continue
            if all(rr[k] <= sum(l * gram[k][i] for l, i in zip(lam, act))
                   for k in range(len(rows))):
                # |sum lam_i row_i|^2 = lam . Gram lam = lam . rr
                feasible.append(sum(l * rr[i] for l, i in zip(lam, act)))
    return min(feasible)


def _scale_ok(k: TropicalConstants, eps: float, L: float) -> bool:
    """Both decay inequalities of certified_log_scale at log t = L."""
    e = math.exp(-k.c_est * eps * L)
    return (e / (eps * L) < 1.0 / (40.0 * k.card_A * k.rho)
            and e < 1.0 / (5.0 * k.card_A**2 * k.rho * k.N))


def certified_log_scale(k: TropicalConstants, eps: float) -> float:
    """Smallest log t with both decay inequalities satisfied, by bisection.

    The two conditions (with L = log t, c = c_est):
        (e-2)  exp(-c*eps*L) / (eps*L)  <  1 / (40*|A|*rho)
        (e-3)  exp(-c*eps*L)            <  1 / (5*|A|^2*rho*N)
    Both sides are monotone in L, so the feasible set is a half-line.  The
    value is finite even where t itself is not a double (log t > 709).
    """
    if not (eps > 0) or not math.isfinite(eps):
        raise InvalidEps(f"eps must be positive and finite, got {eps}")
    if k.c_est <= 0:
        raise InvalidEps("separation constant must be positive")

    def ok(L: float) -> bool:
        return _scale_ok(k, eps, L)

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e9:
            raise InvalidEps("no feasible scale below exp(1e9); eps too small")
    lo = hi / 2.0
    if ok(lo):
        while ok(lo) and lo > 1e-9:
            hi = lo
            lo /= 2.0
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi * (1.0 + 1e-9)  # stay strictly feasible through the exp/log round trip


def choose_scale(k: TropicalConstants, eps: float) -> float:
    """t* = exp(certified_log_scale(k, eps)), verified against both decay
    inequalities; InvalidEps when log t* exceeds 709 and t* is no double."""
    L = certified_log_scale(k, eps)
    if L > 709.0:
        raise InvalidEps("required scale exceeds double precision; eps too small")
    t = math.exp(L)
    assert _scale_ok(k, eps, math.log(t))
    return t


# ---------------------------------------------------------------------------
# Hausdorff distance between a point cloud and the complex (n = 2)
# ---------------------------------------------------------------------------

def _clip_segment_to_box(p, q, window):
    """Liang-Barsky clipping; returns (p', q') or None."""
    x0, x1, y0, y1 = window
    d = (q[0] - p[0], q[1] - p[1])
    t0, t1 = 0.0, 1.0
    for lo, hi, pp, dd in ((x0, x1, p[0], d[0]), (y0, y1, p[1], d[1])):
        if dd == 0.0:
            if pp < lo or pp > hi:
                return None
            continue
        ta, tb = (lo - pp) / dd, (hi - pp) / dd
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    return (
        (p[0] + t0 * d[0], p[1] + t0 * d[1]),
        (p[0] + t1 * d[0], p[1] + t1 * d[1]),
    )


def complex_segments(cx: TropicalComplex, window):
    """Float segments realizing Pi inside the window (n = 2 only).

    Rays are truncated far outside the window before clipping, so the
    clipped picture is exact as far as the window can see.
    """
    if cx.n != 2:
        raise ValueError("segment realization needs n = 2")
    x0, x1, y0, y1 = window
    reach = max(abs(x0), abs(x1), abs(y0), abs(y1)) * 4.0 + 10.0
    segs = []
    for f in cx.faces:
        if f.dim != 1:
            continue
        geo = face_geometry(f, 2)
        if geo is None:
            continue
        kind = geo[0]
        if kind == "segment":
            p = (float(geo[1][0]), float(geo[1][1]))
            q = (float(geo[2][0]), float(geo[2][1]))
        else:  # a ray from b, or a line through b, along d
            b, d = geo[1], geo[2]
            dn = math.hypot(float(d[0]), float(d[1]))
            back = reach if kind == "line" else 0.0
            p = (float(b[0]) - back * float(d[0]) / dn, float(b[1]) - back * float(d[1]) / dn)
            q = (float(b[0]) + reach * float(d[0]) / dn, float(b[1]) + reach * float(d[1]) / dn)
        clipped = _clip_segment_to_box(p, q, window)
        if clipped is not None:
            segs.append(clipped)
    return segs


def hausdorff_distance(cloud, cx: TropicalComplex, window) -> float:
    """Symmetric Hausdorff distance between cloud points and Pi in a window.

    Both directions are computed: sup over cloud points of the distance to
    Pi (exact point-segment distances) and sup over a dense sample of Pi of
    the distance to the cloud (nearest neighbour via a KD-tree).
    """
    from scipy.spatial import cKDTree

    x0, x1, y0, y1 = window
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("cloud must be an (N, 2) array")
    mask = (pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
    pts = pts[mask]
    if len(pts) == 0:
        raise EmptyWindow("no cloud points inside the window")
    segs = complex_segments(cx, window)
    if not segs:
        raise EmptyWindow("tropical complex does not meet the window")

    # cloud -> Pi
    best = np.full(len(pts), np.inf)
    for p, q in segs:
        pv = np.array(p)
        dv = np.array(q) - pv
        denom = float(dv @ dv)
        if denom == 0.0:
            d = np.linalg.norm(pts - pv, axis=1)
        else:
            t = np.clip(((pts - pv) @ dv) / denom, 0.0, 1.0)
            proj = pv + t[:, None] * dv
            d = np.linalg.norm(pts - proj, axis=1)
        best = np.minimum(best, d)
    d_cloud = float(np.max(best))

    # Pi -> cloud
    diag = math.hypot(x1 - x0, y1 - y0)
    step = diag / 2000  # Pi is sampled at steps of 1/2000 of the window diagonal
    samples = []
    for p, q in segs:
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        k = max(int(length / step) + 1, 2)
        ts = np.linspace(0.0, 1.0, k)
        samples.append(np.outer(1 - ts, p) + np.outer(ts, q))
    sam = np.vstack(samples)
    tree = cKDTree(pts)
    d_pi = float(np.max(tree.query(sam)[0]))
    return max(d_cloud, d_pi)
