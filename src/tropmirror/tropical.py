"""Height functions, coherent subdivisions, and the tropical complex.

The combinatorial half of this module (lower-hull subdivision, Legendre
transform, faces and complement components of the tropical hypersurface) is
exact over Q: the subdivision is the lower hull of the lifted support, read
from one exact `lattice.hull_facets` pass over the points (alpha, nu(alpha)),
whose facets, with the points on each, also give every face of every cell,
and no epsilon ever enters.  Pi is read from the cells: its vertices are
their gradients, the component of the origin is the hull of the gradients
of the cells that hold it (moment_polytope), and in the plane the ends of
Pi's segments are the gradients of the cells on each 1-face's dual edge.
The separation constant behind the certified scale is read from them
too, one exact search per cell and point: its square is rational, and
only its square root is taken in floats.
The rest of the quantitative half (distortion constants, the patchworking
scale, Hausdorff distances between point clouds and the complex) is
numerical by nature and uses floats; no combinatorial decision depends on a
float.  The nearest point of a component to a float point is exact up to
roundoff, not iterated: project_onto_halfspaces enumerates candidate active
sets and raises rather than return an unconverged point.  The sets are
planned once per polyhedron (_Polyhedra), so a caller that projects many
stacks onto the same polyhedra pays for them once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .lattice import (
    DegenerateSupport,
    EmptyWindow,
    Fan,
    InvalidEps,
    NotTriangulation,
    Polytope,
    Unbounded,
    Vec,
    _exact_int,
    affine_dim,
    dot,
    hull,
    hull_facets,
    mat_det,
    primitive_row,
    require_convex,
    solve_square,
    vec,
)


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
        if any(len(p) != len(pts[0]) for p in pts):
            raise ValueError("support points have different lengths")
        if not pts[0]:
            raise DegenerateSupport("a support in R^0 spans nothing")

    @property
    def n(self) -> int:
        return len(self.points[0])

    @classmethod
    def from_bundle(cls, fan: Fan, phi: Sequence) -> "HeightFunction":
        """A = {0} union rays, nu(0) = 0, nu(v_i) = phi(v_i)."""
        zero = (0,) * fan.n
        return cls((zero,) + fan.rays, (Fraction(0),) + tuple(Fraction(p) for p in phi))


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
    """The cells, and the tie sets of every facet of the lifted hull (lower,
    upper and vertical), from which the faces of the cells are read."""

    height: HeightFunction
    cells: tuple[Cell, ...]
    is_triangulation: bool
    is_maximal: bool
    facets: tuple[frozenset, ...]


def regular_subdivision(h: HeightFunction) -> CoherentSubdivision:
    """Lower-hull subdivision of the lifted points {(alpha, nu(alpha))}.

    One `hull_facets` pass over the lift gives it, with the index set of
    the points on each facet: the cells are the facets <a, y> <= b with
    a[-1] < 0, each the graph over its cell of
    g(x) = <-a[:-1]/a[-1], x> + b/a[-1], which equals nu on the facet's
    tie set and lies strictly below nu off it, so ties stay as bigger
    (non-simplicial) cells.  A flat lift spans only a hyperplane: it is
    kept as a pair of opposite rows, the one with a[-1] < 0 is the single
    cell, and the pulled-back facets are vertical.
    """
    n = h.n
    A = h.points
    if affine_dim(A) < n:
        raise DegenerateSupport("support points do not span R^n affinely")
    facets = hull_facets([p + (v,) for p, v in zip(A, h.values)])
    cells = sorted((Cell(tuple(sorted(on)), tuple(Fraction(-x, a[-1]) for x in a[:-1]), b / a[-1])
                    for (a, b), on in facets if a[-1] < 0), key=lambda c: c.indices)
    is_tri = all(len(c.indices) == n + 1 for c in cells)
    is_max = is_tri and all(abs(mat_det(_edges(A, c.indices, c.indices[0]))) == 1 for c in cells)
    return CoherentSubdivision(h, tuple(cells), is_tri, is_max, tuple(on for _, on in facets))


def _edges(A, indices, a: int) -> list[tuple[int, ...]]:
    """The edge vectors A_j - A_a from the point a of a cell to its other
    points j, in the order of indices."""
    return [tuple(x - y for x, y in zip(A[j], A[a])) for j in indices if j != a]


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
    best: Fraction | None = None  # the support is never empty
    arg: list[tuple[int, ...]] = []
    for p, v in zip(h.points, h.values):
        val = dot(p, uu) - v
        if best is None or val > best:
            best, arg = val, [p]
        elif val == best:
            arg.append(p)
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

        # subdivision faces (saturated tie sets), all dimensions.  Every
        # nonempty face of a polytope is an intersection of facets, so the
        # proper faces of a cell are its nonempty meets with the other
        # facets of the lifted hull, closed under intersection
        face_dims: dict[frozenset, int] = {}
        for cell in self.subdivision.cells:
            S = frozenset(cell.indices)
            face_dims[S] = n
            meets = {S & T for T in self.subdivision.facets if T != S} - {frozenset()}
            proper, new = set(meets), meets
            while new:
                new = {f & g for f in new for g in meets if f & g} - proper
                proper |= new
            for f in proper:
                face_dims[f] = affine_dim([A[i] for i in f])

        # the row <A_j - A_i, u> <= nu_j - nu_i of every ordered pair, made
        # primitive once: C_i is cut out by the rows from i, and a face dual
        # to S by the rows from min(S), as equalities inside S
        row = {(i, j): primitive_row(tuple(x - y for x, y in zip(A[j], A[i])), nu[j] - nu[i])
               for i in range(len(A)) for j in range(len(A)) if j != i}
        faces = []
        for S, m in face_dims.items():
            if m < 1:
                continue  # dual would be a full-dimensional component, not a face
            idx = tuple(sorted(S))
            eqs = {row[idx[0], j] for j in idx[1:]}
            ineqs = {row[idx[0], j] for j in range(len(A)) if j not in S}
            faces.append(TropicalFace(n - m, idx, tuple(sorted(eqs)), tuple(sorted(ineqs))))
        faces.sort(key=lambda f: (f.dim, f.dual_indices))
        self.faces: tuple[TropicalFace, ...] = tuple(faces)

        active = set()
        for cell in self.subdivision.cells:
            active.update(cell.indices)
        comps = []
        for i in range(len(A)):
            rows = [row[i, j] for j in range(len(A)) if j != i]
            comps.append(Component(i, A[i], tuple(a for a, _ in rows), tuple(b for _, b in rows),
                                   i in active))
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

    def moment_polytope(self) -> Polytope | None:
        """The component C_0 of the origin A_z = 0: the hull of the
        gradients of the cells that hold z, with the component's rows; None
        when 0 is no support point, ValueError when C_0 is empty, Unbounded
        when it is unbounded.

        C_0 = {u : <A_j, u> <= nu_j - nu_z}.  The gradient of a cell that
        holds z is in C_0 with n independent rows tight, a vertex; a vertex
        has n independent rows tight, so its tie set is a cell's, whose
        gradient it is.  The rows span R^n, as A does affinely, so a
        nonempty C_0 has a vertex: it is empty iff no cell holds z.  It is
        bounded iff no d != 0 has <A_j, d> <= 0 for every j, iff 0 is
        interior to hull(A) (Farkas; Ziegler, Lectures on Polytopes, 1.4):
        if it is, eps d is in hull(A) for a small eps > 0, and <eps d, d> > 0
        is a convex combination of the <A_j, d>, so one is positive; if not,
        a hyperplane through 0 separates it from hull(A) or supports hull(A)
        there, and its normal on the side away from hull(A) is such a d.
        """
        zero = (0,) * self.n
        if zero not in self.height.points:
            return None
        z = self.height.points.index(zero)
        verts = {c.gradient for c in self.subdivision.cells if z in c.indices}
        if not verts:
            raise ValueError("the component of the origin is empty")
        if not hull(self.height.points).contains_strictly(zero):
            raise Unbounded("the component of the origin is unbounded")
        comp = self.components[z]
        return Polytope(self.n, tuple(verts), tuple(sorted(set(zip(comp.normals, comp.bounds)))),
                        affine_dim(verts))


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


class _Polyhedra:
    """Polyhedra {y : normals_c @ y <= bounds_c} in R^n, c = 0 .. C-1, each
    given by unit normals (k_c, n), with what the nearest-point kernel needs
    of them planned once: per polyhedron and size r = 1 .. min(k_c, n), the
    index sets (S, r) of r planes whose Gram matrix is nonsingular
    (det > 1e-12, scale-free for unit rows), their Gram matrices (S, r, r)
    and their rows transposed (S, n, r); and the normals of all polyhedra
    padded with zero rows to a common count kmax (C, kmax, n)."""

    def __init__(self, halfspaces):
        self.planes = [(np.asarray(nrm, dtype=float), np.asarray(bnd, dtype=float))
                       for nrm, bnd in halfspaces]
        self.width = max(len(nrm) for nrm, _ in self.planes)
        self.normals = np.zeros((len(self.planes), self.width, self.planes[0][0].shape[1]))
        self.sets = []
        for c, (nrm, _) in enumerate(self.planes):
            self.normals[c, : len(nrm)] = nrm
            sets = []
            for r in range(1, min(nrm.shape) + 1):
                idx = np.array(list(itertools.combinations(range(len(nrm)), r)))
                rows = nrm[idx]  # (sets, r, n)
                gram = rows @ rows.transpose(0, 2, 1)
                live = np.linalg.det(gram) > 1e-12
                sets.append((idx[live], gram[live], rows[live].transpose(0, 2, 1)))
            self.sets.append(sets)

    def violations(self, pts: np.ndarray) -> np.ndarray:
        """normals_c @ p - bounds_c for every row p of pts (P, n) and every
        polyhedron c: shape (P, C, kmax), padded with -inf."""
        viol = np.full((len(pts), len(self.planes), self.width), -np.inf)
        for c, (nrm, bnd) in enumerate(self.planes):
            viol[:, c, : len(nrm)] = np.matmul(nrm, pts[..., None])[..., 0] - bnd
        return viol

    def nearest(self, pts: np.ndarray, which: np.ndarray, viol: np.ndarray) -> np.ndarray:
        """The nearest point of polyhedron which[i] to row i of pts (P, n),
        given that row's violations viol[i] (P, kmax), as violations() gives
        them; a new (P, n) array.  Each row is computed exactly as it would
        be alone; see project_onto_halfspaces."""
        k = np.argmax(viol, axis=1)
        far = np.flatnonzero(viol[np.arange(len(pts)), k] > 0.0)
        out = pts.copy()
        out[far] = pts[far] - viol[far, k[far]][:, None] * self.normals[which[far], k[far]]
        for c, (nrm, bnd) in enumerate(self.planes):
            rows = far[which[far] == c]
            if not len(rows):
                continue
            # a foot that violates another plane sends its row on to the plane sets
            rows = rows[np.max(np.matmul(nrm, out[rows][..., None])[..., 0] - bnd, axis=1) > 1e-9]
            if len(rows):
                out[rows] = self._nearest_in_hulls(c, pts[rows], viol[rows, : len(nrm)])
        return out

    def _nearest_in_hulls(self, c: int, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The nearest feasible projection of each row of p onto the affine
        hull of one of polyhedron c's planned plane sets; v = its violations."""
        nrm, bnd = self.planes[c]
        cands = np.concatenate([  # (points, candidates, n)
            p[:, None] - (rows_t @ np.linalg.solve(gram, v[:, idx][..., None]))[..., 0]
            for idx, gram, rows_t in self.sets[c]], axis=1)
        feasible = np.max(cands @ nrm.T - bnd, axis=2) <= 1e-9
        if not feasible.any(axis=1).all():
            raise ValueError("the halfspaces have an empty intersection")
        dist = np.where(feasible, np.linalg.norm(cands - p[:, None], axis=2), np.inf)
        return cands[np.arange(len(p)), np.argmin(dist, axis=1)]


def project_onto_halfspaces(x0, normals, bounds):
    """Exact nearest point of {y : normals @ y <= bounds} to each row of x0
    (shape (..., n), any n), computed exactly as for that row alone.

    The rows of normals are unit vectors (Component.unit_halfspaces).  A
    feasible point is returned as is; else its foot on the most violated
    plane, if feasible (to 1e-9); else the nearest feasible projection onto
    the affine hull of a linearly independent set of at most n rows, every
    such set being tried.  An empty intersection raises ValueError.  This
    plans one polyhedron for one call; PatchworkFamily plans all its
    components once and calls the same kernel, _Polyhedra.nearest.
    """
    x = np.array(x0, dtype=float)
    poly = _Polyhedra([(normals, bounds)])
    pts = x.reshape(-1, x.shape[-1])
    viol = poly.violations(pts)[:, 0]
    return poly.nearest(pts, np.zeros(len(pts), dtype=int), viol).reshape(x.shape)


def tropical_constants(cx: TropicalComplex) -> TropicalConstants:
    """Norm bound N, distortion bound rho, and the separation constant c_est.

    N is the maximum l1 norm of A_i - A_j over the pairs of points of a
    cell, the edges of the triangulation.  rho bounds the length distortion
    of the affine chart of each simplex (max of the two operator norms).
    c_est is the separation constant, exact up to one rounding to a float:
    half the smallest ratio <h, r> / d(r, T(C_alpha)) over the vertex cones
    of Pi (see _separation_squared).  It depends on the subdivision alone,
    so no seed or sample enters.  diameter is the largest distance between
    two vertices of Pi (0 for fewer than two).  All of it is read from the
    complex cx and its subdivision.
    """
    if not cx.subdivision.is_triangulation:
        raise NotTriangulation("constants are defined for triangulated supports")
    A = cx.height.points
    # N over the edges at each point of each simplex, and the distortion of
    # the best affine chart per simplex: anchoring at a different vertex
    # changes the edge matrix, so take the anchor whose chart distorts least
    # (this keeps rho translation-invariant)
    N, rho = 0, 1.0
    for cell in cx.subdivision.cells:
        best = math.inf
        for a in cell.indices:
            edges = _edges(A, cell.indices, a)
            N = max(N, *(sum(map(abs, e)) for e in edges))
            s = np.linalg.svd(np.array(edges, dtype=float).T, compute_uv=False)
            best = min(best, max(float(s[0]), float(1.0 / s[-1])))
        rho = max(rho, best)

    verts = [np.array([float(x) for x in v], dtype=float) for v, _ in cx.vertices()]
    diam = max((float(np.linalg.norm(a - b)) for a, b in itertools.combinations(verts, 2)),
               default=0.0)
    c_est = 0.5 * math.sqrt(_separation_squared(cx))
    return TropicalConstants(N, rho, c_est, len(A), diam)


def _separation_squared(cx: TropicalComplex) -> Fraction:
    """Square of min <h, r> / d(r, T(C_alpha)), exactly; 1 if no ray is met.

    The minimum runs over ordered adjacent pairs (alpha, beta), the vertices
    of Pi where C_alpha and C_beta meet (A spans R^n affinely, so no
    component has lineality), and the extreme rays r of the tangent cone
    T(C_beta) there with r off H(alpha, beta); h is the unit normal of H
    into C_beta.  The convex d(., T(C_alpha)) peaks on the slice
    {<h, .> = 1} of T(C_beta) at such a ray, since the slice's recession
    directions lie in T(C_alpha).

    At a vertex with dual simplex S, T(C_x) = {r : <A_j - A_x, r> <= 0, j
    in S - x}.  The one extreme ray of T(C_beta) off H loosens only the
    alpha row, to <A_alpha - A_beta, r> = -1, so <A_j - A_alpha, r> = 1 for
    every j in S - alpha: r depends on (S, alpha) alone, and <h, r> =
    1 / |A_beta - A_alpha|.  Any two points of S span an edge, dual to a
    facet of Pi, so beta runs over S - alpha, and the least squared ratio
    at (S, alpha) is 1 / (|A_beta - A_alpha|^2 d^2(r, T(C_alpha))) at the
    farthest beta.
    """
    A = cx.height.points
    best = Fraction(1)
    for cell in cx.subdivision.cells:
        for a in cell.indices:
            edges = _edges(A, cell.indices, a)
            far = max(sum(x * x for x in e) for e in edges)
            best = min(best, 1 / (far * _cone_distance_squared(edges)))
    return best


def _cone_distance_squared(rows) -> Fraction:
    """Squared distance, exactly, from the point r with <row, r> = 1 for
    every row (linearly independent integer rows; r is never formed) to the
    cone {y : <row, y> <= 0 for each row}.  The nearest point is
    y = r - sum lam_i row_i, the projection of r onto the orthogonal
    complement of its active rows, so every set of rows is tried and the
    nearest feasible projection wins, as project_onto_halfspaces does in
    floats: lam solves Gram lam = 1 on the set, y is feasible iff
    Gram lam >= 1 on every row, and |y - r|^2 = lam . Gram lam = sum lam."""
    gram = [[sum(map(mul, p, q)) for q in rows] for p in rows]
    feasible = []
    for size in range(len(rows) + 1):
        for act in itertools.combinations(range(len(rows)), size):
            lam = solve_square([[gram[i][j] for j in act] for i in act], [1] * size)
            if lam is not None and all(sum(l * gram[k][i] for l, i in zip(lam, act)) >= 1
                                       for k in range(len(rows))):
                feasible.append(sum(lam, Fraction(0)))
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
    if not _scale_ok(k, eps, math.log(t)):
        raise RuntimeError(f"certified log t* = {L!r} fails the decay inequalities")
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

    Each 1-face is dual to a subdivision edge S, and its ends are the
    vertices of Pi dual to the cells that contain S: their gradients,
    exact.  Two cells give a segment, its ends ordered by <g, d> along the
    face's direction d = (-a_1, a_0), a its first equality row.  One cell
    gives a ray from its gradient along +-d, the sign that makes
    <A_k - A_i, dir> < 0 for i in S and k a point of the cell off S, so
    that k falls below S's points along the ray.  Rays are truncated far
    outside the window before clipping, so the clipped picture is exact as
    far as the window can see.
    """
    if cx.n != 2:
        raise ValueError("segment realization needs n = 2")
    A = cx.height.points
    x0, x1, y0, y1 = window
    reach = max(abs(x0), abs(x1), abs(y0), abs(y1)) * 4.0 + 10.0
    segs = []
    for f in cx.faces:
        if f.dim != 1:
            continue
        S = set(f.dual_indices)
        (a0, a1), _ = f.equalities[0]
        d = (-a1, a0)
        ends = [(g, cell) for g, cell in cx.vertices() if S.issubset(cell)]
        if len(ends) == 2:
            p, q = sorted((g for g, _ in ends), key=lambda g: dot(g, d))
            p, q = (float(p[0]), float(p[1])), (float(q[0]), float(q[1]))
        else:  # a ray from the one cell's gradient b
            (b, cell), = ends
            i, k = f.dual_indices[0], next(k for k in cell if k not in S)
            if dot(A[k], d) > dot(A[i], d):
                d = (a1, -a0)
            dn = math.hypot(float(d[0]), float(d[1]))
            p = (float(b[0]), float(b[1]))
            q = (float(b[0]) + reach * float(d[0]) / dn, float(b[1]) + reach * float(d[1]) / dn)
        clipped = _clip_segment_to_box(p, q, window)
        if clipped is not None:
            segs.append(clipped)
    return segs


def _lower_hull(a, w) -> np.ndarray:
    """Indices of the vertices of the lower convex hull of the points
    (a_i, w_i), a strictly increasing.

    Every middle point on or above the chord of its current neighbours is
    dropped, all at once, until none is.  A hull vertex lies strictly below
    every chord that spans it, so none is ever dropped, and a chain that is
    convex at each of its vertices is the hull.
    """
    idx = np.arange(len(a))
    while len(idx) > 2:
        a0, w0 = a[:-2], w[:-2]
        above = (w[1:-1] - w0) * (a[2:] - a0) >= (w[2:] - w0) * (a[1:-1] - a0)
        if not above.any():
            break
        keep = np.concatenate(([True], ~above, [True]))
        idx, a, w = idx[keep], a[keep], w[keep]
    return idx


def _band_sup(x, y, a, b, p, q, length: float) -> float:
    """sup over t in [0, length] of g(t) = min_i (t - a_i)^2 + b_i^2, the
    squared distance from p + t (q - p)/length to the points (x_i, y_i),
    whose coordinates along and across the segment are a_i and b_i.

    g(t) = t^2 + min_i (w_i - 2 a_i t) with w_i = a_i^2 + b_i^2, and the
    min is attained at the vertices of the lower convex hull of the points
    (a_i, w_i): between consecutive vertices j, k it is a convex parabola, and
    the pieces meet where both are equally near, at
    t_jk = (a_j + a_k)/2 + (b_k^2 - b_j^2) / (2 (a_k - a_j)).  So the sup is at
    an end of the segment or at a t_jk inside it.  The ends are measured in
    the plane's coordinates, as a nearest-neighbour query at p and q would.
    """
    if not len(a):
        return math.inf
    ends = max(float(np.min((x - p[0]) ** 2 + (y - p[1]) ** 2)),
               float(np.min((x - q[0]) ** 2 + (y - q[1]) ** 2)))
    order = np.argsort(a)
    a, b = a[order], b[order]
    first = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    a, b2 = a[first], np.minimum.reduceat(b * b, first)  # of equal a, the nearest
    h = _lower_hull(a, a * a + b2)
    aj, ak, bj, bk = a[h[:-1]], a[h[1:]], b2[h[:-1]], b2[h[1:]]
    t = 0.5 * (aj + ak) + (bk - bj) / (2.0 * (ak - aj))
    inside = (0.0 < t) & (t < length)
    return max(ends, float(np.max((t[inside] - aj[inside]) ** 2 + bj[inside], initial=0.0)))


def _pi_to_cloud(cloud, segments, beta: float) -> float:
    """sup over the segments of the distance to the nearest point of the
    cloud (N, 2), exact up to rounding.

    On each segment, of length l from p along the unit vector d, only the
    points of a band |b| <= r, -r <= a <= l + r take part, where
    a = <(x, y) - p, d> and b is the coordinate across d (_band_sup).  Every
    other point is farther than r from every point of the segment, so the
    band's answer is exact once it is at most r; r doubles until it is.  The
    cloud must not be empty.  beta > 0 sets only where r starts, at
    max(beta, the answer so far), so a segment no farther from the cloud
    than that takes one band.
    """
    x, y = np.ascontiguousarray(np.asarray(cloud, dtype=float).T)
    best = 0.0
    for p, q in segments:
        rx, ry = x - p[0], y - p[1]
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        if length == 0.0:  # a segment clipped to a point
            best = max(best, float(np.min(rx * rx + ry * ry)))
            continue
        d0, d1 = (q[0] - p[0]) / length, (q[1] - p[1]) / length
        a, b = rx * d0 + ry * d1, ry * d0 - rx * d1
        r = max(beta, math.sqrt(best))
        while True:
            band = np.flatnonzero((np.abs(b) <= r) & (a >= -r) & (a <= length + r))
            sup = _band_sup(x[band], y[band], a[band], b[band], p, q, length)
            if sup <= r * r:
                break
            r *= 2.0
        best = max(best, sup)
    return math.sqrt(best)


def hausdorff_distance(cloud, segments, window) -> float:
    """Symmetric Hausdorff distance between the cloud points inside the
    window and Pi, given as its segments inside the window
    (complex_segments).

    Both directions are exact up to rounding: the sup over cloud points of
    the distance to the nearest segment, and the sup over the segments of
    the distance to the nearest cloud point (_pi_to_cloud, whose first band
    is as wide as the first direction's answer, and at least 1/4000 of the
    window diagonal).
    """
    x0, x1, y0, y1 = window
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("cloud must be an (N, 2) array")
    mask = (pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
    pts = pts[mask]
    if len(pts) == 0:
        raise EmptyWindow("no cloud points inside the window")
    if not segments:
        raise EmptyWindow("tropical complex does not meet the window")

    # cloud -> Pi, over contiguous x and y columns; the projection stays one
    # (N, 2) @ dv product, so that it rounds as it always has (BLAS may fuse)
    x, y = pts.T.copy()
    best = np.full(len(pts), np.inf)
    for p, q in segments:
        pv = np.array(p)
        dv = np.array(q) - pv
        ex, ey = x - pv[0], y - pv[1]
        denom = float(dv @ dv)
        if denom != 0.0:
            t = np.clip((np.stack((ex, ey), axis=1) @ dv) / denom, 0.0, 1.0)
            ex, ey = x - (pv[0] + t * dv[0]), y - (pv[1] + t * dv[1])
        best = np.minimum(best, np.sqrt(ex * ex + ey * ey))
    d_cloud = float(np.max(best))

    # Pi -> cloud
    floor = math.hypot(x1 - x0, y1 - y0) / 4000
    d_pi = _pi_to_cloud(pts, segments, max(d_cloud, floor))
    return max(d_cloud, d_pi)
