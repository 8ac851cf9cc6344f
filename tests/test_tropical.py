"""Tests for height functions, subdivisions, the tropical complex, and the
quantitative constants.

Oracle policy: the oracle_* helpers re-derive expected values through an
independent route (direct tie-set evaluation, shoelace areas, explicit
support checks, hand-built simplex matrices); frozen literals below were
computed from those oracles once and pinned.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropmirror
from tropmirror import tropical
from tropmirror.lattice import (
    Fan,
    NotConvex,
    Polytope,
    Unbounded,
    affine_dim,
    dot,
    hull,
    hull_facets,
    mat_rank,
    polytope_from_bundle,
    solve_square,
)
from tropmirror.tropical import (
    Cell,
    DegenerateSupport,
    EmptyWindow,
    HeightFunction,
    InvalidEps,
    NotTriangulation,
    TropicalComplex,
    _Polyhedra,
    _pi_to_cloud,
    certified_log_scale,
    check_bundle_subdivision,
    choose_scale,
    complex_segments,
    hausdorff_distance,
    legendre_value,
    project_onto_halfspaces,
    regular_subdivision,
    tropical_constants,
)

from oracles import adjacent_pairs, from_halfspaces, separation_squared_pairwise

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
P1XP1_FAN = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))


def p2_height():
    return HeightFunction.from_bundle(P2_FAN, (1, 1, 1))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_argmax(points, values, u):
    """Direct tie-set evaluation of max <a,u> - nu(a)."""
    vals = [sum(Fraction(a) * Fraction(x) for a, x in zip(p, u)) - Fraction(v)
            for p, v in zip(points, values)]
    best = max(vals)
    return best, tuple(sorted(p for p, v in zip(points, vals) if v == best))


def oracle_hull_2d(points):
    """Gift wrapping, exact; returns hull vertices in CCW order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    start = min(pts)
    hull = [start]
    while True:
        cand = pts[0] if pts[0] != hull[-1] else pts[1]
        for p in pts:
            if p == hull[-1]:
                continue
            c = cross(hull[-1], cand, p)
            if c < 0 or (c == 0 and
                         (abs(p[0] - hull[-1][0]) + abs(p[1] - hull[-1][1]) >
                          abs(cand[0] - hull[-1][0]) + abs(cand[1] - hull[-1][1]))):
                cand = p
        if cand == start:
            break
        hull.append(cand)
    return hull


def oracle_area_2d(points):
    """Shoelace area of the convex hull of the points, exact."""
    hull = oracle_hull_2d(points)
    if len(hull) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        s += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(s) / 2


def oracle_check_subdivision(h, subd):
    """Independent validity check of a claimed lower-hull subdivision (n=2):
    every cell's affine function supports the lift with tie exactly the
    cell, and the cell areas partition the support's hull area."""
    A, nu = h.points, h.values
    for cell in subd.cells:
        vals = [sum(g * x for g, x in zip(cell.gradient, A[i])) + cell.offset
                for i in range(len(A))]
        assert all(vals[i] <= nu[i] for i in range(len(A)))
        tie = tuple(sorted(i for i in range(len(A)) if vals[i] == nu[i]))
        assert tie == cell.indices  # saturated
    total = oracle_area_2d(A)
    covered = sum(oracle_area_2d([A[i] for i in c.indices]) for c in subd.cells)
    assert covered == total


# ---------------------------------------------------------------------------
# regular subdivision
# ---------------------------------------------------------------------------

def test_p2_bundle_subdivision_is_the_fan():
    subd = regular_subdivision(p2_height())
    assert [c.indices for c in subd.cells] == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    assert subd.is_triangulation and subd.is_maximal
    oracle_check_subdivision(p2_height(), subd)
    # each cell's supporting function is the cone's support-function slope
    for cell in subd.cells:
        assert cell.offset == 0
        for i in cell.indices:
            p = p2_height().points[i]
            assert sum(g * x for g, x in zip(cell.gradient, p)) == p2_height().values[i]


def test_tied_square_stays_one_cell():
    h = HeightFunction(((0, 0), (1, 0), (0, 1), (1, 1)), (0, 0, 0, 0))
    subd = regular_subdivision(h)
    assert [c.indices for c in subd.cells] == [(0, 1, 2, 3)]
    assert not subd.is_triangulation and not subd.is_maximal
    oracle_check_subdivision(h, subd)


def test_square_splits_when_one_corner_lifts():
    h = HeightFunction(((0, 0), (1, 0), (0, 1), (1, 1)), (0, 0, 0, 1))
    subd = regular_subdivision(h)
    assert [c.indices for c in subd.cells] == [(0, 1, 2), (1, 2, 3)]
    assert subd.is_triangulation and subd.is_maximal
    oracle_check_subdivision(h, subd)


def test_interval_two_points():
    h = HeightFunction(((0,), (1,)), (0, 0))
    subd = regular_subdivision(h)
    assert [c.indices for c in subd.cells] == [(0, 1)]
    assert subd.is_triangulation and subd.is_maximal


def test_height_function_rejects_non_integer_points():
    # int() would read 1.5 as 1 and accept the string "1"
    for bad in (1.5, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            HeightFunction(((0, 0), (bad, 0), (0, 1)), (0, 0, 0))


def test_height_function_rejects_points_of_different_lengths():
    # zip would cut (0, 1, 5) short, and the subdivision had a cell with
    # gradient (-6, 5)
    with pytest.raises(ValueError, match="different lengths"):
        HeightFunction(((0, 0), (1, 0), (0, 1, 5), (-1, -1)), (0, 1, 1, 1))


def test_degenerate_support_raises():
    with pytest.raises(DegenerateSupport):
        regular_subdivision(HeightFunction(((0, 0), (1, 0)), (0, 0)))
    with pytest.raises(DegenerateSupport):
        regular_subdivision(HeightFunction(((0, 0), (1, 1), (2, 2)), (0, 0, 0)))
    # a support in R^0 spans nothing: refused when built, not by an internal
    # TypeError in tropical_constants
    with pytest.raises(DegenerateSupport):
        HeightFunction(((),), (0,))


def test_random_supports_against_oracle():
    rng = random.Random(7)
    for trial in range(20):
        npts = rng.randint(5, 8)
        pts = set()
        while len(pts) < npts:
            pts.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        pts = sorted(pts)
        if oracle_area_2d(pts) == 0:
            continue
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in pts]
        h = HeightFunction(tuple(pts), tuple(vals))
        subd = regular_subdivision(h)
        assert subd.cells
        oracle_check_subdivision(h, subd)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_support_the_lift_in_every_dimension(n):
    # free rational, tied {0, 1} and flat heights on random supports: each
    # cell's affine function equals nu on its tie set and lies strictly below
    # it off the set, the tie set spans R^n, and every ridge of a cell lies in
    # one other cell or on the boundary of conv(A), so the cells cover it
    rng = random.Random(40 + n)
    r = 2 if n == 1 else 1
    for trial in range(24):
        kind = ("free", "tied", "flat")[trial % 3]
        A = sorted({tuple(rng.randint(-r, r) for _ in range(n)) for _ in range(n + 5)})
        if affine_dim(A) < n:
            continue
        if kind == "free":
            nu = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in A]
        else:
            nu = [rng.randint(0, 1) if kind == "tied" else 0 for _ in A]
        subd = regular_subdivision(HeightFunction(tuple(A), tuple(nu)))
        if kind == "flat":
            assert [c.indices for c in subd.cells] == [tuple(range(len(A)))]
        boundary = hull(A).halfspaces
        for cell in subd.cells:
            assert affine_dim([A[i] for i in cell.indices]) == n
            for i, (p, v) in enumerate(zip(A, nu)):
                g = dot(cell.gradient, p) + cell.offset
                assert g == v if i in cell.indices else g < v
            for normal, bound in hull([A[i] for i in cell.indices]).halfspaces:
                ridge = {i for i in cell.indices if dot(normal, A[i]) == bound}
                shared = sum(ridge <= set(c.indices) for c in subd.cells)
                outer = any(all(dot(a, A[i]) == b for i in ridge) for a, b in boundary)
                assert shared == (1 if outer else 2)


# ---------------------------------------------------------------------------
# bundle subdivision predicate
# ---------------------------------------------------------------------------

def test_bundle_subdivision_fixtures():
    assert check_bundle_subdivision(P2_FAN, (1, 1, 1)) is True
    assert check_bundle_subdivision(P1XP1_FAN, (1, 1, 1, 1)) is True
    assert check_bundle_subdivision(P2_FAN, (1, 1, 5)) is True


def test_bundle_subdivision_weakly_convex_is_false_not_an_error():
    # phi = 0 lifts nothing: one big cell, which is not the fan's star
    assert check_bundle_subdivision(P2_FAN, (0, 0, 0)) is False


def test_bundle_subdivision_propagates_nonconvexity():
    with pytest.raises(NotConvex):
        check_bundle_subdivision(P2_FAN, (1, 1, -5))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def test_legendre_fixtures():
    h = p2_height()
    assert legendre_value(h, (0, 0)) == (0, ((0, 0),))
    val, arg = legendre_value(h, (1, 1))
    assert val == 0 and arg == ((0, 0), (0, 1), (1, 0))
    assert legendre_value(h, (2, 0)) == (1, ((1, 0),))


def test_legendre_matches_direct_evaluation():
    h = p2_height()
    rng = random.Random(11)
    for _ in range(500):
        u = (Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
        val, arg = legendre_value(h, u)
        oval, oarg = oracle_argmax(h.points, h.values, u)
        assert val == oval and arg == oarg


def test_legendre_midpoint_convexity():
    h = p2_height()
    rng = random.Random(13)
    for _ in range(300):
        u = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        v = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        mid = tuple((a + b) / 2 for a, b in zip(u, v))
        lu, _ = legendre_value(h, u)
        lv, _ = legendre_value(h, v)
        lm, _ = legendre_value(h, mid)
        assert lm <= (lu + lv) / 2


# ---------------------------------------------------------------------------
# tropical complex
# ---------------------------------------------------------------------------

def test_p2_complex_counts_and_vertices():
    cx = TropicalComplex(p2_height())
    verts = cx.vertices()
    assert sorted(v for v, _ in verts) == [(-2, 1), (1, -2), (1, 1)]
    # the vertex at (1,1) is dual to the cell conv{0, e1, e2}
    dual = {tuple(map(int, v)): d for v, d in verts}
    assert dual[(1, 1)] == (0, 1, 2)
    # an edge of Pi is a segment between the vertices of the two cells that
    # hold its dual edge, or a ray from the vertex of the one cell that does
    cells = sorted(sum(set(f.dual_indices) <= set(d) for _, d in verts)
                   for f in cx.faces if f.dim == 1)
    assert cells == [1, 1, 1, 2, 2, 2]


def test_p2_origin_component_is_the_moment_polytope():
    cx = TropicalComplex(p2_height())
    q = cx.moment_polytope()
    ref = polytope_from_bundle(P2_FAN, (1, 1, 1))
    assert q.vertices == ref.vertices


def moment_outcome(build):
    """What build() gives: its polytope (or None), "unbounded", or "empty"."""
    try:
        return build()
    except Unbounded:
        return "unbounded"
    except ValueError as e:
        assert "empty" in str(e)
        return "empty"


def check_moment_polytope_against_the_oracle(cx):
    """moment_polytope, read off the cells, against the vertex enumeration
    of the component's rows; returns the outcome."""
    got = moment_outcome(cx.moment_polytope)
    zero = (0,) * cx.n
    if zero not in cx.height.points:
        assert got is None
    else:
        comp = cx.components[cx.height.points.index(zero)]
        assert got == moment_outcome(lambda: from_halfspaces(comp.normals, comp.bounds))
    return got


@pytest.mark.parametrize("points, values, kind", [
    (((0, 0), (1, 0), (0, 1), (-1, -1)), (0, 1, 1, 1), 2),
    # the tied square: C_0 is the segment [-1, 1] x {0}
    (((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)), (0, 1, 0, 1, 0), 1),
    # the flat lift: C_0 is the origin
    (((0, 0), (1, 0), (0, 1), (-1, -1)), (0, 0, 0, 0), 0),
    (((0, 0), (1, 0), (0, 1)), (0, 0, 0), "unbounded"),
    # the origin on the boundary of hull(A), lifted above the lower hull:
    # C_0 is empty, and its rows leave a direction free
    (((-1, 0), (0, 0), (1, 0), (0, 1)), (0, 5, 0, 0), "empty"),
    (((0, 0), (1, 0), (0, 1), (-1, -1)), (50, 0, 0, 0), "empty"),
    (((1, 0), (0, 1), (-1, -1)), (0, 0, 0), None),
], ids=["full", "segment", "point", "unbounded", "empty-free", "empty-bounded", "no-origin"])
def test_moment_polytope_cases(points, values, kind):
    got = check_moment_polytope_against_the_oracle(TropicalComplex(HeightFunction(points, values)))
    assert (got.dim if isinstance(got, Polytope) else got) == kind


@st.composite
def origin_height(draw):
    """A random height function (n = 1, 2, 3) on few points near the
    origin, which is a support point in most draws, with few height values,
    so that C_0 comes out bounded or not, of any dimension, or empty."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-2, 2) if n == 1 else st.integers(-1, 1)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4,
                        unique=True))
    if draw(st.integers(0, 4)) and (0,) * n not in pts:
        pts[0] = (0,) * n
    values = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    try:
        return TropicalComplex(HeightFunction(tuple(pts), tuple(values)))
    except DegenerateSupport:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(origin_height())
def test_moment_polytope_matches_the_vertex_enumeration(cx):
    check_moment_polytope_against_the_oracle(cx)


def test_interval_complex():
    h = HeightFunction(((0,), (1,)), (0, 0))
    cx = TropicalComplex(h)
    assert len(cx.faces) == 1 and cx.faces[0].dim == 0
    assert oracle_face_point(cx.faces[0]) == (0,)
    assert len(cx.components) == 2
    c0, c1 = cx.components
    assert c0.contains((-5,)) and not c0.contains((1,))
    assert c1.contains((2,)) and not c1.contains((-1,))
    assert c0.contains((0,)) and c1.contains((0,))  # closures meet at the vertex


def test_components_partition_and_duality():
    h = p2_height()
    cx = TropicalComplex(h)
    by_dual = {f.dual_indices: f for f in cx.faces}
    rng = random.Random(17)
    for _ in range(500):
        u = (Fraction(rng.randint(-30, 30), rng.randint(1, 5)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 5)))
        _, arg = legendre_value(h, u)
        tie = tuple(sorted(h.points.index(p) for p in arg))
        for i, comp in enumerate(cx.components):
            assert comp.contains(u) == (i in tie)
        if len(tie) >= 2:
            # u lies on the face dual to its saturated tie set
            face = by_dual[tie]
            assert all(
                sum(Fraction(a) * x for a, x in zip(row, u)) == r
                for row, r in face.equalities
            )


def test_inactive_component_is_empty():
    # the origin is interior to the support triangle and lifted far above
    # the lower hull, so its component never wins the max
    h = HeightFunction(((0, 0), (1, 0), (0, 1), (-1, -1)), (50, 0, 0, 0))
    cx = TropicalComplex(h)
    assert [c.active for c in cx.components] == [False, True, True, True]
    dead = cx.components[0]
    rng = random.Random(19)
    for _ in range(200):
        u = (rng.randint(-60, 60), rng.randint(-60, 60))
        assert not dead.contains(u)


def oracle_cell_proper_faces(indices, A):
    """Proper faces by recursion: a hull of every face, facets of facets,
    down to the vertices (each lower-dimensional face gets its own hull)."""
    out = set()
    stack = [tuple(indices)]
    seen = set()
    while stack:
        cur = stack.pop()
        pts = [A[i] for i in cur]
        d = affine_dim(pts)
        if d <= 0:
            continue
        hl = hull(pts)
        for a, b in hl.halfspaces:
            tight = frozenset(i for i in cur if dot(a, A[i]) == b)
            if not tight or tight in seen:
                continue
            if affine_dim([A[i] for i in tight]) == d - 1:
                seen.add(tight)
                out.add(tight)
                stack.append(tuple(sorted(tight)))
    return out


def oracle_complex_duals(cx):
    """The dual tie sets the faces of Pi must have: every cell, and every
    proper face of a cell of positive dimension (a vertex of the
    subdivision is dual to a component, not to a face)."""
    A = cx.height.points
    out = set()
    for cell in cx.subdivision.cells:
        out.add(frozenset(cell.indices))
        out.update(f for f in oracle_cell_proper_faces(cell.indices, A)
                   if affine_dim([A[i] for i in f]) > 0)
    return out


def check_faces_against_oracle(cx):
    A = cx.height.points
    assert {frozenset(f.dual_indices) for f in cx.faces} == oracle_complex_duals(cx)
    for f in cx.faces:
        assert f.dim == cx.n - affine_dim([A[i] for i in f.dual_indices])


def oracle_face_point(face):
    """The point of a 0-face, from its H-description alone: a maximal
    linearly independent set of its equality rows, solved exactly."""
    rows, rhs = [], []
    for a, r in face.equalities:
        if mat_rank(rows + [list(a)]) > len(rows):
            rows.append(list(a))
            rhs.append(r)
    return solve_square(rows, rhs)


def test_cube_cell_faces():
    # one non-simplicial cell: 6 squares, 12 edges and 8 vertices, dual to
    # the 1- and 2-faces of Pi; the cell itself is dual to its one vertex
    A = tuple(itertools.product((0, 1), repeat=3))
    cx = TropicalComplex(HeightFunction(A, (0,) * 8))
    (cell,) = cx.subdivision.cells
    dims = sorted(affine_dim([A[i] for i in f])
                  for f in oracle_cell_proper_faces(cell.indices, A))
    assert dims == [0] * 8 + [1] * 12 + [2] * 6
    assert [f.dim for f in cx.faces] == [0] + [1] * 6 + [2] * 12
    check_faces_against_oracle(cx)
    assert cx.vertices() == [((0, 0, 0), tuple(range(8)))]


@pytest.mark.parametrize(
    "height", [p2_height(), HeightFunction(((0, 0), (1, 0), (0, 1)), (0, 0, 0))],
    ids=["p2", "flat"])
def test_one_hull_per_complex(monkeypatch, height):
    # the subdivision and every face of it come from one facet pass over the lift
    calls = []

    def counting_hull_facets(points):
        calls.append(points)
        return hull_facets(points)

    monkeypatch.setattr(tropical, "hull_facets", counting_hull_facets)
    TropicalComplex(height)
    assert len(calls) == 1


@st.composite
def tied_height(draw):
    """A random height function (n = 1, 2, 3) with few height values, so
    ties leave non-simplicial cells."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-2, 2) if n == 1 else st.integers(-1, 1)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 5,
                        unique=True))
    values = draw(st.lists(st.integers(0, 1), min_size=len(pts), max_size=len(pts)))
    try:
        return TropicalComplex(HeightFunction(tuple(pts), tuple(values)))
    except DegenerateSupport:
        assume(False)


@settings(max_examples=120, deadline=None)
@given(tied_height())
def test_faces_and_vertices_match_the_recursive_oracle(cx):
    check_faces_against_oracle(cx)
    solved = [(oracle_face_point(f), f.dual_indices) for f in cx.faces if f.dim == 0]
    assert cx.vertices() == solved


# ---------------------------------------------------------------------------
# nearest-point kernel
# ---------------------------------------------------------------------------

def test_nearest_point_at_a_vertex_is_exact():
    # the (-1,-1)-component of P^2: u1 + u2 <= -1, 2u1 + u2 <= 0, u1 + 2u2 <= 0.
    # From (1, 6) the worst plane's foot is infeasible and the nearest point
    # is the corner (-2, 1), where a capped iterative projection stops short
    comp = TropicalComplex(p2_height()).components[3]
    assert comp.point == (-1, -1)
    normals, bounds = comp.unit_halfspaces(1.0)
    y = project_onto_halfspaces((1.0, 6.0), normals, bounds)
    assert np.max(np.abs(y - np.array([-2.0, 1.0]))) < 1e-12


def test_nearest_point_of_an_empty_intersection_raises():
    # u1 <= -1 and u1 >= 1
    with pytest.raises(ValueError, match="empty intersection"):
        project_onto_halfspaces((0.0, 0.0), [[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])


def oracle_project_onto_halfspaces(x0, normals, bounds):
    """The nearest-point kernel as it stood before its plane sets were
    planned once per polyhedron: every call enumerates the sets itself."""
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
            rows = nrm[sets]
            gram = rows @ rows.transpose(0, 2, 1)
            live = np.linalg.det(gram) > 1e-12
            lam = np.linalg.solve(gram[live], v[:, sets[live]][..., None])
            cands.append(p[:, None] - (rows[live].transpose(0, 2, 1) @ lam)[..., 0])
        cands = np.concatenate(cands, axis=1)
        feasible = np.max(cands @ nrm.T - bnd, axis=2) <= 1e-9
        if not feasible.any(axis=1).all():
            raise ValueError("the halfspaces have an empty intersection")
        dist = np.where(feasible, np.linalg.norm(cands - p[:, None], axis=2), np.inf)
        out[far] = cands[np.arange(len(far)), np.argmin(dist, axis=1)]
    return out.reshape(x.shape)


def answer(fn, *args):
    """fn's result as bytes, or the message of the ValueError it raised."""
    try:
        return fn(*args).tobytes()
    except ValueError as e:
        return str(e)


def test_planned_kernel_matches_the_per_call_oracle():
    # random polygons with unit normals (bounded, unbounded and empty ones):
    # the kernel with plans built once answers every stack as the public
    # function and the per-call oracle do, bit for bit, and raises the same
    # ValueError on an empty intersection
    rng = np.random.default_rng(11)
    polygons, empty = [], 0
    for _ in range(150):
        k = int(rng.integers(1, 6))
        angles = rng.uniform(0.0, 2.0 * np.pi, k)
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        bounds = rng.uniform(-2.0, 2.0, k)
        x = rng.uniform(-6.0, 6.0, (40, 2))
        expect = answer(oracle_project_onto_halfspaces, x, normals, bounds)
        assert answer(project_onto_halfspaces, x, normals, bounds) == expect
        poly = _Polyhedra([(normals, bounds)])
        kernel = answer(poly.nearest, x, np.zeros(len(x), dtype=int), poly.violations(x)[:, 0])
        assert kernel == expect
        if isinstance(expect, str):
            assert expect == "the halfspaces have an empty intersection"
            empty += 1
        else:
            polygons.append((normals, bounds))
    assert empty > 0 and len(polygons) > 50
    # one plan for many polygons, each row answered by its own polygon
    poly = _Polyhedra(polygons)
    x = rng.uniform(-6.0, 6.0, (600, 2))
    which = rng.integers(0, len(polygons), len(x))
    got = poly.nearest(x, which, poly.violations(x)[np.arange(len(x)), which])
    for row, y, c in zip(x, got, which):
        assert y.tobytes() == oracle_project_onto_halfspaces(row, *polygons[c]).tobytes()


@st.composite
def component_and_point(draw):
    """An active component of a random height function (n = 1, 2, 3) in
    unit-normal form, its vertices, and a point to project onto it."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3,
                        unique=True))
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=len(pts), max_size=len(pts)))
    h = HeightFunction(tuple(pts), tuple(values))
    try:
        cx = TropicalComplex(h)
    except DegenerateSupport:
        assume(False)
    active = [c for c in cx.components if c.active]
    comp = active[draw(st.integers(0, len(active) - 1))]
    verts = np.array([[float(c) for c in v] for v, dual in cx.vertices()
                      if comp.index in dual]).reshape(-1, n)
    x = np.array(draw(st.lists(st.floats(-12, 12), min_size=n, max_size=n)))
    return comp.unit_halfspaces(1.0), verts, x


@settings(max_examples=150, deadline=None)
@given(component_and_point(), st.integers(0, 2**32 - 1))
def test_nearest_point_beats_every_sampled_feasible_point(case, seed):
    """Bounded polygons and unbounded cones alike: the kernel's point y is
    feasible, and no feasible sample is nearer to x.  The samples are the
    component's vertices, points on the segments from y towards them (a
    point stopped short of a corner loses to these), Gaussian clouds
    around y, and a box around x.  A stack of x and every 50th sample is
    answered as the same points one at a time, bit for bit."""
    (normals, bounds), verts, x = case
    y = project_onto_halfspaces(x, normals, bounds)
    assert np.max(normals @ y - bounds) <= 1e-9
    d = float(np.linalg.norm(y - x))
    rng = np.random.default_rng(seed)
    n = len(x)
    samples = [verts] + [y + t * (verts - y) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    samples += [y + r * rng.standard_normal((300, n)) for r in (1e-1, 1e-2, 1e-3, 1e-4)]
    samples.append(x + rng.uniform(-15, 15, (300, n)))
    pts = np.vstack(samples)
    feasible = pts[np.all(pts @ normals.T - bounds <= 1e-12, axis=1)]
    if len(feasible):
        assert float(np.min(np.linalg.norm(feasible - x, axis=1))) >= d - 1e-9
    # a stack of points is answered row by row, bit for bit
    stack = np.vstack([x, pts[::50]])
    assert np.array_equal(project_onto_halfspaces(stack, normals, bounds),
                          [project_onto_halfspaces(p, normals, bounds) for p in stack])


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

GOLDEN = (1 + math.sqrt(5)) / 2
P2_C_EST = 0.15811388300841897  # frozen: 0.5 / sqrt(10), derived below
P2_LOG_T = 377.0607913926858  # frozen: smallest feasible log-scale at eps=0.1


def test_p2_constants():
    k = tropical_constants(TropicalComplex(p2_height()))
    assert k.N == 3
    assert abs(k.rho - GOLDEN) < 1e-9
    assert k.card_A == 4
    # oracle for rho: the three simplex charts, anchored at the origin
    mats = [np.array(m, float) for m in
            ([[1, 0], [0, 1]], [[1, -1], [0, -1]], [[0, -1], [1, -1]])]
    rho = 1.0
    for m in mats:
        s = np.linalg.svd(m, compute_uv=False)
        rho = max(rho, s[0], 1 / s[-1])
    assert abs(k.rho - rho) < 1e-12
    # the separation constant: the worst ratio is 1/sqrt(10), for the
    # component of the origin (alpha = (0,0), C_alpha = {u1 <= 1, u2 <= 1,
    # u1 + u2 >= -1}) against the (-1,-1)-component (beta, C_beta =
    # {u1 + u2 <= -1, 2u1 + u2 <= 0, u1 + 2u2 <= 0}) at the corner (1,-2),
    # and symmetrically at (-2,1).  There T(C_beta) = {r1 + r2 <= 0,
    # 2r1 + r2 <= 0} has the extreme rays (-1,1), which runs along H =
    # {u1 + u2 = -1}, and r = (1,-2), with <h, r> = 1/sqrt(2) for the unit
    # normal h = -(1,1)/sqrt(2) of H into C_beta.
    # T(C_alpha) = {r1 <= 0, r1 + r2 >= 0} has the polar cone spanned by
    # (1,0) and (-1,-1), which contains r = 3(1,0) + 2(-1,-1), so the
    # nearest point of T(C_alpha) to r is 0 and d(r, T(C_alpha)) = sqrt(5).
    # The ratio is (1/sqrt(2)) / sqrt(5) = 1/sqrt(10); halving gives c.
    assert 0.5 / math.sqrt(10) - 1e-9 <= k.c_est <= 0.20
    assert abs(k.c_est - 0.5 / math.sqrt(10)) < 1e-15
    assert abs(k.c_est - P2_C_EST) < 1e-12


def test_interval_constants():
    k = tropical_constants(TropicalComplex(HeightFunction(((0,), (1,)), (0, 0))))
    assert k.N == 1
    assert k.rho == 1.0
    assert abs(k.c_est - 0.5) < 1e-12


def test_constants_need_a_triangulation():
    h = HeightFunction(((0, 0), (1, 0), (0, 1), (1, 1)), (0, 0, 0, 0))
    with pytest.raises(NotTriangulation):
        tropical_constants(TropicalComplex(h))


def test_constants_invariance_under_affine_shifts():
    h = p2_height()
    k = tropical_constants(TropicalComplex(h))
    w = (2, -1)
    shifted_pts = tuple(tuple(p[i] + w[i] for i in range(2)) for p in h.points)
    # translate A and add an affine function to nu: combinatorics unchanged
    shifted_vals = tuple(
        v + 3 * p[0] - 2 * p[1] + 5 for p, v in zip(shifted_pts, h.values)
    )
    k2 = tropical_constants(TropicalComplex(HeightFunction(shifted_pts, shifted_vals)))
    assert k2.N == k.N
    assert abs(k2.rho - k.rho) < 1e-12
    assert k2.c_est == k.c_est  # exact: a function of the subdivision alone


def sampled_separation_ratios(cx, rng, draws=1024):
    """The Monte-Carlo estimate the exact constant replaced, as an oracle.

    For each ordered adjacent pair (alpha, beta): points x drawn in a box
    around the vertices of Pi and kept when in C_beta, their nearest points
    q in C_alpha, and p = q + eps' (x - q) / |x - q| kept when still in
    C_beta, at eps' = 1e-3 * diameter; each p gives the ratio
    d(p, H(alpha, beta)) / eps'."""
    n = cx.n
    verts = [np.array([float(x) for x in v]) for v, _ in cx.vertices()]
    diam = max((float(np.linalg.norm(a - b)) for a, b in itertools.combinations(verts, 2)),
               default=0.0) or 1.0
    center = np.mean(verts, axis=0)
    eps_off = 1e-3 * diam
    A, nu = cx.height.points, cx.height.values
    ratios = []
    for i, j in adjacent_pairs(cx):
        for a, b in ((i, j), (j, i)):
            na, ba = cx.components[a].unit_halfspaces(1.0)
            nb, bb = cx.components[b].unit_halfspaces(1.0)
            h = np.array([float(A[a][k] - A[b][k]) for k in range(n)])
            x = center + rng.uniform(-1.5 * diam, 1.5 * diam, size=(draws, n))
            x = x[np.all(x @ nb.T - bb <= 1e-12, axis=1)]
            q = project_onto_halfspaces(x, na, ba)
            d = np.linalg.norm(x - q, axis=1)
            x, q, d = x[d >= 1e-9], q[d >= 1e-9], d[d >= 1e-9]
            p = q + (x - q) * (eps_off / d)[:, None]
            p = p[np.all(p @ nb.T - bb <= 1e-9, axis=1)]
            d_h = np.abs(p @ h - float(nu[a] - nu[b])) / np.linalg.norm(h)
            ratios.append(d_h / eps_off)
    return np.concatenate(ratios)


@st.composite
def triangulating_height(draw, min_n=1):
    """A random height function (n = min_n .. 3) whose subdivision is a
    triangulation."""
    n = draw(st.integers(min_n, 3))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3,
                        unique=True))
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=len(pts), max_size=len(pts)))
    try:
        cx = TropicalComplex(HeightFunction(tuple(pts), tuple(values)))
    except DegenerateSupport:
        assume(False)
    assume(cx.subdivision.is_triangulation)
    return cx


@settings(max_examples=40, deadline=None)
@given(triangulating_height(), st.integers(0, 2**32 - 1))
def test_no_sampled_ratio_below_the_exact_separation(cx, seed):
    """The exact constant is a lower bound the old sampler can only
    approach: no ratio d(p, H) / d(p, C_alpha) it draws falls below 2 c
    (up to roundoff in the sampled ratio)."""
    exact = 2.0 * tropical_constants(cx).c_est
    ratios = sampled_separation_ratios(cx, np.random.default_rng(seed))
    assert len(ratios) > 0
    assert float(np.min(ratios)) >= exact * (1.0 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(triangulating_height(min_n=2))
def test_separation_per_cell_matches_the_pairwise_search(cx):
    # one search per (cell, point) at the farthest other point, against the
    # search per ordered adjacent pair and cell with the ray solved for each
    assert tropical._separation_squared(cx) == separation_squared_pairwise(cx)


P3_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
P2_CONES = ((0, 1), (1, 2), (0, 2))


@pytest.mark.parametrize("rays, cones, phi, c2", [
    (P2_FAN.rays, P2_FAN.max_cones, (1, 1, 1), Fraction(1, 10)),
    (((1, 0), (0, 1), (-1, 1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)), (1, 1, 2, 1),
     Fraction(1, 10)),
    (P1XP1_FAN.rays, P1XP1_FAN.max_cones, (1, 1, 1, 1), Fraction(1, 2)),
    (P3_RAYS, tuple(itertools.combinations(range(4), 3)), (1, 1, 1, 1), Fraction(1, 33)),
    # P^3 blown up at a torus-fixed point: the cone {e1, e2, e3} star-subdivided
    (P3_RAYS + ((1, 1, 1),), ((0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
     (1, 1, 1, 1, 2), Fraction(1, 33)),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
     ((0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5), (1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5)),
     (1,) * 6, Fraction(1, 3)),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)),
     tuple(itertools.combinations(range(5), 4)), (1,) * 5, Fraction(1, 76)),
    (((1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)),
     tuple(c + tuple(3 + i for i in d) for c in P2_CONES for d in P2_CONES), (1,) * 6,
     Fraction(1, 20)),
], ids=["P2", "F1", "P1xP1", "P3", "P3-blowup", "P1^3", "P4", "P2xP2"])
def test_separation_squared_is_pinned(rays, cones, phi, c2):
    cx = TropicalComplex(HeightFunction.from_bundle(Fan(rays, cones), phi))
    assert tropical._separation_squared(cx) == c2
    assert separation_squared_pairwise(cx) == c2
    assert tropical_constants(cx).c_est == 0.5 * math.sqrt(c2)


# ---------------------------------------------------------------------------
# scale selection
# ---------------------------------------------------------------------------

def oracle_scale_ok(k, eps, L):
    e = math.exp(-k.c_est * eps * L)
    return (e / (eps * L) < 1.0 / (40 * k.card_A * k.rho)
            and e < 1.0 / (5 * k.card_A**2 * k.rho * k.N))


def test_choose_scale_p2():
    k = tropical_constants(TropicalComplex(p2_height()))
    t = choose_scale(k, 0.1)
    L = math.log(t)
    assert abs(L - P2_LOG_T) < 1e-4 * P2_LOG_T
    assert oracle_scale_ok(k, 0.1, L)
    assert oracle_scale_ok(k, 0.1, math.log(2 * t))
    assert not oracle_scale_ok(k, 0.1, 0.5 * L)  # sqrt(t) is too small
    assert not oracle_scale_ok(k, 0.1, L * (1 - 1e-5))  # near-minimality


def test_certified_log_scale_past_double_range():
    # choose_scale is exp of the log scale; on P3 only the log is a double
    k = tropical_constants(TropicalComplex(p2_height()))
    assert certified_log_scale(k, 0.1) == math.log(choose_scale(k, 0.1)) == P2_LOG_T
    p3 = HeightFunction.from_bundle(
        Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
        [Fraction(1)] * 4)
    k3 = tropical_constants(TropicalComplex(p3))
    L = certified_log_scale(k3, 0.1)
    assert 709.0 < L < 800.0
    assert oracle_scale_ok(k3, 0.1, L)
    assert not oracle_scale_ok(k3, 0.1, L * (1 - 1e-5))
    with pytest.raises(InvalidEps):
        choose_scale(k3, 0.1)


UNCERTIFIED_SCALE = """
import sys
from tropmirror import cli, tropical
if not sys.flags.optimize:
    sys.exit("run this under python -O")
tropical.certified_log_scale = lambda k, eps: 1.0  # P2 needs log t* = 377.06
fan, phi = cli.load_fan_json(sys.argv[1])
k = tropical.tropical_constants(tropical.TropicalComplex(
    tropical.HeightFunction.from_bundle(fan, phi)))
try:
    tropical.choose_scale(k, 0.1)
except RuntimeError as e:
    print("raised:", e)
print("exit", cli.main(["tropical", "--input", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_choose_scale_checks_its_certificate_under_optimize(tmp_path):
    # python -O strips asserts, so the check must be an explicit raise; the
    # CLI reports it as an internal error (exit 5).  pytest itself cannot
    # run under -O here, so the check runs in a subprocess.
    fan = tmp_path / "p2.json"
    fan.write_text(json.dumps({"rays": P2_FAN.rays, "max_cones": P2_FAN.max_cones,
                               "phi": ["1", "1", "1"]}))
    src = os.path.dirname(os.path.dirname(tropmirror.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNCERTIFIED_SCALE, str(fan), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: certified log t* = 1.0 fails the decay inequalities", "exit 5"]
    assert "internal error in tropical: RuntimeError" in proc.stderr


def test_choose_scale_invalid_eps():
    k = tropical_constants(TropicalComplex(p2_height()))
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidEps):
            choose_scale(k, bad)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def _pi_cloud(cx, window, step=0.01):
    pts = []
    for p, q in complex_segments(cx, window):
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        k = max(int(length / step) + 1, 2)
        for t in np.linspace(0.0, 1.0, k):
            pts.append(((1 - t) * p[0] + t * q[0], (1 - t) * p[1] + t * q[1]))
    return np.array(pts)


def test_hausdorff_self_is_tiny():
    cx = TropicalComplex(p2_height())
    window = (-3.0, 3.0, -3.0, 3.0)
    cloud = _pi_cloud(cx, window)
    assert hausdorff_distance(cloud, complex_segments(cx, window), window) < 0.02


def test_hausdorff_detects_a_shift():
    cx = TropicalComplex(p2_height())
    window = (-3.0, 3.0, -3.0, 3.0)
    cloud = _pi_cloud(cx, window) + np.array([0.5, 0.0])
    d = hausdorff_distance(cloud, complex_segments(cx, window), window)
    assert 0.3 <= d <= 0.52


def test_hausdorff_empty_window():
    cx = TropicalComplex(p2_height())
    window = (-3.0, 3.0, -3.0, 3.0)
    cloud = _pi_cloud(cx, window)
    with pytest.raises(EmptyWindow):
        hausdorff_distance(cloud + 100.0, complex_segments(cx, window), window)
    far = (10.0, 11.0, -5.0, -4.0)  # a region the complex provably misses
    with pytest.raises(EmptyWindow):
        hausdorff_distance(np.array([[10.5, -4.5]]), complex_segments(cx, far), far)


def oracle_dense_pi_to_cloud(cloud, segments, step):
    """(value, spacing): the largest distance from a point of an even sample
    of each segment, at most `step` apart, to its nearest cloud point (brute
    force), and the largest spacing used.  The exact sup lies in
    [value, value + spacing / 2]: distance to the cloud is 1-Lipschitz."""
    samples, spacing = [], 0.0
    for p, q in segments:
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        k = max(math.ceil(length / step), 1) + 1
        spacing = max(spacing, length / (k - 1))
        ts = np.linspace(0.0, 1.0, k)
        samples.append(np.outer(1 - ts, p) + np.outer(ts, q))
    sam = np.vstack(samples)
    d2 = ((sam[:, None, :] - np.asarray(cloud)[None, :, :]) ** 2).sum(axis=-1)
    return math.sqrt(d2.min(axis=1).max()), spacing


PI_SEGMENTS = [complex_segments(TropicalComplex(HeightFunction.from_bundle(fan, phi)),
                                (-3.0, 3.0, -3.0, 3.0))
               for fan, phi in ((P2_FAN, (1, 1, 1)), (P1XP1_FAN, (1, 1, 1, 1)))]
coordinate = st.floats(-3.0, 3.0)
plane_point = st.tuples(coordinate, coordinate)


@settings(max_examples=150, deadline=None)
@given(st.lists(plane_point, min_size=1, max_size=20),
       st.one_of(st.sampled_from(PI_SEGMENTS),
                 st.lists(st.tuples(plane_point, plane_point), min_size=1, max_size=3)),
       st.floats(1e-6, 10.0))
def test_pi_to_cloud_matches_dense_sampling(cloud, segments, beta):
    # Pi of P^2 or P^1 x P^1 in the window, or random segments (some of
    # length 0), against a sample at most 1e-3 apart; beta only sets where
    # the band's doubling starts
    sampled, spacing = oracle_dense_pi_to_cloud(cloud, segments, 1e-3)
    exact = _pi_to_cloud(cloud, segments, beta)
    assert sampled - 1e-12 <= exact <= sampled + spacing / 2 + 1e-12


def test_pi_to_cloud_doubles_the_band_until_it_holds_the_answer(monkeypatch):
    # no point lies in the first band, nor in the next few
    bands = []
    band_sup = tropical._band_sup

    def counted(x, *args):
        bands.append(len(x))
        return band_sup(x, *args)

    monkeypatch.setattr(tropical, "_band_sup", counted)
    d = _pi_to_cloud([(0.5, 2.0)], [((0.0, 0.0), (1.0, 0.0))], 1e-3)
    assert d == pytest.approx(math.hypot(0.5, 2.0), rel=1e-15)
    # at 1e-3 * 2^11 = 2.048 the band holds the point, but the answer, 2.06,
    # is wider than the band: one more doubling
    assert bands == [0] * 11 + [1, 1]


def test_pi_to_cloud_keeps_the_nearest_of_equal_a():
    # three points at a = 0 and two at a = 4, in an order that puts a far
    # one first: only b^2 = 0.01 and 0.04 count, and the sup is where
    # t^2 + 0.01 = (t - 4)^2 + 0.04, at t = 16.03 / 8
    cloud = [(0.0, 0.5), (4.0, -0.6), (0.0, -0.1), (4.0, 0.2), (0.0, 0.3)]
    t = 16.03 / 8
    d = _pi_to_cloud(cloud, [((0.0, 0.0), (4.0, 0.0))], 0.5)
    assert d == pytest.approx(math.sqrt(t * t + 0.01), rel=1e-14)


def test_hausdorff_of_a_single_point_and_of_pi_clipped_to_points():
    cx = TropicalComplex(p2_height())
    window = (-3.0, 3.0, -3.0, 3.0)
    segments = complex_segments(cx, window)
    c = (0.3, -0.2)
    # one point: Pi's farthest point from it is an end of a segment
    far = max(math.dist(c, e) for seg in segments for e in seg)
    d = hausdorff_distance(np.array([c]), segments, window)
    assert d == pytest.approx(far, rel=1e-15)
    # the window's corner touches Pi only at its vertex (-2, 1)
    corner = (-2.5, -2.0, 0.5, 1.0)
    segments = complex_segments(cx, corner)
    assert segments and all(p == q == (-2.0, 1.0) for p, q in segments)
    d = hausdorff_distance(np.array([(-2.2, 0.8), (-2.0, 0.9)]), segments, corner)
    assert d == pytest.approx(math.hypot(0.2, 0.2), rel=1e-15)
