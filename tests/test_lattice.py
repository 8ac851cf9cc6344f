"""Exact-geometry tests.

The oracle_* helpers at the top are deliberately independent
re-implementations (cofactor determinants, Cramer solves, gift wrapping,
barycentric membership); expected values below were computed with them and
then frozen.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropmirror import lattice
from tropmirror.floer import floer_group
from tropmirror.lattice import (
    Fan,
    LowerDimensional,
    MalformedFan,
    NotConvex,
    Unbounded,
    _lattice_count,
    _lattice_numerators,
    affine_dim,
    dot,
    hilbert_function,
    hull,
    hull_facets,
    interior_counts,
    interior_lattice_points,
    is_smooth,
    lattice_points,
    mat_det,
    mat_rank,
    nullspace,
    polytope_from_bundle,
    solve_square,
    support_convexity,
    vec,
)

from oracles import from_halfspaces

F = Fraction


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def oracle_smooth_2d(rays, cones):
    return all(abs(oracle_det2(rays[i], rays[j])) == 1 for i, j in cones)


def oracle_vertex_2d(a1, b1, a2, b2):
    """Cramer solve of two tight facet equations."""
    d = oracle_det2(a1, a2)
    assert d != 0
    x = F(b1 * a2[1] - b2 * a1[1], d)
    y = F(a1[0] * b2 - a2[0] * b1, d)
    return (x, y)


def oracle_hull_2d(points):
    """Gift wrapping; returns hull vertices in counterclockwise order."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    start = min(pts)
    out = [start]
    cur = start
    while True:
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            cr = (cand[0] - cur[0]) * (p[1] - cur[1]) - (cand[1] - cur[1]) * (p[0] - cur[0])
            if cr < 0:
                cand = p
            elif cr == 0:
                # keep the farther point so collinear middles drop out
                da = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                db = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                if db > da:
                    cand = p
        if cand == start:
            break
        out.append(cand)
        cur = cand
    return out


def oracle_contains_2d(hull_ccw, p):
    """Point-in-convex-polygon via exact signed areas (boundary counts)."""
    k = len(hull_ccw)
    if k == 1:
        return tuple(p) == tuple(hull_ccw[0])
    if k == 2:
        a, b = hull_ccw
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cr != 0:
            return False
        t = [(p[i] - a[i]) for i in range(2)]
        d = [(b[i] - a[i]) for i in range(2)]
        s = (t[0] * d[0] + t[1] * d[1])
        return 0 <= s <= d[0] ** 2 + d[1] ** 2
    for i in range(k):
        a, b = hull_ccw[i], hull_ccw[(i + 1) % k]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cr < 0:
            return False
    return True


def oracle_recession_direction(rows, n):
    """A d != 0 with <a, d> <= 0 for every row a, or None: the extreme-ray
    search over (n - 1)-subsets of the rows that `from_halfspaces` ran
    before its recession test became a hull question.

    Fewer than n rows leave a nonzero nullspace, which lies in the cone.
    Otherwise, if the rows have rank r < n, some n - 1 rows hold r
    independent ones, and that subset's nullspace is the cone's lineality
    space, nonzero.  If r = n the cone is pointed, and when it is not {0}
    it has an extreme ray, where n - 1 independent rows are tight: the
    line through it is that subset's nullspace, and one of its two signs
    is in the cone.
    """
    if len(rows) < n:
        return nullspace(rows, n)[0]
    for idx in itertools.combinations(range(len(rows)), n - 1):
        for d in nullspace([rows[i] for i in idx], n):
            for cand in (d, tuple(-x for x in d)):
                if any(cand) and all(dot(a, cand) <= 0 for a in rows):
                    return cand
    return None


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
P1_FAN = Fan(((1,), (-1,)), ((0,), (1,)))
P1XP1_FAN = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)))
P112_FAN = Fan(((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))


def _units(n):
    return [tuple(int(i == k) for i in range(n)) for k in range(n)]


P4_FAN = Fan(tuple(_units(4)) + ((-1, -1, -1, -1),),
             tuple(tuple(c) for c in itertools.combinations(range(5), 4)))


def p2_triangle():
    return polytope_from_bundle(P2_FAN, (1, 1, 1))


def test_smoothness_frozen_cases():
    # frozen from the cofactor oracle
    assert oracle_smooth_2d(P2_FAN.rays, P2_FAN.max_cones) is True
    assert is_smooth(P2_FAN) is True
    assert oracle_smooth_2d(P112_FAN.rays, P112_FAN.max_cones) is False
    assert is_smooth(P112_FAN) is False  # the cone {0,2} has determinant -2
    assert is_smooth(P1_FAN) is True
    assert is_smooth(P1XP1_FAN) is True


def test_smoothness_needs_full_cones():
    # a cone of one ray in rank 2 is refused when the fan is built, so
    # is_smooth, like every other reader, never sees one
    with pytest.raises(MalformedFan, match="does not have 2 rays"):
        Fan(((1, 0), (0, 1), (-1, -1)), ((0,), (1, 2), (0, 2)))


def test_fan_validation():
    with pytest.raises(MalformedFan):
        Fan(((2, 0), (0, 1)), ((0, 1),))  # non-primitive ray
    with pytest.raises(MalformedFan):
        Fan(((0, 0), (0, 1)), ((0, 1),))  # zero ray
    with pytest.raises(MalformedFan):
        Fan(((1, 0), (0, 1)), ((0, 5),))  # dangling index
    with pytest.raises(MalformedFan):
        Fan(((1, 0), (0, 1)), ((0, 1.5),))  # int() would truncate the index


@pytest.mark.parametrize("rays, cones", [
    (((1,), (-1,)), ((0,), (1,), (0,))),
    (((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0), (1, 0))),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
     ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (2, 1, 0))),
])
def test_fan_rejects_a_repeated_cone(rays, cones):
    # a cone listed twice (in any ray order) is malformed input, not an
    # incomplete fan
    with pytest.raises(MalformedFan, match="listed twice"):
        Fan(rays, cones)


def test_fan_rejects_a_degenerate_cone():
    # a maximal cone whose rays do not span R^n is malformed input, refused
    # when the fan is built: opposite rays in the plane, and three rays of
    # rank 2 in R^3
    with pytest.raises(MalformedFan, match=r"cone \(0, 2\) is degenerate \(rays do not span\)"):
        Fan(((1, 0), (0, 1), (-1, 0)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(MalformedFan, match=r"cone \(0, 1, 2\) is degenerate"):
        Fan(((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 1, 2),))


def test_moment_polytope_p2():
    q = p2_triangle()
    # frozen: Cramer oracle on the three tight pairs
    expect = sorted(
        [
            oracle_vertex_2d((1, 0), 1, (0, 1), 1),
            oracle_vertex_2d((1, 0), 1, (-1, -1), 1),
            oracle_vertex_2d((0, 1), 1, (-1, -1), 1),
        ]
    )
    assert expect == [(F(-2), F(1)), (F(1), F(-2)), (F(1), F(1))]
    assert list(q.vertices) == expect
    assert q.dim == 2 and not q.degenerate
    assert q.contains((0, 0))


def test_moment_polytope_p1():
    q = polytope_from_bundle(P1_FAN, (1, 1))
    assert q.vertices == ((F(-1),), (F(1),))


def test_moment_polytope_zero_phi_degenerates():
    q = polytope_from_bundle(P2_FAN, (0, 0, 0))
    assert q.vertices == ((F(0), F(0)),)
    assert q.degenerate and q.dim == 0
    kind, _ = support_convexity(P2_FAN, (0, 0, 0))
    assert kind == "weak"


def test_unbounded_on_incomplete_fan():
    half = Fan(((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(Unbounded):
        polytope_from_bundle(half, (1, 1))


def _polar_fan(equator):
    """Rays around the equator of R^3 plus both poles; the cones join each
    consecutive equatorial pair (cyclically) to one pole."""
    rays = tuple((x, y, 0) for x, y in equator) + ((0, 0, 1), (0, 0, -1))
    k = len(equator)
    cones = tuple((i, (i + 1) % k, pole) for pole in (k, k + 1) for i in range(k))
    return Fan(rays, cones)


def test_completeness_3d_needs_degree_one():
    # every ridge lies on exactly two cones in all three fans below, so
    # ridge counting alone calls each of them complete
    assert _polar_fan(((1, 0), (0, 1), (-1, 0), (0, -1))).is_complete()
    # equatorial winding number 0: the cones fold back and miss directions
    folded = _polar_fan(((1, 0), (-1, 1), (-1, -1), (0, 1), (1, -2)))
    assert not folded.is_complete()
    with pytest.raises(Unbounded):
        polytope_from_bundle(folded, (1,) * 7)
    # winding number 2 (a pentagram): every ridge is oriented consistently,
    # but each generic direction lies in two cones
    assert not _polar_fan(((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))).is_complete()


def _cyclic_fan(rays):
    """Each consecutive pair of rays (cyclically) spans one cone."""
    k = len(rays)
    return Fan(tuple(rays), tuple((i, (i + 1) % k) for i in range(k)))


def test_completeness_low_dimensions():
    assert Fan(((1,), (-1,)), ((0,), (1,))).is_complete()
    assert not Fan(((1,),), ((0,),)).is_complete()  # the half-line
    # a ray in no cone is malformed input, not an incomplete fan
    with pytest.raises(MalformedFan, match="ray 1 lies in no maximal cone"):
        Fan(((1,), (-1,)), ((0,),))
    assert _cyclic_fan(((1, 0), (0, 1), (-1, -1))).is_complete()
    # two rays, one cone
    assert not Fan(((2, -1), (3, 1)), ((0, 1),)).is_complete()
    # three rays in the closed half-plane y <= 0, every pair a cone
    half_plane = Fan(((-1, -2), (-1, 0), (3, -1)), ((0, 1), (1, 2), (0, 2)))
    assert not half_plane.is_complete()
    with pytest.raises(Unbounded, match="not complete"):
        polytope_from_bundle(half_plane, (1, 1, 1))
    # the equators of the 3d fans above: winding number 2 and 0
    assert not _cyclic_fan(((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))).is_complete()
    assert not _cyclic_fan(((1, 0), (-1, 1), (-1, -1), (0, 1), (1, -2))).is_complete()


def oracle_plane_coverage(rays, cones):
    """Does every direction of the plane off the rays lie inside exactly one
    cone?  The number of cones containing a direction is constant on each
    open arc between consecutive ray angles, so one sampled direction per
    arc (its midpoint) decides it."""
    if any(len(c) != 2 or oracle_det2(rays[c[0]], rays[c[1]]) == 0 for c in cones):
        return False
    angles = sorted(math.atan2(y, x) for x, y in rays)
    mids = [(a + b) / 2 for a, b in zip(angles, angles[1:])]
    mids.append((angles[-1] + angles[0] + 2 * math.pi) / 2)
    for t in mids:
        w = (math.cos(t), math.sin(t))
        inside = 0
        for i, j in cones:
            (a, b), (c, d) = rays[i], rays[j]
            det = a * d - b * c
            inside += (w[0] * d - w[1] * c) / det > 0 and (a * w[1] - b * w[0]) / det > 0
        if inside != 1:
            return False
    return True


def test_plane_completeness_matches_coverage_oracle():
    rng = random.Random(23)
    prim = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    verdicts = []
    for _ in range(400):
        rays = rng.sample(prim, rng.randint(1, 6))
        pairs = list(itertools.combinations(range(len(rays)), 2))
        if rng.random() < 0.5 or not pairs:
            # the angular cycle, sometimes with one cone dropped or added
            order = sorted(range(len(rays)), key=lambda i: math.atan2(rays[i][1], rays[i][0]))
            k = len(order)
            cones = [tuple(sorted((order[i], order[(i + 1) % k]))) for i in range(k)]
            cones = [c for c in cones if c[0] != c[1]]
            if cones and rng.random() < 0.3:
                cones.pop(rng.randrange(len(cones)))
            if pairs and rng.random() < 0.3:
                cones.append(rng.choice(pairs))
            if not cones:
                cones = [(0,)]
        else:
            cones = rng.sample(pairs, rng.randint(1, len(pairs)))
        # four defects of the data are malformed input, not an incomplete
        # fan: a repeated cone (two rays make the cycle (0, 1), (0, 1)), a
        # cone of one ray (one ray makes the cycle (0,)), a ray in no cone
        # (a dropped or sampled cone can leave one out), and a cone of two
        # opposite rays, which do not span the plane
        if len(set(cones)) < len(cones):
            defect = "listed twice"
        elif any(len(c) != 2 for c in cones):
            defect = "does not have 2 rays"
        elif len({i for c in cones for i in c}) < len(rays):
            defect = "lies in no maximal cone"
        elif any(oracle_det2(rays[i], rays[j]) == 0 for i, j in cones):
            defect = "degenerate"
        else:
            defect = None
        if defect is not None:
            with pytest.raises(MalformedFan, match=defect):
                Fan(tuple(rays), tuple(cones))
            continue
        fan = Fan(tuple(rays), tuple(cones))
        verdict = fan.is_complete()
        assert verdict == oracle_plane_coverage(fan.rays, fan.max_cones), (rays, cones)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def oracle_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * oracle_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def oracle_direction_coverage(rays, cones, samples=200, seed=11):
    """Does every sampled direction lie inside exactly one cone?  Cramer's
    rule with cofactor determinants: w = sum l_i r_i has l_i of the sign of
    det(M) * det(M with column i replaced by w), and the second factor is
    <c_i, w> for the cofactors c_i of column i.  Directions on some cone's
    boundary (an l_i of 0) are skipped, so the rest decide it."""
    n = len(rays[0])
    if any(len(c) != n for c in cones):
        return False
    signed = []  # per cone, the rows det(M) * c_i
    for c in cones:
        m = [[rays[i][k] for i in c] for k in range(n)]  # the rays as columns
        det = oracle_det(m)
        if det == 0:
            return False
        signed.append([[det * (-1) ** (k + i) * oracle_det(
            [r[:i] + r[i + 1:] for kk, r in enumerate(m) if kk != k]) for k in range(n)]
            for i in range(n)])
    rng = random.Random(seed)
    for _ in range(samples):
        w = [rng.randint(-30, 30) for _ in range(n)]
        inside, boundary = 0, False
        for rows in signed:
            signs = [sum(map(mul, r, w)) for r in rows]
            boundary |= 0 in signs and all(x >= 0 for x in signs)
            inside += all(x > 0 for x in signs)
        if not boundary and inside != 1:
            return False
    return True


def _join(a, b):
    """The fan of cones a_cone + b_cone in R^(n_a + n_b): the product fan
    when a and b are complete fans, and of degree deg(a) * deg(b)."""
    za, zb = (0,) * a.n, (0,) * b.n
    rays = tuple(r + zb for r in a.rays) + tuple(za + r for r in b.rays)
    k = len(a.rays)
    return Fan(rays, tuple(ca + tuple(k + i for i in cb)
                           for ca in a.max_cones for cb in b.max_cones))


def test_rank_four_completeness_matches_coverage_oracle():
    winding_two = _cyclic_fan(((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)))
    winding_zero = _cyclic_fan(((1, 0), (-1, 1), (-1, -1), (0, 1), (1, -2)))
    fans = {
        "P4": P4_FAN,
        "P2xP2": _join(P2_FAN, P2_FAN),
        "P1xP3": _join(P1_FAN, P3_FAN),
        "P1xP1xP1xP1": _join(P1XP1_FAN, P1XP1_FAN),
        # every ridge is oriented consistently, and each direction lies in two cones
        "degree two": _join(winding_two, P2_FAN),
        "folded": _join(winding_zero, P2_FAN),
    }
    for k in range(5):
        fans[f"P4 without cone {k}"] = Fan(
            P4_FAN.rays, P4_FAN.max_cones[:k] + P4_FAN.max_cones[k + 1:])
    verdicts = {}
    for name, fan in fans.items():
        verdicts[name] = fan.is_complete()
        assert verdicts[name] == oracle_direction_coverage(fan.rays, fan.max_cones), name
    assert [name for name, v in verdicts.items() if v] == [
        "P4", "P2xP2", "P1xP3", "P1xP1xP1xP1"]
    with pytest.raises(Unbounded, match="not complete"):
        polytope_from_bundle(fans["degree two"], (1,) * 8)
    with pytest.raises(Unbounded, match="not complete"):
        polytope_from_bundle(fans["P4 without cone 0"], (1,) * 5)


def test_nonconvex_support_named_pair():
    with pytest.raises(NotConvex) as ei:
        polytope_from_bundle(P2_FAN, (1, 1, -5))
    assert "cone pair" in str(ei.value)


def test_lattice_points_p2_triangle():
    q = p2_triangle()
    pts = lattice_points(q)
    assert len(pts) == 10  # frozen from the box-scan oracle
    assert pts == sorted(pts)  # lexicographic order is part of the contract
    inner = interior_lattice_points(q)
    assert inner == [(F(0), F(0))]


def test_lattice_points_refined_segment():
    seg = polytope_from_bundle(P1_FAN, (1, 1))
    pts = lattice_points(seg, d=2)
    assert pts == [(F(-1),), (F(-1, 2),), (F(0),), (F(1, 2),), (F(1),)]


def test_interior_unit_square():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert interior_lattice_points(sq, 1) == []
    assert interior_lattice_points(sq, 2) == [(F(1, 2), F(1, 2))]


@pytest.mark.parametrize("d", [0, -1, 2.0, 1.5, F(2)])
def test_refinement_must_be_a_positive_integer(d):
    q = p2_triangle()
    for enumerate_points in (lattice_points, interior_lattice_points):
        with pytest.raises(ValueError, match="refinement d must be a positive integer"):
            enumerate_points(q, d)


def test_interior_of_degenerate_raises():
    pt = polytope_from_bundle(P2_FAN, (0, 0, 0))
    with pytest.raises(LowerDimensional):
        interior_lattice_points(pt)


def test_hull_interior_origin_is_dropped():
    pts = [(0, 0), (1, 0), (0, 1), (-1, -1)]
    ccw = oracle_hull_2d(pts)
    # frozen: the origin is the centroid of the other three, hence interior
    assert sorted(ccw) == [(-1, -1), (0, 1), (1, 0)]
    h = hull(pts)
    assert [tuple(map(int, v)) for v in h.vertices] == [(-1, -1), (0, 1), (1, 0)]
    assert not h.degenerate


def test_hull_collinear_flagged():
    h = hull([(0, 0), (1, 0), (2, 0)])
    assert h.degenerate and h.dim == 1
    assert [tuple(map(int, v)) for v in h.vertices] == [(0, 0), (2, 0)]
    assert h.contains((1, 0)) and not h.contains((1, 1))


def test_hull_3d_smoke():
    h = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(h.vertices) == 4 and h.dim == 3
    assert h.contains((F(1, 4), F(1, 4), F(1, 4)))
    assert not h.contains((1, 1, 1))


def test_hull_in_four_and_five_dimensions():
    # square x triangle: every facet holds more than 4 of the 12 points
    prism = hull([a + b for a in itertools.product((0, 1), repeat=2)
                  for b in ((0, 0), (1, 0), (0, 1))])
    assert len(prism.vertices) == 12 and len(prism.halfspaces) == 7
    assert prism.dim == 4 and not prism.degenerate
    assert prism.contains((F(1, 2), F(1, 2), F(1, 3), F(1, 3)))
    assert not prism.contains((F(1, 2), F(1, 2), F(2, 3), F(2, 3)))
    for n in (4, 5):
        units = _units(n)
        cross = hull(units + [tuple(-x for x in e) for e in units])
        assert len(cross.vertices) == 2 * n and len(cross.halfspaces) == 2 ** n
        # the facets are <s, y> <= 1 for the 2^n sign vectors s
        assert sorted(cross.halfspaces) == sorted(
            (s, F(1)) for s in itertools.product((-1, 1), repeat=n))
    square = hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    assert square.degenerate and square.dim == 2 and len(square.vertices) == 4
    # the affine hull y3 = y4 = 0 is kept as two pairs of opposite rows
    for e in ((0, 0, 1, 0), (0, 0, 0, 1)):
        assert (e, 0) in square.halfspaces
        assert (tuple(-x for x in e), 0) in square.halfspaces
    assert square.contains((F(1, 2), F(1, 2), 0, 0))
    assert not square.contains((F(1, 2), F(1, 2), 0, F(1, 100)))


def oracle_facet_sets(pts):
    """Index sets of the points on each facet of a full-dimensional hull in
    R^n, n >= 1, by brute force: every n-subset whose cofactor normal is
    nonzero and leaves every point on one side spans a facet."""
    n = len(pts[0])
    out = set()
    for idx in itertools.combinations(range(len(pts)), n):
        rows = [[x - y for x, y in zip(pts[i], pts[idx[0]])] for i in idx[1:]]
        a = [(-1) ** j * oracle_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
        if not any(a):
            continue
        vals = [sum(map(mul, a, p)) - sum(map(mul, a, pts[idx[0]])) for p in pts]
        if all(v <= 0 for v in vals) or all(v >= 0 for v in vals):
            out.add(frozenset(i for i, v in enumerate(vals) if v == 0))
    return out


@st.composite
def hull_inputs(draw):
    """Points in R^n, n = 1..4, on an affine subspace of random dimension
    (often lower than n), with repeats and with midpoints, which fall inside
    edges, facets or the hull."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    coord = st.integers(-2, 2)
    p0 = draw(st.tuples(*[coord] * n))
    dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k))
    lams = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=7))
    pts = [tuple(p0[i] + sum(lam[j] * dirs[j][i] for j in range(k)) for i in range(n))
           for lam in lams]
    pairs = draw(st.lists(st.tuples(*[st.integers(0, len(pts) - 1)] * 2), max_size=3))
    return pts + [tuple(F(x + y, 2) for x, y in zip(pts[i], pts[j])) for i, j in pairs]


@settings(max_examples=150, deadline=None)
@given(hull_inputs())
@example([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (F(1, 2), F(1, 2), 0, 0), (0, 0, 0, 0)])  # a point inside a facet, and a repeat
@example([(1, 2, 3)] * 3)  # one point in R^3
def test_hull_matches_the_rank_and_dot_product_oracles(points):
    pts = sorted(set(vec(p) for p in points))
    n, d = len(pts[0]), affine_dim(pts)
    facets = hull_facets(pts)
    h = hull(points)
    assert h.halfspaces == tuple(row for row, _ in facets) and h.dim == d
    # each index set is the set of points on its row, every point is on the
    # inner side, and each row is a facet (dimension d - 1) or one of the
    # 2(n - d) rows of the affine hull, which hold every point
    for (a, b), on in facets:
        assert on == {i for i, p in enumerate(pts) if dot(a, p) == b}
        assert all(dot(a, p) <= b for p in pts)
        assert affine_dim([pts[i] for i in on]) == (d if len(on) == len(pts) else d - 1)
    assert sum(len(on) == len(pts) for _, on in facets) == 2 * (n - d)
    if d == n:
        assert {on for _, on in facets} == oracle_facet_sets(pts)
    # a point is a vertex iff the normals of the rows tight at it have rank n
    assert h.vertices == tuple(
        p for p in pts if mat_rank([a for a, b in h.halfspaces if dot(a, p) == b]) == n)


def test_hull_rejects_points_of_different_lengths():
    # zip would cut (0, 1, 7) short, and the hull had a vertex of length 3
    with pytest.raises(ValueError, match="different lengths"):
        hull([(0, 0), (1, 0), (0, 1, 7)])


def test_from_halfspaces_in_four_and_five_dimensions():
    units = _units(4)
    cube = from_halfspaces(units + [tuple(-x for x in e) for e in units], [1] * 8)
    assert len(cube.vertices) == 16 and len(cube.halfspaces) == 8
    assert set(cube.vertices) == set(itertools.product((F(-1), F(1)), repeat=4))
    with pytest.raises(Unbounded):  # pointed recession cone: the negative orthant
        from_halfspaces(units, [1] * 4)
    lineal = units[:3] + [tuple(-x for x in e) for e in units[:3]]
    with pytest.raises(Unbounded):  # lineality space: the e4 axis
        from_halfspaces(lineal, [1] * 6)
    for n in (4, 5):
        # the moment polytope of P^n: n + 1 vertices, (1, ..., 1) and its
        # images with one coordinate moved to -n
        units = _units(n)
        simplex = from_halfspaces(units + [(-1,) * n], [1] * (n + 1))
        assert not simplex.degenerate and simplex.dim == n
        assert simplex.vertices == tuple(sorted(
            [(F(1),) * n] + [tuple(F(-n) if i == k else F(1) for i in range(n))
                             for k in range(n)]))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_hv_membership_agreement():
    rng = random.Random(20240811)
    q = p2_triangle()
    ccw = oracle_hull_2d([tuple(v) for v in q.vertices])
    box = q.bounding_box()
    for _ in range(1000):
        p = tuple(
            F(rng.randint(-40, 40), rng.randint(1, 12)) * (hi - lo) / 8 + lo
            for lo, hi in box
        )
        assert q.contains(p) == oracle_contains_2d(ccw, p)


def test_dilate_vs_refine_counts():
    q = p2_triangle()
    for j in range(1, 9):
        dilated = len(lattice_points(q.dilate(j), 1))
        refined = len(lattice_points(q, j))
        assert dilated == refined


def fit_ehrhart(q):
    """Interpolate the counting polynomial from degrees 0..n, exactly."""
    n = q.n
    counts = [len(lattice_points(q.dilate(j), 1)) if j else 1 for j in range(n + 1)]
    # Vandermonde solve over Q
    from tropmirror.lattice import solve_square

    rows = [[F(j) ** k for k in range(n + 1)] for j in range(n + 1)]
    coeffs = solve_square(rows, counts)
    assert coeffs is not None

    def ehr(j):
        return sum(c * F(j) ** k for k, c in enumerate(coeffs))

    return ehr


def test_ehrhart_reciprocity():
    q = p2_triangle()
    ehr = fit_ehrhart(q)
    for j in range(1, 5):
        assert ehr(j) == len(lattice_points(q.dilate(j), 1))
        inner = len(interior_lattice_points(q.dilate(j), 1))
        assert (-1) ** q.n * ehr(-j) == inner


def test_smoothness_invariance_relabel_and_unimodular():
    rng = random.Random(7)
    fans = [P2_FAN, P112_FAN, P1XP1_FAN]
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)), ((0, -1), (1, 0))]
    for fan in fans:
        base = is_smooth(fan)
        # relabeling
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        inv = {old: new for new, old in enumerate(perm)}
        relabeled = Fan(
            tuple(fan.rays[i] for i in perm),
            tuple(tuple(inv[i] for i in c) for c in fan.max_cones),
        )
        assert is_smooth(relabeled) == base
        # unimodular change of lattice coordinates
        for u in mats:
            assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
            rays = tuple(
                (u[0][0] * r[0] + u[0][1] * r[1], u[1][0] * r[0] + u[1][1] * r[1])
                for r in fan.rays
            )
            assert is_smooth(Fan(rays, fan.max_cones)) == base


@st.composite
def integer_cones(draw):
    """Up to three cones of n rays each, n = 1..4, over a pool of primitive
    integer rays, every pooled ray in some cone, and an integer phi.  The
    cones may be unimodular, of any other nonzero determinant, or
    degenerate."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n + 2))
    pool = list(dict.fromkeys(tuple(x // math.gcd(*r) for x in r) for r in raw if any(r)))
    assume(len(pool) >= n)
    cones = draw(st.lists(st.permutations(range(len(pool))).map(lambda p: tuple(sorted(p[:n]))),
                          min_size=1, max_size=3, unique=True))
    used = sorted({i for c in cones for i in c})
    rays = tuple(pool[i] for i in used)
    phi = draw(st.lists(st.integers(-5, 5), min_size=len(rays), max_size=len(rays)))
    return rays, tuple(tuple(used.index(i) for i in c) for c in cones), tuple(phi)


@settings(max_examples=150, deadline=None)
@given(integer_cones())
@example((P2_FAN.rays, P2_FAN.max_cones, (1, 1, 1)))
@example((P112_FAN.rays, P112_FAN.max_cones, (1, 1, 1)))  # a cone of determinant -2
def test_dual_bases_match_the_solver_and_the_determinant(case):
    # the readers of the dual bases against the solver and the determinant
    # they replaced: the gradients m_sigma against a solve of
    # <m, v_i> = phi_i on sigma's rays, and smoothness against det +-1
    rays, cones, phi = case
    dets = [mat_det([rays[i] for i in c]) for c in cones]
    if 0 in dets:
        with pytest.raises(MalformedFan, match="degenerate"):
            Fan(rays, cones)
        return
    fan = Fan(rays, cones)
    n = fan.n
    for c, ws in zip(fan.max_cones, fan.duals):
        assert [[dot(w, rays[j]) for j in c] for w in ws] == [
            [int(i == j) for j in range(n)] for i in range(n)]
    assert is_smooth(fan) == all(d in (1, -1) for d in dets)
    _, _, grads = lattice._convexity(fan, phi)
    assert grads == [solve_square([rays[i] for i in c], [phi[i] for i in c])
                     for c in fan.max_cones]


def test_fan_readers_solve_nothing_but_the_dual_bases(monkeypatch):
    # completeness, smoothness and the gradients m_sigma read the dual bases
    # the fan solved when it was built: with every other solver patched to
    # raise, the fan, its moment polytope and its verdicts still come out
    cases = [(P4_FAN.rays, P4_FAN.max_cones, (1,) * 5),
             (P112_FAN.rays, P112_FAN.max_cones, (1, 1, 1))]
    expected = [polytope_from_bundle(Fan(rays, cones), phi) for rays, cones, phi in cases]

    def no_solve(*args, **kwargs):
        raise AssertionError("a fan reader solved a system of its own")

    for name in ("nullspace", "solve_square", "mat_det"):
        monkeypatch.setattr(lattice, name, no_solve)
    for (rays, cones, phi), q in zip(cases, expected):
        fan = Fan(rays, cones)
        assert polytope_from_bundle(fan, phi) == q
        assert is_smooth(fan) == (fan.n == 4)  # P(1,1,2) has a cone of determinant -2
        assert support_convexity(fan, phi) == ("strict", None)


def test_solve_square_rejects_non_square_systems():
    assert solve_square([[2, 1], [1, 1]], [3, 2]) == (F(1), F(1))
    assert solve_square([[1, 2], [2, 4]], [1, 2]) is None
    for rows, rhs in (([[1, 0]], [7]), ([[1, 0], [0, 1]], [1])):
        with pytest.raises(ValueError):
            solve_square(rows, rhs)


@st.composite
def halfspace_rows(draw):
    """n in 1..4 and one to four integer rows, zero and repeated rows
    allowed.  A "lineality" draw zeroes the last coordinate of every row
    (the e_n axis recedes both ways).  An "orthant" draw adds the unit rows
    and makes every other row nonnegative (the negative orthant recedes).
    A "simplex" draw adds the rows of P^n's polytope but one, which leaves
    a ray that the drawn rows may or may not close: most bounded draws are
    of this kind."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["free", "lineality", "orthant", "simplex", "simplex"]))
    lo = 0 if kind == "orthant" else -2
    rows = draw(st.lists(st.tuples(*[st.integers(lo, 2)] * n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if kind == "lineality":
        rows = [r[:-1] + (0,) for r in rows]
    if kind == "orthant":
        rows += _units(n)
    if kind == "simplex":
        simplex = _units(n) + [(-1,) * n]
        del simplex[draw(st.integers(0, n))]
        rows += simplex
    return n, rows


@settings(max_examples=150, deadline=None)
@given(halfspace_rows())
@example((3, [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))  # bounded
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]))  # lineality: the e3 axis
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))  # the negative orthant
@example((2, [(0, 0)]))
def test_from_halfspaces_is_unbounded_exactly_when_the_oracle_finds_a_direction(case):
    # bounds of 1 keep the origin strictly inside every row with a nonzero
    # normal, so the region is never empty and bounded means full-dimensional
    n, rows = case
    d = oracle_recession_direction(rows, n)
    if d is None:
        assert from_halfspaces(rows, [1] * len(rows)).dim == n
    else:
        assert any(d) and all(dot(a, d) <= 0 for a in rows)
        with pytest.raises(Unbounded):
            from_halfspaces(rows, [1] * len(rows))


def test_from_halfspaces_tests_emptiness_before_boundedness():
    # x <= -1 and x >= 1 leave the y axis free, but there is nothing to recede
    with pytest.raises(ValueError, match="empty") as err:
        from_halfspaces([(1, 0), (-1, 0)], [-1, -1])
    assert not isinstance(err.value, Unbounded)
    # a region with a lineality space is not empty for having no vertex
    with pytest.raises(Unbounded):
        from_halfspaces([(1, 0), (-1, 0)], [1, 1])


def test_from_halfspaces_roundtrip():
    q = p2_triangle()
    again = from_halfspaces([h[0] for h in q.halfspaces], [h[1] for h in q.halfspaces])
    assert again.vertices == q.vertices


# ---------------------------------------------------------------------------
# the lattice enumerator against a brute-force scan
# ---------------------------------------------------------------------------

small_point_sets = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=6)
)


def brute_force_gaps(q, d):
    """The integer points x of q's (d-scaled, padded) bounding box, each
    with its largest gap: x/d lies in q iff the gap is <= 0, inside iff < 0.

    With d*b = num/den, den > 0, the point x/d satisfies <a, x/d> <= b iff
    the integer den*<a, x> is at most num (strictly below it for < b):
    exact integers, and no floor or ceil shared with the enumerator.
    """
    box = [
        range(int(min(v[i] for v in q.vertices) * d) - 1,
              int(max(v[i] for v in q.vertices) * d) + 2)
        for i in range(q.n)
    ]
    scaled = [(tuple(c * (d * b).denominator for c in a), (d * b).numerator)
              for a, b in q.halfspaces]
    return box, [(x, max([sum(map(mul, a, x)) - num for a, num in scaled]))
                 for x in itertools.product(*box)]


@settings(max_examples=60, deadline=None)
@given(small_point_sets, st.sampled_from((F(1, 2), F(2, 3), F(1), F(3, 2))),
       st.integers(1, 4))
@example([(-4, -4, -4), (4, -4, -4), (-4, 4, -4), (-4, -4, 4), (4, 4, 4), (4, 4, -4)],
         F(3, 2), 4)  # the largest box: 51^3 points
def test_enumerator_matches_brute_force(points, k, d):
    # rational dilation factors give non-integral halfspace bounds d*b, so
    # both the floor (boundary kept) and ceil - 1 (boundary dropped) limits
    # are exercised
    q = hull(points).dilate(k)
    box, gaps = brute_force_gaps(q, d)
    frac = {c: F(c, d) for r in box for c in r}
    assert lattice_points(q, d) == [tuple(map(frac.get, x)) for x, gap in gaps if gap <= 0]
    if q.degenerate:
        with pytest.raises(LowerDimensional):
            interior_lattice_points(q, d)
    else:
        assert interior_lattice_points(q, d) == [
            tuple(map(frac.get, x)) for x, gap in gaps if gap < 0]


@settings(max_examples=60, deadline=None)
@given(small_point_sets, st.sampled_from((F(1, 2), F(2, 3), F(1), F(3, 2))),
       st.integers(1, 3))
def test_integer_reader_matches_the_public_points(points, k, d):
    # the numerators k of the points k/d: the brute-force scan's points, and
    # d times the public points in the same order, as Python ints
    q = hull(points).dilate(k)
    _, gaps = brute_force_gaps(q, d)
    for strict, public in ((False, lattice_points), (True, interior_lattice_points)):
        if strict and q.degenerate:
            with pytest.raises(LowerDimensional):
                _lattice_numerators(q, d, strict)
            continue
        nums = _lattice_numerators(q, d, strict)
        assert nums == [x for x, gap in gaps if (gap < 0 if strict else gap <= 0)]
        assert nums == [tuple(d * x for x in p) for p in public(q, d)]
        assert all(type(c) is int for p in nums for c in p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the origin need not be interior
        group = floer_group(q, 0, d)
    assert group.numerators == tuple(tuple(d * x for x in g.point) for g in group.basis)
    assert list(group.numerators) == [x for x, gap in gaps if gap <= 0]


@settings(max_examples=60, deadline=None)
@given(small_point_sets, st.sampled_from((F(1, 2), F(2, 3), F(1), F(3, 2))),
       st.integers(1, 3))
def test_count_reader_matches_the_points(points, k, d):
    # the sum of the column lengths: the brute-force scan's number of
    # points, and the length of the public point list
    q = hull(points).dilate(k)
    _, gaps = brute_force_gaps(q, d)
    for strict, public in ((False, lattice_points), (True, interior_lattice_points)):
        if strict and q.degenerate:
            with pytest.raises(LowerDimensional):
                _lattice_count(q, d, strict)
            continue
        count = _lattice_count(q, d, strict)
        assert count == sum(1 for _, gap in gaps if (gap < 0 if strict else gap <= 0))
        assert count == len(public(q, d))


def box_sweep(poly, d, strict):
    """The enumerator as it was before the column sweep, frozen: every point
    of the refined bounding box, tested against every integer limit."""
    limits = [(a, math.ceil(b * d) - 1 if strict else math.floor(b * d))
              for a, b in poly.halfspaces]
    ranges = [range(math.ceil(lo * d), math.floor(hi * d) + 1) for lo, hi in poly.bounding_box()]
    return [
        tuple(F(k, d) for k in tup)
        for tup in itertools.product(*ranges)
        if all(sum(x * y for x, y in zip(a, tup)) <= lim for a, lim in limits)
    ]


F1_FAN = Fan(((1, 0), (0, 1), (-1, 1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
P3_FAN = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
             ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
# P(1,1,2) and its mirror image in y: the facet normals (-1, -2) and
# (-1, 2) bound the last coordinate by a division that is not exact
P112_MIRROR_FAN = Fan(((1, 0), (0, -1), (-1, 2)), ((0, 1), (1, 2), (0, 2)))


def test_counts_build_no_points(monkeypatch):
    # hilbert and the Ehrhart fit count the dilates jQ from their columns:
    # no point list is built, of numerators or of Fractions.  P^2 is 3 and
    # P^3 is 4 times the unimodular simplex, so the counts are
    # C(mj + n, n) and C(mj - 1, n)
    def no_points(*args, **kwargs):
        raise AssertionError("a count built a point list")

    monkeypatch.setattr(lattice, "_lattice_numerators", no_points)
    monkeypatch.setattr(lattice, "_fraction_tuples", no_points)
    for fan, n, m, J in ((P2_FAN, 2, 3, 6), (P3_FAN, 3, 4, 4)):
        q = polytope_from_bundle(fan, (1,) * len(fan.rays))
        assert hilbert_function(q, J) == [math.comb(m * j + n, n) for j in range(J + 1)]
        assert interior_counts(q, J) == [0] + [math.comb(m * j - 1, n) for j in range(1, J + 1)]


@pytest.mark.parametrize("fan, phi", [
    (P2_FAN, (1, 1, 1)), (P1XP1_FAN, (1, 1, 1, 1)), (F1_FAN, (1, 1, 2, 1)),
    (P3_FAN, (1, 1, 1, 1)), (P112_FAN, (1, 1, 1)), (P112_MIRROR_FAN, (1, 1, 1)),
])
def test_column_sweep_matches_box_sweep(fan, phi):
    # as lists, so the lexicographic order is compared too
    q = polytope_from_bundle(fan, phi)
    for poly, d in [(q.dilate(j), 1) for j in range(1, 7)] + [(q, d) for d in range(1, 5)]:
        assert lattice_points(poly, d) == box_sweep(poly, d, strict=False)
        assert interior_lattice_points(poly, d) == box_sweep(poly, d, strict=True)


CUBE3_FAN = _join(P1XP1_FAN, P1_FAN)
CUBE4_FAN = _join(P1XP1_FAN, P1XP1_FAN)


@pytest.mark.parametrize("fan, phi", [
    (P1_FAN, (1, 1)), (P2_FAN, (1, 1, 1)), (P1XP1_FAN, (1, 1, 1, 1)),
    (F1_FAN, (1, 1, 2, 1)), (P3_FAN, (1, 1, 1, 1)), (P4_FAN, (1,) * 5),
    (_join(P2_FAN, P2_FAN), (1,) * 6), (CUBE3_FAN, (1,) * 6), (CUBE4_FAN, (1,) * 8),
    # rational vertices, a non-smooth fan, and an origin off the interior
    (P2_FAN, (F(1, 2), F(2, 3), 1)), (P112_FAN, (1, 1, 1)), (P2_FAN, (3, -1, 0)),
    # weakly convex: the flat lift of P^2, the blow-down of F_1 to P^2, and
    # the tied square and cube
    (P2_FAN, (0, 0, 0)), (F1_FAN, (1, 2, 1, 1)), (P1XP1_FAN, (1, 0, 1, 0)),
    (CUBE3_FAN, (1, 0, 0, 1, 0, 0)),
], ids=lambda x: None if isinstance(x, Fan) else str(x))
def test_moment_polytope_matches_vertex_enumeration(fan, phi):
    # the vertices read off the cone gradients, and the rays as the rows,
    # against the enumeration over every n-subset of halfspaces
    q = polytope_from_bundle(fan, phi)
    assert q == from_halfspaces(fan.rays, phi)
    assert all(type(x) is F for v in q.vertices for x in v)
    assert all(type(b) is F and all(type(x) is int for x in a) for a, b in q.halfspaces)


@pytest.mark.parametrize("d", [True, False, 2.0, 0, -1])
def test_refinement_must_be_a_positive_int(d):
    # a bool is an int to isinstance, but a JSON-like True is not d = 1
    q = p2_triangle()
    for read in (lattice_points, interior_lattice_points):
        with pytest.raises(ValueError, match="positive integer"):
            read(q, d)
    for strict in (False, True):
        with pytest.raises(ValueError, match="positive integer"):
            _lattice_count(q, d, strict)
