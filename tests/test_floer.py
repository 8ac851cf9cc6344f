"""Tests for the twisted-section Floer layer.

Oracle policy: expected dimensions come from an independent inequality-based
lattice count (oracle_count below) written against the explicit H-rep of the
fixture triangle, cross-checked by the closed-form quadratic count where one
exists; product fixtures are evaluated by hand from the affine target
formula, and the integer product tables of assemble_algebra are checked
entry by entry against the Fraction cup_product.
"""

import logging
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from tropmirror.lattice import Fan, Polytope, polytope_from_bundle
from tropmirror.floer import (
    AssociativityViolation,
    DegenerateTriple,
    FloerGenerator,
    FloerGroup,
    TwistedSection,
    _audit_associativity,
    _ladder_tables,
    assemble_algebra,
    cup_product,
    dual_action_table,
    floer_group,
    serre_dual_dimension,
    triangle_exists,
    triangle_target,
)

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
P1_FAN = Fan(((1,), (-1,)), ((0,), (1,)))
P1XP1_FAN = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
F1_FAN = Fan(((1, 0), (0, 1), (-1, 1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
P3_FAN = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
             ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def p2_Q():
    return polytope_from_bundle(P2_FAN, (1, 1, 1))


def p1_Q():
    return polytope_from_bundle(P1_FAN, (1, 1))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_count(j, strict=False):
    """|jQ cap Z^2| for the triangle x <= j, y <= j, x+y >= -j, by direct
    inequality scan (strict=True counts the interior)."""
    count = 0
    for x in range(-2 * j - 1, j + 2):
        for y in range(-2 * j - 1, j + 2):
            if strict:
                ok = x < j and y < j and x + y > -j
            else:
                ok = x <= j and y <= j and x + y >= -j
            count += ok
    return count


def oracle_boundary_count(j):
    return oracle_count(j) - oracle_count(j, strict=True)


def test_oracle_against_closed_form():
    # |jQ cap Z^2| = (9j^2 + 9j + 2)/2 for this triangle (normalized area 9)
    for j in range(1, 7):
        assert oracle_count(j) == (9 * j * j + 9 * j + 2) // 2


# ---------------------------------------------------------------------------
# sections and groups
# ---------------------------------------------------------------------------

def test_twisted_section_composition():
    zero = TwistedSection(0)
    assert zero.is_zero_section
    assert zero.twisted(3).twist == 3
    assert TwistedSection(2).twisted(-5) == TwistedSection(-3)
    assert "-2*pi*4" in TwistedSection(4).covector_field()


def test_floer_group_p2_fixtures():
    Q = p2_Q()
    g01 = floer_group(Q, 0, 1)
    assert g01.dimension == 10 == oracle_count(1)
    assert all(g.homological_degree == 2 and g.cohomological_degree == 0
               for g in g01.basis)
    pts = [g.point for g in g01.basis]
    assert pts == sorted(pts)  # lexicographic basis order
    assert (Fraction(1), Fraction(1)) in pts  # a boundary vertex is included

    g0m1 = floer_group(Q, 0, -1)
    assert g0m1.dimension == 1
    assert g0m1.basis[0].point == (0, 0)
    assert g0m1.basis[0].homological_degree == 0
    assert g0m1.basis[0].cohomological_degree == 2

    g33 = floer_group(Q, 3, 3)
    assert g33.dimension == 1
    assert g33.basis[0].homological_degree == 2
    assert g33.basis[0].cohomological_degree == 0


def test_floer_group_refinement_matches_dilation():
    Q = p2_Q()
    for j in range(1, 7):
        g = floer_group(Q, 0, j)
        assert g.dimension == oracle_count(j)
        # every basis point is in Q and j-times it is integral
        for gen in g.basis:
            assert Q.contains(gen.point)
            assert all((x * j).denominator == 1 for x in gen.point)


def test_floer_group_warns_without_interior_origin():
    Q = p2_Q().translate((5, 5))
    with pytest.warns(UserWarning):
        floer_group(Q, 0, 1)


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

def test_triangle_target_fixtures():
    assert triangle_target(0, 1, 2, (1, 0), (0, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert triangle_target(0, 1, 2, (Fraction(1, 3), 1), (Fraction(1, 3), 1)) == (Fraction(1, 3), 1)
    assert triangle_target(0, 2, 3, (1, 1), (-2, 1)) == (0, 1)
    with pytest.raises(DegenerateTriple):
        triangle_target(0, 1, 0, (0, 0), (0, 0))


def test_triangle_exists_fixtures():
    Q = p2_Q()
    assert triangle_exists(0, 1, 2, (1, 0), (0, 1), Q) is True
    # l2 < l1 requires l2 < l3 < l1: 0 < 2 < 1 is false, points irrelevant
    assert triangle_exists(1, 0, 2, (0, 0), (0, 0), Q) is False
    # l3 < l1 < l2 passes the gate; membership (interior rule) decides
    assert triangle_exists(0, 1, -1, (0, 0), (0, 0), Q) is True
    assert triangle_exists(0, 1, -1, (1, 0), (0, 0), Q) is False  # target (-1,0) on the boundary
    with pytest.raises(DegenerateTriple):
        triangle_exists(0, 1, 0, (0, 0), (0, 0), Q)


def test_triangle_target_respects_refinement():
    Q = p2_Q()
    # a target that misses the (1/(l3-l1))-lattice is rejected even inside Q
    assert triangle_exists(0, 1, 3, (Fraction(1, 2), 0), (0, 0), Q) is False


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------

def test_cup_product_fixtures():
    Q = p2_Q()
    x = FloerGenerator(0, 1, (Fraction(1), Fraction(0)), 2)
    y = FloerGenerator(1, 2, (Fraction(0), Fraction(1)), 2)
    z = cup_product(x, y, Q)
    assert z.point == (Fraction(1, 2), Fraction(1, 2)) and (z.l1, z.l2) == (0, 2)

    x2 = FloerGenerator(0, 1, (Fraction(1), Fraction(1)), 2)
    y2 = FloerGenerator(1, 2, (Fraction(1), Fraction(-2)), 2)
    z2 = cup_product(x2, y2, Q)
    assert z2.point == (Fraction(1), Fraction(-1, 2))

    e = floer_group(Q, 1, 1).basis[0]
    q = FloerGenerator(1, 3, (Fraction(1, 2), Fraction(1, 2)), 2)
    assert cup_product(e, q, Q) is q
    e1 = FloerGenerator(1, 1, (Fraction(0), Fraction(0)), 2)
    x3 = FloerGenerator(0, 1, (Fraction(0), Fraction(0)), 2)
    assert cup_product(x3, e1, Q) is x3  # right unit

    # cyclic triple: zero element
    back = FloerGenerator(1, 0, (Fraction(0), Fraction(0)), 0)
    assert cup_product(FloerGenerator(0, 1, (Fraction(1), Fraction(0)), 2), back, Q) is None

    with pytest.raises(ValueError):
        cup_product(x, FloerGenerator(5, 6, (Fraction(0), Fraction(0)), 2), Q)


def test_boundary_unit_product_is_flagged(caplog):
    Q = p2_Q()
    e = floer_group(Q, 1, 1).basis[0]
    y_boundary = FloerGenerator(1, 3, (Fraction(1), Fraction(1)), 2)
    with caplog.at_level(logging.INFO, logger="tropmirror.floer"):
        out = cup_product(e, y_boundary, Q)
    assert out is y_boundary
    assert any("boundary" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# the graded algebra
# ---------------------------------------------------------------------------

def test_assemble_p2_dimensions_and_generation():
    alg = assemble_algebra(p2_Q(), 2)
    assert [alg.dimension(j) for j in range(3)] == [1, 10, 28]
    # the degree-1 products reach every degree-2 basis element
    image = set(alg.products[(1, 1)].ravel().tolist())
    assert image == set(range(28))


def test_assemble_p1_dimensions():
    alg = assemble_algebra(p1_Q(), 3)
    assert [alg.dimension(j) for j in range(4)] == [1, 3, 5, 7]


def test_algebra_unit_and_degree_additivity():
    alg = assemble_algebra(p2_Q(), 3)
    for j in range(4):
        dim = alg.dimension(j)
        for i in range(dim):
            assert alg.products[(0, j)][(0, i)] == i
            assert alg.products[(j, 0)][(i, 0)] == i
    for (j, k), table in alg.products.items():
        assert j + k <= alg.J
        for (pi, qi), ri in np.ndenumerate(table):
            assert 0 <= ri < alg.dimension(j + k)


def test_algebra_commutes_through_regrading():
    alg = assemble_algebra(p2_Q(), 3)
    for j in range(4):
        for k in range(4 - j):
            for (pi, qi), ri in np.ndenumerate(alg.products[(j, k)]):
                assert alg.products[(k, j)][(qi, pi)] == ri


def test_algebra_products_match_affine_formula():
    alg = assemble_algebra(p2_Q(), 3)
    for (j, k), table in alg.products.items():
        if j == 0 or k == 0:
            continue
        for (pi, qi), ri in np.ndenumerate(table):
            p = alg.pieces[j].basis[pi].point
            q = alg.pieces[k].basis[qi].point
            r = alg.pieces[j + k].basis[ri].point
            expected = tuple((j * a + k * b) / (j + k) for a, b in zip(p, q))
            assert r == expected


def test_translation_equivariance():
    # far from the origin, j*p is about 4e18 at J = 4: the kernel's grids and
    # bounds only stay small because generators are scaled from Q's corner
    for shift, J in (((1, -1), 2), ((10**18, -10**18), 4)):
        alg = assemble_algebra(p2_Q(), J)
        with pytest.warns(UserWarning):  # origin leaves the interior; geometry still works
            alg_t = assemble_algebra(p2_Q().translate(shift), J)
        assert alg.products.keys() == alg_t.products.keys()
        for key, table in alg.products.items():
            assert np.array_equal(table, alg_t.products[key])
        for j in range(1, J + 1):
            moved = [tuple(x + w for x, w in zip(g.point, shift))
                     for g in alg.pieces[j].basis]
            assert moved == [g.point for g in alg_t.pieces[j].basis]
        # the canonical unit is not a lattice point of 0*Q; it stays at the origin
        assert alg_t.pieces[0].basis[0].point == (0, 0)


def steep_Q(a):
    """F_a cut to the strip |y| <= 1/a: few generators, but the facet normal
    (-1, a) makes the kernel's halfspace values about 2a per twist."""
    fan = Fan(((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    return polytope_from_bundle(fan, (1, Fraction(1, a), 1, Fraction(1, a)))


def test_tables_match_cup_product_reference():
    """Every table entry is the index of the Fraction cup product of its pair."""
    cases = ((polytope_from_bundle(P1_FAN, (1, 1)), 4), (p2_Q(), 3),
             (polytope_from_bundle(P1XP1_FAN, (1, 1, 1, 1)), 3),
             (polytope_from_bundle(F1_FAN, (1, 1, 2, 1)), 3),
             (polytope_from_bundle(P3_FAN, (1, 1, 1, 1)), 2),
             (steep_Q(2**60), 3))  # halfspace values up to 3 * (3 + 2**61) < 2**63
    for Q, J in cases:
        alg = assemble_algebra(Q, J)
        index = [{g.point: i for i, g in enumerate(p.basis)} for p in alg.pieces]
        for (j, k), table in alg.products.items():
            assert table.size == alg.dimension(j) * alg.dimension(k)
            for (pi, qi), ri in np.ndenumerate(table):
                x, y = alg.pieces[j].basis[pi], alg.pieces[k].basis[qi]
                # y read as the equivariant generator of (j, j+k)
                z = cup_product(x, FloerGenerator(j, j + k, y.point, y.homological_degree), Q)
                assert ri == index[j + k][z.point]


def test_kernel_raises_past_the_int64_range():
    with pytest.raises(OverflowError):
        assemble_algebra(steep_Q(2**62), 1)


def test_audit_names_first_failing_triple():
    Q, J = p2_Q(), 3
    pieces = tuple(floer_group(Q, 0, j) for j in range(J + 1))
    tables = _ladder_tables(Q, pieces, J)
    _audit_associativity(tables, J)
    tables[(1, 1)][0, 0] = (tables[(1, 1)][0, 0] + 1) % pieces[2].dimension

    def first_violation():  # the scalar loop the audit replaces
        for a in range(J + 1):
            for b in range(J + 1 - a):
                for c in range(J + 1 - a - b):
                    ab, bc = tables[(a, b)], tables[(b, c)]
                    ab_c, a_bc = tables[(a + b, c)], tables[(a, b + c)]
                    for pi in range(pieces[a].dimension):
                        for qi in range(pieces[b].dimension):
                            for zi in range(pieces[c].dimension):
                                if ab_c[ab[pi, qi], zi] != a_bc[pi, bc[qi, zi]]:
                                    return (a, b, c), (pi, qi, zi)

    (a, b, c), (pi, qi, zi) = first_violation()
    assert (a, b, c) == (1, 1, 1)  # unit slices cannot see a (1, 1) entry
    message = f"associativity fails on twists ({a},{b},{c}) at indices ({pi},{qi},{zi})"
    with pytest.raises(AssociativityViolation, match=re.escape(message)):
        _audit_associativity(tables, J)


def test_kernel_rejects_generators_outside_the_polytope():
    Q = p2_Q()
    pieces = tuple(floer_group(Q, 0, j) for j in range(3))
    # x, y >= -2 and x + y <= 0: the same lower corner as Q, so every
    # generator of Q fits the grids, but (1, 1) * (1, 1) lands outside
    corner = Polytope.from_halfspaces(((-1, 0), (0, -1), (1, 1)), (2, 2, 0))
    with pytest.raises(RuntimeError, match="ladder product vanished"):
        _ladder_tables(corner, pieces, 2)
    # a target generator missing from piece 2 is a grid miss, not a silent index
    holed = pieces[:2] + (FloerGroup(0, 2, Q, pieces[2].basis[1:], pieces[2].numerators[1:]),)
    with pytest.raises(RuntimeError, match="hit no generator"):
        _ladder_tables(Q, holed, 2)


def test_json_export_shapes():
    alg = assemble_algebra(p1_Q(), 2)
    tables = alg.json_tables()
    assert set(tables) == {"0,0", "0,1", "0,2", "1,0", "1,1", "2,0"}
    for entries in tables.values():
        for p, q, r in entries:
            assert isinstance(p, int) and isinstance(q, int) and isinstance(r, int)
    basis = alg.json_basis()
    assert basis["1"] == [["-1/1"], ["0/1"], ["1/1"]]


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_serre_dual_dimensions():
    Q = p2_Q()
    assert serre_dual_dimension(Q, -1) == 1 == oracle_count(1, strict=True)
    assert serre_dual_dimension(Q, -2) == 10 == oracle_count(2, strict=True)
    assert serre_dual_dimension(p1_Q(), -1) == 1
    with pytest.raises(ValueError):
        serre_dual_dimension(Q, 1)


def test_serre_pairing_boundary_count():
    Q = p2_Q()
    for j in range(1, 5):
        front = floer_group(Q, 0, j).dimension
        back = serre_dual_dimension(Q, -j)
        assert front - back == oracle_boundary_count(j)


def test_dual_action_is_the_transpose(caplog):
    alg = assemble_algebra(p2_Q(), 2)
    dual = dual_action_table(alg, 1, 2)
    direct = sorted((p, r, q) for (p, q), r in np.ndenumerate(alg.products[(1, 1)]))
    assert dual == direct
    assert all(type(x) is int for entry in dual for x in entry)
    with caplog.at_level(logging.WARNING, logger="tropmirror.floer"):
        dual_action_table(alg, 1, 1)
    assert any("pairing" in r.message for r in caplog.records)
    # m < l, m past the truncation J = 2, and a negative twist have no table
    for l, m in ((2, 1), (1, 3), (-1, 1)):
        with pytest.raises(ValueError, match="no tabulated product"):
            dual_action_table(alg, l, m)


def test_random_triangle_predicate_agreement():
    """triangle_exists against a from-scratch predicate on random data."""
    Q = p2_Q()
    rng = random.Random(41)

    def independent_predicate(l1, l2, l3, p, q):
        orderings = (l1 < l2 < l3) or (l3 < l1 < l2) or (l2 < l3 < l1)
        if not orderings:
            return False
        r = tuple(
            Fraction((l2 - l1) * a + (l3 - l2) * b, l3 - l1) for a, b in zip(p, q)
        )
        scaled_ok = all((x * abs(l3 - l1)).denominator == 1 for x in r)
        x, y = r
        if l1 < l3:
            inside = x <= 1 and y <= 1 and x + y >= -1
        else:
            inside = x < 1 and y < 1 and x + y > -1
        return scaled_ok and inside

    for _ in range(2000):
        l1, l2, l3 = (rng.randint(-3, 5) for _ in range(3))
        if l1 == l3:
            continue
        p = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        q = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        assert triangle_exists(l1, l2, l3, p, q, Q) == independent_predicate(l1, l2, l3, p, q)
