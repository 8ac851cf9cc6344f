"""Tests for the section ring, Hilbert functions, and the isomorphism
verifier.

Oracle policy: lattice counts come from an independent inequality scan
against the explicit H-rep of each fixture (oracle_count), closed forms
(2j+1, (9j^2+9j+2)/2) cross-check the quadratic cases, and the fault
injections below corrupt table entries to pin the mismatch accounting.
"""

import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropmirror.lattice import Fan, hull, is_smooth, polytope_from_bundle, support_convexity
from tropmirror.floer import assemble_algebra, floer_group
from tropmirror.coordring import (
    IsomorphismReport,
    NonLatticePolytope,
    ehrhart_polynomial,
    eval_poly,
    hilbert_function,
    interior_counts,
    section_ring,
    serre_check,
    verify_isomorphism,
)

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
P1_FAN = Fan(((1,), (-1,)), ((0,), (1,)))
P1XP1_FAN = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))


def p2_Q():
    return polytope_from_bundle(P2_FAN, (1, 1, 1))


def p1_Q():
    return polytope_from_bundle(P1_FAN, (1, 1))


def oracle_count_p2(j, strict=False):
    count = 0
    for x in range(-2 * j - 1, j + 2):
        for y in range(-2 * j - 1, j + 2):
            if strict:
                count += x < j and y < j and x + y > -j
            else:
                count += x <= j and y <= j and x + y >= -j
    return count


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------

def test_p1_ring_bases_and_product():
    ring = section_ring(p1_Q(), 2)
    assert ring.bases[1] == ((-1,), (0,), (1,))
    assert ring.bases[2] == ((-2,), (-1,), (0,), (1,), (2,))
    assert ring.product(1, (1,), 1, (1,)) == (2, (2,))
    # unit acts trivially
    for j in (0, 1, 2):
        for m in ring.bases[j]:
            assert ring.product(0, (0,), j, m) == (j, m)
    with pytest.raises(ValueError, match="left the dilated polytope"):
        ring.product(1, (2,), 1, (1,))  # (2,) is not a point of Q = [-1, 1]


def test_p2_ring_dimensions():
    ring = section_ring(p2_Q(), 2)
    assert [ring.dimension(j) for j in range(3)] == [1, 10, 28]
    assert ring.dimension(1) == oracle_count_p2(1)
    assert ring.dimension(2) == oracle_count_p2(2)


def test_ring_product_commutes_and_associates():
    ring = section_ring(p1_Q(), 3)
    for m in ring.bases[1]:
        for mp in ring.bases[1]:
            assert ring.product(1, m, 1, mp) == ring.product(1, mp, 1, m)
            for mpp in ring.bases[1]:
                a = ring.product(2, ring.product(1, m, 1, mp)[1], 1, mpp)
                b = ring.product(1, m, 2, ring.product(1, mp, 1, mpp)[1])
                assert a == b


def test_truncation_is_flagged_not_fatal(caplog):
    ring = section_ring(p1_Q(), 1)
    with caplog.at_level(logging.INFO, logger="tropmirror.coordring"):
        assert ring.product(1, (1,), 1, (1,)) is None
    assert any("truncated" in r.message for r in caplog.records)


def test_non_lattice_polytope_warns():
    q = hull(((Fraction(1, 2), 0), (0, 1), (-1, -1)))
    with pytest.warns(NonLatticePolytope):
        ring = section_ring(q, 2)
    assert ring.dimension(1) >= 1  # still built


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def test_hilbert_fixtures():
    assert hilbert_function(p2_Q(), 3) == [1, 10, 28, 55]
    assert hilbert_function(p1_Q(), 3) == [1, 3, 5, 7]
    point = hull(((0, 0),))
    assert hilbert_function(point, 4) == [1, 1, 1, 1, 1]


def test_hilbert_matches_fitted_polynomial():
    Q = p2_Q()
    coeffs = ehrhart_polynomial(Q)
    assert coeffs == (1, Fraction(9, 2), Fraction(9, 2))
    values = hilbert_function(Q, 6)
    for j, v in enumerate(values):
        assert eval_poly(coeffs, j) == v
        assert v == oracle_count_p2(j) if j else v == 1


def test_interior_counts_shifted_by_reciprocity():
    Q = p2_Q()
    assert interior_counts(Q, 3) == [0, 1, 10, 28]
    coeffs = ehrhart_polynomial(Q)
    for j in range(1, 4):
        assert eval_poly(coeffs, -j) == interior_counts(Q, j)[j]


def test_counts_reject_a_negative_top_degree():
    for count in (hilbert_function, interior_counts):
        with pytest.raises(ValueError, match="j_max must be nonnegative"):
            count(p2_Q(), -1)


# ---------------------------------------------------------------------------
# the isomorphism
# ---------------------------------------------------------------------------

def test_isomorphism_p2():
    alg = assemble_algebra(p2_Q(), 3)
    ring = section_ring(p2_Q(), 3)
    report = verify_isomorphism(alg, ring)
    assert report.ok and report.verdict == "pass"
    assert not report.mismatches
    dims = [1, 10, 28, 55]
    expected_checks = sum(dims[j] * dims[k]
                          for j in range(4) for k in range(4) if j + k <= 3)
    assert report.products_checked == expected_checks
    js = report.to_json()
    assert js["verdict"] == "pass" and js["products_checked"] == expected_checks


def test_isomorphism_p1xp1():
    Q = polytope_from_bundle(P1XP1_FAN, (1, 1, 1, 1))
    report = verify_isomorphism(assemble_algebra(Q, 3), section_ring(Q, 3))
    assert report.ok
    assert [len(b) for b in section_ring(Q, 3).bases] == [1, 9, 25, 49]


def test_corrupted_table_yields_exactly_one_mismatch():
    alg = assemble_algebra(p2_Q(), 2)
    ring = section_ring(p2_Q(), 2)
    key = (0, 0)
    good = alg.products[(1, 1)][key]
    alg.products[(1, 1)][key] = (good + 1) % alg.dimension(2)
    report = verify_isomorphism(alg, ring)
    assert report.verdict == "fail"
    assert len(report.mismatches) == 1
    entry = dict(report.mismatches[0])
    assert entry["degrees"] == (1, 1)
    assert entry["p_index"] == 0 and entry["q_index"] == 0


def per_product_mismatches(alg, ring):
    """The product check as it was before the table-slice form, frozen: one
    product at a time, in sorted (j, k) then sorted (p, q) order."""
    images = [[tuple(int(x * j) for x in g.point) for g in piece.basis]
              for j, piece in enumerate(alg.pieces)]
    out = []
    for (j, k), table in sorted(alg.products.items()):
        for (pi, qi), ri in sorted(np.ndenumerate(table)):
            got = images[j + k][ri]
            expected = tuple(a + b for a, b in zip(images[j][pi], images[k][qi]))
            if got != expected:
                out.append((("degrees", (j, k)), ("p_index", pi), ("q_index", qi),
                            ("expected", expected), ("got", got)))
    return tuple(out)


def test_corrupted_slices_match_the_per_product_check():
    alg = assemble_algebra(p2_Q(), 3)
    ring = section_ring(p2_Q(), 3)
    # two slices, and two entries of (2, 1) that row-major and column-major
    # order would list the other way round
    for key, (p, q) in (((2, 1), (3, 2)), ((1, 1), (0, 0)), ((2, 1), (0, 5))):
        table = alg.products[key]
        table[p, q] = (table[p, q] + 1) % alg.dimension(sum(key))
    report = verify_isomorphism(alg, ring)
    oracle = per_product_mismatches(alg, ring)
    assert [(dict(m)["degrees"], dict(m)["p_index"], dict(m)["q_index"]) for m in oracle] == [
        ((1, 1), 0, 0), ((2, 1), 0, 5), ((2, 1), 3, 2)]
    assert report.mismatches == oracle
    for entry in report.mismatches:
        for x in dict(entry)["expected"] + dict(entry)["got"]:
            assert type(x) is int
    assert report.products_checked == sum(t.size for t in alg.products.values())


def test_isomorphism_invariant_under_translation_and_gl():
    # at 2e18 the points of 5Q are about 1e19, past int64: the check only
    # stays exact because it compares them relative to j times Q's corner
    for shift, J in (((1, -1), 2), ((2 * 10**18, -2 * 10**18), 5)):
        Qt = p2_Q().translate(shift)
        with pytest.warns(UserWarning):
            algt = assemble_algebra(Qt, J)
        assert verify_isomorphism(algt, section_ring(Qt, J)).ok

    # shear the fan by a unimodular matrix and rebuild everything
    M = ((1, 1), (0, 1))
    rays = tuple(
        (M[0][0] * r[0] + M[0][1] * r[1], M[1][0] * r[0] + M[1][1] * r[1])
        for r in P2_FAN.rays
    )
    fan = Fan(rays, P2_FAN.max_cones)
    Qg = polytope_from_bundle(fan, (1, 1, 1))
    assert verify_isomorphism(assemble_algebra(Qg, 2), section_ring(Qg, 2)).ok


@st.composite
def smooth_toric_surfaces(draw):
    """A fan and support values from 0-2 toric blow-ups of P^2 or F_a, a <= 3.

    Rays stay in counterclockwise order.  Blowing up the corner between
    consecutive rays v_i, v_{i+1} inserts v_i + v_{i+1} with
    phi = phi_i + phi_{i+1} - c: the cut c > 0 takes the corner off the
    polygon, and c < phi_i + phi_{i+1} keeps the origin interior.  Cuts of
    at most 2 keep most second blow-ups strictly convex.
    """
    a = draw(st.sampled_from((None, 0, 1, 2, 3)))  # None: P^2
    rays = [(1, 0), (0, 1), (-1, -1)] if a is None else [(1, 0), (0, 1), (-1, a), (0, -1)]
    phi = [draw(st.integers(1, 3)) for _ in rays]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rays) - 1))
        nxt = (i + 1) % len(rays)
        cut = draw(st.integers(1, min(2, phi[i] + phi[nxt] - 1)))
        rays.insert(i + 1, (rays[i][0] + rays[nxt][0], rays[i][1] + rays[nxt][1]))
        phi.insert(i + 1, phi[i] + phi[nxt] - cut)
    r = len(rays)
    return Fan(tuple(rays), tuple((i, (i + 1) % r) for i in range(r))), phi


@settings(max_examples=50, deadline=None)
@given(smooth_toric_surfaces())
def test_smooth_surface_corpus_verifies(surface):
    fan, phi = surface
    assume(support_convexity(fan, phi)[0] == "strict")
    assert is_smooth(fan) and fan.is_complete()
    Q = polytope_from_bundle(fan, phi)
    assert verify_isomorphism(assemble_algebra(Q, 3), section_ring(Q, 3)).ok
    assert serre_check(Q, 3).ok


def test_mismatched_truncations_rejected():
    with pytest.raises(ValueError):
        verify_isomorphism(assemble_algebra(p2_Q(), 2), section_ring(p2_Q(), 3))


# ---------------------------------------------------------------------------
# Serre checks
# ---------------------------------------------------------------------------

def test_serre_check_p2():
    report = serre_check(p2_Q(), 4)
    assert report.ok
    for row in report.rows:
        r = dict(row)
        assert r["refine"] == r["dilate"] == r["reciprocity"]
        assert r["refine"] == oracle_count_p2(r["j"], strict=True)
    assert "transposition" in report.note


def test_serre_check_p1():
    report = serre_check(p1_Q(), 3)
    assert report.ok
    r2 = dict(report.rows[1])
    assert r2["j"] == 2 and r2["dilate"] == 3  # interior of [-2,2] is {-1,0,1}


def test_serre_check_consistent_with_floer_groups():
    Q = p2_Q()
    report = serre_check(Q, 4)
    for row in report.rows:
        r = dict(row)
        assert floer_group(Q, 0, -r["j"]).dimension == r["refine"]
