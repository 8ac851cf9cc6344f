"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Run with -v to get the one-line pass/fail verdict per criterion; each test
also prints a short metrics line on success.  Criteria that quote runtimes
are wall-clock bounded here, so a pathological slowdown fails loudly.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tropmirror.amoeba import (
    LaurentPolynomial,
    PatchworkFamily,
    amoeba_sample_curve,
    cutoff,
    exponential_decay_check,
    horizontal_lift,
    lopsided_certificate,
    symplectic_margin,
)
from tropmirror.cli import main as cli_main
from tropmirror.coordring import ehrhart_polynomial, eval_poly, serre_check
from tropmirror.floer import (
    assemble_algebra,
    cup_product,
    floer_group,
    serre_dual_dimension,
)
from tropmirror.lattice import (
    Fan,
    affine_dim,
    interior_lattice_points,
    lattice_points,
    polytope_from_bundle,
)
from tropmirror.tropical import (
    DegenerateSupport,
    HeightFunction,
    TropicalComplex,
    choose_scale,
    complex_segments,
    hausdorff_distance,
    legendre_value,
    regular_subdivision,
    tropical_constants,
)

# the four standing test varieties: (name, fan JSON payload, verify J)
VARIETIES = (
    (
        "p2",
        {
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "max_cones": [[0, 1], [1, 2], [0, 2]],
            "phi": ["1", "1", "1"],
        },
        4,
    ),
    (
        "p1",
        {"rays": [[1], [-1]], "max_cones": [[0], [1]], "phi": ["1", "1"]},
        6,
    ),
    (
        "p1xp1",
        {
            "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "phi": ["1", "1", "1", "1"],
        },
        3,
    ),
    (
        "hirzebruch1",
        {
            "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "phi": ["1", "1", "2", "1"],
        },
        3,
    ),
)

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
P2_PHI = (Fraction(1), Fraction(1), Fraction(1))


def build_polytope(payload):
    fan = Fan(tuple(map(tuple, payload["rays"])), tuple(map(tuple, payload["max_cones"])))
    return polytope_from_bundle(fan, [Fraction(v) for v in payload["phi"]])


# ---------------------------------------------------------------------------
# 1. main-theorem verification through the pipeline command
# ---------------------------------------------------------------------------

def test_criterion_01_main_theorem_verification(tmp_path):
    timings = {}
    for name, payload, J in VARIETIES:
        fan_file = tmp_path / f"{name}.json"
        fan_file.write_text(json.dumps(payload))
        out = tmp_path / name
        start = time.monotonic()
        code = cli_main(
            ["verify", "--input", str(fan_file), "--J", str(J), "--out", str(out)]
        )
        timings[name] = time.monotonic() - start
        assert code == 0, f"verification pipeline failed on {name}"
        report = json.loads((out / "verify.json").read_text())
        assert report["verdict"] == "pass"
        assert report["isomorphism"]["mismatches"] == []
        assert report["isomorphism"]["products_checked"] > 0
        assert timings[name] < 10.0, f"{name} took {timings[name]:.1f}s"
    print(
        "criterion 1: PASS — exit 0 and zero mismatches on all four varieties, "
        + ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    )


# ---------------------------------------------------------------------------
# 2. dimension laws: refine-and-count vs dilate-and-count
# ---------------------------------------------------------------------------

def test_criterion_02_dimension_laws():
    checked = 0
    for name, payload, _ in VARIETIES:
        Q = build_polytope(payload)
        for j in range(1, 7):
            refine = floer_group(Q, 0, j).dimension
            dilate = len(lattice_points(Q.dilate(j)))
            assert refine == dilate, (name, j, refine, dilate)
            checked += 1
    print(f"criterion 2: PASS — {checked} (variety, degree) pairs, refine == dilate")


# ---------------------------------------------------------------------------
# 3. Serre duality against interior counts and Ehrhart reciprocity
# ---------------------------------------------------------------------------

def test_criterion_03_serre_ehrhart():
    for name, payload, _ in VARIETIES:
        Q = build_polytope(payload)
        n = Q.n
        coeffs = ehrhart_polynomial(Q)
        for j in range(1, 5):
            dual = serre_dual_dimension(Q, -j)
            interior = len(interior_lattice_points(Q.dilate(j)))
            reciprocal = (-1) ** n * eval_poly(coeffs, -j)
            assert dual == interior, (name, j)
            assert Fraction(interior) == reciprocal, (name, j)
        report = serre_check(Q, 4)
        assert report.ok, name
    print("criterion 3: PASS — duals == interior counts == (-1)^n L(-j), j <= 4, exact")


# ---------------------------------------------------------------------------
# 4. algebra axioms, exhaustively on every tabulated product
# ---------------------------------------------------------------------------

def test_criterion_04_algebra_axioms():
    violations = 0
    products_seen = 0
    for name, payload, J in VARIETIES:
        Q = build_polytope(payload)
        alg = assemble_algebra(Q, J)
        dims = [alg.dimension(j) for j in range(J + 1)]
        assert dims[0] == 1  # unital ground piece

        for (j, k), table in alg.products.items():
            products_seen += table.size
            for (p, q), r in np.ndenumerate(table):
                # degree additivity: the target index is a valid basis slot
                # of the (j+k)-piece
                if not (j + k <= J and 0 <= r < dims[j + k]):
                    violations += 1
                # unitality on either side
                if j == 0 and r != q:
                    violations += 1
                if k == 0 and r != p:
                    violations += 1
                # commutativity regrading: both orders hit the same point
                mirrored = alg.products[(k, j)][(q, p)]
                if alg.pieces[j + k].basis[mirrored].point != alg.pieces[j + k].basis[r].point:
                    violations += 1

        # associativity, re-audited here rather than trusted from assembly
        for a in range(J + 1):
            for b in range(J + 1 - a):
                for c in range(J + 1 - a - b):
                    ab, bc = alg.products[(a, b)], alg.products[(b, c)]
                    ab_c, a_bc = alg.products[(a + b, c)], alg.products[(a, b + c)]
                    for p in range(dims[a]):
                        for q in range(dims[b]):
                            left = ab[(p, q)]
                            for z in range(dims[c]):
                                if ab_c[(left, z)] != a_bc[(p, bc[(q, z)])]:
                                    violations += 1
    assert violations == 0
    print(f"criterion 4: PASS — 0 violations over {products_seen} tabulated products")


# ---------------------------------------------------------------------------
# 5. triangle conditions vs an independent predicate
# ---------------------------------------------------------------------------

def independent_product_predicate(l1, l2, l3, p, q, Q):
    """Nonvanishing rule restated from scratch: identity action on a
    repeated twist; otherwise the ordering gate (l1<l2 with l3<l1<l2 or
    l1<l2<l3, or l2<l1 with l2<l3<l1) plus membership of the affine target
    in the admissible generator set of (l1, l3), checked directly against
    the halfspace description."""
    if l1 == l2 or l2 == l3:
        return True
    if l1 == l3:
        return False
    ordering = (l1 < l2 and (l3 < l1 < l2 or l1 < l2 < l3)) or (
        l2 < l1 and l2 < l3 < l1
    )
    if not ordering:
        return False
    d = l3 - l1
    r = tuple(
        (Fraction(l2 - l1) * a + Fraction(l3 - l2) * b) / d for a, b in zip(p, q)
    )
    if any((x * abs(d)).denominator != 1 for x in r):
        return False
    if l1 < l3:
        return all(
            sum(a * x for a, x in zip(normal, r)) <= bound
            for normal, bound in Q.halfspaces
        )
    return all(
        sum(a * x for a, x in zip(normal, r)) < bound
        for normal, bound in Q.halfspaces
    )


def test_criterion_05_triangle_conditions():
    Q = build_polytope(VARIETIES[0][1])
    rng = random.Random(20260819)
    groups = {}

    def group(a, b):
        if (a, b) not in groups:
            groups[(a, b)] = floer_group(Q, a, b)
        return groups[(a, b)]

    agreements = 0
    nonzero = 0
    for _ in range(10_000):
        l1, l2, l3 = (rng.randint(-3, 5) for _ in range(3))
        gx, gy = group(l1, l2), group(l2, l3)
        if not gx.basis or not gy.basis:
            continue
        x = rng.choice(gx.basis)
        y = rng.choice(gy.basis)
        result = cup_product(x, y, Q)
        expected = independent_product_predicate(l1, l2, l3, x.point, y.point, Q)
        assert (result is not None) == expected, (l1, l2, l3, x.point, y.point)
        if result is not None:
            nonzero += 1
            if l1 != l2 and l2 != l3:
                target = tuple(
                    (Fraction(l2 - l1) * a + Fraction(l3 - l2) * b) / (l3 - l1)
                    for a, b in zip(x.point, y.point)
                )
                assert result.point == target
        agreements += 1
    assert agreements == 10_000
    print(
        f"criterion 5: PASS — {agreements} random triples agree with the "
        f"independent predicate ({nonzero} nonzero)"
    )


# ---------------------------------------------------------------------------
# 6. tropical invariants on the varieties plus random height functions
# ---------------------------------------------------------------------------

def random_height(rng):
    while True:
        npts = rng.randint(5, 8)
        pts = set()
        while len(pts) < npts:
            pts.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        vals = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(npts)
        ]
        try:
            h = HeightFunction(tuple(sorted(pts)), tuple(vals))
            regular_subdivision(h)  # probe: rejects degenerate supports
            return h
        except (DegenerateSupport, ValueError):
            continue


def check_tropical_invariants(h):
    rng = random.Random(hash(h.points) & 0xFFFF)
    cx = TropicalComplex(h)
    n = h.n
    # duality: a k-face of Pi is dual to an (n-k)-dimensional tie set
    for f in cx.faces:
        assert f.dim == n - affine_dim([h.points[i] for i in f.dual_indices])
    # partition: the Legendre maximizer set names exactly the components
    # whose closures contain the sample point
    for _ in range(25):
        u = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(n))
        _, tie_points = legendre_value(h, u)
        ties = {h.points.index(p) for p in tie_points}
        for comp in cx.components:
            if comp.index in ties:
                assert comp.contains(u)
            else:
                assert not comp.contains(u, strict=True)
    # Legendre convexity, exact midpoint inequality
    val = lambda u: legendre_value(h, u)[0]
    for _ in range(25):
        u = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(n))
        v = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(n))
        mid = tuple((a + b) / 2 for a, b in zip(u, v))
        assert val(mid) <= (val(u) + val(v)) / 2
    # lower-hull certificate: each cell's affine support touches its tie set
    # and stays strictly below every other lifted point
    for cell in cx.subdivision.cells:
        for i, (pt, nu) in enumerate(zip(h.points, h.values)):
            g = sum(a * b for a, b in zip(cell.gradient, pt)) + cell.offset
            if i in cell.indices:
                assert g == nu
            else:
                assert g < nu


def test_criterion_06_tropical_invariants():
    heights = []
    for _, payload, _ in VARIETIES:
        fan = Fan(tuple(map(tuple, payload["rays"])), tuple(map(tuple, payload["max_cones"])))
        heights.append(HeightFunction.from_bundle(fan, [Fraction(v) for v in payload["phi"]]))
    rng = random.Random(172)
    heights.extend(random_height(rng) for _ in range(20))
    for h in heights:
        check_tropical_invariants(h)
    print(f"criterion 6: PASS — duality/partition/convexity/lower-hull on {len(heights)} heights")


# ---------------------------------------------------------------------------
# 7. amoeba convergence at desk scale
# ---------------------------------------------------------------------------

def test_criterion_07_amoeba_convergence():
    window = (-3.0, 3.0, -3.0, 3.0)
    start = time.monotonic()
    dists = []
    for logt in (2.0, 4.0, 8.0):
        F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=math.exp(logt), s=0.0)
        L = F.L
        box = (window[0] * L, window[1] * L, window[2] * L, window[3] * L)
        res = amoeba_sample_curve(F, 64, (box, 200))
        segments = complex_segments(F.complex, window)
        dists.append(hausdorff_distance(res.points / L, segments, window))
    elapsed = time.monotonic() - start
    assert dists[0] > dists[1] > dists[2], dists
    assert dists[2] < 0.15, dists
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        "criterion 7: PASS — rescaled Hausdorff "
        + " > ".join(f"{d:.4f}" for d in dists)
        + f" at log t = 2, 4, 8 (grid 200x64, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 8. symplecticity margins at the certified scale
# ---------------------------------------------------------------------------

def test_criterion_08_symplectic_margins():
    eps = 0.1
    h = HeightFunction.from_bundle(P2_FAN, P2_PHI)
    t_star = choose_scale(tropical_constants(TropicalComplex(h)), eps)
    counts = {}
    worst = math.inf
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=t_star, s=s, eps=eps)
        L = F.L
        box = (-1.6 * L, 1.0 * L, -1.6 * L, 1.0 * L)
        res = amoeba_sample_curve(F, 8, (box, 80))
        margins = symplectic_margin(F, (res.points, res.angles))
        assert len(margins) >= 500, (s, len(margins))
        positive = sum(1 for m in margins if m > 0.0)
        assert positive == len(margins), (s, positive, len(margins))
        counts[s] = len(margins)
        worst = min(worst, min(margins))

    # cutoff slope bound 3/(eps log t), sampled across the whole ramp
    F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=t_star, s=1.0, eps=eps)
    bound = 3.0 / (eps * F.L)
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.0, F.profile.outer * 1.2, size=100_000)
    max_slope = cutoff(samples, F.profile)[1].max()
    assert max_slope <= bound * (1.0 + 1e-12), (max_slope, bound)
    print(
        "criterion 8: PASS — 100% positive margins at "
        + ", ".join(f"s={s}: {c}" for s, c in counts.items())
        + f" witnesses (min margin {worst:.3g}); max cutoff slope "
        f"{max_slope:.6g} <= 3/(eps log t) = {bound:.6g} over 1e5 samples"
    )


# ---------------------------------------------------------------------------
# 9. certificates never contradict the sampler; decay check is clean
# ---------------------------------------------------------------------------

def test_criterion_09_certificates():
    t = math.exp(8.0)
    window = 3.0 * 8.0
    contradictions = 0
    points_checked = 0
    for s, radii, args, floor in ((0.0, 200, 64, 500), (1.0, 40, 12, 100)):
        F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=t, s=s)
        res = amoeba_sample_curve(F, args, ((-window, window, -window, window), radii))
        assert len(res.points) > floor, (s, len(res.points))
        contradictions += int(np.count_nonzero(lopsided_certificate(F, res.points) >= 0))
        points_checked += len(res.points)
    assert contradictions == 0

    F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=t, s=1.0)
    report = exponential_decay_check(F, 1000)
    assert report["violations"] == 0
    assert report["checked"] > 0
    print(
        f"criterion 9: PASS — 0/{points_checked} sampler points certified "
        f"off-amoeba; decay check 0 violations over {report['samples']} samples "
        f"({report['checked']} pair inequalities)"
    )


# ---------------------------------------------------------------------------
# 10. horizontal lift residuals
# ---------------------------------------------------------------------------

def random_laurent(rng, n=2):
    terms = {}
    while len(terms) < 5:
        expo = tuple(int(rng.integers(-2, 3)) for _ in range(n))
        coeff = complex(rng.normal(), rng.normal())
        terms.setdefault(expo, coeff)
    return LaurentPolynomial(tuple(terms.items()))


def test_criterion_10_horizontal_lift():
    rng = np.random.default_rng(99)
    worst_push = 0.0
    worst_omega = 0.0
    lifts = 0
    for _ in range(5):
        f = random_laurent(rng)
        done = 0
        while done < 100:
            z = tuple(
                complex(rng.uniform(0.4, 2.5) * math.cos(a), rng.uniform(0.4, 2.5) * math.sin(a))
                for a in rng.uniform(0.0, 2.0 * math.pi, size=2)
            )
            ghat = f.grad_hat(z)
            if np.linalg.norm(ghat) < 1e-6:
                continue
            a = complex(rng.normal(), rng.normal())
            v = horizontal_lift(f, z, a).components
            df = np.array([g / w for g, w in zip(ghat, z)])
            push = abs(complex(np.dot(df, v)) - a) / max(1.0, abs(a))
            # ker df is spanned by (df_2, -df_1); orthogonality in the
            # invariant metric <v, w> = sum conj(v_j) w_j / |z_j|^2
            w = np.array([df[1], -df[0]])
            weights = np.array([1.0 / abs(z[0]) ** 2, 1.0 / abs(z[1]) ** 2])
            vn = math.sqrt(float(np.sum(weights * np.abs(v) ** 2)))
            wn = math.sqrt(float(np.sum(weights * np.abs(w) ** 2)))
            pairing = complex(np.sum(weights * np.conj(v) * w))
            omega = abs(pairing.imag) / (vn * wn)
            worst_push = max(worst_push, push)
            worst_omega = max(worst_omega, omega)
            done += 1
            lifts += 1
    assert worst_push < 1e-8
    assert worst_omega < 1e-8
    print(
        f"criterion 10: PASS — {lifts} lifts, pushforward residual "
        f"{worst_push:.2e}, omega-orthogonality {worst_omega:.2e}"
    )
