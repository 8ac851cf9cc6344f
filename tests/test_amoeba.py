"""Tests for the patchworking family: cutoffs, evaluation, certificates,
amoeba sampling, margins, decay, lifts, and the boundary curve."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import null_space

from tropmirror.lattice import Fan, polytope_from_bundle
from tropmirror.tropical import (
    HeightFunction,
    InvalidEps,
    TropicalComplex,
    complex_segments,
    choose_scale,
    hausdorff_distance,
    tropical_constants,
)
from tropmirror.amoeba import (
    BoundarySample,
    CriticalPoint,
    CutoffProfile,
    LaurentPolynomial,
    NoCrossing,
    NotOnZeroLocus,
    PatchworkFamily,
    _cmul,
    _fiber_coefficients,
    _fiber_roots,
    _log_coords,
    _newton_continuation,
    amoeba_sample_curve,
    boundary_sphere_sample,
    cutoff,
    eval_family,
    exponential_decay_check,
    horizontal_lift,
    lopsided_certificate,
    mirror_potential,
    symplectic_margin,
)

P2_FAN = Fan(rays=((1, 0), (0, 1), (-1, -1)),
             max_cones=((0, 1), (1, 2), (0, 2)))
P2_PHI = (Fraction(1), Fraction(1), Fraction(1))

# tropical line: support {0, e1, e2} with zero heights, coefficients -1,1,1
LINE_HEIGHT = HeightFunction(((0, 0), (1, 0), (0, 1)),
                             (Fraction(0), Fraction(0), Fraction(0)))
LINE_COEFFS = (-1.0, 1.0, 1.0)


def p2_family(t, s, eps=0.1):
    return PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=t, s=s, eps=eps)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_smoothstep(d, inner, outer):
    """Independent piecewise cubic: integrate the bump 6x(1-x) by hand."""
    if d <= inner:
        return 0.0
    if d >= outer:
        return 1.0
    x = (d - inner) / (outer - inner)
    return x * x * (3 - 2 * x)


def oracle_fd_value(F, z, j, direction, h=1e-6):
    """Central difference of the family value along z_j +/- h*direction."""
    zp = list(z)
    zm = list(z)
    zp[j] += h * direction
    zm[j] -= h * direction
    return (eval_family(F, tuple(zp))[0] - eval_family(F, tuple(zm))[0]) / (2 * h)


def oracle_line_fiber(z1):
    """Hand solution of -1 + z1 + z2 = 0."""
    return 1.0 - z1


def oracle_segment_distance(P, segs):
    """Vectorized point-to-segment-set distances."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    best = np.full(len(P), np.inf)
    for a, b in segs:
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        ab = b - a
        den = float(ab @ ab)
        if den == 0.0:
            d = np.linalg.norm(P - a, axis=1)
        else:
            t = np.clip(((P - a) @ ab) / den, 0.0, 1.0)
            d = np.linalg.norm(P - (a + t[:, None] * ab), axis=1)
        best = np.minimum(best, d)
    return best


# ---------------------------------------------------------------------------
# Laurent polynomials and the potential
# ---------------------------------------------------------------------------

def test_laurent_polynomial_basics():
    f = LaurentPolynomial((((1, 0), 2.0), ((0, 1), -1.0), ((-1, -1), 1.0)))
    assert f.n == 2
    z = (1.5 + 0.5j, -0.25 + 1.0j)
    expect = 2.0 * z[0] - z[1] + 1.0 / (z[0] * z[1])
    assert abs(f.eval(z) - expect) < 1e-12 * abs(expect)
    # the Newton polytope is the convex hull of the exponents
    verts = set(f.newton_polytope().vertices)
    assert verts == {(1, 0), (0, 1), (-1, -1)}
    with pytest.raises(ValueError):
        LaurentPolynomial((((1, 0), 1.0), ((1, 0), 2.0)))


def test_laurent_polynomial_rejects_non_integer_exponents():
    # int() would read 1.5 as 1, 0.7 as 0 and accept the string "1"
    for bad in (1.5, 0.7, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPolynomial((((bad, 0), 1.0), ((0, 1), 2.0)))


def test_mirror_potential_fixtures():
    W = mirror_potential(P2_FAN)
    terms = dict(W.terms)
    assert terms[(0, 0)] == -1
    assert terms[(1, 0)] == 1 and terms[(0, 1)] == 1 and terms[(-1, -1)] == 1
    assert len(terms) == 4
    # a non-smooth cone (determinant 2) triggers a warning but still builds
    bad = Fan(rays=((1, 0), (1, 2)), max_cones=((0, 1),))
    with pytest.warns(UserWarning):
        Wb = mirror_potential(bad)
    assert len(Wb.terms) == 3


def test_mirror_potential_matches_family_coefficients():
    F = p2_family(t=10.0, s=0.0)
    coeffs = dict(zip(F.exponents_int, F.coefficients))
    assert coeffs[(0, 0)] == -1
    for ray in P2_FAN.rays:
        assert coeffs[ray] == 1


# ---------------------------------------------------------------------------
# the cutoff profile
# ---------------------------------------------------------------------------

def test_cutoff_fixtures():
    eps, L = 0.1, 8.0
    prof = CutoffProfile(0.5 * eps * L, eps * L)
    assert cutoff(0.0, prof) == (0.0, 0.0)
    assert cutoff(eps * L, prof) == (1.0, 0.0)
    mid = 0.75 * eps * L
    val, der = cutoff(mid, prof)
    assert abs(val - 0.5) < 1e-15
    assert abs(der - 3.0 / (eps * L)) < 1e-15
    with pytest.raises(ValueError):
        cutoff(-0.1, prof)


def test_cutoff_derivative_bound_and_continuity():
    eps, L = 0.1, 8.0
    prof = CutoffProfile(0.5 * eps * L, eps * L)
    bound = 3.0 / (eps * L)
    ds = np.linspace(0.0, 2.0 * eps * L, 100000)
    worst = 0.0
    for d in ds:
        val, der = cutoff(float(d), prof)
        assert 0.0 <= val <= 1.0
        worst = max(worst, abs(der))
    assert worst <= bound * (1 + 1e-12)
    # C^1 across both knots and agreement with the hand oracle
    for d in np.linspace(0.3, 0.9, 61):
        val, _ = cutoff(float(d), prof)
        assert abs(val - oracle_smoothstep(float(d), prof.inner, prof.outer)) < 1e-14
    for knot in (prof.inner, prof.outer):
        v_lo, d_lo = cutoff(knot - 1e-9, prof)
        v_hi, d_hi = cutoff(knot + 1e-9, prof)
        assert abs(v_hi - v_lo) < 1e-8 and abs(d_hi - d_lo) < 1e-7


def test_cutoff_stack_matches_single_values():
    eps, L = 0.1, 8.0
    prof = CutoffProfile(0.5 * eps * L, eps * L)
    d = np.concatenate([np.linspace(0.0, 2.0 * eps * L, 1000), [prof.inner, prof.outer]])
    vals, ders = cutoff(d.reshape(2, -1), prof)
    one = np.array([cutoff(float(x), prof) for x in d])
    assert np.array_equal(vals.ravel(), one[:, 0])
    assert np.array_equal(ders.ravel(), one[:, 1])
    with pytest.raises(ValueError):
        cutoff(np.array([0.5, -1e-12, 0.1]), prof)


# ---------------------------------------------------------------------------
# family construction and evaluation
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(ValueError):
        PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=1.0, s=0.0)
    with pytest.raises(ValueError):
        PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=10.0, s=1.5)
    with pytest.raises(InvalidEps):
        PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=10.0, s=0.5, eps=0.0)
    with pytest.raises(ValueError):
        PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=10.0, s=0.0, coefficients=(1.0, 2.0))


def test_eval_family_s_zero_is_holomorphic():
    F = p2_family(t=math.exp(3.0), s=0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = tuple(np.exp(rng.uniform(-1, 1) + 1j * rng.uniform(-np.pi, np.pi))
                  for _ in range(2))
        _, _, db = eval_family(F, z)
        assert all(abs(c) == 0.0 for c in db)


def test_eval_family_finite_differences():
    # 100 random points and 5 random (t, s) pairs, relative tolerance 1e-5
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        t = math.exp(rng.uniform(1.5, 5.0))
        s = float(rng.uniform(0.05, 1.0))
        F = p2_family(t=t, s=s)
        for _ in range(100):
            z = tuple(np.exp(rng.uniform(-1, 1) + 1j * rng.uniform(-np.pi, np.pi))
                      for _ in range(2))
            _, dl, db = eval_family(F, z)
            for j in range(2):
                for direction, expect in ((1.0, dl[j] + db[j]),
                                          (1j, 1j * (dl[j] - db[j]))):
                    fd = oracle_fd_value(F, z, j, direction)
                    rel = abs(fd - expect) / max(abs(expect), 1e-9)
                    worst = max(worst, rel)
    assert worst < 1e-5


def test_eval_family_deep_reduction():
    # deep inside a scaled component at s = 1 every other cutoff saturates,
    # so the family value reduces to the single surviving monomial
    F = p2_family(t=math.exp(6.0), s=1.0)
    L = F.L
    cases = [((0.0, 0.0), (0, 0)), ((2 * L, 0.2 * L), (1, 0)),
             ((0.2 * L, 2 * L), (0, 1)), ((-2 * L, -2 * L), (-1, -1))]
    coeffs = dict(zip(F.exponents_int, F.coefficients))
    nus = dict(zip(F.exponents_int, [float(v) for v in F.height.values]))
    for u, alpha in cases:
        assert F.surviving_terms(np.asarray(u)) == (alpha,)
        theta = (0.7, -1.1)
        z = tuple(cmath.exp(complex(u[j], theta[j])) for j in range(2))
        val, _, db = eval_family(F, z)
        expect = coeffs[alpha] * F.t ** (-nus[alpha]) * z[0] ** alpha[0] * z[1] ** alpha[1]
        assert abs(val - expect) <= 1e-12 * abs(expect)
        assert all(abs(c) == 0.0 for c in db)


def test_localization_of_surviving_terms():
    # cutoff states identify the dual cell: vertex / edge / region points
    F = p2_family(t=math.exp(8.0), s=1.0)
    L = F.L
    assert set(F.surviving_terms((L, L))) == {(0, 0), (1, 0), (0, 1)}
    assert set(F.surviving_terms((L, 0.0))) == {(0, 0), (1, 0)}
    assert set(F.surviving_terms((0.0, 0.0))) == {(0, 0)}
    # a spine vertex touches all three incident components
    assert set(F.surviving_terms((-2 * L, L))) == {(0, 0), (0, 1), (-1, -1)}
    # further out along the dual ray only the edge pair survives
    assert set(F.surviving_terms((-4 * L, 2 * L))) == {(0, 1), (-1, -1)}


def test_stacked_evaluation_matches_single_points():
    # a (K, 2) stack gives, row for row and bit for bit, what K single-point
    # calls give: inside a component, on the cutoff ramp (one component, and
    # two at once near the spine vertex (L, L)) and past the outer knot
    F = p2_family(t=math.exp(8.0), s=1.0)
    L = F.L
    rng = np.random.default_rng(12)
    U = np.vstack([[[0.0, 0.0], [L - 0.6, 0.0], [L - 0.5, L - 0.5], [-2 * L, L + 0.5]],
                   rng.uniform(-3 * L, 3 * L, (200, 2)),
                   [L, L] + rng.uniform(-1.0, 1.0, (100, 2))])
    TH = rng.uniform(-np.pi, np.pi, U.shape)
    phis, grads = F.cutoff_states(U)
    assert np.any(phis == 0.0) and np.any(phis == 1.0)
    assert np.any((phis > 0.0) & (phis < 1.0))
    one = [F.cutoff_states(u) for u in U]
    assert np.array_equal(phis, [p for p, _ in one])
    assert np.array_equal(grads, [g for _, g in one])
    for s in (0.0, 1.0):
        stacked = F.eval_scaled(U.reshape(4, -1, 2), TH.reshape(4, -1, 2), s)
        rows = [F.eval_scaled(u, th, s) for u, th in zip(U, TH)]
        for k, part in enumerate(stacked):
            flat = part.reshape((len(U),) + part.shape[2:])
            assert np.array_equal(flat, [r[k] for r in rows])


# ---------------------------------------------------------------------------
# lopsidedness certificates
# ---------------------------------------------------------------------------

def test_lopsided_fixtures():
    F = p2_family(t=math.e, s=1.0)
    assert F.exponents_int[lopsided_certificate(F, (10.0, 0.0))] == (1, 0)
    # at the origin the constant term dominates once t is large enough
    F5 = p2_family(t=5.0, s=1.0)
    assert F5.exponents_int[lopsided_certificate(F5, (0.0, 0.0))] == (0, 0)
    assert lopsided_certificate(p2_family(t=2.5, s=1.0), (0.0, 0.0)) == -1
    # a spine vertex has three balanced terms: never lopsided
    F8 = p2_family(t=math.exp(8.0), s=1.0)
    assert lopsided_certificate(F8, (8.0, 8.0)) == -1


def test_lopsided_stack_equals_single_points():
    # sampler points (never certified) and a grid (mostly certified), as a
    # (K, 2) stack and as a (2, K/2, 2) stack, bit for bit
    F = p2_family(t=math.exp(8.0), s=1.0)
    L = F.L
    res = amoeba_sample_curve(F, 8, ((-3 * L, 3 * L, -3 * L, 3 * L), 12))
    xs = np.linspace(-3 * L, 3 * L, 15)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    U = np.vstack([res.points, grid])[:400]
    one = np.array([lopsided_certificate(F, u) for u in U])
    assert np.array_equal(lopsided_certificate(F, U), one)
    assert np.array_equal(lopsided_certificate(F, U.reshape(2, -1, 2)), one.reshape(2, -1))
    assert (one == -1).any() and (one >= 0).any()


def test_certified_disjointness_on_grid():
    # every grid point at distance >= eps log t from the scaled spine is
    # certified lopsided; segments are clipped on an inflated window so the
    # distances are exact within the sampling box
    F = p2_family(t=math.exp(8.0), s=1.0)
    L, eps = F.L, F.eps
    segs = [(np.array(a) * L, np.array(b) * L)
            for a, b in complex_segments(F.complex, (-7.0, 7.0, -7.0, 7.0))]
    xs = np.linspace(-3 * L, 3 * L, 41)
    far = np.array([(ux, uy) for ux in xs for uy in xs
                    if oracle_segment_distance(np.array([ux, uy]), segs)[0] >= eps * L])
    assert len(far) > 1000
    assert np.all(lopsided_certificate(F, far) >= 0)


def test_sampler_never_contradicts_certificate():
    for s in (0.0, 1.0):
        F = p2_family(t=math.exp(8.0), s=s)
        L = F.L
        res = amoeba_sample_curve(F, 16, ((-3 * L, 3 * L, -3 * L, 3 * L), 40))
        assert len(res.points) > 500
        assert np.all(lopsided_certificate(F, res.points) == -1)


# ---------------------------------------------------------------------------
# amoeba sampling
# ---------------------------------------------------------------------------

def test_sampler_line_fiber_fixture():
    F = PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=math.e, s=0.0, coefficients=LINE_COEFFS)
    # z1 = 1 gives z2 = 0 (excluded); z1 = -1 gives z2 = 2
    res = amoeba_sample_curve(F, 2, ((0.0, 0.0, -1.0, 1.0), 1))
    assert res.points.shape == (1, 2)
    assert abs(res.points[0][0]) < 1e-12
    assert abs(res.points[0][1] - math.log(2.0)) < 1e-12
    (u, theta) = res.witnesses[0]
    z = tuple(cmath.exp(complex(u[j], theta[j])) for j in range(2))
    assert abs(z[0] + 1.0) < 1e-9
    assert abs(z[1] - oracle_line_fiber(z[0])) < 1e-9
    assert res.residuals.max() < 1e-8


def test_sampler_tentacles():
    # the line amoeba has three tentacles: (-k, 0), (0, -k), (k, k)
    F = PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=math.e, s=0.0, coefficients=LINE_COEFFS)
    res = amoeba_sample_curve(F, 16, (-6.0, 6.0, 48))
    assert len(res.points) > 100
    for target in ((-5.0, 0.0), (0.0, -5.0), (5.0, 5.0)):
        d = np.linalg.norm(res.points - np.array(target), axis=1).min()
        assert d < 1.0, (target, d)


def test_sampler_residuals_and_determinism():
    F = p2_family(t=math.exp(4.0), s=0.7)
    grid = ((-10.0, 6.0, -10.0, 6.0), 12)
    res1 = amoeba_sample_curve(F, 6, grid)
    res2 = amoeba_sample_curve(F, 6, grid)
    assert len(res1.points) > 50
    assert res1.residuals.max() < 1e-8
    assert np.array_equal(res1.points, res2.points)
    assert res1.witnesses == res2.witnesses


def test_sampler_degenerate_fibers_counted():
    # a family with all coefficients zero clears to the zero polynomial in
    # every fiber: each one is reported, none emits points
    F = PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=math.e, s=0.0,
                        coefficients=(0.0, 0.0, 0.0))
    res = amoeba_sample_curve(F, 3, (-1.0, 1.0, 4))
    assert res.degenerate_fibers == 2 * 4 * 3
    assert len(res.points) == 0


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_sampler_counts_every_dropped_root(s):
    # on P^2 every fiber polynomial is a quadratic in the free variable, so
    # each non-degenerate fiber yields two roots; each one is either emitted
    # or counted under exactly one reason
    F = p2_family(t=math.exp(8.0), s=s)
    L = F.L
    res = amoeba_sample_curve(F, 16, ((-3 * L, 3 * L, -3 * L, 3 * L), 40))
    assert set(res.dropped) == {"non_finite", "newton", "window", "residual"}
    roots = 2 * (2 * 16 * 40 - res.degenerate_fibers)
    assert roots == len(res.points) + sum(res.dropped.values())
    # the stacked margins are the per-witness margins
    margins = symplectic_margin(F, (res.points, res.angles))
    assert np.array_equal(margins, [symplectic_margin(F, w) for w in res.witnesses])


def oracle_uncached_continuation(F, free, u, theta, z):
    """The continuation without cached terms: every live row is evaluated
    from scratch by eval_scaled at every iteration, empty stacks included."""
    ok = np.ones(len(z), dtype=bool)
    stages = [float(s) for s in np.linspace(0.0, F.s, 17)[1:]] if F.s > 0.0 else []
    for s in stages + [F.s]:
        live = np.flatnonzero(ok)
        for it in range(13):
            bad = ~np.isfinite(z[live]) | (z[live] == 0)
            ok[live[bad]] = False
            live = live[~bad]
            u[live, free[live]], theta[live, free[live]] = _log_coords(z[live])
            _, val, dh, dbh = F.eval_scaled(u[live], theta[live], s)
            res = np.hypot(val.real, val.imag)
            if it == 12:
                ok[live[~(res < 1e-10)]] = False
                break
            step = ~(res < 1e-12)
            live, val, dh, dbh = live[step], val[step], dh[step], dbh[step]
            k, f = np.arange(len(live)), free[live]
            ph = np.exp(1j * theta[live, f])
            a = dh[k, f] / ph
            b = _cmul(dbh[k, f], ph)
            J = np.stack([np.stack([(a + b).real, -(a - b).imag], axis=-1),
                          np.stack([(a + b).imag, (a - b).real], axis=-1)], axis=-2)
            rhs = -np.stack([val.real, val.imag], axis=-1)
            solvable = np.isfinite(J).all(axis=(1, 2)) & (np.linalg.slogdet(J)[0] != 0)
            ok[live[~solvable]] = False
            live = live[solvable]
            w = np.linalg.solve(J[solvable], rhs[solvable][..., None])[..., 0]
            dz = np.empty(len(live), dtype=complex)
            dz.real, dz.imag = w[:, 0], w[:, 1]
            with np.errstate(over="ignore", invalid="ignore"):
                z[live] = z[live] + np.hypot(z[live].real, z[live].imag) * dz
    return ok


def start_roots(F, arg_grid, n_r, half_width):
    """(free, u, theta, z) of the s = 0 roots of both sweeps over the window
    [-half_width, half_width]^2, set up as amoeba_sample_curve sets them up."""
    thetas = 2.0 * math.pi * np.arange(arg_grid) / arg_grid
    axis = np.repeat([0, 1], n_r * arg_grid)
    u_fix = np.tile(np.repeat(np.linspace(-half_width, half_width, n_r), arg_grid), 2)
    th_fix = np.tile(thetas, 2 * n_r)
    fiber, z, _ = _fiber_roots(_fiber_coefficients(F, axis, u_fix, th_fix))
    found = np.isfinite(z) & (z != 0)
    fiber, z = fiber[found], z[found]
    k, axis = np.arange(len(z)), axis[fiber]
    u, theta = np.zeros((len(z), 2)), np.zeros((len(z), 2))
    u[k, axis], theta[k, axis] = u_fix[fiber], th_fix[fiber]
    return 1 - axis, u, theta, z


def t_star_p2():
    h = HeightFunction.from_bundle(P2_FAN, P2_PHI)
    return choose_scale(tropical_constants(TropicalComplex(h)), 0.1)


@pytest.mark.parametrize("logt, s", [(8.0, 0.0), (8.0, 0.5), (8.0, 1.0), (None, 0.0), (None, 1.0)])
def test_continuation_matches_uncached_oracle(logt, s, monkeypatch):
    # evaluating only the rows that moved, and combining cached terms at each
    # stage's s, carries every root bit for bit as re-evaluating every row
    t = math.exp(logt) if logt is not None else t_star_p2()
    F = p2_family(t=t, s=s)
    free, u, theta, z = start_roots(F, 8, 24, 3.0 * F.L)
    u0, theta0, z0 = u.copy(), theta.copy(), z.copy()
    ok0 = oracle_uncached_continuation(F, free, u0, theta0, z0)

    stacks = []
    cutoff_states = PatchworkFamily.cutoff_states

    def recorded(self, pts):
        stacks.append(len(pts))
        return cutoff_states(self, pts)

    monkeypatch.setattr(PatchworkFamily, "cutoff_states", recorded)
    ok, (mstar, T, phis, grads) = _newton_continuation(F, free, u, theta, z)
    monkeypatch.undo()

    assert np.count_nonzero(ok0) > 100
    for new, old in ((z, z0), (u, u0), (theta, theta0), (ok, ok0)):
        assert new.tobytes() == old.tobytes()
    assert (len(stacks) > 0) == (s > 0.0)
    assert 0 not in stacks
    # the returned state is the state at the final point: combined at F.s it
    # is eval_scaled there, as the sampler's residual gate uses it
    rows = np.flatnonzero(ok)
    cut = (phis[rows], grads[rows]) if s > 0.0 else (None, None)
    got = (mstar[rows],) + F._combine(T[rows], *cut, F.s)
    for new, old in zip(got, F.eval_scaled(u[rows], theta[rows])):
        assert new.tobytes() == old.tobytes()


def test_fiber_roots_match_np_roots():
    # per effective degree: dead leading terms (|c| < 1e-300) stripped,
    # degree 0 degenerate, degrees 1-2 in closed form, higher degrees exactly
    # the companion eigenvalues of np.roots, exact zero roots last
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(60, 6)) + 1j * rng.normal(size=(60, 6))
    rows[10:20, 4:] = 0.0
    rows[20:30, 5] = 1e-310
    rows[30:40, :2] = 0.0
    rows[40:45, 1:] = 0.0
    rows[45:50, 3:] = 0.0
    rows[50:55, 2:] = 0.0
    fiber, roots, degenerate = _fiber_roots(rows)
    assert np.array_equal(np.flatnonzero(degenerate), np.arange(40, 45))
    for i, c in enumerate(rows):
        deg = max([k for k in range(6) if abs(c[k]) >= 1e-300], default=0)
        got = roots[fiber == i]
        assert len(got) == deg
        if deg >= 3:
            assert np.array_equal(got, np.roots(c[: deg + 1][::-1]))
        elif deg:
            expect = np.roots(c[: deg + 1][::-1])
            assert np.allclose(np.sort_complex(got), np.sort_complex(expect), atol=1e-12)


def test_rescaled_hausdorff_decreases():
    h = HeightFunction.from_bundle(P2_FAN, P2_PHI)
    cx = TropicalComplex(h)
    window = (-3.0, 3.0, -3.0, 3.0)
    vals = []
    for k in (2.0, 4.0, 8.0):
        F = p2_family(t=math.exp(k), s=0.0)
        L = F.L
        res = amoeba_sample_curve(F, 24, ((-3 * L, 3 * L, -3 * L, 3 * L), 60))
        vals.append(hausdorff_distance(res.points / L, cx, window))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.15


# ---------------------------------------------------------------------------
# the symplecticity margin
# ---------------------------------------------------------------------------

def test_margin_requires_zero_locus():
    F = p2_family(t=5.0, s=0.0)
    with pytest.raises(NotOnZeroLocus):
        symplectic_margin(F, (1.0 + 0j, 1.0 + 0j))
    # past e^709 the residual overflows to inf, which is refused the same way
    with pytest.raises(NotOnZeroLocus):
        symplectic_margin(F, (np.array([800.0, 0.0]), np.zeros(2)))


def test_margin_positive_at_s_zero():
    F = p2_family(t=math.exp(4.0), s=0.0)
    res = amoeba_sample_curve(F, 8, ((-10.0, 6.0, -10.0, 6.0), 20))
    assert len(res.witnesses) > 100
    for w in res.witnesses:
        m = symplectic_margin(F, w)
        assert m > 0.0  # delbar vanishes identically at s = 0


def test_margin_accepts_complex_witness():
    F = PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=math.e, s=0.0, coefficients=LINE_COEFFS)
    m = symplectic_margin(F, (-1.0 + 0j, 2.0 + 0j))
    # |df|_g at z = (-1, 2): unit-frame gradient is (z1, z2) = (-1, 2)
    assert abs(m - math.sqrt(5.0)) < 1e-12


def test_margin_df_bound_consistency():
    # |df|_g stays above |t^{-nu(delta)} z^delta| / (10 rho) at witnesses
    # sampled at the certified scale, delta the dominant exponent
    h = HeightFunction.from_bundle(P2_FAN, P2_PHI)
    k = tropical_constants(TropicalComplex(h))
    t_star = choose_scale(k, 0.1)
    L = math.log(t_star)
    for s in (0.0, 0.5, 1.0):
        F = p2_family(t=t_star, s=s)
        res = amoeba_sample_curve(F, 4, (-1.6 * L, 1.0 * L, 30))
        assert len(res.witnesses) >= 100
        for (u, theta) in res.witnesses:
            _, _, dh, _ = F.eval_scaled(np.array(u), np.array(theta))
            assert float(np.linalg.norm(dh)) > 1.0 / (10.0 * k.rho)


def test_margin_all_s_at_certified_scale():
    h = HeightFunction.from_bundle(P2_FAN, P2_PHI)
    t_star = choose_scale(tropical_constants(TropicalComplex(h)), 0.1)
    L = math.log(t_star)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        F = p2_family(t=t_star, s=s)
        res = amoeba_sample_curve(F, 4, (-1.6 * L, 1.0 * L, 20))
        margins = [symplectic_margin(F, w) for w in res.witnesses]
        assert len(margins) > 50
        assert min(margins) > 0.0


def test_margin_small_t_scan_is_nonfatal():
    # below the certified scale the margin may go negative at s = 1; the
    # scan records the count without failing either way
    F = p2_family(t=1.5, s=1.0)
    res = amoeba_sample_curve(F, 8, (-2.0, 2.0, 10))
    negatives = 0
    for w in res.witnesses:
        m = symplectic_margin(F, w)
        assert math.isfinite(m)
        if m < 0:
            negatives += 1
    assert negatives >= 0


# ---------------------------------------------------------------------------
# exponential decay
# ---------------------------------------------------------------------------

def test_exponential_decay_no_violations():
    F = p2_family(t=math.exp(8.0), s=1.0)
    report = exponential_decay_check(F, 1000)
    assert report["samples"] == 1000
    assert report["violations"] == 0
    assert report["checked"] > 1000
    assert report["skipped_zero_cutoff"] >= 0


def test_decay_ratio_monotone_along_normal():
    # receding from the wall between the 0 and e1 components, the term
    # ratio decays strictly (10-point ray)
    F = p2_family(t=math.exp(8.0), s=1.0)
    L = F.L
    idx = {a: i for i, a in enumerate(F.exponents_int)}
    vals = []
    for j in range(10):
        u = np.array([L - 0.5 * j, 0.0])
        m = F.exponents @ u - F.nu_log
        vals.append(math.exp(m[idx[(1, 0)]] - m[idx[(0, 0)]]))
    for a, b in zip(vals, vals[1:]):
        assert b < a


# ---------------------------------------------------------------------------
# the horizontal lift
# ---------------------------------------------------------------------------

def test_lift_dimension_one_fixture():
    f = LaurentPolynomial((((1,), 1.0),))
    v = horizontal_lift(f, (1.0 + 0j,), 1.0)
    assert abs(v.components[0] - 1.0) < 1e-15  # the vector d/dx
    assert abs(v.norm - 1.0) < 1e-15


def test_lift_critical_point():
    # f = (z - 1)^2 has df = 0 at z = 1
    f = LaurentPolynomial((((0,), 1.0), ((1,), -2.0), ((2,), 1.0)))
    with pytest.raises(CriticalPoint):
        horizontal_lift(f, (1.0 + 0j,), 1.0)


def _random_laurent(rng, n, n_terms=5):
    exps = set()
    while len(exps) < n_terms:
        exps.add(tuple(int(e) for e in rng.integers(-2, 4, size=n)))
    return LaurentPolynomial(tuple(
        (a, complex(rng.normal(), rng.normal())) for a in sorted(exps)
    ))


def test_lift_pushforward_and_orthogonality():
    # f_*(v) = a to 1e-8 and omega(v, k) = 0 on ker f_* at 100 points
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(50):
            f = _random_laurent(rng, n)
            z = tuple(cmath.exp(complex(rng.uniform(-0.7, 0.7),
                                        rng.uniform(-np.pi, np.pi)))
                      for _ in range(n))
            a = complex(rng.normal(), rng.normal())
            try:
                v = horizontal_lift(f, z, a)
            except CriticalPoint:
                continue
            dfz = np.array([f.grad_hat(z)[j] / z[j] for j in range(n)])
            push = complex(np.sum(dfz * np.array(v.components)))
            assert abs(push - a) <= 1e-8 * max(abs(a), 1.0)
            # kernel vectors from the numerical null space of the row df
            K = null_space(dfz.reshape(1, -1))
            w2 = np.array([abs(zj) ** 2 for zj in z])
            for col in range(K.shape[1]):
                kvec = K[:, col]
                omega = float(np.sum(np.imag(np.conj(v.components) * kvec) / w2))
                metric = float(np.sum(np.real(np.conj(v.components) * kvec) / w2))
                scale = v.norm * float(np.linalg.norm(kvec / np.sqrt(w2)))
                assert abs(omega) <= 1e-8 * max(scale, 1e-9)
                assert abs(metric) <= 1e-8 * max(scale, 1e-9)


# ---------------------------------------------------------------------------
# the boundary curve
# ---------------------------------------------------------------------------

def test_boundary_sphere_fixtures():
    F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=math.exp(4.0), s=0.0, eps=0.3)
    # at u = 0 the real restriction is -1 + (small positive): negative
    _, val, _, _ = F.eval_scaled(np.zeros(2), np.zeros(2))
    assert val.real < 0.0
    bs = boundary_sphere_sample(F, 64)
    assert isinstance(bs, BoundarySample)
    assert bs.missed == ()
    assert len(bs.points) == 64
    # winding number one around the origin
    ang = np.arctan2(bs.points[:, 1], bs.points[:, 0])
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    assert abs(steps.sum() / (2 * np.pi) - 1.0) < 1e-6
    # rescaled, the curve hugs the moment polytope boundary to within eps
    Q = polytope_from_bundle(P2_FAN, P2_PHI)
    verts = [tuple(float(x) for x in v) for v in Q.vertices]
    segs = [(np.array(verts[i]), np.array(verts[(i + 1) % len(verts)]))
            for i in range(len(verts))]
    d = oracle_segment_distance(bs.points / F.L, segs)
    assert d.max() < F.eps


def test_boundary_sphere_s_one_runs():
    F = PatchworkFamily.from_fan(P2_FAN, P2_PHI, t=math.exp(4.0), s=1.0, eps=0.3)
    bs = boundary_sphere_sample(F, 32)
    assert len(bs.points) + len(bs.missed) == 32
    assert len(bs.points) > 0


def test_boundary_sphere_no_crossing():
    # all-positive coefficients keep the real restriction positive forever
    F = PatchworkFamily(TropicalComplex(LINE_HEIGHT), t=math.e, s=0.0,
                        coefficients=(1.0, 1.0, 1.0))
    with pytest.raises(NoCrossing):
        boundary_sphere_sample(F, 8)
