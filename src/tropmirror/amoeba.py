"""Floating-point Laurent-polynomial engine: the mirror potential, the
patchworking family with cutoff profiles, lopsidedness certificates,
zero-locus sampling (n = 2), the symplecticity margin, and the pointwise
horizontal lift.

Numerical architecture: the interesting scales t are astronomically large
(log t in the hundreds), so nothing here ever multiplies raw monomials.
Every evaluation works in log coordinates u = Log|z|, theta = arg z, with
term log-magnitudes m_a = <a,u> - nu(a) log t; the largest m is factored
out, and covectors are carried in the unit frame (z_j d/dz_j), in which the
invariant metric |dz_j| = |z_j| becomes the Euclidean one.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Fan, hull, is_smooth
from .tropical import (
    HeightFunction,
    InvalidEps,
    TropicalComplex,
    project_onto_halfspaces,
    tropical_constants,
)


class FiberDegenerate(ArithmeticError):
    """The cleared fiber polynomial vanished identically."""


class NotOnZeroLocus(ValueError):
    """A margin witness failed the residual precondition."""


class CriticalPoint(ArithmeticError):
    """The lift formula divides by |df|; it refuses near-critical points."""


class NoCrossing(RuntimeError):
    """No ray of the boundary scan met a sign change."""


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPolynomial:
    """f = sum c_a z^a with distinct integer exponent vectors."""

    terms: tuple

    def __post_init__(self):
        cleaned = tuple(
            (tuple(int(e) for e in a), complex(c)) for a, c in self.terms
        )
        cleaned = tuple(sorted(cleaned, key=lambda tc: tc[0]))
        object.__setattr__(self, "terms", cleaned)
        exps = [a for a, _ in cleaned]
        if len(set(exps)) != len(exps):
            raise ValueError("exponent vectors must be distinct")
        if not exps:
            raise ValueError("empty polynomial")

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    def newton_polytope(self):
        return hull([a for a, _ in self.terms])

    def eval(self, z: Sequence[complex]) -> complex:
        val = 0j
        for a, c in self.terms:
            term = c
            for e, zj in zip(a, z):
                term *= zj ** e
            val += term
        return val

    def grad_hat(self, z: Sequence[complex]) -> np.ndarray:
        """Unit-frame gradient: component j is z_j * df/dz_j."""
        out = np.zeros(self.n, dtype=complex)
        for a, c in self.terms:
            term = c
            for e, zj in zip(a, z):
                term *= zj ** e
            for j in range(self.n):
                out[j] += a[j] * term
        return out


def mirror_potential(fan: Fan) -> LaurentPolynomial:
    """W = -1 + sum over rays of z^ray (warns for non-smooth fans)."""
    if not is_smooth(fan):
        warnings.warn("fan is not smooth; potential built anyway", stacklevel=2)
    terms = [((0,) * fan.n, -1.0 + 0j)]
    terms.extend((ray, 1.0 + 0j) for ray in fan.rays)
    return LaurentPolynomial(tuple(terms))


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffProfile:
    inner: float  # eps log t / 2
    outer: float  # eps log t


def cutoff(d: float, profile: CutoffProfile) -> tuple[float, float]:
    """Cubic smoothstep over [inner, outer]: (value, derivative).

    Identically 0 below inner, 1 above outer, C^1 across both knots; the
    derivative peaks at the midpoint with value 1.5/(outer-inner), which is
    3/(eps log t) under the standard knot choice.
    """
    if d < 0:
        raise ValueError("distances are nonnegative")
    if d <= profile.inner:
        return 0.0, 0.0
    if d >= profile.outer:
        return 1.0, 0.0
    w = profile.outer - profile.inner
    x = (d - profile.inner) / w
    return 3 * x * x - 2 * x ** 3, (6 * x - 6 * x * x) / w


# ---------------------------------------------------------------------------
# the patchworking family
# ---------------------------------------------------------------------------

class PatchworkFamily:
    """f_{t,s}(z) = sum_a c_a t^{-nu(a)} (1 - s phi_a(Log z)) z^a.

    phi_a is the smoothstep of the distance from Log z to the scaled
    component C_{a,t} = (log t) C_a; an inactive component (empty C_a)
    contributes phi = 1 identically.  The components come from the tropical
    complex cx of the height function, which the family keeps as `complex`.
    """

    def __init__(self, cx: TropicalComplex, t: float, s: float,
                 eps: float = 0.1, coefficients: Sequence[complex] | None = None):
        if not (t > 1):
            raise ValueError("the scale t must exceed 1")
        if not (0.0 <= s <= 1.0):
            raise ValueError("the interpolation parameter s lives in [0, 1]")
        if not (eps > 0):
            raise InvalidEps(f"eps must be positive, got {eps}")
        height = cx.height
        self.height = height
        self.complex = cx
        self.t = float(t)
        self.s = float(s)
        self.eps = float(eps)
        self.L = math.log(self.t)
        self.profile = CutoffProfile(0.5 * self.eps * self.L, self.eps * self.L)
        if coefficients is None:
            coefficients = [1.0] * len(height.points)
        if len(coefficients) != len(height.points):
            raise ValueError("one coefficient per support point")
        self.coefficients = np.array([complex(c) for c in coefficients])
        self.exponents = np.array(height.points, dtype=float)
        self.exponents_int = tuple(height.points)
        self.nu_log = np.array([float(v) for v in height.values]) * self.L
        self.component_planes = [
            comp.unit_halfspaces(self.L) if comp.active else None
            for comp in self.complex.components
        ]

    @classmethod
    def from_fan(cls, fan: Fan, phi, t: float, s: float, eps: float = 0.1):
        cx = TropicalComplex(HeightFunction.from_bundle(fan, phi))
        return cls(cx, t, s, eps, [-1.0] + [1.0] * len(fan.rays))

    @property
    def n(self) -> int:
        return self.height.n

    # -- cutoffs -------------------------------------------------------

    def cutoff_states(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(phi values, gradients d phi/du) at u for every support point.

        The distance to each scaled component is exact: one kernel call,
        unless u is inside it or one halfspace puts u past the outer knot.
        """
        u = np.asarray(u, dtype=float)
        m = len(self.coefficients)
        phis = np.zeros(m)
        grads = np.zeros((m, self.n))
        for i, planes in enumerate(self.component_planes):
            if planes is None:
                phis[i] = 1.0
                continue
            normals, bounds = planes
            worst = float(np.max(normals @ u - bounds))
            if worst <= 0.0:
                continue  # inside the component: phi = 0
            if worst >= self.profile.outer:
                phis[i] = 1.0  # even one halfspace is past the outer knot
                continue
            delta = u - project_onto_halfspaces(u, normals, bounds)
            d = float(np.linalg.norm(delta))
            if d < 1e-14:
                continue
            val, dval = cutoff(d, self.profile)
            phis[i] = val
            grads[i] = (dval / d) * delta
        return phis, grads

    # -- scaled evaluation core ----------------------------------------

    def eval_scaled(self, u, theta, s: float | None = None):
        """Everything at z = exp(u + i theta), with e^{mstar} factored out.

        Returns (mstar, value_hat, del_hat, delbar_hat) where the true value
        is e^{mstar} value_hat and the true covector components in the unit
        frame (z_j df/dz_j and conj(z_j) dbar f/dzbar_j) are e^{mstar} times
        the hats.  Norms in the invariant metric are plain 2-norms of the
        hats (times e^{mstar}).  s overrides the family parameter (used by
        the continuation; the family itself is never mutated).
        """
        if s is None:
            s = self.s
        u = np.asarray(u, dtype=float)
        theta = np.asarray(theta, dtype=float)
        m = self.exponents @ u - self.nu_log
        mstar = float(np.max(m))
        mag = np.exp(m - mstar)
        phase = np.exp(1j * (self.exponents @ theta))
        T = self.coefficients * mag * phase
        if s == 0.0:
            B = np.ones(len(T))
            grads = np.zeros((len(T), self.n))
        else:
            phis, grads = self.cutoff_states(u)
            B = 1.0 - s * phis
        value = complex(np.sum(T * B))
        del_hat = np.empty(self.n, dtype=complex)
        delbar_hat = np.empty(self.n, dtype=complex)
        for j in range(self.n):
            cut = 0.5 * s * (T @ grads[:, j])
            del_hat[j] = np.sum(T * B * self.exponents[:, j]) - cut
            delbar_hat[j] = -cut
        return mstar, value, del_hat, delbar_hat

    def surviving_terms(self, u) -> tuple:
        """Exponents whose cutoff has not fully killed the term (phi < 1)."""
        phis, _ = self.cutoff_states(u)
        return tuple(
            self.exponents_int[i] for i in range(len(phis)) if phis[i] < 1.0
        )


def _log_coords(z):
    u = np.array([math.log(abs(zj)) for zj in z])
    theta = np.array([cmath.phase(zj) for zj in z])
    return u, theta


def eval_family(F: PatchworkFamily, z: Sequence[complex]):
    """(value, del, delbar) at z, covectors in the dz_j / dzbar_j basis."""
    if any(zj == 0 for zj in z):
        raise ValueError("points must lie in the algebraic torus")
    u, theta = _log_coords(z)
    mstar, val, dh, dbh = F.eval_scaled(u, theta)
    scale = math.exp(mstar)
    value = scale * val
    del_cov = tuple(scale * dh[j] / z[j] for j in range(F.n))
    delbar_cov = tuple(scale * dbh[j] / np.conj(z[j]) for j in range(F.n))
    return value, del_cov, delbar_cov


# ---------------------------------------------------------------------------
# lopsidedness
# ---------------------------------------------------------------------------

def lopsided_certificate(F: PatchworkFamily, u):
    """Dominant exponent at u, if one survives the worst cutoff state.

    Certifies u outside the amoeba for every s in [0,1]: the candidate term
    enters with its smallest possible coefficient 1 - phi_a(u) while every
    other term is given its largest (1).  Returns the exponent or None.
    """
    u = np.asarray(u, dtype=float)
    m = F.exponents @ u - F.nu_log
    mstar = float(np.max(m))
    mags = np.abs(F.coefficients) * np.exp(m - mstar)
    phis, _ = F.cutoff_states(u)
    total = float(np.sum(mags))
    i = int(np.argmax(mags))  # only the largest magnitude can dominate
    lhs = (1.0 - phis[i]) * mags[i]
    # the slack keeps the strict inequality honest under roundoff: points the
    # sampler accepts have scaled residual below 1e-10, so a certificate
    # demanding a relative margin of 1e-9 can never fire on one of them
    if lhs > (total - mags[i]) + 1e-9 * total:
        return F.exponents_int[i]
    return None


# ---------------------------------------------------------------------------
# fiber solving (n = 2)
# ---------------------------------------------------------------------------

def _fiber_coefficients(F: PatchworkFamily, axis: int, u_fix: float, th_fix: float):
    """Coefficients (low to high in the free variable) of the cleared s=0
    fiber polynomial over z_axis = exp(u_fix + i th_fix), normalized by the
    largest magnitude."""
    free = 1 - axis
    ks = [int(a[free]) for a in F.exponents_int]
    k_min = min(ks)
    deg = max(ks) - k_min
    logmag = np.array([
        float(F.exponents[i, axis]) * u_fix - F.nu_log[i]
        for i in range(len(F.coefficients))
    ])
    scale = float(np.max(logmag))
    coeffs = np.zeros(deg + 1, dtype=complex)
    for i, (a, c) in enumerate(zip(F.exponents_int, F.coefficients)):
        coeffs[a[free] - k_min] += c * math.exp(logmag[i] - scale) * cmath.exp(1j * a[axis] * th_fix)
    return coeffs, scale


def _roots_low_to_high(coeffs: np.ndarray) -> list[complex]:
    """Roots of sum coeffs[k] z^k; stable quadratic path for degree <= 2."""
    c = coeffs.copy()
    # strip numerically dead leading terms so np.roots sees the true degree
    top = len(c) - 1
    while top > 0 and abs(c[top]) < 1e-300:
        top -= 1
    c = c[: top + 1]
    if len(c) == 1 or np.max(np.abs(c)) == 0.0:
        raise FiberDegenerate("cleared fiber polynomial is constant or zero")
    if len(c) == 2:
        return [-c[0] / c[1]]
    if len(c) == 3:
        c0, c1, c2 = c
        disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        if (c1.conjugate() * disc).real < 0.0:
            disc = -disc
        q = -0.5 * (c1 + disc)
        roots = []
        roots.append(q / c2 if c2 != 0 else complex("inf"))
        roots.append(c0 / q if q != 0 else 0.0)
        return roots
    return list(np.roots(c[::-1]))


def _newton_polish(F: PatchworkFamily, axis: int, u_fix: float, th_fix: float,
                   zf: complex, s_target: float):
    """Continuation in s from the algebraic root, Newton in relative steps.

    Works entirely in scaled quantities: with a = del_hat e^{-i theta} and
    b = delbar_hat e^{+i theta} (components of the free variable), the
    displacement dz = |z| w obeys dF/e^{mstar} = a w + b conj(w), a
    well-conditioned 2x2 real system.  The family is read-only throughout.
    """
    if s_target > 0.0:
        for s_now in np.linspace(0.0, s_target, 17)[1:]:  # 16 equal s-steps
            zf, ok = _newton_refine(F, axis, u_fix, th_fix, zf, float(s_now))
            if not ok:
                return None
    zf, ok = _newton_refine(F, axis, u_fix, th_fix, zf, s_target)
    return zf if ok else None


def _fiber_point(axis: int, u_fix: float, th_fix: float, zf: complex):
    u = np.empty(2)
    theta = np.empty(2)
    u[axis], theta[axis] = u_fix, th_fix
    u[1 - axis], theta[1 - axis] = math.log(abs(zf)), cmath.phase(zf)
    return u, theta


def _newton_refine(F: PatchworkFamily, axis: int, u_fix, th_fix, zf, s: float):
    free = 1 - axis
    for _ in range(12):
        if not (np.isfinite(zf.real) and np.isfinite(zf.imag)) or zf == 0:
            return zf, False
        r = abs(zf)
        u, theta = _fiber_point(axis, u_fix, th_fix, zf)
        _, val, dh, dbh = F.eval_scaled(u, theta, s)
        if abs(val) < 1e-12:
            return zf, True
        ph = cmath.exp(1j * theta[free])
        a = dh[free] / ph
        b = dbh[free] * ph
        J = np.array([[ (a + b).real, -(a - b).imag],
                      [ (a + b).imag,  (a - b).real]])
        rhs = -np.array([val.real, val.imag])
        try:
            w = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return zf, False
        zf = zf + r * complex(w[0], w[1])
    if abs(zf) == 0:
        return zf, False
    u, theta = _fiber_point(axis, u_fix, th_fix, zf)
    _, val, _, _ = F.eval_scaled(u, theta, s)
    return zf, abs(val) < 1e-10


@dataclass
class SampleResult:
    points: np.ndarray          # (N, 2) Log-coordinates of emitted points
    degenerate_fibers: int
    witnesses: list             # (u_vec, theta_vec) per emitted point
    residuals: np.ndarray       # absolute |f| at each witness


def amoeba_sample_curve(F: PatchworkFamily, arg_grid: int, radius_grid) -> SampleResult:
    """Point cloud of Log f^{-1}(0) over log-radius x argument grids.

    radius_grid is (u1_lo, u1_hi, count) or ((u1_lo, u1_hi, u2_lo, u2_hi),
    count).  Both coordinates are swept in turn: a wall of the amoeba whose
    dual edge is parallel to a coordinate axis is exponentially thin in that
    coordinate's fibers (it needs the other argument pinned within
    e^{-O(log t)}), but has full angular width in the transverse sweep, so
    the union of the two sweeps covers every wall at grid resolution.

    s = 0 fibers are solved by clearing denominators (companion matrix /
    stable quadratic); s > 0 by Newton continuation from those roots.
    Fibers are solved in grid order, so the output is deterministic for
    fixed inputs.
    """
    if F.n != 2:
        raise ValueError("fiber sampling is implemented for n = 2")
    if len(radius_grid) == 3:
        u1_lo, u1_hi, n_r = radius_grid
        u2_lo, u2_hi = float(u1_lo), float(u1_hi)
    else:
        (u1_lo, u1_hi, u2_lo, u2_hi), n_r = radius_grid
    windows = ((float(u1_lo), float(u1_hi)), (float(u2_lo), float(u2_hi)))
    thetas = 2.0 * math.pi * np.arange(int(arg_grid)) / max(int(arg_grid), 1)

    points, witnesses, residuals = [], [], []
    degenerate = 0
    for axis in (0, 1):
        lo, hi = windows[1 - axis]
        for u_fix in np.linspace(*windows[axis], int(n_r)):
            u_fix = float(u_fix)
            for th_fix in thetas:
                th_fix = float(th_fix)
                try:
                    coeffs, _ = _fiber_coefficients(F, axis, u_fix, th_fix)
                    roots = _roots_low_to_high(coeffs)
                except FiberDegenerate:
                    degenerate += 1
                    continue
                for zf in roots:
                    if zf == 0 or not (np.isfinite(zf.real) and np.isfinite(zf.imag)):
                        continue
                    zfp = _newton_polish(F, axis, u_fix, th_fix, zf, F.s)
                    if zfp is None or zfp == 0:
                        continue
                    uf = math.log(abs(zfp))
                    if not (lo <= uf <= hi):
                        continue
                    u, theta = _fiber_point(axis, u_fix, th_fix, zfp)
                    mstar, val, _, _ = F.eval_scaled(u, theta)
                    residual = math.exp(mstar) * abs(val)
                    if not math.isfinite(residual) or residual > 1e-8:
                        continue
                    points.append((u[0], u[1]))
                    witnesses.append((tuple(u), tuple(theta)))
                    residuals.append(residual)
    arr = np.array(points) if points else np.zeros((0, 2))
    return SampleResult(arr, degenerate, witnesses, np.array(residuals))


# ---------------------------------------------------------------------------
# the symplecticity margin
# ---------------------------------------------------------------------------

def symplectic_margin(F: PatchworkFamily, z) -> float:
    """|df|_g - |dbar f|_g at a zero-locus witness.

    Accepts either a tuple of complex coordinates or a log-form witness
    (u_vec, theta_vec) as produced by the sampler.  The residual
    precondition |f| < 1e-8 is enforced (NotOnZeroLocus).
    """
    if len(z) == 2 and isinstance(z[0], (tuple, list, np.ndarray)):
        u = np.asarray(z[0], dtype=float)
        theta = np.asarray(z[1], dtype=float)
    else:
        u, theta = _log_coords(z)
    mstar, val, dh, dbh = F.eval_scaled(u, theta)
    residual = math.exp(mstar) * abs(val)
    if not (residual < 1e-8):
        raise NotOnZeroLocus(f"residual {residual!r} exceeds 1e-8")
    scale = math.exp(mstar)
    return scale * (float(np.linalg.norm(dh)) - float(np.linalg.norm(dbh)))


# ---------------------------------------------------------------------------
# exponential decay of non-dominant terms
# ---------------------------------------------------------------------------

def exponential_decay_check(F: PatchworkFamily, samples: int) -> dict:
    """Sampled verification of the off-component decay bound.

    For p in C_{beta,t} and every alpha with phi_alpha(p) != 0, checks
    |t^{-nu(a)} z^a| / |t^{-nu(b)} z^b| < exp(-c eps log t |a-b|_2), with c
    the seed-0 c_est of F's complex; the sample points are drawn at seed 0.
    Points where phi_alpha(p) = 0 are vacuous and skipped.
    """
    c = tropical_constants(F.complex).c_est
    rng = np.random.default_rng(0)
    verts = [np.array([float(x) for x in v]) for v, _ in F.complex.vertices()]
    center = np.mean(verts, axis=0) if verts else np.zeros(F.n)
    radius = max(
        (float(np.linalg.norm(v - center)) for v in verts), default=1.0
    )
    halfwidth = (radius + 1.0) * 2.0 * F.L
    checked = violations = skipped = 0
    exps = F.exponents
    for _ in range(samples):
        u = center * F.L + rng.uniform(-halfwidth, halfwidth, size=F.n)
        m = exps @ u - F.nu_log
        beta = int(np.argmax(m))
        phis, _ = F.cutoff_states(u)
        for alpha in range(len(m)):
            if alpha == beta:
                continue
            if phis[alpha] == 0.0:
                skipped += 1
                continue
            checked += 1
            diff = exps[alpha] - exps[beta]
            bound = -c * F.eps * F.L * float(np.linalg.norm(diff))
            if m[alpha] - m[beta] >= bound:
                violations += 1
    return {
        "samples": samples,
        "checked": checked,
        "violations": violations,
        "skipped_zero_cutoff": skipped,
        "bound_constant": c,
    }


# ---------------------------------------------------------------------------
# the horizontal lift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentVectorC:
    base: tuple
    components: tuple  # coordinates in the d/dz_j basis

    @property
    def norm(self) -> float:
        return math.sqrt(sum(
            abs(v) ** 2 / abs(z) ** 2 for v, z in zip(self.components, self.base)
        ))


def horizontal_lift(f: LaurentPolynomial, z: Sequence[complex], a: complex) -> TangentVectorC:
    """The unique v with f_*(v) = a orthogonal to ker f_* (closed formula).

    v_j = a conj(df/dz_j) |z_j|^2 / sum_k |df/dz_k|^2 |z_k|^2, which in the
    unit frame reads v_j = a conj(g_j) z_j / |g|^2 with g_j = z_j df/dz_j.
    No linear system is solved.
    """
    z = tuple(complex(zj) for zj in z)
    if any(zj == 0 for zj in z):
        raise ValueError("points must lie in the algebraic torus")
    g = f.grad_hat(z)
    norm = float(np.linalg.norm(g))
    if norm < 1e-12:
        raise CriticalPoint(f"|df| = {norm!r} below threshold")
    a = complex(a)
    comps = tuple(a * np.conj(g[j]) * z[j] / (norm * norm) for j in range(len(z)))
    return TangentVectorC(z, comps)


# ---------------------------------------------------------------------------
# the boundary sphere
# ---------------------------------------------------------------------------

@dataclass
class BoundarySample:
    points: np.ndarray   # (N, 2), in ray order
    missed: tuple        # ray indices with no sign change


def boundary_sphere_sample(F: PatchworkFamily, samples: int) -> BoundarySample:
    """First zero of the real restriction u -> f_{t,s}(e^u) along each ray.

    The restriction is real because fan-built coefficients are real.  Rays
    fan out from the origin on a uniform angle grid; each is marched until
    the scaled value changes sign and then bisected.  Rays with no crossing
    are reported in `missed`; if every ray misses, NoCrossing is raised.
    """
    if F.n != 2:
        raise ValueError("boundary scan is implemented for n = 2")
    if np.max(np.abs(F.coefficients.imag)) > 0:
        raise ValueError("boundary scan needs a real-coefficient family")

    def g(r, w):
        _, val, _, _ = F.eval_scaled(r * w, np.zeros(2))
        return val.real

    verts = [np.array([float(x) for x in v]) for v, _ in F.complex.vertices()]
    reach = max((float(np.linalg.norm(v)) for v in verts), default=1.0)
    r_max = (reach + 3.0 * F.eps) * F.L + 5.0
    step = max(F.L, 1.0) * 0.02
    pts, missed = [], []
    for i in range(samples):
        psi = 2.0 * math.pi * i / samples
        w = np.array([math.cos(psi), math.sin(psi)])
        r_prev, g_prev = 0.0, g(0.0, w)
        bracket = None
        r = step
        while r <= r_max:
            g_now = g(r, w)
            if g_now == 0.0 or (g_now > 0) != (g_prev > 0):
                bracket = (r_prev, r)
                break
            r_prev, g_prev = r, g_now
            r += step
        if bracket is None:
            missed.append(i)
            continue
        lo, hi = bracket
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (g(mid, w) > 0) == (g_prev > 0):
                lo = mid
            else:
                hi = mid
        pts.append(0.5 * (lo + hi) * w)
    if not pts:
        raise NoCrossing("no ray of the boundary scan found a sign change")
    return BoundarySample(np.array(pts), tuple(missed))
