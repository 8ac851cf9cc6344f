"""Floating-point Laurent-polynomial engine: the mirror potential W (whose
coefficients _mirror_coefficients writes once, for W, the family and the
CLI), the patchworking family with cutoff profiles, lopsidedness
certificates, zero-locus sampling (n = 2), the symplecticity margin, the
decay audit, the pointwise horizontal lift and the boundary sphere.

Numerical architecture: the interesting scales t are astronomically large
(log t in the hundreds), so term evaluation never multiplies raw monomials.
The family is evaluated in log coordinates u = Log|z|, theta = arg z only, with
term log-magnitudes m_a = <a,u> - nu(a) log t; the largest m is factored
out, and covectors are carried in the unit frame (z_j d/dz_j), in which the
invariant metric |dz_j| = |z_j| becomes the Euclidean one.  (The sampler's
starting roots are still solved in raw coordinates; see amoeba_sample_curve.)
Evaluation, cutoffs, nearest points and margins take stacks of points of
shape (..., n), a single point being the (n,) case, and compute every row
exactly as they would compute it alone.  Cutoff states cost one pass over a
stack for all components at once: the family plans its scaled components for
the nearest-point kernel when it is built, and only the per-component matrix
products, whose rounding depends on the component's shape, stay separate.
Evaluation has two halves: the terms and cutoff states, which depend on the
point alone, and their combination at a deformation parameter s.  The
sampler's continuation keeps the first half per root and recomputes it only
for roots that moved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .lattice import Fan, _exact_int, is_smooth
from .tropical import (
    HeightFunction,
    InvalidEps,
    TropicalComplex,
    _Polyhedra,
    tropical_constants,
)


class NotOnZeroLocus(ValueError):
    """A margin witness failed the residual precondition."""


class CriticalPoint(ArithmeticError):
    """The lift formula divides by |df|; it refuses near-critical points."""


class NoCrossing(RuntimeError):
    """No ray of the boundary scan met a sign change."""


# ---------------------------------------------------------------------------
# elementwise arithmetic with the rounding of one point
# ---------------------------------------------------------------------------

def _libm(fn, *args) -> np.ndarray:
    """fn (a libm function: math.exp, pow, ...) elementwise as float64; numpy's
    vectorised versions may round the last bit differently.  The first
    argument sets the shape, the others have it or are scalars; each element
    reaches fn as the Python number tolist() gives."""
    arrays = [np.asarray(a) for a in args]
    shape = arrays[0].shape
    columns = [repeat(a.item()) if a.ndim == 0 else a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *columns), float, math.prod(shape)).reshape(shape)


def _exp(x) -> np.ndarray:
    """_libm(math.exp, x), but inf where the result overflows a double.

    math.exp is finite for every x <= 709, so only the entries above it go
    through the wrapper that catches OverflowError."""
    def exp(v):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    x = np.asarray(x, dtype=float)
    out = _libm(math.exp, np.minimum(x, 709.0))
    big = x > 709.0
    out[big] = _libm(exp, x[big])
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b with every product rounded, as numpy's scalar product does."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _norm(v) -> np.ndarray:
    """2-norm over the last axis, summed as np.linalg.norm sums one vector."""
    def sq(w):
        return np.matmul(w[..., None, :], w[..., :, None])[..., 0, 0]
    return np.sqrt(sq(v.real) + sq(v.imag)) if np.iscomplexobj(v) else np.sqrt(sq(v))


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPolynomial:
    """f = sum c_a z^a with distinct integer exponent vectors."""

    terms: tuple

    def __post_init__(self):
        cleaned = tuple(
            (tuple(_exact_int(e, "exponent") for e in a), complex(c)) for a, c in self.terms
        )
        cleaned = tuple(sorted(cleaned, key=lambda tc: tc[0]))
        object.__setattr__(self, "terms", cleaned)
        exps = [a for a, _ in cleaned]
        if len(set(exps)) != len(exps):
            raise ValueError("exponent vectors must be distinct")
        if not exps:
            raise ValueError("empty polynomial")
        if any(len(a) != len(exps[0]) for a in exps):
            raise ValueError("exponent vectors have different lengths")

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

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


def _mirror_coefficients(points) -> list[float]:
    """W's coefficient at each exponent: -1 at the origin, +1 at every ray."""
    return [1.0 if any(p) else -1.0 for p in points]


def mirror_potential(fan: Fan) -> LaurentPolynomial:
    """W = -1 + sum over rays of z^ray (warns for non-smooth fans)."""
    if not is_smooth(fan):
        warnings.warn("fan is not smooth; potential built anyway", stacklevel=2)
    points = ((0,) * fan.n,) + fan.rays
    return LaurentPolynomial(tuple(zip(points, _mirror_coefficients(points))))


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffProfile:
    inner: float  # eps log t / 2
    outer: float  # eps log t


def cutoff(d, profile: CutoffProfile):
    """Cubic smoothstep over [inner, outer]: (values, derivatives) shaped like d.

    Identically 0 below inner, 1 above outer, C^1 across both knots; the
    derivative peaks at the midpoint with value 1.5/(outer-inner), which is
    3/(eps log t) under the standard knot choice.  Negative entries raise.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances are nonnegative")
    w = profile.outer - profile.inner
    x = np.clip((d - profile.inner) / w, 0.0, 1.0)
    return (3 * x * x - 2 * _libm(pow, x, 3))[()], ((6 * x - 6 * x * x) / w)[()]


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
                 eps: float = 0.1, *, coefficients: Sequence[complex]):
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
        if len(coefficients) != len(height.points):
            raise ValueError("one coefficient per support point")
        self.coefficients = np.array([complex(c) for c in coefficients])
        self.exponents = np.array(height.points, dtype=float)
        self.nu_log = np.array([float(v) for v in height.values]) * self.L
        # the active components scaled by log t, planned once for the
        # nearest-point kernel; self.active[c] is the term of polyhedron c
        self.active = np.array([i for i, comp in enumerate(cx.components) if comp.active])
        self.scaled_components = _Polyhedra([cx.components[i].unit_halfspaces(self.L)
                                             for i in self.active])

    @classmethod
    def from_fan(cls, fan: Fan, phi, t: float, s: float, eps: float = 0.1):
        cx = TropicalComplex(HeightFunction.from_bundle(fan, phi))
        return cls(cx, t, s, eps, coefficients=_mirror_coefficients(cx.height.points))

    @property
    def n(self) -> int:
        return self.height.n

    # -- cutoffs -------------------------------------------------------

    def cutoff_states(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(phi values (..., m), gradients d phi/du (..., m, n)) at u (..., n).

        The distance to each scaled component is exact.  One pass over the
        stack serves every component: the violations, computed once per
        component, place each point inside it, past the outer knot or on its
        ramp, and the ramp points of all components go through one call of
        the nearest-point kernel, one distance and one smoothstep.
        """
        u = np.asarray(u, dtype=float)
        pts = u.reshape(-1, self.n)
        m = len(self.coefficients)
        phis = np.ones((len(pts), m))  # an inactive component cuts its term off
        grads = np.zeros((len(pts), m, self.n))
        viol = self.scaled_components.violations(pts)  # (points, active, planes)
        worst = np.max(viol, axis=2)
        phis[:, self.active] = worst >= self.profile.outer
        row, comp = np.nonzero((worst > 0.0) & (worst < self.profile.outer))
        if len(row):
            delta = pts[row] - self.scaled_components.nearest(pts[row], comp, viol[row, comp])
            d = _norm(delta)
            away = ~(d < 1e-14)
            row, col, delta, d = row[away], self.active[comp[away]], delta[away], d[away]
            val, dval = cutoff(d, self.profile)
            phis[row, col] = val
            grads[row, col] = (dval / d)[:, None] * delta
        lead = u.shape[:-1]
        return phis.reshape(lead + (m,)), grads.reshape(lead + (m, self.n))

    # -- scaled evaluation core ----------------------------------------

    def eval_scaled(self, u, theta):
        """Everything at z = exp(u + i theta) at the family's s, e^{mstar} factored out.

        Returns (mstar, value_hat, del_hat, delbar_hat) for u, theta of shape
        (..., n); the covector hats have shape (..., n).  The true value is
        e^{mstar} value_hat and the true covector components in the unit frame
        (z_j df/dz_j and conj(z_j) dbar f/dzbar_j) are e^{mstar} times the
        hats.  Norms in the invariant metric are plain 2-norms of the hats
        (times e^{mstar}).

        This is _combine after _terms: the part that depends on the point
        alone, then the part that depends on s (the continuation calls them apart).
        """
        mstar, T, phis, grads = self._terms(u, theta, self.s != 0.0)
        return (mstar,) + self._combine(T, phis, grads, self.s)

    def _terms(self, u, theta, cutoffs: bool):
        """(mstar, T, phis, grads) at u, theta (..., n): the largest term
        log-magnitude, the terms T (..., m) with e^{mstar} factored out, and
        the cutoff states of cutoff_states(u), or None, None without cutoffs."""
        u = np.asarray(u, dtype=float)
        theta = np.asarray(theta, dtype=float)
        m = np.matmul(self.exponents, u[..., None])[..., 0] - self.nu_log
        mstar = np.max(m, axis=-1)
        mag = np.exp(m - mstar[..., None])
        phase = np.exp(1j * np.matmul(self.exponents, theta[..., None])[..., 0])
        phis, grads = self.cutoff_states(u) if cutoffs else (None, None)
        return mstar, self.coefficients * mag * phase, phis, grads

    def _combine(self, T, phis, grads, s: float):
        """(value_hat, del_hat, delbar_hat) of eval_scaled at s from the
        output of _terms; at s = 0 the cutoff states are not read."""
        if s == 0.0:  # no cutoff: the holomorphic value and gradient
            del_hat = (T[..., None, :] * self.exponents.T).sum(axis=-1)
            return T.sum(axis=-1), del_hat, np.zeros(del_hat.shape, dtype=complex)
        TB = T * (1.0 - s * phis)
        # one dot product per point and coordinate: T @ (column j of grads)
        cut = 0.5 * s * np.matmul(T[..., None, None, :],
                                  np.swapaxes(grads, -1, -2)[..., None])[..., 0, 0]
        del_hat = (TB[..., None, :] * self.exponents.T).sum(axis=-1) - cut
        return TB.sum(axis=-1), del_hat, -cut


def _log_coords(z):
    """(Log|z|, arg z) of complex coordinates, with the C library's rounding."""
    z = np.asarray(z, dtype=complex)
    return _libm(math.log, np.hypot(z.real, z.imag)), _libm(math.atan2, z.imag, z.real)


# ---------------------------------------------------------------------------
# lopsidedness
# ---------------------------------------------------------------------------

def lopsided_certificate(F: PatchworkFamily, u) -> np.ndarray:
    """Index of the dominant term at each point of u (..., n), if it survives
    the worst cutoff state, else -1; shape (...).

    Certifies u outside the amoeba for every s in [0,1]: the candidate term
    enters with its smallest possible coefficient 1 - phi_a(u) while every
    other term is given its largest (1).  F.height.points[i] is the exponent
    of index i.  Every row is computed exactly as it would be alone.
    """
    u = np.asarray(u, dtype=float)
    m = np.matmul(F.exponents, u[..., None])[..., 0] - F.nu_log
    mags = np.abs(F.coefficients) * np.exp(m - np.max(m, axis=-1, keepdims=True))
    phis, _ = F.cutoff_states(u)
    total = mags.sum(axis=-1)
    i = np.argmax(mags, axis=-1)[..., None]  # only the largest magnitude can dominate
    top = np.take_along_axis(mags, i, axis=-1)[..., 0]
    lhs = (1.0 - np.take_along_axis(phis, i, axis=-1)[..., 0]) * top
    # the slack keeps the strict inequality honest under roundoff: points the
    # sampler accepts have scaled residual below 1e-10, so a certificate
    # demanding a relative margin of 1e-9 can never fire on one of them
    return np.where(lhs > (total - top) + 1e-9 * total, i[..., 0], -1)[()]


# ---------------------------------------------------------------------------
# fiber solving (n = 2)
# ---------------------------------------------------------------------------

def _fiber_coefficients(F: PatchworkFamily, radii, thetas) -> np.ndarray:
    """Coefficients (low to high in the free variable, zero-padded on top) of
    the cleared s = 0 fiber polynomials over z_axis = exp(u + i theta), with
    each fiber's largest term magnitude factored out.

    radii (2, n_r) holds the fixed log-radii u of each axis and thetas (n_th,)
    the fixed arguments; the rows come in grid order (axis, u, theta).  The
    magnitudes depend on (axis, u) alone and the phases on (axis, theta), so
    each is computed once per row of its grid and spread over the fibers; every
    fiber's terms get the same scalar operations as when computed alone."""
    fixed = F.exponents.T[:, None, :]  # (axis, 1, terms)
    free = np.array(F.height.points).T[::-1]  # free exponents of each axis' fibers
    free = free - free.min(axis=1, keepdims=True)
    logmag = fixed * radii[..., None] - F.nu_log  # (axis, radius, terms)
    mag = _libm(math.exp, logmag - logmag.max(axis=2, keepdims=True))
    phase = np.exp(1j * fixed * thetas[:, None])  # (axis, theta, terms)
    terms = _cmul((F.coefficients * mag)[:, :, None], phase[:, None])
    terms = terms.reshape(-1, terms.shape[-1])  # one row per fiber
    free = np.repeat(free, len(terms) // 2, axis=0)
    coeffs = np.zeros((len(terms), free.max(initial=0) + 1), dtype=complex)
    np.add.at(coeffs, (np.arange(len(terms))[:, None], free), terms)
    return coeffs


def _fiber_roots(coeffs: np.ndarray):
    """(fiber, roots) in (fiber, root) order, and the degenerate-fiber mask.

    Dead leading terms (|c| < 1e-300) are stripped; degree 0 is degenerate.
    Per effective degree: closed forms for 1 and 2 (stable quadratic), else
    the companion eigenvalues np.roots would compute.  A root that overflows
    is non-finite and counted by the sampler, so it is not warned about.
    """
    alive = ~(np.hypot(coeffs.real, coeffs.imag) < 1e-300)
    top = coeffs.shape[1] - 1 - np.argmax(alive[:, ::-1], axis=1)
    deg = np.where(alive.any(axis=1), top, 0)
    fibers, roots = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for d in np.unique(deg[deg > 0]):
            rows = np.flatnonzero(deg == d)
            c = coeffs[rows, : d + 1]
            if d == 1:
                r = (-c[:, 0] / c[:, 1])[:, None]
            elif d == 2:
                c0, c1, c2 = c.T
                disc = np.sqrt(_cmul(c1, c1) - _cmul(4.0 * c2, c0))
                disc = np.where(_cmul(c1.conj(), disc).real < 0.0, -disc, disc)
                q = -0.5 * (c1 + disc)
                r = np.stack([q / c2, np.where(q != 0, c0 / q, 0)], axis=1)
            else:
                r = np.zeros((len(rows), d), dtype=complex)
                low = np.argmax(c != 0, axis=1)  # exact zero roots come last
                for k in np.unique(low[low < d]):
                    sub = np.flatnonzero(low == k)
                    p = c[sub, k:][:, ::-1]  # high to low, nonzero at both ends
                    A = np.zeros((len(sub), d - k, d - k), dtype=complex)
                    A[:, 1:, :-1] = np.eye(d - k - 1)
                    A[:, 0, :] = -p[:, 1:] / p[:, :1]
                    r[sub, : d - k] = np.linalg.eigvals(A)
            fibers.append(np.repeat(rows, d))
            roots.append(r.ravel())
    fiber = np.concatenate(fibers)
    order = np.argsort(fiber, kind="stable")
    return fiber[order], np.concatenate(roots)[order], deg == 0


def _rows(state, rows) -> tuple:
    """The given rows of every array of a _terms state (None stays None)."""
    return tuple(None if a is None else a[rows] for a in state)


def _solve_finite(J, rhs):
    """(solvable, w): the mask of the systems J w = rhs (stacks (N, 2, 2) and
    (N, 2, 1)) that are finite and nonsingular, and their solutions (S, 2).

    One solve serves the whole stack when every system is finite and none is
    singular; a singular one makes np.linalg.solve raise, and only then are
    the singular rows among the finite ones found, by slogdet: the singular
    systems are exactly those np.linalg.solve rejects.  Each row is solved
    as it would be alone.
    """
    solvable = np.isfinite(J).all(axis=(1, 2))
    if solvable.all():
        try:
            return solvable, np.linalg.solve(J, rhs)[..., 0]
        except np.linalg.LinAlgError:
            pass
    solvable[solvable] = np.linalg.slogdet(J[solvable])[0] != 0
    return solvable, np.linalg.solve(J[solvable], rhs[solvable])[..., 0]


def _newton_continuation(F: PatchworkFamily, free, u, theta, z):
    """Carry each root z (one per row) from s = 0 to F.s: 16 equal s-steps
    if F.s > 0, then a refine at F.s, each at most 12 masked Newton steps.

    u and theta rows hold each fiber's fixed coordinate; the free one (index
    `free`) is set in place from the row's last iterate.  A row passes a stage
    at scaled |f| < 1e-12, or < 1e-10 after 12 steps, and fails on a zero or
    non-finite iterate or a singular system.  The step dz = |z| w solves
    dF/e^{mstar} = a w + b conj(w), a = del_hat e^{-i theta}, b = delbar_hat
    e^{i theta} (free components).

    Only a row whose z has moved since its last evaluation is evaluated
    afresh (F._terms: log coordinates, terms and cutoff states, none of which
    depend on s); every live row is then combined at the stage's s
    (F._combine), so a row that passed one stage starts the next without
    being recomputed.  A stage ends when no row is live.  Returns the mask of
    rows that made it, mstar at the final u, theta and the last combine at
    F.s of each row that made it, (value_hat, del_hat, delbar_hat): a row
    passes a stage only on a combine of its final state, so this is
    eval_scaled there.
    """
    N, m, cutoffs = len(z), len(F.coefficients), F.s > 0.0
    ok, moved = np.ones(N, dtype=bool), np.ones(N, dtype=bool)
    state = (np.zeros(N), np.zeros((N, m), dtype=complex),
             np.zeros((N, m)) if cutoffs else None,
             np.zeros((N, m, F.n)) if cutoffs else None)
    passed = []  # (rows, value_hat, del_hat, delbar_hat) passing the final stage
    stages = [float(s) for s in np.linspace(0.0, F.s, 17)[1:]] if cutoffs else []
    for stage, s in enumerate(stages + [F.s]):
        live = np.flatnonzero(ok)
        for it in range(13):
            bad = ~np.isfinite(z[live]) | (z[live] == 0)
            ok[live[bad]] = False
            live = live[~bad]
            if not len(live):
                break
            fresh = live[moved[live]]
            if len(fresh):
                u[fresh, free[fresh]], theta[fresh, free[fresh]] = _log_coords(z[fresh])
                for a, new in zip(state, F._terms(u[fresh], theta[fresh], cutoffs)):
                    if a is not None:
                        a[fresh] = new
                moved[fresh] = False
            val, dh, dbh = F._combine(*_rows(state[1:], live), s)
            res = np.hypot(val.real, val.imag)
            step = ~(res < 1e-12) if it < 12 else ~(res < 1e-10)
            if stage == len(stages):
                passed.append((live[~step], val[~step], dh[~step], dbh[~step]))
            if it == 12:  # out of steps: the looser tolerance decides
                ok[live[step]] = False
                break
            live, val, dh, dbh = live[step], val[step], dh[step], dbh[step]
            k, f = np.arange(len(live)), free[live]
            ph = np.exp(1j * theta[live, f])
            a = dh[k, f] / ph
            b = _cmul(dbh[k, f], ph)
            apb, amb = a + b, a - b
            J, rhs = np.empty((len(live), 2, 2)), np.empty((len(live), 2, 1))
            J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1] = apb.real, -amb.imag, apb.imag, amb.real
            rhs[:, 0, 0], rhs[:, 1, 0] = -val.real, -val.imag
            solvable, w = _solve_finite(J, rhs)
            ok[live[~solvable]] = False
            live = live[solvable]
            dz = np.empty(len(live), dtype=complex)
            dz.real, dz.imag = w[:, 0], w[:, 1]
            with np.errstate(over="ignore", invalid="ignore"):  # caught by the next check
                z[live] = z[live] + np.hypot(z[live].real, z[live].imag) * dz
            moved[live] = True
    # filled after the loop, so that they do not add to the combines' peak
    final = (np.zeros(N, dtype=complex), np.zeros((N, F.n), dtype=complex),
             np.zeros((N, F.n), dtype=complex))
    for rows, *values in passed:
        for a, v in zip(final, values):
            a[rows] = v
    return ok, state[0], final


@dataclass
class SampleResult:
    """The emitted points of amoeba_sample_curve, with what its final
    evaluation at each of them found."""

    points: np.ndarray       # (N, 2) Log-coordinates u of emitted points
    angles: np.ndarray       # (N, 2) arguments theta of the same points
    residuals: np.ndarray    # absolute |f| at each point, below 1e-8
    margins: np.ndarray      # symplectic_margin(F, (points, angles)), bit for bit
    degenerate_fibers: int
    dropped: dict            # roots dropped, by reason (see amoeba_sample_curve)


def amoeba_sample_curve(F: PatchworkFamily, arg_grid: int, radius_grid) -> SampleResult:
    """Point cloud of Log f^{-1}(0) over log-radius x argument grids.

    radius_grid is ((u1_lo, u1_hi, u2_lo, u2_hi), count).  Both coordinates
    are swept in turn: a wall of the amoeba whose dual edge is parallel to a
    coordinate axis is exponentially thin in that coordinate's fibers (it
    needs the other argument pinned within e^{-O(log t)}), but has full
    angular width in the transverse sweep, so the union of the two sweeps
    covers every wall at grid resolution.

    Three array passes over all fibers: one scatter builds the cleared s = 0
    polynomials from term magnitudes per grid radius and phases per grid
    argument, roots are solved per effective degree, and one masked Newton
    continuation carries them to s = F.s; points come out in grid order
    (axis, u, theta, root).  The roots are solved in raw coordinates of
    the free variable, so at large log t fibers underflow (degenerate_fibers)
    and roots are lost.  Each lost root is counted in `dropped` by its first
    reason: `non_finite` (solver gave 0 or non-finite), `newton`
    (continuation failed), `window` (outside the window), `residual` (final
    |f| non-finite or not below 1e-8, the precondition of symplectic_margin;
    |f| = e^{mstar} |f_hat| is taken as infinite where e^{mstar} overflows).
    The final |f| and the margins come from the continuation's last combine
    at F.s, not from another evaluation: each kept point's residual and
    margin are those symplectic_margin computes at it.
    """
    if F.n != 2:
        raise ValueError("fiber sampling is implemented for n = 2")
    box, n_r = radius_grid
    windows = np.array(box, dtype=float).reshape(2, 2)
    thetas = 2.0 * math.pi * np.arange(int(arg_grid)) / max(int(arg_grid), 1)
    n_r, n_th = int(n_r), len(thetas)
    radii = np.array([np.linspace(*w, n_r) for w in windows])
    fiber, z, degenerate = _fiber_roots(_fiber_coefficients(F, radii, thetas))
    found = np.isfinite(z) & (z != 0)
    fiber, z = fiber[found], z[found]
    k, axis = np.arange(len(z)), fiber // (n_r * n_th)  # fibers in (axis, u, theta) order
    u, theta = np.zeros((len(z), 2)), np.zeros((len(z), 2))
    u[k, axis], theta[k, axis] = radii.ravel()[fiber // n_th], thetas[fiber % n_th]
    ok, mstar, final = _newton_continuation(F, 1 - axis, u, theta, z)
    uf = u[k, 1 - axis]
    inside = ok & (windows[1 - axis, 0] <= uf) & (uf <= windows[1 - axis, 1])
    residuals, good, margins = _on_zero_locus(*_rows((mstar,) + final, inside))
    dropped = {reason: int(np.count_nonzero(mask)) for reason, mask in (
        ("non_finite", ~found), ("newton", ~ok), ("window", ok & ~inside), ("residual", ~good))}
    return SampleResult(u[inside][good], theta[inside][good], residuals[good], margins,
                        int(np.count_nonzero(degenerate)), dropped)


# ---------------------------------------------------------------------------
# the symplecticity margin
# ---------------------------------------------------------------------------

def symplectic_margin(F: PatchworkFamily, witnesses):
    """|df|_g - |dbar f|_g at zero-locus witnesses (u, theta): real arrays
    (..., n) of Log|z| and arg z, as the sampler reports its points
    (SampleResult.points, .angles); complex coordinates raise TypeError.
    |f| < 1e-8 is enforced at every witness (NotOnZeroLocus).  The sampler
    computes the same margins from its final evaluation (.margins); this
    function serves arbitrary witnesses and is the tests' oracle for them.
    """
    u, theta = (np.asarray(w).astype(float, casting="same_kind") for w in witnesses)
    mstar, val, dh, dbh = F.eval_scaled(u, theta)
    residual, good, margins = _on_zero_locus(mstar, val, dh, dbh)
    off = residual[~good]
    if len(off):
        raise NotOnZeroLocus(f"residual {float(off[0])!r} exceeds 1e-8")
    return margins.reshape(np.shape(mstar))[()]


def _on_zero_locus(mstar, val, dh, dbh):
    """The residual gate and the margins of one evaluation (scaled values
    val, dh, dbh at points of scale exponent mstar, as eval_scaled gives
    them): the absolute residual |f| = e^{mstar} |f_hat| at each point, the
    mask of the points where it is below 1e-8, and the margins
    e^{mstar} (|d_hat f| - |dbar_hat f|) at those points, flattened in
    mask order.  Where e^{mstar} overflows, |f| is infinite or nan and the
    point fails the gate."""
    scale = _exp(mstar)
    with np.errstate(invalid="ignore"):  # e^{mstar} = inf times 0 is non-finite: refused
        residuals = scale * np.hypot(val.real, val.imag)
        good = residuals < 1e-8
    return residuals, good, scale[good] * (_norm(dh[good]) - _norm(dbh[good]))


# ---------------------------------------------------------------------------
# exponential decay of non-dominant terms
# ---------------------------------------------------------------------------

def exponential_decay_check(F: PatchworkFamily, samples: int) -> dict:
    """Sampled verification of the off-component decay bound.

    For p in C_{beta,t} and every alpha with phi_alpha(p) != 0, checks
    |t^{-nu(a)} z^a| / |t^{-nu(b)} z^b| < exp(-c eps log t |a-b|_2), with c
    the exact separation constant c_est of F's complex; the sample points
    are drawn from a fixed seed (0).
    Points where phi_alpha(p) = 0 are vacuous and skipped.
    """
    c = tropical_constants(F.complex).c_est
    rng = np.random.default_rng(0)
    verts = [np.array([float(x) for x in v]) for v, _ in F.complex.vertices()]
    center = np.mean(verts, axis=0) if verts else np.zeros(F.n)
    radius = max((float(np.linalg.norm(v - center)) for v in verts), default=1.0)
    halfwidth = (radius + 1.0) * 2.0 * F.L
    exps = F.exponents
    u = center * F.L + rng.uniform(-halfwidth, halfwidth, size=(samples, F.n))
    m = np.matmul(exps, u[..., None])[..., 0] - F.nu_log
    beta = np.argmax(m, axis=1)
    phis, _ = F.cutoff_states(u)
    # bound[alpha, beta] = -c eps log t |alpha - beta|_2
    bound = -c * F.eps * F.L * _norm(exps[:, None, :] - exps[None, :, :])
    other = np.arange(len(exps)) != beta[:, None]
    checked = other & ~(phis == 0.0)
    gap = m - np.take_along_axis(m, beta[:, None], axis=1)
    return {
        "samples": samples,
        "checked": int(np.count_nonzero(checked)),
        "violations": int(np.count_nonzero(checked & (gap >= bound[:, beta].T))),
        "skipped_zero_cutoff": int(np.count_nonzero(other & (phis == 0.0))),
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
    fan out from the origin on a uniform angle grid.  Every ray is evaluated
    at once on one grid of radii, cut at its first sign change, and then
    bisected, all rays together.  Rays with no crossing are reported in
    `missed`; if every ray misses, NoCrossing is raised.
    """
    if F.n != 2:
        raise ValueError("boundary scan is implemented for n = 2")
    if np.max(np.abs(F.coefficients.imag)) > 0:
        raise ValueError("boundary scan needs a real-coefficient family")

    def g(r, w):  # radii (rays, k) along directions (rays, 2)
        u = r[..., None] * w[:, None, :]
        return F.eval_scaled(u, np.zeros(u.shape))[1].real

    verts = [np.array([float(x) for x in v]) for v, _ in F.complex.vertices()]
    reach = max((float(np.linalg.norm(v)) for v in verts), default=1.0)
    r_max = (reach + 3.0 * F.eps) * F.L + 5.0
    step = max(F.L, 1.0) * 0.02
    radii = np.cumsum(np.full(int(r_max / step) + 2, step))  # step, step + step, ...
    radii = np.concatenate([[0.0], radii[radii <= r_max]])
    psi = 2.0 * math.pi * np.arange(samples) / samples
    w = np.stack([_libm(math.cos, psi), _libm(math.sin, psi)], axis=1)
    G = g(np.broadcast_to(radii, (samples, len(radii))), w)
    cross = (G[:, 1:] == 0.0) | ((G[:, 1:] > 0) != (G[:, :-1] > 0))
    hit = np.flatnonzero(cross.any(axis=1))
    if not len(hit):
        raise NoCrossing("no ray of the boundary scan found a sign change")
    k = np.argmax(cross[hit], axis=1)
    lo, hi, w = radii[k], radii[k + 1], w[hit]
    positive = G[hit, k] > 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = (g(mid[:, None], w)[:, 0] > 0) == positive
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    missed = np.setdiff1d(np.arange(samples), hit)
    return BoundarySample((0.5 * (lo + hi))[:, None] * w, tuple(int(i) for i in missed))
