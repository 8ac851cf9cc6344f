"""Combinatorial Floer theory of twisted sections over a moment polytope.

Generators are refined lattice points of Q (boundary included exactly when
l1 < l2), triangles are decided by an ordering gate plus an exact membership
rule for the affine target point, and the graded algebra of a polytope is
assembled with all structure constants 0 or 1.  Nothing here is ever
rounded.  Each group carries its generators twice: as `Fraction` points, on
which `triangle_target`, `triangle_exists` and `cup_product` work, and as
their integer numerators at the group's refinement, read off the lattice
sweep.  `assemble_algebra` tabulates the ladder products and audits their
associativity from the numerators alone, in exact int64 arithmetic on
scaled generators j*(p - v0), with a bound check that raises before any
value could wrap.  The algebra keeps each product table as the kernel's
int64 array, one (dim j, dim k) array of target indices per twist pair
(j, k).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Sequence

import numpy as np

from .lattice import (
    Polytope,
    _FractionCache,
    _lattice_numerators,
    frac_str,
    interior_lattice_points,
    vec,
)

log = logging.getLogger(__name__)


class DegenerateTriple(ValueError):
    """Triangle data with l1 = l3 has no affine target."""


class AssociativityViolation(RuntimeError):
    """Exhaustive associativity audit failed; indicates an implementation bug."""


# ---------------------------------------------------------------------------
# sections and generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistedSection:
    """The section with covector field u -> -2*pi*j*u, kept symbolic."""

    twist: int

    def covector_field(self) -> str:
        return f"u -> -2*pi*{self.twist}*u"

    def twisted(self, k: int) -> "TwistedSection":
        return TwistedSection(self.twist + k)

    @property
    def is_zero_section(self) -> bool:
        return self.twist == 0


@dataclass(frozen=True)
class FloerGenerator:
    l1: int
    l2: int
    point: tuple[Fraction, ...]
    homological_degree: int

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def cohomological_degree(self) -> int:
        return self.n - self.homological_degree


@dataclass(frozen=True)
class FloerGroup:
    l1: int
    l2: int
    polytope: Polytope
    basis: tuple[FloerGenerator, ...]
    # numerators[i] = |l2 - l1| * basis[i].point as an int tuple (the zero
    # vector when l1 = l2): the generators the integer kernels read
    numerators: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def floer_group(Q: Polytope, l1: int, l2: int) -> FloerGroup:
    """Generators between the twisted sections L(l1), L(l2).

    l1 < l2: all points of Q cap (1/(l2-l1))Z^n, boundary included, in
    homological degree n.  l1 > l2: strictly interior points of the
    (1/(l1-l2))-lattice, degree 0.  l1 = l2: the single canonical generator,
    degree n.
    """
    n = Q.n
    zero = (0,) * n
    if Q.degenerate or Q.dim < n or not Q.contains_strictly(zero):
        warnings.warn(
            "polytope is not full-dimensional with the origin interior; "
            "twisted-section geometry degenerates",
            stacklevel=2,
        )
    d = abs(l2 - l1) or 1
    if l1 == l2:
        nums = (zero,)
    else:
        nums = tuple(_lattice_numerators(Q, d, strict=l1 > l2))
    hom = 0 if l1 > l2 else n
    frac = _FractionCache(d)
    basis = tuple(FloerGenerator(l1, l2, tuple(frac[k] for k in p), hom) for p in nums)
    return FloerGroup(l1, l2, Q, basis, nums)


# ---------------------------------------------------------------------------
# triangles and the cup product
# ---------------------------------------------------------------------------

def triangle_target(l1: int, l2: int, l3: int, p: Sequence, q: Sequence):
    """r = ((l2-l1)p + (l3-l2)q) / (l3-l1), exactly."""
    if l1 == l3:
        raise DegenerateTriple(f"l1 = l3 = {l1} leaves no affine target")
    pp, qq = vec(p), vec(q)
    a, b = Fraction(l2 - l1), Fraction(l3 - l2)
    return tuple((a * x + b * y) / (l3 - l1) for x, y in zip(pp, qq))


def _ordering_admits_triangle(l1: int, l2: int, l3: int) -> bool:
    return (l1 < l2 and (l3 < l1 < l2 or l1 < l2 < l3)) or (l2 < l1 and l2 < l3 < l1)


def _in_generator_set(Q: Polytope, l1: int, l3: int, r) -> bool:
    """Membership respecting the boundary rule of the (l1, l3) group."""
    k = abs(l3 - l1)
    if any((x * k).denominator != 1 for x in r):
        return False
    if l1 < l3:
        return Q.contains(r)
    return Q.contains_strictly(r)


def triangle_exists(l1: int, l2: int, l3: int, p, q, Q: Polytope) -> bool:
    """Ordering gate first; then the target must lie in the (l1,l3) basis set."""
    if l1 == l3:
        raise DegenerateTriple(f"l1 = l3 = {l1} leaves no affine target")
    if not _ordering_admits_triangle(l1, l2, l3):
        return False
    r = triangle_target(l1, l2, l3, p, q)
    return _in_generator_set(Q, l1, l3, r)


def _flag_boundary_unit(Q: Polytope, l1: int, l2: int, l3: int, point) -> None:
    if Q.contains(point) and not Q.contains_strictly(point):
        log.info(
            "unit product with repeated twists (%d,%d,%d) at boundary point %s; "
            "resolved by the boundary membership rule",
            l1, l2, l3, tuple(str(x) for x in point),
        )


def cup_product(x: FloerGenerator, y: FloerGenerator, Q: Polytope):
    """Product of composable generators; None encodes the zero element.

    Distinct twists: the generator at the triangle target when the triangle
    exists.  A repeated twist on either side is the identity action of the
    canonical generator.  All coefficients are +1 in this basis.
    """
    if x.l2 != y.l1:
        raise ValueError(f"generators not composable: {x.l2} vs {y.l1}")
    l1, l2, l3 = x.l1, x.l2, y.l2
    if l1 == l2:
        _flag_boundary_unit(Q, l1, l2, l3, y.point)
        return y
    if l2 == l3:
        _flag_boundary_unit(Q, l1, l2, l3, x.point)
        return x
    if l1 == l3:
        return None  # the ordering gate can never admit a cyclic triple
    if not triangle_exists(l1, l2, l3, x.point, y.point, Q):
        return None
    r = triangle_target(l1, l2, l3, x.point, y.point)
    hom = x.n if l1 < l3 else 0
    return FloerGenerator(l1, l3, r, hom)


# ---------------------------------------------------------------------------
# the graded algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedAlgebra:
    polytope: Polytope
    J: int
    pieces: tuple[FloerGroup, ...]  # index j = twist, 0..J
    # products[(j, k)][p_idx, q_idx] = r_idx in piece j+k, an int64 array
    # of shape (dim j, dim k)
    products: dict

    def dimension(self, j: int) -> int:
        return self.pieces[j].dimension

    def json_tables(self) -> dict:
        out = {}
        for (j, k), table in sorted(self.products.items()):
            out[f"{j},{k}"] = [
                [p, q, r] for p, row in enumerate(table.tolist()) for q, r in enumerate(row)
            ]
        return out

    def json_basis(self) -> dict:
        return {
            str(j): [[frac_str(x) for x in g.point] for g in piece.basis]
            for j, piece in enumerate(self.pieces)
        }


def assemble_algebra(Q: Polytope, J: int) -> GradedAlgebra:
    """Pieces HF0(L, L(j)) for 0 <= j <= J with all ladder products.

    Every product (0,j,j+k) with j+k <= J is tabulated by the integer kernel
    `_ladder_tables`, which applies the same ordering gate and boundary
    membership rule as `cup_product` to whole slices of scaled generators;
    associativity of the resulting tables is verified exhaustively before
    the algebra is returned.
    """
    if J < 1:
        raise ValueError("need at least one positive twist")
    pieces = tuple(floer_group(Q, 0, j) for j in range(J + 1))
    tables = _ladder_tables(Q, pieces, J)
    _audit_associativity(tables, J)
    return GradedAlgebra(Q, J, pieces, tables)


def _ladder_tables(Q: Polytope, pieces: Sequence[FloerGroup], J: int) -> dict:
    """tables[(j, k)][p_idx, q_idx] = r_idx in piece j+k, as int64 arrays.

    A generator p of piece j >= 1 is carried as the integer vector
    x = j*(p - v0), its numerator j*p minus j*v0, v0 the integer floor of
    the lower corner of Q's bounding box, so every x is nonnegative and
    small however far Q sits from the origin.  The triangle (0, j, j+k) has
    target r = (j p + k q)/(j+k), whose scaled form is x + y: membership of
    r in Q is one integer halfspace test against floor((j+k) b) for the
    bounds b of Q - v0, and its index is one gather into a dense grid of
    piece j+k holding -1 where no generator sits.
    A repeated twist (j = 0 or k = 0) is the identity action.
    """
    n = Q.n
    v0 = tuple(floor(lo) for lo, _ in Q.bounding_box())
    shifted = Q.translate(tuple(-v for v in v0))
    extent = [ceil(hi) for _, hi in shifted.bounding_box()]
    reach = max(
        [J * sum(abs(c) * e for c, e in zip(a, extent)) for a, _ in shifted.halfspaces]
        + [J * abs(b) + 1 for _, b in shifted.halfspaces]
    )
    if reach >= 2**63:  # every value formed below stays under reach, so int64 never wraps
        raise OverflowError(
            f"integer Floer kernel needs values up to {reach}, past the int64 range"
        )
    normals = np.array([a for a, _ in shifted.halfspaces], dtype=np.int64).reshape(-1, n)

    scaled, grids = [None], [None]  # piece 0 only enters the unit slices
    for j in range(1, J + 1):
        # subtract in Python ints: the numerators alone may not fit in int64
        x = np.array(
            [[c - j * v for c, v in zip(k, v0)] for k in pieces[j].numerators], dtype=np.int64
        ).reshape(-1, n)
        grid = np.full([j * e + 1 for e in extent], -1, dtype=np.int64)
        grid[tuple(x.T)] = np.arange(len(x))
        scaled.append(x)
        grids.append(grid)

    tables = {}
    for m in range(J + 1):
        limits = np.array([floor(m * b) for _, b in shifted.halfspaces], dtype=np.int64)
        for j in range(m + 1):
            k = m - j
            if j == 0:
                tables[(j, k)] = np.arange(pieces[k].dimension, dtype=np.int64)[None, :]
                continue
            if k == 0:
                tables[(j, k)] = np.arange(pieces[j].dimension, dtype=np.int64)[:, None]
                continue
            targets = scaled[j][:, None, :] + scaled[k][None, :, :]
            if not (_ordering_admits_triangle(0, j, m) and np.all(targets @ normals.T <= limits)):
                # impossible for generators of Q: (j*p + k*q)/(j+k) is convex
                raise RuntimeError("ladder product vanished")
            idx = grids[m][tuple(np.moveaxis(targets, -1, 0))]
            if np.any(idx < 0):
                raise RuntimeError(f"ladder product ({j},{k}) hit no generator of piece {m}")
            tables[(j, k)] = idx
    return tables


def _audit_associativity(tables: dict, J: int) -> None:
    """(x_a x_b) x_c = x_a (x_b x_c) for every composable index triple.

    One (a, b, c) slice at a time, both sides as gathers over the integer
    tables; the first failure in (a, b, c, pi, qi, zi) loop order is named.
    """
    for a in range(J + 1):
        for b in range(J + 1 - a):
            for c in range(J + 1 - a - b):
                ab, bc = tables[(a, b)], tables[(b, c)]
                ab_c, a_bc = tables[(a + b, c)], tables[(a, b + c)]
                left = ab_c[ab[:, :, None], np.arange(bc.shape[1])]
                right = a_bc[np.arange(ab.shape[0])[:, None, None], bc]
                bad = np.argwhere(left != right)
                if len(bad):
                    pi, qi, zi = bad[0].tolist()
                    raise AssociativityViolation(
                        f"associativity fails on twists ({a},{b},{c}) "
                        f"at indices ({pi},{qi},{zi})"
                    )


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def serre_dual_dimension(Q: Polytope, j: int) -> int:
    """dim HF^n(L, L(j)) for j < 0: interior points of the |j|-refinement."""
    if j >= 0:
        raise ValueError("Serre-dual dimensions are defined for negative twists")
    return len(interior_lattice_points(Q, -j))


def dual_action_table(alg: GradedAlgebra, l: int, m: int):
    """Action of the twist-l piece on the dual of the twist-m piece.

    Encoded as the transpose of the tabulated (l, m-l) product: each entry
    (p, q, r) becomes (p, r, q), read as x_p . x_r^dual = x_q^dual.  The
    duality formula is backed for m > l (the composite twist stays
    negative); m = l is the pairing itself and is flagged for audit.
    """
    if not 0 <= l <= m <= alg.J:
        raise ValueError(f"no tabulated product ({l}, {m - l}) to transpose; J = {alg.J}")
    if m == l:
        log.warning(
            "dualized product with l = m = %d is the pairing configuration, "
            "outside the verified dualization range; returning the formal transpose",
            l,
        )
    table = alg.products[(l, m - l)].tolist()
    return sorted((p, r, q) for p, row in enumerate(table) for q, r in enumerate(row))
