"""The algebraic side: homogeneous coordinate rings from lattice polytopes,
Hilbert functions, and the verifier of the generator-map isomorphism.

The ring basis in degree j is the dilate-and-count enumeration jQ cap Z^n;
the Floer side uses the refine-and-count picture Q cap (1/j)Z^n.  Both run
`_lattice_columns` on the same integer limits floor(j b) over the same
ranges, so they give the same numerator tuples: the degree half of the
isomorphism check, and the Serre check's refine = dilate, check the
scaling j*b of Q's bounds, not a second count (no count independent of the
sweep is in the package).  Both sides reach the check as integer tuples,
with no `Fraction` in between: the ring bases are the integer points of
jQ, and the image j*p of a Floer generator p is its numerator at the
refinement j.  The product check reads the algebra's int64 tables
directly: one gather and one broadcast sum of integer image points per
(j, k) slice.  The Hilbert function and the interior counts live in
`lattice`, where they sum the sweep's column lengths and build no point,
so that the `hilbert` command runs without this module; both are
imported back here, and the counting polynomial is fitted to the first.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Sequence

import numpy as np

from .floer import GradedAlgebra, serre_dual_dimension
from .lattice import (  # noqa: F401  (interior_counts is re-exported)
    Polytope,
    _lattice_count,
    _lattice_numerators,
    hilbert_function,
    interior_counts,
    solve_square,
)

log = logging.getLogger(__name__)


class NonLatticePolytope(UserWarning):
    """Q has a non-integral vertex; the ring is still built from dilate counts."""


# ---------------------------------------------------------------------------
# the section ring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionRing:
    polytope: Polytope
    J: int
    bases: tuple  # bases[j] = integer points of jQ, in lexicographic order

    def dimension(self, j: int) -> int:
        return len(self.bases[j])

    def product(self, j: int, m: Sequence, k: int, mp: Sequence):
        """(j,m)*(k,mp) = (j+k, m+mp); None (flagged) above the truncation."""
        tgt = j + k
        s = tuple(a + b for a, b in zip(m, mp))
        if tgt > self.J:
            log.info("ring product truncated: degree %d exceeds J=%d", tgt, self.J)
            return None
        # lattice-point sums stay inside the dilate by convexity
        if s not in self.bases[tgt]:
            raise ValueError(f"product {s} left the dilated polytope {tgt}Q")
        return tgt, s


def section_ring(Q: Polytope, J: int) -> SectionRing:
    if J < 0:
        raise ValueError("truncation degree must be nonnegative")
    if not _is_lattice(Q):
        warnings.warn(
            "polytope has non-integral vertices; ring built from dilate counts",
            NonLatticePolytope,
            stacklevel=2,
        )
    bases = [((0,) * Q.n,)]
    for j in range(1, J + 1):
        bases.append(tuple(_lattice_numerators(Q.dilate(j), 1, strict=False)))
    return SectionRing(Q, J, tuple(bases))


def _is_lattice(Q: Polytope) -> bool:
    return all(x.denominator == 1 for v in Q.vertices for x in v)


def ehrhart_polynomial(Q: Polytope) -> tuple[Fraction, ...]:
    """Coefficients (c0..cn) of the degree-n counting polynomial, fitted
    exactly from the n+1 values at j = 0..n.  ValueError for a Q with a
    non-integral vertex, whose counts are a quasi-polynomial (Beck & Robins,
    Computing the Continuous Discretely, ch. 3) that no fit reproduces."""
    if not _is_lattice(Q):
        raise ValueError("Q has a non-integral vertex: its counts are a quasi-polynomial")
    n = Q.n
    values = hilbert_function(Q, n)
    rows = [[Fraction(j) ** e for e in range(n + 1)] for j in range(n + 1)]
    # a Vandermonde matrix at distinct nodes is never singular
    return solve_square(rows, [Fraction(v) for v in values])


def eval_poly(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(coeffs)):
        acc = acc * Fraction(x) + c
    return acc


# ---------------------------------------------------------------------------
# the isomorphism verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsomorphismReport:
    degrees_ok: tuple
    products_checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return all(self.degrees_ok) and not self.mismatches

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "degrees_ok": list(self.degrees_ok),
            "products_checked": self.products_checked,
            "mismatches": [dict(m) for m in self.mismatches],
        }


def verify_isomorphism(alg: GradedAlgebra, ring: SectionRing) -> IsomorphismReport:
    """Check that the generator map is a graded ring isomorphism.

    Degree check: the map p -> j*p must biject each Floer basis onto the
    ring basis; the image of a piece-j generator is its numerator at the
    refinement j, which is exactly j*p.  Product check: for every tabulated
    product, the image of the target equals the lattice-point sum of the
    images, decided for a whole (j, k) table at once by one gather and one
    broadcast sum over int64 image arrays.  Mismatches come in row-major (p, q) order within
    each table.  Exact; failures are collected, never raised.
    """
    if alg.J != ring.J:
        raise ValueError("algebra and ring were truncated at different degrees")
    points = [piece.numerators for piece in alg.pieces]
    degrees_ok = [sorted(img) == list(base) and len(set(img)) == len(img)
                  for img, base in zip(points, ring.bases)]
    # images[j] holds points[j] minus j*v0 as int64 rows: small however far Q sits
    v0 = [floor(lo) for lo, _ in alg.polytope.bounding_box()]
    images = [np.array([[x - j * v for x, v in zip(m, v0)] for m in img], dtype=np.int64)
              .reshape(-1, len(v0)) for j, img in enumerate(points)]

    products_checked = 0
    mismatches = []
    for (j, k), table in sorted(alg.products.items()):
        products_checked += table.size
        moved = images[j + k][table] != images[j][:, None] + images[k][None]
        for pi, qi in np.argwhere(moved.any(axis=-1)).tolist():
            mismatches.append((
                ("degrees", (j, k)),
                ("p_index", pi),
                ("q_index", qi),
                ("expected", tuple(a + b for a, b in zip(points[j][pi], points[k][qi]))),
                ("got", points[j + k][table[pi, qi]]),
            ))
    return IsomorphismReport(tuple(degrees_ok), products_checked, tuple(mismatches))


# ---------------------------------------------------------------------------
# Serre / reciprocity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SerreReport:
    rows: tuple
    ok: bool
    note: str

    def to_json(self) -> dict:
        return {"verdict": "pass" if self.ok else "fail",
                "rows": [dict(r) for r in self.rows],
                "note": self.note}


def serre_check(Q: Polytope, j_max: int) -> SerreReport:
    """Three routes to the dual dimensions must agree for 1 <= j <= j_max:
    the refine-path count behind the negative-twist groups, the
    dilate-path interior enumeration, and reciprocity (-1)^n L(-j) for the
    fitted counting polynomial.  A Q with a non-integral vertex counts by a
    quasi-polynomial, which no fit predicts: the first two routes decide."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    coeffs = ehrhart_polynomial(Q) if _is_lattice(Q) else None
    rows = []
    for j in range(1, j_max + 1):
        refine = serre_dual_dimension(Q, -j)
        dilate = _lattice_count(Q.dilate(j), 1, strict=True)
        recip = None if coeffs is None else eval_poly(coeffs, -j) * (-1) ** Q.n
        recip_int = int(recip) if recip is not None and recip.denominator == 1 else None
        rows.append((("j", j), ("refine", refine), ("dilate", dilate), ("reciprocity", recip_int),
                     ("ok", refine == dilate and (recip is None or dilate == recip))))
    note = ("dual products beyond the pairing configuration are realized by "
            "transposition of the positive tables and are not independently "
            "cross-checked here; such queries are flagged in logs")
    if coeffs is None:
        note = ("Q has a non-integral vertex, so its counts are a quasi-polynomial: "
                "reciprocity is null and refine = dilate decides; " + note)
    return SerreReport(tuple(rows), all(dict(r)["ok"] for r in rows), note)
