"""Reference implementations that the tests compare the package against.

No command needs them, so they live here and not in the package: each is
an independent, slower route to a value that the package reads another way.

- `from_halfspaces` builds {y : <a_i, y> <= b_i} by exact vertex
  enumeration over every n-subset of the rows.  The package reads the
  tropical layer's polytope, the component of the origin, off the cells of
  the subdivision (`TropicalComplex.moment_polytope`), and a fan's moment
  polytope off the cone gradients (`polytope_from_bundle`).
- `separation_squared_pairwise` is the separation constant's square by the
  pairwise search: every ordered adjacent pair (alpha, beta) and every cell
  holding both, with the extreme ray r solved for each.  The package runs
  one search per cell and point (`tropical._separation_squared`).
"""

import itertools
from fractions import Fraction

from tropmirror.lattice import (
    Polytope,
    Unbounded,
    affine_dim,
    dot,
    hull,
    nullspace,
    primitive_row,
    solve_square,
    vec,
)


def from_halfspaces(normals, bounds) -> Polytope:
    """The polytope {y : <a_i, y> <= b_i}, by exact vertex enumeration.

    Raises ValueError ("empty") if the region is empty, and else Unbounded
    if its recession cone is nontrivial.  Emptiness is decided on the region
    cut by the orthogonal complement of its lineality space L =
    nullspace(rows), that is with the rows +-l <= 0 added for a basis l of
    L.  The region is the cut region plus L, so one is empty iff the other
    is, and the cut region is pointed (its rows span R^n), so it is
    nonempty iff it has a vertex, a point where n independent rows are
    tight.  A bounded region has L = 0, and its vertices are those found.
    """
    n = len(normals[0])
    rows = [vec(a) for a in normals]
    bs = [Fraction(b) for b in bounds]
    lineality = nullspace(rows, n)
    cut = rows + [tuple(s * x for x in v) for v in lineality for s in (1, -1)]
    cut_bounds = bs + [Fraction(0)] * (2 * len(lineality))
    verts = set()
    for idx in itertools.combinations(range(len(cut)), n):
        sol = solve_square([cut[i] for i in idx], [cut_bounds[i] for i in idx])
        if sol is not None and all(dot(a, sol) <= b for a, b in zip(cut, cut_bounds)):
            verts.add(sol)
    if not verts:
        raise ValueError("halfspace intersection is empty")
    if recession_nontrivial(rows, n):
        raise Unbounded("halfspace intersection has a nontrivial recession cone")
    hs = tuple(sorted({primitive_row(a, b) for a, b in zip(rows, bs) if any(a)}))
    return Polytope(n, tuple(verts), hs, affine_dim(verts))


def recession_nontrivial(rows, n: int) -> bool:
    """Is there d != 0 with <a_i, d> <= 0 for all i?  Exact for every n.

    Such a d exists iff the origin is not interior to the hull P of the
    rows (Farkas).  If it is, eps d lies in P for a small eps > 0, and
    <eps d, d> > 0 is a convex combination of the <a_i, d>, so some row is
    positive on d.  If it is not, a hyperplane through the origin separates
    it from P, supports P there, or, for a lower-dimensional P through the
    origin, holds P; its normal on the side away from P is such a d.
    """
    return not hull(rows).contains_strictly((0,) * n)


def adjacent_pairs(cx) -> list[tuple[int, int]]:
    """Pairs (i, j) whose components share a facet of Pi, from its faces."""
    return sorted({tuple(sorted(f.dual_indices)) for f in cx.faces
                   if f.dim == cx.n - 1 and len(f.dual_indices) == 2})


def separation_squared_pairwise(cx) -> Fraction:
    """Square of min <h, r> / d(r, T(C_alpha)) over ordered adjacent pairs
    (alpha, beta), the cells S holding both, and the extreme ray r of
    T(C_beta) that loosens the alpha row to <A_alpha - A_beta, r> = -1,
    solved for each triple; 1 if no ray is met.  The squared ratio is
    1 / (|A_beta - A_alpha|^2 d^2(r, T(C_alpha)))."""
    A = cx.height.points
    n = cx.n

    def cone_rows(S, x):
        return [[A[j][k] - A[x][k] for k in range(n)] for j in S if j != x]

    best = Fraction(1)
    cells = [c.indices for c in cx.subdivision.cells]
    for i, j in adjacent_pairs(cx):
        for a, b in ((i, j), (j, i)):
            hh = sum((A[b][k] - A[a][k]) ** 2 for k in range(n))
            for S in cells:
                if a not in S or b not in S:
                    continue
                r = solve_square(cone_rows(S, b), [-int(x == a) for x in S if x != b])
                best = min(best, 1 / (hh * cone_distance_squared(r, cone_rows(S, a))))
    return best


def cone_distance_squared(r, rows) -> Fraction:
    """Squared distance from r to the cone {y : <row, y> <= 0 for each row},
    exactly: every set of active rows is tried, and the nearest feasible
    projection of r onto the orthogonal complement of its rows wins."""
    gram = [[dot(p, q) for q in rows] for p in rows]
    rr = [dot(p, r) for p in rows]
    feasible = []
    for size in range(len(rows) + 1):
        for act in itertools.combinations(range(len(rows)), size):
            lam = solve_square([[gram[i][j] for j in act] for i in act], [rr[i] for i in act])
            if lam is None:
                continue
            if all(rr[k] <= sum(l * gram[k][i] for l, i in zip(lam, act))
                   for k in range(len(rows))):
                # |sum lam_i row_i|^2 = lam . Gram lam = lam . rr
                feasible.append(sum(l * rr[i] for l, i in zip(lam, act)))
    return min(feasible)
