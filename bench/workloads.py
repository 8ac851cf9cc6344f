"""Workloads of the tropmirror benchmark and the checks on their outputs.

Each workload is a fixed list of CLI jobs.  A job names a fan, the argument
list given to ``tropmirror.cli.main`` (input, output and seed are added by
the runner; a job may pin its seed), a reduced argument list for the warm-up pass, and a check that
reads the job's output directory.  The checks are written independently of
the program: expected Hilbert counts come from closed forms over vertices
computed here, and the verify product counts are pinned.

This module does not import tropmirror, so the parent process can validate
a workload name without loading the program.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# fans in the CLI's input format; the four standing varieties of the
# acceptance suite plus P^3
FANS = {
    "p1": {"rays": [[1], [-1]], "max_cones": [[0], [1]], "phi": ["1", "1"]},
    "p2": {
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "phi": ["1", "1", "1"],
    },
    "p1xp1": {
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "phi": ["1", "1", "1", "1"],
    },
    "f1": {
        "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "phi": ["1", "1", "2", "1"],
    },
    "p3": {
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "phi": ["1", "1", "1", "1"],
    },
}

# log t = 8 for the fixed-scale amoeba jobs, as a decimal the CLI parses
T_E8 = repr(math.exp(8.0))


@dataclass(frozen=True)
class Job:
    name: str
    fan: str
    args: tuple            # subcommand and its flags, without --input/--out/--seed
    warm_args: tuple       # a small job on the same code path, for the warm-up
    check: Callable        # (out_dir, fan payload, args) -> list of problems
    seed: int | None = None  # fixed --seed for the job; None: the benchmark's seed


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(products: int) -> Callable:
    """verify.json passes, Floer and ring dimensions agree, and the number of
    products checked equals the pinned count."""

    def check(out: str, fan: dict, args: tuple) -> list[str]:
        report = _read_json(os.path.join(out, "verify.json"))
        iso = report["isomorphism"]
        problems = []
        if report["verdict"] != "pass":
            problems.append(f"verdict {report['verdict']}")
        if iso["mismatches"]:
            problems.append(f"{len(iso['mismatches'])} mismatches")
        if report["dimensions"]["floer"] != report["dimensions"]["ring"]:
            problems.append("Floer and ring dimensions differ")
        if iso["products_checked"] != products:
            problems.append(f"products_checked {iso['products_checked']} != {products}")
        return problems

    return check


def _solve(rows: list, rhs: list) -> list:
    """Exact solution of a square nonsingular system (Gauss-Jordan)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _det(rows: list) -> Fraction:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def polytope_vertices(fan: dict) -> list[tuple]:
    """Vertices of {y : <v_i, y> <= phi_i}: one per maximal cone, where the
    facet equations of the cone's rays meet (strictly convex phi)."""
    rays, phi = fan["rays"], [Fraction(p) for p in fan["phi"]]
    verts = {
        tuple(_solve([rays[i] for i in cone], [phi[i] for i in cone]))
        for cone in fan["max_cones"]
    }
    return sorted(verts)


def closed_form_counts(fan: dict, J: int) -> list[tuple[int, int]]:
    """(lattice points, interior lattice points) of jQ for j = 0..J.

    Lattice polygon: Pick's theorem in Ehrhart form, L(j) = A j^2 + B j/2 + 1
    and L*(j) = A j^2 - B j/2 + 1, with area A and boundary count B.
    k times a unimodular n-simplex: L(j) = C(kj+n, n), L*(j) = C(kj-1, n).
    Degree 0 is the unit of the ring with no interior points.
    """
    verts = polytope_vertices(fan)
    if any(x.denominator != 1 for v in verts for x in v):
        raise ValueError("closed forms need a lattice polytope")
    n = len(verts[0])
    if n == 2:
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        ring = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
        edges = list(zip(ring, ring[1:] + ring[:1]))
        area = abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in edges)) / 2
        boundary = sum(math.gcd(int(q[0] - p[0]), int(q[1] - p[1])) for p, q in edges)
        counts = [(int(area * j * j + Fraction(boundary, 2) * j + 1),
                   int(area * j * j - Fraction(boundary, 2) * j + 1)) for j in range(1, J + 1)]
    elif len(verts) == n + 1:
        base = verts[0]
        edge_vecs = [[x - y for x, y in zip(v, base)] for v in verts[1:]]
        k = round(float(abs(_det(edge_vecs))) ** (1.0 / n))
        # k times unimodular: every edge is k times a primitive vector
        for e in edge_vecs:
            if math.gcd(*(int(x) for x in e)) != k:
                raise ValueError("simplex is not a dilated unimodular simplex")
        if abs(_det(edge_vecs)) != k ** n:
            raise ValueError("simplex is not a dilated unimodular simplex")
        counts = [(math.comb(k * j + n, n), math.comb(k * j - 1, n)) for j in range(1, J + 1)]
    else:
        raise ValueError("no closed form for this polytope")
    return [(1, 0)] + counts


def check_hilbert(out: str, fan: dict, args: tuple) -> list[str]:
    """hilbert.csv equals the closed-form counts in every degree."""
    J = int(args[args.index("--J") + 1])
    with open(os.path.join(out, "hilbert.csv"), "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if rows[0] != "j,hilbert,interior":
        return [f"unexpected header {rows[0]!r}"]
    got = [tuple(int(x) for x in r.split(",")[1:]) for r in rows[1:]]
    expected = closed_form_counts(fan, J)
    for j, (g, e) in enumerate(itertools.zip_longest(got, expected)):
        if g != e:
            return [f"degree {j}: got {g}, expected {e}"]
    return []


def check_amoeba(certified: bool) -> Callable:
    """hausdorff.json parses with points > 0; at the certified scale every
    symplectic margin is positive."""

    def check(out: str, fan: dict, args: tuple) -> list[str]:
        report = _read_json(os.path.join(out, "hausdorff.json"))
        problems = []
        if not report["points"] > 0:
            problems.append("no points")
        if not math.isfinite(report["hausdorff"]):
            problems.append(f"hausdorff {report['hausdorff']}")
        if certified and not (report["margins_total"] > 0
                              and report["margins_positive"] == report["margins_total"]
                              and report["margin_min"] > 0):
            problems.append(f"{report['margins_total'] - report['margins_positive']} "
                            f"of {report['margins_total']} margins not positive")
        return problems

    return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _verify(fan: str, J: int, products: int) -> Job:
    return Job(f"verify-{fan}-J{J}", fan, ("verify", "--J", str(J)),
               ("verify", "--J", "1"), check_verify(products))


def _hilbert(fan: str, J: int) -> Job:
    return Job(f"hilbert-{fan}-J{J}", fan, ("hilbert", "--J", str(J)),
               ("hilbert", "--J", "2"), check_hilbert)


# Why each workload exists (layer table and predictions in NOTES.md):
#   verify        Floer assembly dominates (cup_product on Fractions plus the
#                 associativity audit); amoeba and tropical are never called.
#   hilbert       dilate-and-count: lattice enumeration over Polytope.dilate,
#                 the lattice layer used at d = 1 on large dilates.
#   amoeba-desk   the s = 0 sampler path (companion/quadratic roots, one Newton
#                 polish) on a fine grid, plus tropical_constants under --t.
#   amoeba-deform the s > 0 path (continuation Newton through cutoff_states and
#                 Dykstra) at the certified scale and at log t = 8.
WORKLOADS = {
    "verify": (
        _verify("p2", 4, 2913),
        _verify("p1", 6, 532),
        _verify("p1xp1", 3, 698),
        _verify("f1", 3, 1219),
        _verify("p2", 6, 19306),
        _verify("p3", 3, 14086),
    ),
    "hilbert": (
        _hilbert("p3", 10),
        _hilbert("f1", 40),
    ),
    "amoeba-desk": (
        Job("amoeba-p2-e8-s0-g120", "p2",
            ("amoeba", "--t", T_E8, "--s", "0", "--grid", "120"),
            ("amoeba", "--t", T_E8, "--s", "0", "--grid", "6"), check_amoeba(False)),
    ),
    "amoeba-deform": (
        # certified scale t* with CLI defaults: the README's log t ~ 375 claim.
        # The seed drives the Monte-Carlo c_est and so t* itself: over seeds
        # 11-20 log t* ranged 347-377 and the sampler's Dykstra fallbacks
        # 1322-4882, so the job's cost followed the seed, not the program.
        # Seed 0 gives the README's scale, log t* = 375.153.
        Job("amoeba-p2-certified", "p2", ("amoeba",),
            ("amoeba", "--t", T_E8, "--s", "1", "--grid", "6"), check_amoeba(True), seed=0),
        Job("amoeba-p2-e8-s1-g16", "p2",
            ("amoeba", "--t", T_E8, "--s", "1", "--grid", "16"),
            ("amoeba", "--t", T_E8, "--s", "1", "--grid", "6"), check_amoeba(False)),
    ),
}

# workloads whose CLI calls also import scipy.spatial (Hausdorff KD-tree)
SETUP_IMPORTS = {
    name: "import tropmirror.cli" + (", scipy.spatial" if name.startswith("amoeba") else "")
    for name in WORKLOADS
}
