"""Command-line front end: input parsing, pipeline orchestration, reports.

One binary, subcommand dispatch::

    tropmirror <subdivide|tropical|amoeba|verify|hilbert>
        --input fan.json [--t R] [--s R] [--eps R] [--J N] [--grid N]
        [--window x0,x1,y0,y1] [--seed N] --out DIR

All figures and tables are emitted artifacts (no interactive mode), and the
emission is deterministic: rationals are serialized as "p/q" strings
end-to-end, floats in shortest round-trip decimal, JSON with sorted keys,
and nothing writes a timestamp, so identical configuration gives
byte-identical output files.  No output depends on --seed: the flag is
accepted and ignored, and stays only until the benchmark stops passing it.
Everything runs on a single thread.

Exit codes: 0 success, 1 malformed input or invalid parameters, 2 domain
error (non-convex support function, unbounded/degenerate polytope), 3
amoeba commands on a fan whose lattice rank is not 2, 4 isomorphism
mismatch from the verification pipeline, 5 internal error (any other
exception, reported as "internal error in <command>: <type>: <message>").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amoeba import PatchworkFamily, amoeba_sample_curve, symplectic_margin
from .coordring import (
    hilbert_function,
    interior_counts,
    section_ring,
    serre_check,
    verify_isomorphism,
)
from .floer import assemble_algebra
from .lattice import (
    Fan,
    LowerDimensional,
    MalformedFan,
    NotConvex,
    Polytope,
    Unbounded,
    UnsupportedDimension,
    frac_str,
    polytope_from_bundle,
    require_convex,
)
from .tropical import (
    DegenerateSupport,
    EmptyWindow,
    HeightFunction,
    InvalidEps,
    NotTriangulation,
    TropicalComplex,
    certified_log_scale,
    choose_scale,
    complex_segments,
    hausdorff_distance,
    regular_subdivision,
    tropical_constants,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_DIMENSION = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# job configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobConfig:
    """Validated run parameters shared by every subcommand."""

    command: str
    input: str
    out: str
    t: float | None = None       # None: pick via choose_scale
    s: float = 1.0
    eps: float = 0.1
    J: int = 3
    grid: int = 40
    window: tuple = (-3.0, 3.0, -3.0, 3.0)
    seed: int = 0                # accepted and ignored (see --seed)

    def validate(self) -> None:
        if self.t is not None and not (math.isfinite(self.t) and self.t > 1.0):
            raise ValueError(f"--t must be finite and > 1, got {self.t}")
        if not (math.isfinite(self.s) and 0.0 <= self.s <= 1.0):
            raise ValueError(f"--s must lie in [0, 1], got {self.s}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"--eps must be positive, got {self.eps}")
        if self.J < 1:
            raise ValueError(f"--J must be a positive integer, got {self.J}")
        if self.grid < 2:
            raise ValueError(f"--grid must be at least 2, got {self.grid}")
        x0, x1, y0, y1 = self.window
        if not all(math.isfinite(w) for w in self.window):
            raise ValueError(f"--window coordinates must be finite, got {self.window}")
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"--window must satisfy x0 < x1 and y0 < y1, got {self.window}")
        if self.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {self.seed}")


def _parse_window(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--window expects x0,x1,y0,y1, got {text!r}")
    return tuple(float(p) for p in parts)


# ---------------------------------------------------------------------------
# input / output plumbing
# ---------------------------------------------------------------------------

def load_fan_json(path: str) -> tuple[Fan, list[Fraction]]:
    """Read {"rays": [[int,..]], "max_cones": [[int,..]], "phi": ["p/q",..]}.

    Every defect of the file's content is reported as MalformedFan.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise MalformedFan(f"fan file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise MalformedFan("fan file must contain a JSON object")
    for key in ("rays", "max_cones", "phi"):
        if key not in data:
            raise MalformedFan(f"fan file is missing the {key!r} key")
    fan = Fan(data["rays"], data["max_cones"])
    try:
        phi = [Fraction(str(v)) for v in data["phi"]]
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise MalformedFan(f"fan file has a malformed entry: {e}") from e
    if len(phi) != len(fan.rays):
        raise MalformedFan("phi must assign one value per ray")
    return fan, phi


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _polytope_json(Q: Polytope) -> dict:
    return {
        "hrep": [
            {"normal": list(a), "bound": frac_str(b)} for a, b in Q.halfspaces
        ],
        "vertices": [[frac_str(x) for x in v] for v in Q.vertices],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_subdivide(config: JobConfig) -> int:
    fan, phi = load_fan_json(config.input)
    kind = require_convex(fan, phi)
    h = HeightFunction.from_bundle(fan, phi)
    sub = regular_subdivision(h)
    payload = {
        "points": [list(p) for p in h.points],
        "heights": [frac_str(v) for v in h.values],
        "cells": [
            {
                "indices": list(c.indices),
                "gradient": [frac_str(g) for g in c.gradient],
                "offset": frac_str(c.offset),
            }
            for c in sub.cells
        ],
        "is_triangulation": sub.is_triangulation,
        "maximal": sub.is_maximal,
        "convexity": kind,
    }
    _write_json(os.path.join(config.out, "subdivision.json"), payload)
    print(f"{len(sub.cells)} cells, maximal: {sub.is_maximal}")
    return EXIT_OK


def _complex_json(cx: TropicalComplex, config: JobConfig) -> dict:
    consts = tropical_constants(cx)
    log_t_star = certified_log_scale(consts, config.eps)
    try:
        t_star = choose_scale(consts, config.eps)
    except InvalidEps:  # t* is no double; the report keeps its finite log
        t_star = None
    Q = cx.moment_polytope()
    return {
        "n": cx.n,
        "support": {
            "points": [list(p) for p in cx.height.points],
            "heights": [frac_str(v) for v in cx.height.values],
        },
        "subdivision": {
            "cells": [list(c.indices) for c in cx.subdivision.cells],
            "is_triangulation": cx.subdivision.is_triangulation,
            "maximal": cx.subdivision.is_maximal,
        },
        "faces": [
            {
                "dim": f.dim,
                "dual": list(f.dual_indices),
                "equalities": [[list(a), frac_str(r)] for a, r in f.equalities],
                "inequalities": [[list(a), frac_str(r)] for a, r in f.inequalities],
            }
            for f in cx.faces
        ],
        "components": [
            {"index": c.index, "point": list(c.point), "active": c.active}
            for c in cx.components
        ],
        "vertices": [
            {"point": [frac_str(x) for x in v], "dual": list(dual)}
            for v, dual in cx.vertices()
        ],
        "moment_polytope": _polytope_json(Q) if Q is not None else None,
        "constants": {
            "N": consts.N,
            "rho": consts.rho,
            "c_est": consts.c_est,
            "card_A": consts.card_A,
            "diameter": consts.diameter,
        },
        "scale": {"eps": config.eps, "t_star": t_star, "log_t_star": log_t_star},
    }


def cmd_tropical(config: JobConfig) -> int:
    fan, phi = load_fan_json(config.input)
    require_convex(fan, phi)
    h = HeightFunction.from_bundle(fan, phi)
    cx = TropicalComplex(h)
    _write_json(os.path.join(config.out, "tropical.json"), _complex_json(cx, config))
    print(f"{len(cx.faces)} faces, {sum(c.active for c in cx.components)} active components")
    return EXIT_OK


def _svg_overlay(path: str, window, segments, cloud, Q: Polytope | None) -> None:
    """800x800 overlay: Q shaded, rescaled cloud in gray, Pi in black.

    The affine world-to-viewport map is recorded in the SVG metadata as a
    2x3 matrix [[sx, 0, ox], [0, sy, oy]] acting on world (x, y); the y
    scale is negative because SVG pixel rows grow downward.
    """
    x0, x1, y0, y1 = window
    W = H = 800.0
    sx = W / (x1 - x0)
    sy = H / (y1 - y0)

    def px(x: float) -> float:
        return (x - x0) * sx

    def py(y: float) -> float:
        return (y1 - y) * sy

    matrix = [[sx, 0.0, -x0 * sx], [0.0, -sy, y1 * sy]]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        "<metadata>"
        + json.dumps(
            {"window": list(window), "viewport": [800, 800], "world_to_viewport": matrix},
            sort_keys=True,
        )
        + "</metadata>",
        '<rect width="800" height="800" fill="#ffffff"/>',
    ]
    if Q is not None and len(Q.vertices) >= 3:
        verts = [(float(v[0]), float(v[1])) for v in Q.vertices]
        cx0 = sum(v[0] for v in verts) / len(verts)
        cy0 = sum(v[1] for v in verts) / len(verts)
        verts.sort(key=lambda v: math.atan2(v[1] - cy0, v[0] - cx0))
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in verts)
        parts.append(f'<polygon points="{pts}" fill="#c9d8ef" fill-opacity="0.55"/>')
    if len(cloud):
        # cap the emitted circles by a fixed stride so huge clouds stay viewable
        stride = max(1, int(math.ceil(len(cloud) / 5000.0)))
        circles = [
            f'<circle cx="{px(float(p[0])):.2f}" cy="{py(float(p[1])):.2f}" r="1.5"/>'
            for p in cloud[::stride]
        ]
        parts.append('<g fill="#9a9a9a">' + "".join(circles) + "</g>")
    lines = [
        f'<line x1="{px(p[0]):.2f}" y1="{py(p[1]):.2f}" '
        f'x2="{px(q[0]):.2f}" y2="{py(q[1]):.2f}"/>'
        for p, q in segments
    ]
    parts.append('<g stroke="#000000" stroke-width="2">' + "".join(lines) + "</g>")
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def cmd_amoeba(config: JobConfig) -> int:
    fan, phi = load_fan_json(config.input)
    if fan.n != 2:
        print(f"amoeba sampling needs a rank-2 fan, got rank {fan.n}", file=sys.stderr)
        return EXIT_DIMENSION
    require_convex(fan, phi)
    cx = TropicalComplex(HeightFunction.from_bundle(fan, phi))
    if config.t is not None:
        t = config.t
    else:
        t = choose_scale(tropical_constants(cx), config.eps)
    # the mirror potential's coefficients: -1 at the origin, +1 at every ray
    F = PatchworkFamily(cx, t=t, s=config.s, eps=config.eps,
                        coefficients=[-1.0] + [1.0] * len(fan.rays))
    L = F.L
    x0, x1, y0, y1 = config.window
    arg_count = max(4, config.grid // 3)
    res = amoeba_sample_curve(F, arg_count, ((x0 * L, x1 * L, y0 * L, y1 * L), config.grid))

    lines = ["u1,u2,residual"]
    for p, r in zip(res.points, res.residuals):
        lines.append(f"{float(p[0])!r},{float(p[1])!r},{float(r)!r}")
    _write_text(os.path.join(config.out, "cloud.csv"), "\n".join(lines) + "\n")

    margins = symplectic_margin(F, (res.points, res.angles))
    bins = 32
    hist_lines = ["bin_low,bin_high,count"]
    if len(margins):
        lo, hi = float(margins.min()), float(margins.max())
        if hi == lo:
            hi = lo + 1.0
        counts, edges = np.histogram(margins, bins=bins, range=(lo, hi))
        for k in range(bins):
            hist_lines.append(f"{float(edges[k])!r},{float(edges[k + 1])!r},{int(counts[k])}")
    _write_text(os.path.join(config.out, "margins.csv"), "\n".join(hist_lines) + "\n")

    rescaled = res.points / L if len(res.points) else res.points
    dist = hausdorff_distance(rescaled, cx, config.window)
    report = {
        "t": t,
        "log_t": L,
        "s": config.s,
        "eps": config.eps,
        "grid": config.grid,
        "arg_grid": arg_count,
        "window": list(config.window),
        "points": int(len(res.points)),
        "degenerate_fibers": res.degenerate_fibers,
        "dropped_roots": res.dropped,
        "hausdorff": dist,
        "margin_min": float(margins.min()) if len(margins) else None,
        "margin_max": float(margins.max()) if len(margins) else None,
        "margins_positive": int(np.count_nonzero(margins > 0.0)),
        "margins_total": int(len(margins)),
    }
    _write_json(os.path.join(config.out, "hausdorff.json"), report)

    segments = complex_segments(cx, config.window)
    _svg_overlay(
        os.path.join(config.out, "overlay.svg"),
        config.window,
        segments,
        rescaled,
        cx.moment_polytope(),
    )
    print(f"{len(res.points)} points, hausdorff {dist:.4f} at log t = {L:.3f}")
    return EXIT_OK


def cmd_verify(config: JobConfig) -> int:
    fan, phi = load_fan_json(config.input)
    Q = polytope_from_bundle(fan, phi)
    alg = assemble_algebra(Q, config.J)
    ring = section_ring(Q, config.J)
    iso = verify_isomorphism(alg, ring)
    serre = serre_check(Q, config.J)
    payload = {
        "J": config.J,
        "dimensions": {
            "floer": [alg.dimension(j) for j in range(config.J + 1)],
            "ring": [ring.dimension(j) for j in range(config.J + 1)],
        },
        "isomorphism": iso.to_json(),
        "serre": serre.to_json(),
        "verdict": "pass" if (iso.ok and serre.ok) else "fail",
    }
    _write_json(os.path.join(config.out, "verify.json"), payload)
    print(f"isomorphism: {iso.verdict} ({iso.products_checked} products, "
          f"{len(iso.mismatches)} mismatches)")
    print(f"serre: {serre.to_json()['verdict']} ({len(serre.rows)} degrees)")
    return EXIT_OK if (iso.ok and serre.ok) else EXIT_MISMATCH


def cmd_hilbert(config: JobConfig) -> int:
    fan, phi = load_fan_json(config.input)
    Q = polytope_from_bundle(fan, phi)
    values = hilbert_function(Q, config.J)
    inner = interior_counts(Q, config.J)
    lines = ["j,hilbert,interior"]
    for j in range(config.J + 1):
        lines.append(f"{j},{values[j]},{inner[j]}")
    _write_text(os.path.join(config.out, "hilbert.csv"), "\n".join(lines) + "\n")
    print(",".join(str(v) for v in values))
    return EXIT_OK


_COMMANDS = {
    "subdivide": cmd_subdivide,
    "tropical": cmd_tropical,
    "amoeba": cmd_amoeba,
    "verify": cmd_verify,
    "hilbert": cmd_hilbert,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmirror",
        description="Tropical localization and mirror-map verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("subdivide", "regular subdivision of the lifted support, with maximality verdict"),
        ("tropical", "tropical complex, duality data, and quantitative constants"),
        ("amoeba", "sample the patchworking family and plot the amoeba against Pi"),
        ("verify", "Floer algebra vs. section ring isomorphism and Serre checks"),
        ("hilbert", "Hilbert values and interior counts up to degree J"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", required=True, help="fan JSON file (rays, max_cones, phi)")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--t", type=float, default=None,
                       help="family scale t > 1 (default: choose_scale for --eps)")
        p.add_argument("--s", type=float, default=1.0,
                       help="patchworking deformation parameter in [0, 1]")
        p.add_argument("--eps", type=float, default=0.1, help="cutoff margin parameter")
        p.add_argument("--J", type=int, default=3, help="truncation / top degree")
        p.add_argument("--grid", type=int, default=40,
                       help="radius-grid resolution for amoeba sampling")
        p.add_argument("--window", type=_parse_window, default=(-3.0, 3.0, -3.0, 3.0),
                       metavar="x0,x1,y0,y1", help="rescaled plot/report window")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: no output depends on it (the certified "
                       "scale is computed exactly); kept only until the benchmark "
                       "stops passing it")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits on --help (0) and bad usage (2)
        return EXIT_OK if e.code == 0 else EXIT_MALFORMED
    config = JobConfig(
        command=args.command,
        input=args.input,
        out=args.out,
        t=args.t,
        s=args.s,
        eps=args.eps,
        J=args.J,
        grid=args.grid,
        window=tuple(args.window),
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        os.makedirs(config.out, exist_ok=True)
        return _COMMANDS[config.command](config)
    except (NotConvex, Unbounded, LowerDimensional) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (MalformedFan, InvalidEps, EmptyWindow, DegenerateSupport, NotTriangulation,
            UnsupportedDimension, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as e:
        print(f"internal error in {config.command}: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
