"""Command-line front end: input parsing, pipeline orchestration, reports.

One binary, subcommand dispatch.  Each subcommand takes --input fan.json,
--out DIR and only the flags it reads::

    tropmirror subdivide
    tropmirror tropical [--eps R]
    tropmirror amoeba   [--t R] [--s R] [--eps R] [--grid N] [--window x0,x1,y0,y1]
    tropmirror verify   [--J N]
    tropmirror hilbert  [--J N]

Each flag is declared once, in `_FLAGS`, with its check as its argparse
type.  Every command also accepts --seed and ignores it: no output depends
on it, and it stays only until the benchmark stops passing it.

All figures and tables are emitted artifacts (no interactive mode), and the
emission is deterministic: rationals are serialized as "p/q" strings
end-to-end, floats in shortest round-trip decimal, JSON with sorted keys,
and nothing writes a timestamp, so identical configuration gives
byte-identical output files.  Everything runs on a single thread.

Every command but `subdivide` takes the moment polytope Q from
`polytope_from_bundle` before any other work, so a fan file gets one
verdict: a structural defect (a degenerate cone among them) is refused
when the `Fan` is built (exit 1), an incomplete fan or a non-convex phi
when Q is (exit 2).

Importing this module loads the lattice layer alone, which holds every
exception `main` maps to an exit code; each command imports its own modules
when it runs, so `hilbert` starts without numpy or the numeric layers.

A warning prints as one line, "warning: <message>", naming no source path.

Exit codes: 0 success, 1 malformed input or invalid parameters (a bad flag
value, a flag the command does not take, or a degenerate cone on any
command), 2 domain error (incomplete fan, non-convex support function,
degenerate polytope, or a weakly convex one where the command needs a
triangulated support), 3 amoeba commands on a fan whose lattice rank is
not 2, 4 isomorphism mismatch from the verification pipeline, 5 internal
error (any other exception, reported as "internal error in <command>:
<type>: <message>").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
import warnings
from fractions import Fraction

from .lattice import (
    DegenerateSupport,
    EmptyWindow,
    Fan,
    InvalidEps,
    LowerDimensional,
    MalformedFan,
    NotConvex,
    NotTriangulation,
    Polytope,
    Unbounded,
    frac_str,
    hilbert_function,
    interior_counts,
    polytope_from_bundle,
    require_convex,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_DIMENSION = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


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
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise MalformedFan(f"fan file is not valid JSON: {e}") from e
        except RecursionError as e:
            raise MalformedFan(f"fan file is nested too deeply: {e}") from e
    if not isinstance(data, dict):
        raise MalformedFan("fan file must contain a JSON object")
    for key in ("rays", "max_cones", "phi"):
        if key not in data:
            raise MalformedFan(f"fan file is missing the {key!r} key")
        if not isinstance(data[key], list):
            raise MalformedFan(f"the {key!r} entry of the fan file must be a list")
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

def cmd_subdivide(args: argparse.Namespace) -> int:
    from .tropical import HeightFunction, regular_subdivision

    fan, phi = load_fan_json(args.input)
    kind, _ = require_convex(fan, phi)
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
    _write_json(os.path.join(args.out, "subdivision.json"), payload)
    print(f"{len(sub.cells)} cells, maximal: {sub.is_maximal}")
    return EXIT_OK


def _complex_json(cx, Q: Polytope, eps: float) -> dict:
    """The tropical.json payload of the complex cx and its moment polytope Q."""
    from .tropical import certified_log_scale, choose_scale, tropical_constants

    consts = tropical_constants(cx)
    log_t_star = certified_log_scale(consts, eps)
    try:
        t_star = choose_scale(consts, eps)
    except InvalidEps:  # t* is no double; the report keeps its finite log
        t_star = None
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
        "moment_polytope": _polytope_json(Q),
        "constants": {
            "N": consts.N,
            "rho": consts.rho,
            "c_est": consts.c_est,
            "card_A": consts.card_A,
            "diameter": consts.diameter,
        },
        "scale": {"eps": eps, "t_star": t_star, "log_t_star": log_t_star},
    }


def cmd_tropical(args: argparse.Namespace) -> int:
    from .tropical import HeightFunction, TropicalComplex

    fan, phi = load_fan_json(args.input)
    Q = polytope_from_bundle(fan, phi)
    cx = TropicalComplex(HeightFunction.from_bundle(fan, phi))
    _write_json(os.path.join(args.out, "tropical.json"), _complex_json(cx, Q, args.eps))
    print(f"{len(cx.faces)} faces, {sum(c.active for c in cx.components)} active components")
    return EXIT_OK


def _svg_overlay(path: str, window, segments, cloud, Q: Polytope) -> None:
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
    if len(Q.vertices) >= 3:
        verts = [(float(v[0]), float(v[1])) for v in Q.vertices]
        cx0 = sum(v[0] for v in verts) / len(verts)
        cy0 = sum(v[1] for v in verts) / len(verts)
        verts.sort(key=lambda v: math.atan2(v[1] - cy0, v[0] - cx0))
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in verts)
        parts.append(f'<polygon points="{pts}" fill="#c9d8ef" fill-opacity="0.55"/>')
    if len(cloud):
        # cap the emitted circles by a fixed stride so huge clouds stay viewable
        stride = max(1, int(math.ceil(len(cloud) / 5000.0)))
        shown = cloud[::stride]
        # px and py over whole columns: the same IEEE operations per element
        xs = ((shown[:, 0] - x0) * sx).tolist()
        ys = ((y1 - shown[:, 1]) * sy).tolist()
        circles = [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5"/>' for x, y in zip(xs, ys)]
        parts.append('<g fill="#9a9a9a">' + "".join(circles) + "</g>")
    lines = [
        f'<line x1="{px(p[0]):.2f}" y1="{py(p[1]):.2f}" '
        f'x2="{px(q[0]):.2f}" y2="{py(q[1]):.2f}"/>'
        for p, q in segments
    ]
    parts.append('<g stroke="#000000" stroke-width="2">' + "".join(lines) + "</g>")
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _column_reprs(col) -> list:
    """repr of each float of the float array col, the bytes f"{x!r}" writes,
    with repr called once per distinct bit pattern: 0.0 and -0.0 stay apart."""
    import numpy as np

    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    strings = np.array([repr(x) for x in keys.view(float).tolist()], dtype=object)
    return strings[inverse].tolist()


def _histogram_range(lo: float, hi: float, bins: int) -> tuple:
    """The range np.histogram splits into `bins` bins for data in [lo, hi].

    A single value gets [lo, lo + 1].  A range that still cannot hold
    bins + 1 strictly increasing edges, because an ulp of lo is wider than a
    bin (|lo| beyond about 2^47), gets [lo, lo + max(1, |lo|)].
    """
    import numpy as np

    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    if not (edges[:-1] < edges[1:]).all():
        hi = lo + max(1.0, abs(lo))
    return lo, hi


def cmd_amoeba(args: argparse.Namespace) -> int:
    import numpy as np

    from .amoeba import PatchworkFamily, _mirror_coefficients, amoeba_sample_curve
    from .tropical import (
        HeightFunction,
        TropicalComplex,
        choose_scale,
        complex_segments,
        hausdorff_distance,
        tropical_constants,
    )

    fan, phi = load_fan_json(args.input)
    if fan.n != 2:
        print(f"amoeba sampling needs a rank-2 fan, got rank {fan.n}", file=sys.stderr)
        return EXIT_DIMENSION
    Q = polytope_from_bundle(fan, phi)
    cx = TropicalComplex(HeightFunction.from_bundle(fan, phi))
    if args.t is not None:
        t = args.t
    else:
        t = choose_scale(tropical_constants(cx), args.eps)
    F = PatchworkFamily(cx, t=t, s=args.s, eps=args.eps,
                        coefficients=_mirror_coefficients(cx.height.points))
    L = F.L
    x0, x1, y0, y1 = args.window
    arg_count = max(4, args.grid // 3)
    res = amoeba_sample_curve(F, arg_count, ((x0 * L, x1 * L, y0 * L, y1 * L), args.grid))
    # before any file is written: an empty window raises EmptyWindow here,
    # and the margin histogram is made
    rescaled = res.points / L if len(res.points) else res.points
    segments = complex_segments(cx, args.window)
    dist = hausdorff_distance(rescaled, segments, args.window)
    margins = res.margins
    hist_lines = ["bin_low,bin_high,count"]
    if len(margins):
        bins = 32
        counts, edges = np.histogram(margins, bins=bins, range=_histogram_range(
            float(margins.min()), float(margins.max()), bins))
        for k in range(bins):
            hist_lines.append(f"{float(edges[k])!r},{float(edges[k + 1])!r},{int(counts[k])}")

    columns = [_column_reprs(c) for c in (res.points[:, 0], res.points[:, 1], res.residuals)]
    lines = ["u1,u2,residual", *map(",".join, zip(*columns))]
    _write_text(os.path.join(args.out, "cloud.csv"), "\n".join(lines) + "\n")
    _write_text(os.path.join(args.out, "margins.csv"), "\n".join(hist_lines) + "\n")

    report = {
        "t": t,
        "log_t": L,
        "s": args.s,
        "eps": args.eps,
        "grid": args.grid,
        "arg_grid": arg_count,
        "window": list(args.window),
        "points": int(len(res.points)),
        "degenerate_fibers": res.degenerate_fibers,
        "dropped_roots": res.dropped,
        "hausdorff": dist,
        "margin_min": float(margins.min()) if len(margins) else None,
        "margin_max": float(margins.max()) if len(margins) else None,
        "margins_positive": int(np.count_nonzero(margins > 0.0)),
        "margins_total": int(len(margins)),
    }
    _write_json(os.path.join(args.out, "hausdorff.json"), report)

    _svg_overlay(
        os.path.join(args.out, "overlay.svg"),
        args.window,
        segments,
        rescaled,
        Q,
    )
    print(f"{len(res.points)} points, hausdorff {dist:.4f} at log t = {L:.3f}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .coordring import section_ring, serre_check, verify_isomorphism
    from .floer import assemble_algebra

    fan, phi = load_fan_json(args.input)
    Q = polytope_from_bundle(fan, phi)
    alg = assemble_algebra(Q, args.J)
    ring = section_ring(Q, args.J)
    iso = verify_isomorphism(alg, ring)
    serre = serre_check(Q, args.J)
    payload = {
        "J": args.J,
        "dimensions": {
            "floer": [alg.dimension(j) for j in range(args.J + 1)],
            "ring": [ring.dimension(j) for j in range(args.J + 1)],
        },
        "isomorphism": iso.to_json(),
        "serre": serre.to_json(),
        "verdict": "pass" if (iso.ok and serre.ok) else "fail",
    }
    _write_json(os.path.join(args.out, "verify.json"), payload)
    print(f"isomorphism: {iso.verdict} ({iso.products_checked} products, "
          f"{len(iso.mismatches)} mismatches)")
    print(f"serre: {serre.to_json()['verdict']} ({len(serre.rows)} degrees)")
    return EXIT_OK if (iso.ok and serre.ok) else EXIT_MISMATCH


def cmd_hilbert(args: argparse.Namespace) -> int:
    fan, phi = load_fan_json(args.input)
    Q = polytope_from_bundle(fan, phi)
    values = hilbert_function(Q, args.J)
    inner = interior_counts(Q, args.J)
    lines = ["j,hilbert,interior"]
    for j in range(args.J + 1):
        lines.append(f"{j},{values[j]},{inner[j]}")
    _write_text(os.path.join(args.out, "hilbert.csv"), "\n".join(lines) + "\n")
    print(",".join(str(v) for v in values))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid <name> value"
    return parse


def _parse_window(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--window expects x0,x1,y0,y1, got {text!r}")
    return tuple(float(p) for p in parts)


# every flag but --input and --out, declared once with its check
_FLAGS = {
    "--t": dict(type=_checked(float, lambda t: math.isfinite(t) and t > 1.0, "be finite and > 1"),
                default=None, help="family scale t > 1 (default: choose_scale for --eps)"),
    "--s": dict(type=_checked(float, lambda s: 0.0 <= s <= 1.0, "lie in [0, 1]"),
                default=1.0, help="patchworking deformation parameter in [0, 1]"),
    "--eps": dict(type=_checked(float, lambda e: math.isfinite(e) and e > 0.0,
                                "be finite and positive"),
                  default=0.1, help="cutoff margin parameter"),
    "--J": dict(type=_checked(int, lambda j: j >= 1, "be a positive integer"),
                default=3, help="truncation / top degree"),
    "--grid": dict(type=_checked(int, lambda g: g >= 2, "be at least 2"),
                   default=40, help="radius-grid resolution for amoeba sampling"),
    "--window": dict(type=_checked(_parse_window, lambda w: all(map(math.isfinite, w))
                                   and w[0] < w[1] and w[2] < w[3],
                                   "be finite with x0 < x1 and y0 < y1"),
                     default=(-3.0, 3.0, -3.0, 3.0), metavar="x0,x1,y0,y1",
                     help="rescaled plot/report window"),
    "--seed": dict(type=_checked(int, lambda k: k >= 0, "be nonnegative"), default=0,
                   help="accepted and ignored: no output depends on it (the certified "
                   "scale is computed exactly); kept only until the benchmark "
                   "stops passing it"),
}

# each command: its function, its help line, and the flags it reads
_COMMANDS = {
    "subdivide": (cmd_subdivide,
                  "regular subdivision of the lifted support, with maximality verdict", ()),
    "tropical": (cmd_tropical,
                 "tropical complex, duality data, and quantitative constants", ("--eps",)),
    "amoeba": (cmd_amoeba, "sample the patchworking family and plot the amoeba against Pi",
               ("--t", "--s", "--eps", "--grid", "--window")),
    "verify": (cmd_verify, "Floer algebra vs. section ring isomorphism and Serre checks",
               ("--J",)),
    "hilbert": (cmd_hilbert, "Hilbert values and interior counts up to degree J", ("--J",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmirror",
        description="Tropical localization and mirror-map verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        # no abbreviations: --s on a command without it must not mean --seed
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.add_argument("--input", required=True, help="fan JSON file (rays, max_cones, phi)")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        for flag in (*flags, "--seed"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits on --help (0) and bad usage (2)
        return EXIT_OK if e.code == 0 else EXIT_MALFORMED
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command][0](args)
    except (NotConvex, Unbounded, LowerDimensional, NotTriangulation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (MalformedFan, InvalidEps, EmptyWindow, DegenerateSupport, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as e:
        print(f"internal error in {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
