"""Layer tracing for the benchmark's traced pass.

The tracer wraps public functions and methods of the tropmirror layers at
every module binding through which they are called, so the program itself is
unchanged.  Calls are aggregated per traced name (count, total time, self
time) instead of kept as one span per call, because the sampler makes
hundreds of thousands of calls.  Wrappers are thread-safe: the sampler's
thread pool calls ``PatchworkFamily.eval_scaled`` concurrently.

Self time is the span's duration minus the traced spans nested in it on the
same thread.  Only spans on the thread that runs the jobs enter the wall-time
attribution; worker-thread spans count towards busy time (``*_s`` totals of
the hot sampler functions are therefore thread-seconds).
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from math import ceil, floor

LAYERS = ("lattice", "tropical", "amoeba", "floer", "coordring")
MODULES = LAYERS + ("cli",)

# Public entry points traced per layer: every function the CLI calls into,
# plus the inner functions the per-layer metrics name.  Helpers called per
# arithmetic step (vec, dot, contains) are left untraced to keep the
# overhead small.
FUNCTIONS = {
    "lattice": ("lattice_points", "interior_lattice_points", "polytope_from_bundle",
                "support_convexity"),
    "tropical": ("tropical_constants", "project_onto_halfspaces", "choose_scale",
                 "hausdorff_distance", "regular_subdivision", "complex_segments"),
    "amoeba": ("amoeba_sample_curve", "symplectic_margin"),
    "floer": ("assemble_algebra", "floer_group", "cup_product", "serre_dual_dimension"),
    "coordring": ("section_ring", "verify_isomorphism", "serre_check", "hilbert_function",
                  "interior_counts"),
}
METHODS = {
    "lattice": (("Polytope", "dilate"),),
    "tropical": (("TropicalComplex", "__init__"), ("TropicalComplex", "moment_polytope"),
                 ("HeightFunction", "from_bundle")),
    "amoeba": (("PatchworkFamily", "__init__"), ("PatchworkFamily", "eval_scaled"),
               ("PatchworkFamily", "cutoff_states")),
}
# functions whose process CPU time is also recorded (CPU / wall utilisation)
CPU_TIMED = {"amoeba.amoeba_sample_curve"}


class Tracer:
    """Aggregated spans and counters; ``install`` patches, ``restore`` undoes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.job_thread = threading.get_ident()
        self.count = defaultdict(int)        # name -> calls
        self.total = defaultdict(float)      # name -> seconds, all threads
        self.self_time = defaultdict(float)  # name -> self seconds, job thread
        self.binding = defaultdict(int)      # (name, calling module) -> calls
        self.cpu = defaultdict(float)        # name -> process CPU seconds
        self.counters = defaultdict(int)     # result counters, see _observe
        self.top_level = 0.0                 # job-thread spans with no traced parent
        self._undo = []

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"tropmirror.{m}") for m in MODULES}
        for layer, names in FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[layer], fname)
                for caller, mod in mods.items():
                    if getattr(mod, fname, None) is orig:
                        self._patch(mod, fname, self._wrap(f"{layer}.{fname}", orig, caller))
        for layer, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(mods[layer], cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, layer))
                else:
                    wrapped = self._wrap(name, raw, layer)
                self._patch(cls, meth, wrapped)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn, caller: str):
        tracer = self
        cpu_timed = name in CPU_TIMED

        def traced(*args, **kwargs):
            stack = tracer.local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            c0 = time.process_time() if cpu_timed else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                dc = time.process_time() - c0 if cpu_timed else 0.0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                on_job_thread = threading.get_ident() == tracer.job_thread
                with tracer.lock:
                    tracer.count[name] += 1
                    tracer.total[name] += dt
                    tracer.binding[(name, caller)] += 1
                    tracer.cpu[name] += dc
                    if on_job_thread:
                        tracer.self_time[name] += dt - children
                        if not stack:
                            tracer.top_level += dt
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    # -- work counters read from arguments and results -------------------

    def _observe(self, name, args, kwargs, result) -> None:
        add = {}
        if name in ("lattice.lattice_points", "lattice.interior_lattice_points"):
            poly = args[0]
            d = args[1] if len(args) > 1 else kwargs.get("d", 1)
            box = 1
            for lo, hi in poly.bounding_box():
                box *= max(0, floor(hi * d) - ceil(lo * d) + 1)
            add = {"lattice.box_points": box, "lattice.points": len(result)}
        elif name == "floer.assemble_algebra":
            dims = [p.dimension for p in result.pieces]
            J = result.J
            add = {
                "floer.products": sum(len(t) for t in result.products.values()),
                "floer.audit_triples": sum(
                    dims[a] * dims[b] * dims[c]
                    for a in range(J + 1) for b in range(J + 1 - a) for c in range(J + 1 - a - b)
                ),
            }
        elif name == "coordring.verify_isomorphism":
            add = {"coordring.products_checked": result.products_checked,
                   "coordring.mismatches": len(result.mismatches)}
        elif name == "amoeba.amoeba_sample_curve":
            arg_grid, radius_grid = args[1], args[2]
            add = {"amoeba.fibers": 2 * int(arg_grid) * int(radius_grid[-1]),
                   "amoeba.points": len(result.points),
                   "amoeba.degenerate_fibers": result.degenerate_fibers}
        elif name == "tropical.hausdorff_distance":
            with self.lock:
                self.counters["tropical.hausdorff_max"] = max(
                    self.counters["tropical.hausdorff_max"], result)
            return
        if add:
            with self.lock:
                for k, v in add.items():
                    self.counters[k] += v

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (name -> value) from the aggregates."""
        tot, cnt, c = self.total, self.count, self.counters
        enum = ("lattice.lattice_points", "lattice.interior_lattice_points")
        sample_wall = tot["amoeba.amoeba_sample_curve"]
        out = {
            "lattice.enum_s": sum(tot[n] for n in enum),
            "lattice.enum_calls": sum(cnt[n] for n in enum),
            "lattice.box_points": c["lattice.box_points"],
            "lattice.points": c["lattice.points"],
            "lattice.hit_ratio": (c["lattice.points"] / c["lattice.box_points"]
                                  if c["lattice.box_points"] else 0.0),
            "lattice.dilate_s": tot["lattice.Polytope.dilate"],
            "floer.assemble_s": tot["floer.assemble_algebra"],
            "floer.group_s": tot["floer.floer_group"],
            "floer.cup_calls": cnt["floer.cup_product"],
            "floer.cup_s": tot["floer.cup_product"],
            "floer.assemble_self_s": self.self_time["floer.assemble_algebra"],
            "floer.products": c["floer.products"],
            "floer.audit_triples": c["floer.audit_triples"],
            "coordring.ring_s": tot["coordring.section_ring"],
            "coordring.iso_s": tot["coordring.verify_isomorphism"],
            "coordring.serre_s": tot["coordring.serre_check"],
            "coordring.hilbert_s": (tot["coordring.hilbert_function"]
                                    + tot["coordring.interior_counts"]),
            "coordring.products_checked": c["coordring.products_checked"],
            "coordring.mismatches": c["coordring.mismatches"],
            "tropical.constants_s": tot["tropical.tropical_constants"],
            "tropical.constants_calls": cnt["tropical.tropical_constants"],
            "tropical.project_calls": cnt["tropical.project_onto_halfspaces"],
            "tropical.project_s": tot["tropical.project_onto_halfspaces"],
            "tropical.complex_builds": cnt["tropical.TropicalComplex.__init__"],
            "tropical.complex_s": tot["tropical.TropicalComplex.__init__"],
            "tropical.scale_s": tot["tropical.choose_scale"],
            "tropical.hausdorff_s": tot["tropical.hausdorff_distance"],
            "tropical.hausdorff_max": c["tropical.hausdorff_max"],
            "amoeba.sample_s": sample_wall,
            "amoeba.fibers": c["amoeba.fibers"],
            "amoeba.points": c["amoeba.points"],
            "amoeba.degenerate_fibers": c["amoeba.degenerate_fibers"],
            "amoeba.points_per_fiber": (c["amoeba.points"] / c["amoeba.fibers"]
                                        if c["amoeba.fibers"] else 0.0),
            "amoeba.eval_calls": cnt["amoeba.PatchworkFamily.eval_scaled"],
            "amoeba.eval_s": tot["amoeba.PatchworkFamily.eval_scaled"],
            "amoeba.cutoff_calls": cnt["amoeba.PatchworkFamily.cutoff_states"],
            "amoeba.cutoff_s": tot["amoeba.PatchworkFamily.cutoff_states"],
            "amoeba.cutoff_project_calls": self.binding[("tropical.project_onto_halfspaces",
                                                         "amoeba")],
            "amoeba.margin_calls": cnt["amoeba.symplectic_margin"],
            "amoeba.margin_s": tot["amoeba.symplectic_margin"],
            "amoeba.family_s": tot["amoeba.PatchworkFamily.__init__"],
            "amoeba.cpu_util": (self.cpu["amoeba.amoeba_sample_curve"] / sample_wall
                                if sample_wall else 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_time.items() if k.startswith(layer + ".")
            )
        return out
