"""tropmirror benchmark: runs one named workload and prints its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --smoke

Run it from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Workloads, checks and the reasons behind
them are in ``workloads.py`` and ``NOTES.md``.

One run does, in order:

1. ``setup_s``: starts a fresh interpreter that imports ``tropmirror.cli``
   plus the lazy imports the workload triggers, SETUP_REPEATS times; the
   median is reported.
2. Starts one child process (``passes.py``) for the workload's jobs, so
   peak memory is measured per workload.  The child gets the seed, which is
   passed as ``--seed`` to every job that does not pin its own, and an
   environment without ``TROPMIRROR_THREADS``, so the sampler runs its
   default thread pool.
3. Scales each pass's wall and CPU time to the reference machine speed by
   the factor the speed probe (``speed.py``) measured while the pass ran, so
   that ``wall_s`` and ``cpu_s`` do not follow the drift of a shared host.
   The report also prints the raw wall times.
4. Prints a human-readable report, the environment record, and as the last
   line one JSON object with ``correct``, ``attempted``, ``failed`` and the
   metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
   of the traced pass with ``--trace 1``.

``--smoke`` runs one pass with every check on and reports no timings; the
exit code says whether every job passed.  Without the program's sources the
benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".bench_out"
SETUP_REPEATS = 5
# layers whose self times, with the CLI's, should add up to a traced pass
ATTRIBUTED = ("lattice", "tropical", "amoeba", "floer", "coordring", "cli")
DEADLINE_S = 170.0  # the whole run, setup included, stays under 180 s

sys.path.insert(0, str(HERE))
from workloads import SETUP_IMPORTS, WORKLOADS  # noqa: E402


def metric_units(trace: bool) -> dict:
    """Metric name -> unit, from the benchmark definition at the repo root."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it and the
    sample at that rank, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def describe(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no tail percentile (n < 11)"
    return f"median {statistics.median(samples):.4f}, {tail_text}, n = {len(samples)}"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, cleared: str | None) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "TROPMIRROR_THREADS_cleared": cleared,
        "sampler_threads": min(4, nproc),
    }


def run_blocking(cmd: list, env: dict, deadline: float) -> None:
    """Run cmd to its end, killed at the deadline.  The wait blocks in the
    kernel: ``subprocess.run`` with a timeout polls, in steps up to 50 ms,
    which would quantise a set-up time of a few tenths of a second."""
    with subprocess.Popen(cmd, env=env, cwd=ROOT) as proc:
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def measure_setup(code: str, env: dict, deadline: float) -> list[float]:
    """Seconds of each fresh-interpreter import.  Not scaled by the speed
    probe: start-up is process creation, loading and file reads, whose speed
    the probe's loop does not follow."""
    cmd = [sys.executable, "-c", code]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_blocking(cmd, env, deadline)
        samples.append(time.perf_counter() - t0)
    return samples


def report_run(record: dict, setup: list[float], trace: bool) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    passes = record["passes"]
    walls = [p["wall"] * p["factor"] for p in passes]
    cpus = [p["cpu"] * p["factor"] for p in passes]
    attempted, failed = record["attempted"], record["failed"]
    print(f"wall_s       {describe(walls)}  (s at reference speed, one pass)")
    print(f"cpu_s        {describe(cpus)}  (s at reference speed, one pass, all threads)")
    print(f"setup_s      {describe(setup)}  (s, fresh interpreter import)")
    print(f"  raw wall   {describe([p['wall'] for p in passes])}  (s, one pass)")
    print(f"  speed factor of each pass {[round(p['factor'], 4) for p in passes]}")
    print(f"peak_rss_mb  {record['peak_rss_mb']:.1f}  (MB, workload process)")
    print(f"fail_frac    {failed / attempted:.4f}  (jobs, {failed} of {attempted} failed)")
    hd = record["hausdorff"]
    if hd:
        print(f"hausdorff_max {max(h['hausdorff'] for h in hd.values()):.4f}  "
              "(rescaled log coordinates)")
        for name, h in sorted(hd.items()):
            print(f"  {name}: hausdorff {h['hausdorff']:.4f}, log t {h['log_t']:.3f}, "
                  f"{h['points']} points, {h['degenerate_fibers']} degenerate fibers")
    job_walls: dict = {}
    for p in passes:
        for job in p["jobs"]:
            job_walls.setdefault(job["name"], []).append(job["wall"])
    for name, times in job_walls.items():
        print(f"  job {name}: median wall {statistics.median(times):.4f} s")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")

    if not trace:
        return {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }

    traced = record["traced"]
    layers = dict(record["layers"])
    layers["cli.self_s"] = traced["wall"] - record["top_level_s"]
    layers["cli.bytes_written"] = sum(j["bytes"] for j in traced["jobs"])
    layers["cli.jobs"] = len(traced["jobs"])
    layers["cli.jobs_failed"] = sum(not j["ok"] for j in traced["jobs"])
    # both passes scaled to the reference speed, so drift between them cancels
    layers["trace.overhead_s"] = (traced["wall"] * traced["factor"]
                                  - passes[0]["wall"] * passes[0]["factor"])
    accounted = sum(layers[f"{m}.self_s"] for m in ATTRIBUTED)
    layers["trace.unaccounted_s"] = traced["clock"] - accounted
    print(f"traced pass: {traced['clock']:.4f} s on the clock, {traced['wall']:.4f} s in "
          f"jobs, untraced {passes[0]['wall']:.4f} s")
    for m in ATTRIBUTED:
        v = layers[f"{m}.self_s"]
        print(f"  {m:<10} self {v:9.4f} s  {100 * v / traced['clock']:5.1f} %")
    print(f"  unaccounted     {layers['trace.unaccounted_s']:9.4f} s  "
          f"{100 * layers['trace.unaccounted_s'] / traced['clock']:5.1f} % "
          "(checks and hashing between jobs)")
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one checked pass, no timings")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "tropmirror" / "cli.py").is_file():
        print(f"error: no tropmirror sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    cleared = env.pop("TROPMIRROR_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    out = OUT_BASE / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        setup = [] if args.smoke else measure_setup(SETUP_IMPORTS[args.workload], env, deadline)
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=deadline - time.monotonic())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT_BASE.is_dir() and not any(OUT_BASE.iterdir()):
            OUT_BASE.rmdir()
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.strip().splitlines()[-1])

    if args.smoke:
        for problem in record["problems"]:
            print(f"FAILED {problem}")
        print(f"smoke {args.workload}: {record['attempted']} jobs, {record['failed']} failed")
        return 0 if record["failed"] == 0 else 1

    metrics = report_run(record, setup, bool(args.trace))
    print("environment " + json.dumps(environment(args, cleared), sort_keys=True))
    units = metric_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
