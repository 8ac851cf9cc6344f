"""Child process of the benchmark: runs one workload's passes in-process.

    python3 bench/passes.py --workload NAME --seed N --seconds S --trace 0|1
                            --out DIR [--smoke]

A pass runs every job of the workload once through ``tropmirror.cli.main``
in sequence (one closed-loop client) and checks its outputs.  Modes:

* default: a warm-up pass of small jobs on the same code paths, then timed
  passes until at least ``--seconds`` have elapsed and at least two passes
  have run; each pass records the machine-speed factor the speed probe
  measured while it ran (``speed.py``);
* ``--trace 1``: the warm-up, one untraced pass, then one pass with the
  layer tracer installed;
* ``--smoke``: one pass, checks only.

Every pass's output files are hashed; passes of one run must produce
byte-identical files.  The last line of standard output is one JSON record
that ``run.py`` turns into metrics.  The program is found on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FANS, WORKLOADS  # noqa: E402

from tropmirror.cli import main as cli_main  # noqa: E402


def _digest(out: str) -> dict:
    """sha256 and size of every output file, keyed by relative path."""
    files = {}
    for root, _, names in os.walk(out):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            files[os.path.relpath(path, out)] = (hashlib.sha256(data).hexdigest(), len(data))
    return files


def run_job(args: tuple, fan_path: str, out: str, seed: int) -> dict:
    """One CLI call; returns exit code, wall and process CPU seconds."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [args[0], "--input", fan_path, *args[1:], "--seed", str(seed), "--out", out]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        c0 = time.process_time()
        t0 = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return {"code": code, "wall": wall, "cpu": cpu}


class Runner:
    def __init__(self, workload: str, seed: int, out_root: str):
        self.jobs = WORKLOADS[workload]
        self.seed = seed
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.hausdorff: dict = {}
        self.fan_paths = {}
        self.probe: SpeedProbe | None = None
        os.makedirs(out_root, exist_ok=True)
        for job in self.jobs:
            path = os.path.join(out_root, f"{job.fan}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(FANS[job.fan], fh)
            self.fan_paths[job.fan] = path

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def warm_up(self) -> None:
        """Small jobs that load every lazy import and code path once."""
        seen = set()
        for job in self.jobs:
            if (job.fan, job.warm_args) in seen:
                continue
            seen.add((job.fan, job.warm_args))
            self.attempted += 1
            res = run_job(job.warm_args, self.fan_paths[job.fan],
                          os.path.join(self.out_root, "warm"), self.seed)
            if res["code"] != 0:
                self._fail(f"warm-up {job.name}", [f"exit code {res['code']}"])

    def timed_pass(self, label: str) -> dict:
        """Every job once, checked; returns per-job timings and output bytes.
        ``clock`` is the whole pass including the checks between jobs."""
        jobs = []
        t0 = time.perf_counter()
        for job in self.jobs:
            out = os.path.join(self.out_root, job.name)
            self.attempted += 1
            try:
                seed = self.seed if job.seed is None else job.seed
                res = run_job(job.args, self.fan_paths[job.fan], out, seed)
            except Exception as exc:  # a crash is a failed job, not a failed run
                self._fail(f"{label} {job.name}", [f"raised {exc!r}"])
                continue
            problems = [] if res["code"] == 0 else [f"exit code {res['code']}"]
            if not problems:
                try:
                    problems = job.check(out, FANS[job.fan], job.args)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            digest = _digest(out)
            first = self.digests.setdefault(job.name, digest)
            if digest != first:
                problems.append("output files differ from the first pass")
            if problems:
                self._fail(f"{label} {job.name}", problems)
            hpath = os.path.join(out, "hausdorff.json")
            if os.path.exists(hpath):
                with open(hpath, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
                self.hausdorff[job.name] = {k: report[k] for k in
                                            ("hausdorff", "degenerate_fibers", "points", "log_t")}
            res["name"] = job.name
            res["ok"] = not problems
            res["bytes"] = sum(size for _, size in digest.values())
            jobs.append(res)
        t1 = time.perf_counter()
        return {"jobs": jobs, "wall": sum(j["wall"] for j in jobs),
                "cpu": sum(j["cpu"] for j in jobs), "clock": t1 - t0,
                "factor": self.probe.factor(t0, t1) if self.probe else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args(argv)

    runner = Runner(a.workload, a.seed, a.out)
    record: dict = {"passes": []}
    if a.smoke:
        record["passes"].append(runner.timed_pass("smoke"))
    else:
        with SpeedProbe() as runner.probe:
            runner.warm_up()
            start = time.perf_counter()
            record["passes"].append(runner.timed_pass("pass 1"))
            if a.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = runner.timed_pass("traced pass")
                finally:
                    tracer.restore()
                record["traced"] = traced
                record["layers"] = tracer.metrics()
                record["top_level_s"] = tracer.top_level
            else:
                while len(record["passes"]) < 2 or time.perf_counter() - start < a.seconds:
                    record["passes"].append(
                        runner.timed_pass(f"pass {len(record['passes']) + 1}"))
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        hausdorff=runner.hausdorff,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
