"""Tests of the benchmark itself (not part of the program's suite).

    python3 -m pytest bench/test_bench.py

The smoke tests run one checked pass of every workload, so a workload whose
jobs or checks break fails here without a timed run.
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import PERIOD_S, SpeedProbe  # noqa: E402
from workloads import FANS, WORKLOADS, closed_form_counts, polytope_vertices  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"smoke {workload}:" in proc.stdout
    assert " 0 failed" in proc.stdout


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_closed_forms():
    # P^3 moment simplex is 4 times the unimodular one: C(4j+3, 3), C(4j-1, 3)
    assert closed_form_counts(FANS["p3"], 2) == [(1, 0), (35, 1), (165, 35)]
    # F_1 trapezoid: area 6, 10 boundary points -> 6j^2 + 5j + 1 and 6j^2 - 5j + 1
    assert polytope_vertices(FANS["f1"]) == [
        (Fraction(-3), Fraction(-1)), (Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)),
    ]
    assert closed_form_counts(FANS["f1"], 2) == [(1, 0), (12, 2), (35, 15)]


def test_speed_probe_samples_on_the_main_thread():
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert len(probe.samples) >= 10
    assert probe.factor(t0, t1) > 0
