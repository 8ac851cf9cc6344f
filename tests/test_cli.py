"""End-to-end tests for the command-line front end.

Everything drives `main(argv)` directly (it returns the exit code instead
of raising SystemExit), with outputs written into pytest tmp dirs.
"""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from tropmirror import cli
from tropmirror.cli import main

P2 = {
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
    "phi": ["1", "1", "1"],
}
P1 = {"rays": [[1], [-1]], "max_cones": [[0], [1]], "phi": ["1", "1"]}
P1XP1 = {
    "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    "phi": ["1", "1", "1", "1"],
}
F1 = {
    "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    "phi": ["1", "1", "2", "1"],
}
P3 = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    "phi": ["1", "1", "1", "1"],
}
NONCONVEX = {
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
    "phi": ["1", "1", "-5"],
}


def write_fan(tmp_path, payload, name="fan.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# subdivide
# ---------------------------------------------------------------------------

def test_subdivide_p2(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["subdivide", "--input", fan, "--out", str(out)]) == 0
    data = json.loads((out / "subdivision.json").read_text())
    assert len(data["cells"]) == 3
    assert data["maximal"] is True
    assert data["is_triangulation"] is True
    assert data["convexity"] == "strict"
    # support = origin + rays, heights = 0 then phi
    assert data["points"] == [[0, 0], [1, 0], [0, 1], [-1, -1]]
    assert data["heights"] == ["0/1", "1/1", "1/1", "1/1"]
    for cell in data["cells"]:
        assert len(cell["indices"]) == 3  # triangulation in the plane


def test_subdivide_nonconvex_exit2(tmp_path, capsys):
    fan = write_fan(tmp_path, NONCONVEX)
    out = tmp_path / "out"
    assert main(["subdivide", "--input", fan, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cone pair" in err
    # the message must name the offending pair of maximal cones
    assert any(ch.isdigit() for ch in err)
    assert not (out / "subdivision.json").exists()


def test_missing_input_exit1(tmp_path):
    out = tmp_path / "out"
    code = main(["subdivide", "--input", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 1


def test_malformed_inputs_exit1(tmp_path):
    out = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["subdivide", "--input", str(bad), "--out", out]) == 1

    for broken in (
        {"rays": [[1, 0]], "max_cones": [[0]]},  # missing phi
        {"rays": [[2, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1]], "phi": ["1", "1", "1"]},
        {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]], "phi": ["1"]},  # phi length
        dict(P2, rays=[[1.5, 0], [0, 1], [-1, -1]]),  # int() would truncate 1.5 to 1
    ):
        fan = write_fan(tmp_path, broken, "broken.json")
        assert main(["subdivide", "--input", fan, "--out", out]) == 1


def test_input_errors_are_not_internal_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    flat = dict(P1XP1, phi=["0", "0", "0", "0"])  # one square cell, no triangulation
    p4_rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]
    p4 = {"rays": p4_rays, "max_cones": [[0, 1, 2, 3]], "phi": ["1"] * 5}
    for command, broken in (
        ("subdivide", {"rays": 5, "max_cones": [[0]], "phi": ["1"]}),  # not a list
        ("subdivide", {"rays": [["x", 0]], "max_cones": [[0]], "phi": ["1"]}),
        ("subdivide", {"rays": [[1, 0]], "max_cones": [[0]], "phi": ["1/0"]}),
        ("tropical", {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]], "phi": ["1", "1"]}),
        ("tropical", flat),
        ("verify", p4),  # the completeness test stops at n = 3
        ("tropical", dict(P2, max_cones=[[0], [1], [2]])),  # cones of one ray
        ("amoeba", dict(P2, max_cones=[[0, 1]])),  # ray 2 lies in no cone
    ):
        fan = write_fan(tmp_path, broken, "broken.json")
        assert main([command, "--input", fan, "--out", out]) == 1, (command, broken)
        assert "internal error" not in capsys.readouterr().err


def test_nonconvex_exit2_in_every_command(tmp_path, capsys):
    fan = write_fan(tmp_path, NONCONVEX)
    for command in ("subdivide", "tropical", "amoeba", "verify", "hilbert"):
        assert main([command, "--input", fan, "--out", str(tmp_path / "o")]) == 2, command
        assert "cone pair" in capsys.readouterr().err


def test_internal_error_exit5(tmp_path, monkeypatch, capsys):
    fan = write_fan(tmp_path, P2)

    def broken_stage(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(cli, "section_ring", broken_stage)
    assert main(["verify", "--input", fan, "--J", "1", "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert "internal error in verify: TypeError: injected" in err
    assert "Traceback" in err  # the bug is reported with its origin


def test_invalid_parameters_exit1(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = str(tmp_path / "out")
    for extra in (
        ["--t", "0.5"],
        ["--t", "nan"],
        ["--s", "1.5"],
        ["--s", "-0.25"],
        ["--eps", "0"],
        ["--eps", "-1"],
        ["--J", "0"],
        ["--grid", "1"],
        ["--window=3,-3,0,1"],
        ["--seed", "-2"],
    ):
        code = main(["amoeba", "--input", fan, "--out", out] + extra)
        assert code == 1, extra
    # argparse-level garbage is malformed input, not a crash
    assert main(["amoeba", "--input", fan, "--out", out, "--window=a,b,c,d"]) == 1
    assert main(["frobnicate", "--input", fan, "--out", out]) == 1


# ---------------------------------------------------------------------------
# tropical
# ---------------------------------------------------------------------------

def test_tropical_p2_report(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["tropical", "--input", fan, "--out", str(out)]) == 0
    data = json.loads((out / "tropical.json").read_text())
    assert data["n"] == 2
    assert len(data["components"]) == 4
    assert all(c["active"] for c in data["components"])
    assert data["subdivision"]["maximal"] is True
    # Pi of the P2 potential: 3 vertices, 3 bounded edges + 3 rays
    assert len(data["vertices"]) == 3
    edges = [f for f in data["faces"] if f["dim"] == 1]
    assert len(edges) == 6
    poly = data["moment_polytope"]
    assert poly is not None and len(poly["vertices"]) == 3
    k = data["constants"]
    assert k["card_A"] == 4 and k["rho"] >= 1.0 and k["c_est"] > 0.0
    assert data["scale"]["t_star"] > 1.0
    assert math.isclose(
        math.log(data["scale"]["t_star"]), data["scale"]["log_t_star"], rel_tol=1e-12
    )


def test_tropical_p2_report_bytes_are_pinned(tmp_path):
    # log t* is written as the bisection returns it; on P2 that equals
    # log(t*), and the whole report is pinned byte for byte
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["tropical", "--input", fan, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "tropical.json").read_bytes()).hexdigest()
    assert digest == "59826101b24a29de5b77f603feb9c8f9dfd5b689b4ed4fdb33c2b7395b20093d"


# sha256 of each report on the standing varieties; the P2 tropical report
# is pinned by the test above
PINNED_REPORTS = {
    ("P1", "subdivide"): "0c605ae6657bd4f131f3e644cec9ccc2f7ad28f4a247a667481e99767c1012f2",
    ("P1", "tropical"): "c671f3c0fcdbbb20556579756a0147d8b89518053bda382dc60eaec9c0ff1591",
    ("P2", "subdivide"): "359aaff756aad2f2ee464ec2bffee4833cbf193f450c4e123a4e6a7215175bf4",
    ("P1XP1", "subdivide"): "a7eedde4062105a2b2d7e71289b306dc95e348192de5bcf7b0561d36ef531799",
    ("P1XP1", "tropical"): "2b44030300a1c8abec6d979b6a613edac63fb1ef020c201415302e198c2afcdf",
    ("F1", "subdivide"): "491abb307f7e7df36df0fbc3cce5a9aa61a783e45db754c31ea22ae63e25399b",
    ("F1", "tropical"): "6969ac1d0cd204ed7451b2b4d48b0ca3bd2e60a81b98c523634276793fa08925",
    ("P3", "subdivide"): "8d9935339894c090f829b85019b203e11611822610ef7dbc6e880378e49398e4",
    ("P3", "tropical"): "3f250a22f53bf737c4b3f25a029b31cf1b254ddbfbb740b692e09fa9f40b9841",
}


@pytest.mark.parametrize("variety, command", sorted(PINNED_REPORTS))
def test_reports_are_pinned_byte_for_byte(tmp_path, variety, command):
    fan = write_fan(tmp_path, {"P1": P1, "P2": P2, "P1XP1": P1XP1, "F1": F1, "P3": P3}[variety])
    out = tmp_path / "out"
    assert main([command, "--input", fan, "--out", str(out)]) == 0
    name = "subdivision.json" if command == "subdivide" else "tropical.json"
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == PINNED_REPORTS[variety, command]


def test_tropical_p3_reports_a_scale_past_double_range(tmp_path):
    # c = 0.5/sqrt(33) puts log t* near 789.7: t* is no double, its log is
    fan = write_fan(tmp_path, P3)
    out = tmp_path / "out"
    assert main(["tropical", "--input", fan, "--out", str(out)]) == 0
    scale = json.loads((out / "tropical.json").read_text())["scale"]
    assert scale["t_star"] is None
    assert 709.0 < scale["log_t_star"] < 800.0


def test_tropical_rationals_are_strings(tmp_path):
    fan = write_fan(tmp_path, P1XP1)
    out = tmp_path / "out"
    assert main(["tropical", "--input", fan, "--out", str(out)]) == 0
    data = json.loads((out / "tropical.json").read_text())
    for f in data["faces"]:
        for _, rhs in f["equalities"] + f["inequalities"]:
            num, den = rhs.split("/")
            int(num), int(den)
    for v in data["moment_polytope"]["vertices"]:
        assert all("/" in x for x in v)


def test_one_complex_per_run(tmp_path, monkeypatch):
    # a tropical job builds the complex once and derives the constants from
    # it; an amoeba job with an explicit --t needs no constants at all
    from tropmirror.tropical import TropicalComplex

    calls = {"builds": 0, "constants": 0}
    build, constants = TropicalComplex.__init__, cli.tropical_constants

    def counted_build(self, *args, **kwargs):
        calls["builds"] += 1
        build(self, *args, **kwargs)

    def counted_constants(*args, **kwargs):
        calls["constants"] += 1
        return constants(*args, **kwargs)

    monkeypatch.setattr(TropicalComplex, "__init__", counted_build)
    monkeypatch.setattr(cli, "tropical_constants", counted_constants)
    fan = write_fan(tmp_path, P2)
    assert main(["tropical", "--input", fan, "--out", str(tmp_path / "t")]) == 0
    assert calls == {"builds": 1, "constants": 1}
    calls.update(builds=0, constants=0)
    args = amoeba_args(fan, str(tmp_path / "a"), math.exp(2.0)) + ["--s", "0"]
    assert main(args) == 0
    assert calls == {"builds": 1, "constants": 0}


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------

def test_hilbert_p2(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["hilbert", "--input", fan, "--J", "3", "--out", str(out)]) == 0
    rows = (out / "hilbert.csv").read_text().splitlines()
    assert rows[0] == "j,hilbert,interior"
    table = [tuple(int(x) for x in r.split(",")) for r in rows[1:]]
    assert [r[1] for r in table] == [1, 10, 28, 55]
    assert [r[2] for r in table] == [0, 1, 10, 28]


def test_hilbert_p1(tmp_path):
    fan = write_fan(tmp_path, P1)
    out = tmp_path / "out"
    assert main(["hilbert", "--input", fan, "--J", "3", "--out", str(out)]) == 0
    rows = (out / "hilbert.csv").read_text().splitlines()
    values = [int(r.split(",")[1]) for r in rows[1:]]
    assert values == [1, 3, 5, 7]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_p2_passes(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["verify", "--input", fan, "--J", "2", "--out", str(out)]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["verdict"] == "pass"
    assert data["isomorphism"]["verdict"] == "pass"
    assert data["isomorphism"]["products_checked"] > 0
    assert data["isomorphism"]["mismatches"] == []
    assert data["serre"]["verdict"] == "pass"
    assert data["dimensions"]["floer"] == data["dimensions"]["ring"] == [1, 10, 28]


def test_verify_mismatch_exit4(tmp_path, monkeypatch):
    from tropmirror.coordring import IsomorphismReport

    fan = write_fan(tmp_path, P1)
    out = tmp_path / "out"
    fake = IsomorphismReport(
        degrees_ok=(True, False),
        products_checked=7,
        mismatches=((("degree", 1), ("reason", "injected")),),
    )
    monkeypatch.setattr(cli, "verify_isomorphism", lambda alg, ring: fake)
    assert main(["verify", "--input", fan, "--J", "1", "--out", str(out)]) == 4
    data = json.loads((out / "verify.json").read_text())
    assert data["verdict"] == "fail"
    assert data["isomorphism"]["verdict"] == "fail"


def test_verify_unbounded_fan_exit2(tmp_path):
    half = {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]], "phi": ["1", "1"]}
    fan = write_fan(tmp_path, half)
    assert main(["verify", "--input", fan, "--out", str(tmp_path / "o")]) == 2


def test_half_plane_fan_is_not_complete_exit2(tmp_path, capsys):
    # every pair of three rays in the closed half-plane y <= 0 is a cone
    half_plane = {
        "rays": [[-1, -2], [-1, 0], [3, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "phi": ["1", "1", "1"],
    }
    fan = write_fan(tmp_path, half_plane)
    for command in ("verify", "hilbert"):
        assert main([command, "--input", fan, "--out", str(tmp_path / command)]) == 2
        assert "fan is not complete" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# amoeba
# ---------------------------------------------------------------------------

def test_amoeba_rank_gate_exit3(tmp_path):
    fan = write_fan(tmp_path, P1)
    out = tmp_path / "out"
    assert main(["amoeba", "--input", fan, "--out", str(out)]) == 3
    assert not (out / "cloud.csv").exists()


def amoeba_args(fan, out, t):
    return [
        "amoeba", "--input", fan, "--out", out,
        "--t", repr(t), "--grid", "12", "--window=-3,3,-3,3",
    ]


def test_amoeba_outputs(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(amoeba_args(fan, str(out), math.exp(2.0))) == 0

    rows = (out / "cloud.csv").read_text().splitlines()
    assert rows[0] == "u1,u2,residual"
    assert len(rows) > 20
    for r in rows[1:]:
        u1, u2, res = (float(x) for x in r.split(","))
        assert res < 1e-8

    report = json.loads((out / "hausdorff.json").read_text())
    assert report["points"] == len(rows) - 1
    assert report["hausdorff"] > 0.0
    assert report["log_t"] == 2.0
    assert report["margins_total"] == report["points"]

    hist = (out / "margins.csv").read_text().splitlines()
    assert hist[0] == "bin_low,bin_high,count"
    counts = [int(r.split(",")[2]) for r in hist[1:]]
    assert sum(counts) == report["margins_total"]

    svg = (out / "overlay.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'width="800" height="800"' in svg
    assert "world_to_viewport" in svg
    assert "<polygon" in svg          # shaded Q
    assert 'stroke="#000000"' in svg  # Pi drawn in black
    assert 'fill="#9a9a9a"' in svg    # gray cloud
    # determinism contract: nothing in the file records when it was made
    assert "date" not in svg.lower() and "time" not in svg.lower()


def test_amoeba_byte_identical_reruns(tmp_path):
    fan = write_fan(tmp_path, P2)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(amoeba_args(fan, str(out), math.exp(2.0))) == 0
        outs.append(out)
    for fname in ("cloud.csv", "hausdorff.json", "margins.csv", "overlay.svg"):
        first = (outs[0] / fname).read_bytes()
        second = (outs[1] / fname).read_bytes()
        assert first == second, fname


def test_amoeba_hausdorff_decreases_with_scale(tmp_path):
    # s = 0: the raw curve's amoeba is fat at small t, so the shrinking
    # width dominates the fixed grid-resolution floor of the report
    fan = write_fan(tmp_path, P2)
    dists = []
    for k, t in enumerate((math.exp(2.0), math.exp(4.0))):
        out = tmp_path / f"run{k}"
        args = amoeba_args(fan, str(out), t) + ["--s", "0"]
        args[args.index("--grid") + 1] = "60"
        assert main(args) == 0
        dists.append(json.loads((out / "hausdorff.json").read_text())["hausdorff"])
    assert dists[1] < dists[0]


def test_amoeba_margins_positive_at_certified_scale(tmp_path):
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    # default t is the certified choose_scale output, where every margin
    # must come out positive
    args = ["amoeba", "--input", fan, "--out", str(out), "--grid", "10",
            "--window=-1.6,1.0,-1.6,1.0"]
    assert main(args) == 0
    report = json.loads((out / "hausdorff.json").read_text())
    assert report["margins_total"] > 0
    assert report["margins_positive"] == report["margins_total"]
    assert report["margin_min"] > 0.0
    hist = (out / "margins.csv").read_text().splitlines()
    assert all(float(r.split(",")[0]) > 0.0 for r in hist[1:])


def test_amoeba_f1_certified_scale_drops_overflowing_residuals(tmp_path):
    # at log t* = 405.3 the largest term passes e^709 inside the window: such
    # a root's absolute residual overflows and it is dropped as `residual`
    fan = write_fan(tmp_path, F1)
    out = tmp_path / "out"
    assert main(["amoeba", "--input", fan, "--out", str(out), "--grid", "12"]) == 0
    report = json.loads((out / "hausdorff.json").read_text())
    assert report["log_t"] > 400.0
    assert report["dropped_roots"]["residual"] > 0
    assert report["points"] > 0
    assert report["margins_total"] == report["points"]
    assert report["margins_positive"] == report["margins_total"]
    assert report["margin_min"] > 0.0


def test_seed_changes_no_output(tmp_path):
    # --seed is accepted and ignored: the certified scale is computed
    # exactly, so tropical.json and an amoeba run at that scale are the same
    # bytes under any seed
    fan = write_fan(tmp_path, P2)
    runs = {
        "tropical": (["tropical"], ("tropical.json",)),
        "amoeba": (["amoeba", "--grid", "8"],
                   ("cloud.csv", "hausdorff.json", "margins.csv", "overlay.svg")),
    }
    for command, (args, files) in runs.items():
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / f"{command}-{seed}"
            assert main(args + ["--input", fan, "--seed", seed, "--out", str(out)]) == 0
            outs.append(out)
        for fname in files:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tropmirror.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for word in ("subdivide", "tropical", "amoeba", "verify", "hilbert"):
        assert word in proc.stdout
