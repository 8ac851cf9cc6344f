"""End-to-end tests for the command-line front end.

Everything drives `main(argv)` directly (it returns the exit code instead
of raising SystemExit), with outputs written into pytest tmp dirs.
"""

import json
import math
import subprocess
import sys

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
