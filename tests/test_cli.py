"""End-to-end tests for the command-line front end.

Everything drives `main(argv)` directly (it returns the exit code instead
of raising SystemExit), with outputs written into pytest tmp dirs.
"""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tropmirror import cli
from tropmirror.amoeba import amoeba_sample_curve, symplectic_margin
from tropmirror.cli import main
from tropmirror.tropical import complex_segments

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
P4 = {
    "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
    "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]],
    "phi": ["1"] * 5,
}
P2XP2 = {
    "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0],
             [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]],
    "max_cones": [[a, b, c, d] for a, b in ((0, 1), (1, 2), (0, 2))
                  for c, d in ((3, 4), (4, 5), (3, 5))],
    "phi": ["1"] * 6,
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
    for command, broken in (
        ("subdivide", {"rays": 5, "max_cones": [[0]], "phi": ["1"]}),  # not a list
        ("subdivide", {"rays": [["x", 0]], "max_cones": [[0]], "phi": ["1"]}),
        ("subdivide", {"rays": [[1, 0]], "max_cones": [[0]], "phi": ["1/0"]}),
        ("tropical", {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]], "phi": ["1", "1"]}),
        ("tropical", dict(P2, max_cones=[[0], [1], [2]])),  # cones of one ray
        ("amoeba", dict(P2, max_cones=[[0, 1]])),  # ray 2 lies in no cone
    ):
        fan = write_fan(tmp_path, broken, "broken.json")
        assert main([command, "--input", fan, "--out", out]) == 1, (command, broken)
        assert "internal error" not in capsys.readouterr().err
    # rank 4 is decided, not refused: P4 with one of its five cones dropped
    # is not complete (with a single cone, ray 4 would lie in no cone)
    fan = write_fan(tmp_path, dict(P4, max_cones=P4["max_cones"][1:]), "broken.json")
    assert main(["verify", "--input", fan, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "fan is not complete" in err and "internal error" not in err
    # amoeba sampling alone stays rank 2
    assert main(["amoeba", "--input", write_fan(tmp_path, P4), "--out", out]) == 3
    err = capsys.readouterr().err
    assert "needs a rank-2 fan, got rank 4" in err and "internal error" not in err


def test_nonconvex_exit2_in_every_command(tmp_path, capsys):
    fan = write_fan(tmp_path, NONCONVEX)
    for command in ("subdivide", "tropical", "amoeba", "verify", "hilbert"):
        assert main([command, "--input", fan, "--out", str(tmp_path / "o")]) == 2, command
        assert "cone pair" in capsys.readouterr().err


def test_weakly_convex_phi_exit2(tmp_path, capsys):
    # phi = 0 is convex but not strictly: the lift is flat, so the support
    # has one cell and no triangulation.  The commands that need the
    # constants refuse it as a domain error, not as malformed input; an
    # amoeba job with an explicit --t needs no constants and runs
    out = str(tmp_path / "out")
    for payload in (dict(P2, phi=["0", "0", "0"]), dict(P1XP1, phi=["0", "0", "0", "0"])):
        fan = write_fan(tmp_path, payload)
        assert main(["tropical", "--input", fan, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "triangulated supports" in err and "internal error" not in err
    fan = write_fan(tmp_path, dict(P2, phi=["0", "0", "0"]))
    assert main(["amoeba", "--input", fan, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "triangulated supports" in err and "internal error" not in err
    assert main(["amoeba", "--input", fan, "--out", out, "--t", "2980.96", "--grid", "6"]) == 0


def test_internal_error_exit5(tmp_path, monkeypatch, capsys):
    from tropmirror import coordring

    fan = write_fan(tmp_path, P2)

    def broken_stage(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(coordring, "section_ring", broken_stage)
    assert main(["verify", "--input", fan, "--J", "1", "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert "internal error in verify: TypeError: injected" in err
    assert "Traceback" in err  # the bug is reported with its origin


def test_invalid_parameters_exit1(tmp_path, capsys):
    fan = write_fan(tmp_path, P2)
    out = str(tmp_path / "out")
    for command, extra in (
        ("amoeba", ["--t", "0.5"]),
        ("amoeba", ["--t", "nan"]),
        ("amoeba", ["--s", "1.5"]),
        ("amoeba", ["--s", "-0.25"]),
        ("amoeba", ["--eps", "0"]),
        ("amoeba", ["--eps", "-1"]),
        ("verify", ["--J", "0"]),
        ("hilbert", ["--J", "0"]),
        ("amoeba", ["--grid", "1"]),
        ("amoeba", ["--window=3,-3,0,1"]),
        ("amoeba", ["--seed", "-2"]),
    ):
        code = main([command, "--input", fan, "--out", out] + extra)
        assert code == 1, (command, extra)
        # refused by the flag's own check, not as a flag the command lacks
        assert f"argument {extra[0].split('=')[0]}: must" in capsys.readouterr().err
    # argparse-level garbage is malformed input, not a crash
    assert main(["amoeba", "--input", fan, "--out", out, "--window=a,b,c,d"]) == 1
    assert main(["frobnicate", "--input", fan, "--out", out]) == 1


# the flags each command reads, apart from --input and --out; every command
# also accepts --seed, and ignores it
COMMAND_FLAGS = {
    "subdivide": set(),
    "tropical": {"--eps"},
    "amoeba": {"--t", "--s", "--eps", "--grid", "--window"},
    "verify": {"--J"},
    "hilbert": {"--J"},
}
# a valid value of each flag, so that only the command can refuse it
FLAG_VALUES = {
    "--t": "2980.9579870417283",  # log t = 8
    "--s": "0",
    "--eps": "0.1",
    "--J": "2",
    "--grid": "6",
    "--window": "-3,3,-3,3",
    "--seed": "0",
}


def test_each_command_declares_only_the_flags_it_reads():
    parser = cli._build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    assert set(commands) == set(COMMAND_FLAGS)
    settable = 0
    for name, sub in commands.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {
            "-h", "--help", "--input", "--out"}
        assert flags == COMMAND_FLAGS[name] | {"--seed"}, name
        settable += len(flags)
    assert settable == 13


def test_a_flag_the_command_does_not_read_exits1(tmp_path, capsys):
    # with a valid value: the command refuses the flag itself.  No prefix
    # stands for a longer flag, so --s on verify is not --seed
    fan = write_fan(tmp_path, P2)
    for command, flags in COMMAND_FLAGS.items():
        for flag in sorted(FLAG_VALUES.keys() - flags - {"--seed"}):
            out = tmp_path / f"{command}{flag}"
            argv = [command, "--input", fan, "--out", str(out), f"{flag}={FLAG_VALUES[flag]}"]
            assert main(argv) == 1, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()


def test_seed_is_accepted_by_every_command(tmp_path):
    fan = write_fan(tmp_path, P2)
    for command, flags in COMMAND_FLAGS.items():
        extra = [f"{flag}={FLAG_VALUES[flag]}" for flag in sorted(flags)]
        argv = [command, "--input", fan, "--out", str(tmp_path / command), "--seed", "0"]
        assert main(argv + extra) == 0, command


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


# the file each command writes, and the flags it runs with
REPORT_RUNS = {
    "subdivide": ("subdivision.json", []),
    "tropical": ("tropical.json", []),
    "verify": ("verify.json", ["--J", "3"]),
    "hilbert": ("hilbert.csv", ["--J", "8"]),
}
# sha256 of each report on the standing varieties; the P2 tropical report
# is pinned by the test above
PINNED_REPORTS = {
    ("P1", "subdivide"): "0c605ae6657bd4f131f3e644cec9ccc2f7ad28f4a247a667481e99767c1012f2",
    ("P1", "tropical"): "c671f3c0fcdbbb20556579756a0147d8b89518053bda382dc60eaec9c0ff1591",
    ("P1", "verify"): "acb92e1f76616e3d51ca1f23375b03eeee6f858a8eb69a6a7fc46776b3d4f551",
    ("P1", "hilbert"): "c42cc180b2d1849d25da0b3625424a539930d46a3694047e8e5e0dd727d795cc",
    ("P2", "subdivide"): "359aaff756aad2f2ee464ec2bffee4833cbf193f450c4e123a4e6a7215175bf4",
    ("P2", "verify"): "b3838c6279fe683dd7f9fdea7862130acdea8bbccabe4e5a5010df05bbd56088",
    ("P2", "hilbert"): "40125727ccc36e0a2c6caa16f7b06b01f2d00e28bb26298db5f6837393395601",
    ("P1XP1", "subdivide"): "a7eedde4062105a2b2d7e71289b306dc95e348192de5bcf7b0561d36ef531799",
    ("P1XP1", "tropical"): "2b44030300a1c8abec6d979b6a613edac63fb1ef020c201415302e198c2afcdf",
    ("P1XP1", "verify"): "04fad80a69cffbf258e4c6c2e9402ccf77c4a6094986765900f79ee7d778fd7b",
    ("P1XP1", "hilbert"): "c6420147f6a37d9326b103c9d3acc3e7798a06c0a5e976591cb4eee81ae061df",
    ("F1", "subdivide"): "491abb307f7e7df36df0fbc3cce5a9aa61a783e45db754c31ea22ae63e25399b",
    ("F1", "tropical"): "6969ac1d0cd204ed7451b2b4d48b0ca3bd2e60a81b98c523634276793fa08925",
    ("F1", "verify"): "52acef250a508c8cbb335ce9d12c204de48ae64542c873ac84653a81e2a8658e",
    ("F1", "hilbert"): "ea908bd15d9950706fae15711ca4b82706f967a68c4f5b9502ce47a8f14de9b8",
    ("P3", "subdivide"): "8d9935339894c090f829b85019b203e11611822610ef7dbc6e880378e49398e4",
    ("P3", "tropical"): "3f250a22f53bf737c4b3f25a029b31cf1b254ddbfbb740b692e09fa9f40b9841",
    ("P3", "verify"): "53e35daa7d41b81123b852d131f99d8db4de0adfc5a0d5083880529022c92d5c",
    ("P3", "hilbert"): "27738323caf21c88674e4737ba4a0adb4220191a83b618f489cddded9d74c7a9",
}


@pytest.mark.parametrize("variety, command", sorted(PINNED_REPORTS))
def test_reports_are_pinned_byte_for_byte(tmp_path, variety, command):
    fan = write_fan(tmp_path, {"P1": P1, "P2": P2, "P1XP1": P1XP1, "F1": F1, "P3": P3}[variety])
    out = tmp_path / "out"
    name, flags = REPORT_RUNS[command]
    assert main([command, "--input", fan, "--out", str(out), *flags]) == 0
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
    # it; an amoeba job with an explicit --t needs no constants at all, and
    # builds Pi's segments once, for the Hausdorff distance and the overlay
    from tropmirror import tropical
    from tropmirror.tropical import TropicalComplex

    calls = {"builds": 0, "constants": 0, "segments": 0}
    build, constants = TropicalComplex.__init__, tropical.tropical_constants
    segments = tropical.complex_segments

    def counted_build(self, *args, **kwargs):
        calls["builds"] += 1
        build(self, *args, **kwargs)

    def counted_constants(*args, **kwargs):
        calls["constants"] += 1
        return constants(*args, **kwargs)

    def counted_segments(*args, **kwargs):
        calls["segments"] += 1
        return segments(*args, **kwargs)

    monkeypatch.setattr(TropicalComplex, "__init__", counted_build)
    monkeypatch.setattr(tropical, "tropical_constants", counted_constants)
    monkeypatch.setattr(tropical, "complex_segments", counted_segments)
    fan = write_fan(tmp_path, P2)
    assert main(["tropical", "--input", fan, "--out", str(tmp_path / "t")]) == 0
    assert calls == {"builds": 1, "constants": 1, "segments": 0}
    calls.update(builds=0, constants=0)
    args = amoeba_args(fan, str(tmp_path / "a"), math.exp(2.0)) + ["--s", "0"]
    assert main(args) == 0
    assert calls == {"builds": 1, "constants": 0, "segments": 1}


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


@pytest.mark.parametrize("payload, dims", [
    (P4, [1, 126, 1001, 3876]),  # C(5j + 4, 4)
    (P2XP2, [1, 100, 784, 3025]),  # the squares of P2's 1, 10, 28, 55
], ids=["P4", "P2xP2"])
def test_verify_passes_in_rank_four(tmp_path, payload, dims):
    fan = write_fan(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["verify", "--input", fan, "--J", "3", "--out", str(out)]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["verdict"] == "pass"
    assert data["isomorphism"]["products_checked"] > 0
    assert data["isomorphism"]["mismatches"] == []
    assert data["dimensions"]["floer"] == data["dimensions"]["ring"] == dims


def test_verify_mismatch_exit4(tmp_path, monkeypatch):
    from tropmirror import coordring
    from tropmirror.coordring import IsomorphismReport

    fan = write_fan(tmp_path, P1)
    out = tmp_path / "out"
    fake = IsomorphismReport(
        degrees_ok=(True, False),
        products_checked=7,
        mismatches=((("degree", 1), ("reason", "injected")),),
    )
    monkeypatch.setattr(coordring, "verify_isomorphism", lambda alg, ring: fake)
    assert main(["verify", "--input", fan, "--J", "1", "--out", str(out)]) == 4
    data = json.loads((out / "verify.json").read_text())
    assert data["verdict"] == "fail"
    assert data["isomorphism"]["verdict"] == "fail"


def test_verify_unbounded_fan_exit2(tmp_path):
    half = {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]], "phi": ["1", "1"]}
    fan = write_fan(tmp_path, half)
    assert main(["verify", "--input", fan, "--out", str(tmp_path / "o")]) == 2


# Q with a vertex that is not integral: P(1,1,2) with vertex (1, -3/2), and
# P^2 with phi = (1/2, 1/3, 1).  Their interior counts are quasi-polynomials
# in j, which a fitted polynomial misses (it read 3, 18, 46 on P(1,1,2))
P112_HALF = {"rays": [[1, 0], [0, 1], [-1, -2]], "max_cones": [[0, 1], [1, 2], [0, 2]],
             "phi": ["1", "1", "2"]}
P2_THIRDS = dict(P2, phi=["1/2", "1/3", "1"])


@pytest.mark.parametrize("payload, duals", [
    (P112_HALF, [2, 16, 42]), (P2_THIRDS, [1, 3, 10]),
], ids=["P112", "P2-thirds"])
def test_verify_passes_on_a_non_lattice_polytope(tmp_path, payload, duals):
    from tropmirror.coordring import NonLatticePolytope

    fan = write_fan(tmp_path, payload)
    out = tmp_path / "out"
    with pytest.warns(NonLatticePolytope):
        assert main(["verify", "--input", fan, "--J", "3", "--out", str(out)]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["verdict"] == data["serre"]["verdict"] == "pass"
    assert [(r["refine"], r["dilate"], r["reciprocity"]) for r in data["serre"]["rows"]] == [
        (d, d, None) for d in duals]
    assert "non-integral vertex" in data["serre"]["note"]


P2_ORIGIN_ON_BOUNDARY = dict(P2, phi=["1", "1", "0"])


@pytest.mark.parametrize("payload, line", [
    (P112_HALF, "warning: polytope has non-integral vertices; ring built from dilate counts"),
    (P2_ORIGIN_ON_BOUNDARY, "warning: polytope is not full-dimensional with the origin "
     "interior; twisted-section geometry degenerates"),
], ids=["non-lattice", "origin-not-interior"])
def test_a_warning_prints_as_one_line_without_a_path(tmp_path, payload, line):
    # in a fresh interpreter with the default filters, as a user runs it:
    # stderr names no file of the checkout, so two checkouts print the same
    fan = write_fan(tmp_path, payload)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "tropmirror.cli", "verify", "--J", "2",
         "--input", fan, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == line + "\n"


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


def test_repeated_cone_is_malformed_exit1(tmp_path, capsys):
    # P1xP1 with the cone (0, 1) listed twice, once in the other ray order
    fan = write_fan(tmp_path, dict(P1XP1, max_cones=P1XP1["max_cones"] + [[1, 0]]))
    for command in ("verify", "hilbert"):
        assert main([command, "--input", fan, "--out", str(tmp_path / command)]) == 1
        assert "listed twice" in capsys.readouterr().err


# the cone (0, 2) of two opposite rays does not span the plane
DEGENERATE_CONE = {
    "rays": [[1, 0], [0, 1], [-1, 0]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
    "phi": ["1", "1", "1"],
}


@pytest.mark.parametrize("payload, defect", [
    (dict(P2, max_cones=[[0], [1, 2], [0, 2]]), "maximal cone (0,) does not have 2 rays"),
    (dict(P2, max_cones=[[0, 1]]), "ray 2 lies in no maximal cone"),
    (DEGENERATE_CONE, "cone (0, 2) is degenerate (rays do not span)"),
], ids=["one-ray-cone", "ray-in-no-cone", "degenerate-cone"])
def test_a_structural_fan_defect_exits1_on_every_command(tmp_path, capsys, payload, defect):
    fan = write_fan(tmp_path, payload)
    for command in COMMAND_FLAGS:
        assert main([command, "--input", fan, "--out", str(tmp_path / command)]) == 1, command
        err = capsys.readouterr().err
        assert defect in err and "internal error" not in err


def test_a_degenerate_cone_writes_no_file(tmp_path, capsys):
    # refused when the fan is read, before any command's work; subdivide
    # reports it in the words its convexity pass used before
    fan = write_fan(tmp_path, DEGENERATE_CONE)
    for command in COMMAND_FLAGS:
        out = tmp_path / command
        assert main([command, "--input", fan, "--out", str(out)]) == 1, command
        assert capsys.readouterr() == (
            "", "error: cone (0, 2) is degenerate (rays do not span)\n"), command
        assert os.listdir(out) == [], command


@pytest.mark.parametrize("payload", [
    dict(P2, max_cones=[[0, 1], [1, 2]]),
    {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]], "phi": ["1", "1"]},
], ids=["p2-missing-cone", "single-cone"])
def test_an_incomplete_fan_exits2_on_every_command_that_needs_q(tmp_path, capsys, payload):
    fan = write_fan(tmp_path, payload)
    for command in ("tropical", "amoeba", "verify", "hilbert"):
        out = tmp_path / command
        assert main([command, "--input", fan, "--out", str(out)]) == 2, command
        assert "fan is not complete" in capsys.readouterr().err
        assert os.listdir(out) == [], command  # Q comes before any file
    # the subdivision of the lifted support needs no Q
    assert main(["subdivide", "--input", fan, "--out", str(tmp_path / "subdivide")]) == 0


def test_no_command_enumerates_the_vertices_of_q(tmp_path):
    # Q is read from the fan by polytope_from_bundle on every command, and
    # the component of the origin off the cells: the package defines no
    # halfspace vertex enumerator for any command to reach
    defined = {node.name for path in Path(cli.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "_separation_squared" in defined
    assert not defined & {"from_halfspaces", "_recession_nontrivial"}
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "tropical"
    assert main(["tropical", "--input", fan, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "tropical.json").read_bytes()).hexdigest()
    assert digest == "59826101b24a29de5b77f603feb9c8f9dfd5b689b4ed4fdb33c2b7395b20093d"
    argv = ["amoeba", "--input", fan, "--out", str(tmp_path / "amoeba"),
            "--t", FLAG_VALUES["--t"], "--grid", "12"]
    assert main(argv) == 0


@pytest.mark.parametrize("key, value", [
    ("phi", "111"),  # read character by character, it would be phi = (1, 1, 1)
    ("phi", {"1": 0, "2": 0, "3": 0}),  # iterated, it would be its keys (1, 2, 3)
    ("rays", "[[1, 0], [0, 1], [-1, -1]]"),
    ("max_cones", {"0": [0, 1]}),
], ids=["phi-string", "phi-object", "rays-string", "max_cones-object"])
def test_fan_entries_that_are_not_lists_exit1(tmp_path, capsys, key, value):
    fan = write_fan(tmp_path, dict(P2, **{key: value}))
    assert main(["hilbert", "--input", fan, "--out", str(tmp_path / "out")]) == 1
    assert f"the {key!r} entry of the fan file must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hilbert.csv").exists()


@pytest.mark.parametrize("key, value, what", [
    ("rays", [[True, False], [False, True], [-1, -1]], "ray coordinate True"),
    ("max_cones", [[False, True], [True, 2], [False, 2]], "cone index False"),
], ids=["rays", "max_cones"])
def test_json_booleans_are_not_integers_exit1(tmp_path, capsys, key, value, what):
    # int(True) == True, so read as integers both files would be P^2
    fan = write_fan(tmp_path, dict(P2, **{key: value}))
    assert main(["hilbert", "--input", fan, "--J", "3", "--out", str(tmp_path / "out")]) == 1
    assert f"{what} is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hilbert.csv").exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00{\x00}\x00",  # UTF-16 with its byte-order mark: no UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
], ids=["not-utf8", "nested-too-deep"])
def test_unreadable_fan_files_exit1_on_every_command(tmp_path, capsys, content):
    fan = tmp_path / "fan.json"
    fan.write_bytes(content)
    for command in COMMAND_FLAGS:
        assert main([command, "--input", str(fan), "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fan file is") and "internal error" not in err


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


def oracle_cloud_csv(res):
    """cloud.csv written one row at a time from numpy scalars."""
    lines = ["u1,u2,residual"]
    for p, r in zip(res.points, res.residuals):
        lines.append(f"{float(p[0])!r},{float(p[1])!r},{float(r)!r}")
    return "\n".join(lines) + "\n"


def oracle_svg_overlay(window, segments, cloud, Q):
    """overlay.svg written one circle at a time, each through px and py."""
    x0, x1, y0, y1 = window
    W = H = 800.0
    sx = W / (x1 - x0)
    sy = H / (y1 - y0)

    def px(x):
        return (x - x0) * sx

    def py(y):
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
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("args", [
    ["--t", repr(math.exp(8.0)), "--s", "0", "--grid", "10"],
    ["--t", repr(math.exp(8.0)), "--s", "1", "--grid", "10"],
    ["--t", repr(math.exp(8.0)), "--s", "0", "--grid", "80"],  # > 5000 points: strided SVG
    ["--grid", "8"],  # the certified scale
    ["--s", "0", "--grid", "9"],  # s = 0 at the certified scale, odd grid
])
def test_amoeba_files_match_per_row_oracles(tmp_path, monkeypatch, args):
    # the column-wise writers give the bytes of the per-row ones, and the
    # reported margins are those symplectic_margin computes at the cloud
    from tropmirror import amoeba

    sampled = []

    def recorded(F, *grids):
        sampled.append((F, amoeba_sample_curve(F, *grids)))
        return sampled[-1][1]

    monkeypatch.setattr(amoeba, "amoeba_sample_curve", recorded)
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    assert main(["amoeba", "--input", fan, "--out", str(out)] + args) == 0
    [(F, res)] = sampled
    assert len(res.points) > 0
    assert (out / "cloud.csv").read_bytes() == oracle_cloud_csv(res).encode()
    window = (-3.0, 3.0, -3.0, 3.0)
    svg = oracle_svg_overlay(window, complex_segments(F.complex, window), res.points / F.L,
                             F.complex.moment_polytope())
    assert (out / "overlay.svg").read_bytes() == svg.encode()
    margins = symplectic_margin(F, (res.points, res.angles))
    report = json.loads((out / "hausdorff.json").read_text())
    assert report["margin_min"] == float(margins.min())
    assert report["margin_max"] == float(margins.max())
    assert report["margins_positive"] == int(np.count_nonzero(margins > 0.0))


def test_column_reprs_match_repr():
    # one repr per distinct bit pattern, gathered back, is repr of every
    # float: signed zeros, a subnormal, either side of repr's switch to
    # exponent form (1e16, 1e-5), and long runs of repeats
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, 9999999999999998.0, 1e-4, 1e-5,
               0.1, 1.0, -1.0, 2.0 ** 50, 1.7976931348623157e308]
    rng = np.random.default_rng(8)
    col = np.array(special * 3 + [0.25] * 500 + [-0.0] * 200
                   + rng.choice(special, 400).tolist() + rng.normal(size=300).tolist())
    rng.shuffle(col)
    assert cli._column_reprs(col) == list(map(repr, col.tolist()))
    cloud = np.stack([col, col[::-1]], axis=1)  # the writer's strided columns
    for j in range(2):
        assert cli._column_reprs(cloud[:, j]) == list(map(repr, cloud[:, j].tolist()))
    assert cli._column_reprs(np.zeros(0)) == []


@pytest.mark.parametrize("lo, hi", [
    (0.5, 0.5), (-3.0, -3.0), (1e6, 1e6), (2.0 ** 46, 2.0 ** 46),  # one value: [lo, lo + 1]
    (0.0, 1e-300), (1.0, 2.0), (-7.5, 1e98), (2.0 ** 50, 2.0 ** 51),
])
def test_histogram_range_keeps_every_range_numpy_accepts(lo, hi):
    bins = 32
    old = (lo, lo + 1.0 if hi == lo else hi)  # the range before the widening
    assert cli._histogram_range(lo, hi, bins) == old
    counts, _ = np.histogram(np.array([lo, hi]), bins=bins, range=old)
    assert counts.sum() == 2


@pytest.mark.parametrize("value", [2.0 ** 50, 1.1 * 2.0 ** 50, -(2.0 ** 50), 2.53e98])
def test_histogram_range_widens_a_range_too_narrow_for_the_bins(value):
    # equal margins past 2^47: lo + 1 is less than 32 ulps of lo, so numpy
    # cannot make 32 bins; the range widens by max(1, |lo|)
    bins, margins = 32, np.full(5, value)
    with pytest.raises(ValueError, match="Too many bins"):
        np.histogram(margins, bins=bins, range=(value, value + 1.0))
    lo, hi = cli._histogram_range(value, value, bins)
    assert (lo, hi) == (value, value + abs(value))
    counts, edges = np.histogram(margins, bins=bins, range=(lo, hi))
    assert counts.sum() == 5 and np.all(np.diff(edges) > 0)
    narrow = np.nextafter(value, math.inf)  # two margins one ulp apart
    assert cli._histogram_range(value, narrow, bins) == (value, value + abs(value))


def test_amoeba_single_huge_margin_gets_32_bins(tmp_path):
    # at the certified scale this window keeps one point, whose margin is
    # about 2.5e98: the histogram widens its range instead of failing
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    args = ["amoeba", "--input", fan, "--out", str(out), "--grid", "2",
            "--window=1.6,1.9,1.45,2.05"]
    assert main(args) == 0
    report = json.loads((out / "hausdorff.json").read_text())
    assert report["points"] == 1 and report["margin_min"] > 2.0 ** 47
    rows = (out / "margins.csv").read_text().splitlines()[1:]
    assert len(rows) == 32
    assert sum(int(r.split(",")[2]) for r in rows) == 1


def test_amoeba_empty_window_exits_1_and_writes_no_file(tmp_path, capsys):
    # the cloud never reaches this window: the run is refused before any
    # output is written, so no partial cloud.csv or margins.csv is left
    fan = write_fan(tmp_path, P2)
    out = tmp_path / "out"
    args = ["amoeba", "--input", fan, "--out", str(out), "--t", "2980.9",
            "--window=40,41,-41,-40"]
    assert main(args) == 1
    assert "error: no cloud points inside the window" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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

AMOEBA_WITHOUT_SCIPY = """
import sys
from tropmirror.cli import main
code = main(["amoeba", "--input", sys.argv[1], "--out", sys.argv[2],
             "--t", "2980.9579870417283", "--s", "0", "--grid", "24"])
print("exit", code, "scipy loaded:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_amoeba_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a whole amoeba run at log t = 8 (the
    # t above is repr(e^8)) imports no scipy module
    fan = write_fan(tmp_path, P2)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", AMOEBA_WITHOUT_SCIPY, fan, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 scipy loaded: []"
    assert (tmp_path / "out" / "hausdorff.json").exists()


LOADED_MODULES = """
import sys
from tropmirror.cli import main

def loaded():
    heavy = ["numpy"] + [f"tropmirror.{m}" for m in ("tropical", "amoeba", "floer", "coordring")]
    return sorted(m for m in heavy if m in sys.modules)

print("loaded after import:", loaded())
code = main(["hilbert", "--input", sys.argv[1], "--out", sys.argv[2], "--J", "4"])
print("loaded after hilbert", code, loaded())
code = main(["verify", "--input", sys.argv[1], "--out", sys.argv[2], "--J", "2"])
print("loaded after verify", code, loaded())
"""


def test_cli_loads_each_command_s_modules_when_it_runs(tmp_path):
    # importing the CLI loads the lattice layer alone, so hilbert runs
    # without numpy and the numeric layers; verify loads what it needs
    fan = write_fan(tmp_path, P2)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, fan, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded")] == [
        "loaded after import: []",
        "loaded after hilbert 0 []",
        "loaded after verify 0 ['numpy', 'tropmirror.coordring', 'tropmirror.floer']",
    ]


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tropmirror.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for word in ("subdivide", "tropical", "amoeba", "verify", "hilbert"):
        assert word in proc.stdout
