"""Checks on the package source itself."""

import ast
import pathlib
import re

import tropmirror


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # silently stop running; checks in the package raise explicitly
    found = []
    for path in sorted(pathlib.Path(tropmirror.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_distribution_metadata_matches_the_package():
    # pip show tropmirror and importlib.metadata.version("tropmirror") read
    # these two fields; read with a regex, as tomllib is not in Python 3.10
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    fields = dict(re.findall(r'^(name|version) = "([^"]*)"$', project, re.M))
    assert fields == {"name": "tropmirror", "version": tropmirror.__version__}


def test_scipy_is_not_a_runtime_dependency():
    # scipy is in the test extra only: no module of the package imports it,
    # and the runtime dependencies name numpy alone
    imported = set()
    for path in sorted(pathlib.Path(tropmirror.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    assert "scipy" not in imported
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([^"]*)"', deps) == ["numpy>=1.24"]


def test_bench_tracer_patches_and_restores_every_binding(monkeypatch):
    # bench/tracer.py wraps package functions and methods by name, so a
    # traced name that leaves the package fails here, not in a later
    # `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    patched = list(tracer._undo)
    try:
        assert patched
        assert all(owner.__dict__[attr] is not old for owner, attr, old in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is old for owner, attr, old in patched)
