"""The package layout: every module is reached one way, by its dotted name."""

import ast
import importlib
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from types import ModuleType

import pytest

import fgs

SRC = Path(fgs.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _relative_imports(stem: str):
    """(module imported, whether the import is a top-level statement) for
    every relative import in fgs/<stem>.py; `from . import x` names the
    submodule x if there is one, else the package root."""
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [
                alias.name if alias.name in MODULES else "__init__" for alias in node.names]
            for target in targets:
                yield target, node in tree.body


def test_relative_imports_are_at_module_top():
    nested = [(stem, target) for stem in MODULES
              for target, at_top in _relative_imports(stem) if not at_top]
    assert nested == []


def test_module_imports_have_no_cycle():
    graph = {stem: {target for target, _ in _relative_imports(stem)} for stem in MODULES}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_package_root_exports_only_its_version():
    exported = {name for name, value in vars(fgs).items()
                if not name.startswith("__") and not isinstance(value, ModuleType)}
    assert exported == set()
    assert not hasattr(fgs, "__all__")
    assert fgs.__version__ == "0.1.0"


def test_record_codec_imports_only_errors():
    # the JSON codec stands below every reader of a file format
    assert {target for target, _ in _relative_imports("records")} == {"errors"}
    nodes = list(ast.walk(ast.parse((SRC / "records.py").read_text(encoding="utf-8"))))
    absolute = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    assert not [name for name in absolute if name.split(".")[0] == "fgs"]


# Reads a scenario and a library through the codec, imports fgs afresh, reads
# them again, and exits 1 if the first import's Scenario class is still alive
# (a function keeps its module's globals, not the module object).
FRESH_IMPORT = """
import gc, sys, weakref
def read():
    from fgs.scenario import build_benchmark_suite, scenario_from_json, scenario_to_json
    scenario_from_json(scenario_to_json(build_benchmark_suite(7, 1)[0]))
read()
first = weakref.ref(sys.modules["fgs.scenario"].Scenario)
for name in [n for n in sys.modules if n.split(".")[0] == "fgs"]:
    del sys.modules[name]
read()
gc.collect()
sys.exit(first() is not None)
"""


def test_a_fresh_import_frees_the_last():
    # perfbench imports fgs afresh for each set-up, so nothing process-wide,
    # such as typing's cache of Annotated[...] forms, may keep a module alive
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# The names the episode benchmark (perfbench/layers.py, Tracer.install)
# replaces with timing wrappers; a refactor that moves one fails here.
WRAPPED_NAMES = [
    "fgs.search.successors", "fgs.scoring.feature_score", "fgs.episode.search",
    "fgs.episode.sense", "fgs.heuristics.discover_landmarks",
    "fgs.assets.parse_domain", "fgs.assets.parse_problem", "fgs.assets.ground",
    "fgs.assets.load_task", "fgs.scenario.build_benchmark_suite",
    *(f"fgs.heuristics.{cls}.evaluate" for cls in (
        "FFHeuristic", "MaxHeuristic", "AddHeuristic", "LandmarkCountHeuristic", "ZeroHeuristic")),
]


@pytest.mark.parametrize("dotted", WRAPPED_NAMES)
def test_wrapped_names_resolve_as_dotted_attributes(monkeypatch, dotted):
    _, module_name, *owners, attr = dotted.split(".")
    module = importlib.import_module(f"fgs.{module_name}")
    assert getattr(fgs, module_name) is module
    owner = module
    for name in owners:
        owner = getattr(owner, name)
    assert callable(getattr(owner, attr))
    sentinel = object()
    monkeypatch.setattr(dotted, sentinel)
    assert getattr(owner, attr) is sentinel


@pytest.mark.parametrize("name", ["hmax", "hadd", "ff"])
def test_cached_heuristics_keep_their_values_in_cache_attribute(name):
    # the benchmark's evaluate wrapper counts a hit when the state is a key
    # of the heuristic's _cache before the call
    from fgs.assets import load_task
    from fgs.heuristics import make_heuristic

    _, _, gp = load_task("cooking_either")
    heuristic = make_heuristic(name, gp)
    assert gp.init not in heuristic._cache
    value, _ = heuristic.evaluate(gp.init)
    assert heuristic._cache[gp.init] == value
