"""The package layout: every module is reached one way, by its dotted name."""

import ast
import importlib
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


@pytest.mark.parametrize("dotted", ["fgs.search.successors", "fgs.scoring.feature_score",
                                    "fgs.episode.search"])
def test_wrapped_names_resolve_as_dotted_attributes(monkeypatch, dotted):
    _, module_name, attr = dotted.split(".")
    module = importlib.import_module(f"fgs.{module_name}")
    assert getattr(fgs, module_name) is module
    sentinel = object()
    monkeypatch.setattr(dotted, sentinel)
    assert getattr(module, attr) is sentinel
