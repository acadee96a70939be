"""Fixtures shared by the test modules. `golden` and `generate_data` are
scripts/golden.py and scripts/generate_data.py, each loaded once as a
module; the `golden_run` fixture writes each group of golden's
output matrix once per session, so the acceptance, bench and byte-identity
tests read the same `fgs bench` runs."""

import importlib.util
import time
from dataclasses import dataclass
from pathlib import Path

import pytest


def _script(name: str):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _script("golden")
generate_data = _script("generate_data")


@dataclass(frozen=True)
class GoldenRun:
    """One group of the golden matrix as written under root/prefix: the
    records of its `fgs bench` run (None for an `fgs episode` group) and the
    wall time of writing it."""
    root: Path
    prefix: str
    records: list[dict] | None
    seconds: float

    @property
    def dir(self) -> Path:
        return self.root / self.prefix


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """golden_run(prefix) writes that group of the matrix the first time a
    test asks for it and returns its GoldenRun."""
    root = tmp_path_factory.mktemp("golden")
    matrix = golden.matrix()
    runs: dict[str, GoldenRun] = {}

    def run(prefix: str) -> GoldenRun:
        if prefix not in runs:
            write, *args = matrix[prefix]
            start = time.monotonic()
            records = write(root / prefix, *args)
            runs[prefix] = GoldenRun(root, prefix, records, time.monotonic() - start)
        return runs[prefix]

    return run
