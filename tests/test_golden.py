"""Byte identity: the golden output matrix of scripts/golden.py, written one
group at a time by the session's `golden_run` store, against the sha256 per
file in tests/golden_sha256.json. A failure names every changed, missing and
extra file of its group."""

import json

import pytest

from .conftest import golden

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
MATRIX = golden.matrix()


def test_manifest_holds_the_matrix_groups_only():
    stray = sorted(path for path in MANIFEST if not any(path.startswith(p + "/") for p in MATRIX))
    empty = sorted(p for p in MATRIX if not any(path.startswith(p + "/") for path in MANIFEST))
    assert not (stray or empty), f"paths in no group {stray}, groups with no path {empty}"


@pytest.mark.parametrize("prefix", MATRIX)
def test_matches_manifest(golden_run, prefix):
    run = golden_run(prefix)
    got = golden.digests(run.root, prefix)
    want = {path: digest for path, digest in MANIFEST.items() if path.startswith(prefix + "/")}
    changed = sorted(path for path in got.keys() & want.keys() if got[path] != want[path])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"{prefix}: changed {changed}, missing {missing}, extra {extra}; "
        "rerun scripts/golden.py only if the change to the output is intended")
