#!/usr/bin/env python3
"""Rewrite tests/golden_sha256.json: the sha256 of every file the golden
output matrix writes, by its path relative to the matrix root.

The matrix is every `fgs bench` experiment with noise off and on, its
traces and its report as csv, json and markdown (with the budget sweep
where one is allowed); each experiment on scenarios generated at seed 7,
two cases per tool (`algorithms` with noise off, the other two with noise
on, so the generator's armed noise reaches the output); and `fgs episode`
on every bundled scenario under three configs, its stdout and its trace.
tests/test_golden.py regenerates the matrix group by group and compares it
with the manifest. A change meant to move output reruns this script, and
`git diff tests/golden_sha256.json` names the files that moved:

    python3 scripts/golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fgs.assets import benchmark_dir, data_dir  # noqa: E402
from fgs.bench import (  # noqa: E402
    EXPERIMENT_CONFIGS,
    ExperimentConfig,
    aggregate,
    collect_records,
    emit_report,
)
from fgs.cli import main as cli_main  # noqa: E402

MANIFEST = ROOT / "tests" / "golden_sha256.json"
BUDGET_SWEEP = (0, 1, 2, 5, 10, 89)

# `fgs episode` flags of each episode config
EPISODE_CONFIGS = {
    "FS+H-noise-on": ["--algorithm", "astar", "--heuristic", "landmarks", "--features", "on",
                      "--noise", "on"],
    "H-noise-off": ["--algorithm", "astar", "--heuristic", "landmarks"],
    "EHC+FF-noise-off": ["--algorithm", "ehc", "--heuristic", "ff", "--features", "on"],
}


def write_bench(out: pathlib.Path, cfg: ExperimentConfig) -> list[dict]:
    """One experiment run: its traces under out/traces, then its report in
    each format. Returns the run's records (bench.collect_records)."""
    records = collect_records(cfg, trace_dir=out / "traces")
    table = aggregate(records, cfg)
    for fmt, ext in (("csv", "csv"), ("json", "json"), ("markdown", "md")):
        emit_report(table, fmt, out / f"report.{ext}")
    return records


def write_episode(out: pathlib.Path, scenario: str, flags: list[str]) -> None:
    """`fgs episode` on a bundled scenario: its stdout and its trace."""
    out.mkdir(parents=True)
    task = data_dir() / "domains" / scenario.rsplit("_", 1)[0]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli_main(["episode", "--domain", f"{task}.domain.pddl", "--problem", f"{task}.problem.pddl",
                  "--scenario", str(benchmark_dir() / f"{scenario}.json"), *flags,
                  "--trace", str(out / "trace.jsonl")])
    (out / "stdout.json").write_bytes(stdout.getvalue().encode())


def matrix() -> dict[str, tuple]:
    """Each group of the matrix by its path prefix: its writer, then the
    writer's arguments after the output directory."""
    groups = {}
    for experiment in EXPERIMENT_CONFIGS:
        budgets = None if experiment == "adaptability" else BUDGET_SWEEP
        for noise in ("off", "on"):
            groups[f"bench/{experiment}-noise-{noise}"] = (write_bench, ExperimentConfig(
                experiment=experiment, budgets=budgets, noise_on=noise == "on"))
    for experiment in EXPERIMENT_CONFIGS:
        budgets = None if experiment == "adaptability" else BUDGET_SWEEP
        groups[f"bench/{experiment}-generated-seed-7-cases-2"] = (write_bench, ExperimentConfig(
            experiment=experiment, budgets=budgets, seed=7, cases_per_tool=2,
            noise_on=experiment != "algorithms", regression=False))
    for path in sorted(benchmark_dir().glob("*.json")):
        for config, flags in EPISODE_CONFIGS.items():
            groups[f"episode/{path.stem}/{config}"] = (write_episode, path.stem, flags)
    return groups


def digests(root: pathlib.Path, prefix: str = "") -> dict[str, str]:
    """sha256 of every file under root/prefix, by its path relative to root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (root / prefix).rglob("*") if p.is_file()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for prefix, (write, *args) in matrix().items():
            write(root / prefix, *args)
        manifest = digests(root)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
