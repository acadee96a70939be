#!/usr/bin/env python3
"""Regenerate the bundled benchmark scenarios under src/fgs/data/benchmarks.

The suite is a deterministic function of the seed baked into the package, so
rerunning this script must leave the tree unchanged; tests verify that.
`fgs bench` reads every *.json under the directory, so any other file there
is deleted and the directory holds exactly the suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fgs.scenario import build_benchmark_suite, save_scenario  # noqa: E402

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "src" / "fgs" / "data" / "benchmarks"


def main(out_dir: pathlib.Path = BENCHMARKS) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios = build_benchmark_suite()
    names = {f"{sc.scenario_id}.json" for sc in scenarios}
    for path in sorted(out_dir.glob("*.json")):
        if path.name not in names:
            path.unlink()
            print(f"deleted {path}")
    for sc in scenarios:
        save_scenario(sc, out_dir / f"{sc.scenario_id}.json")
    print(f"wrote {len(scenarios)} scenarios to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
