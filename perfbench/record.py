"""Maintenance commands for the episode benchmark; the benchmark itself is
``run.py``.

    python3 perfbench/record.py expected
        Run one full traced pass of every workload at seed 1729, check the
        totals against the reference counts below, and rewrite
        ``expected_1729.json`` with each episode's digest and counts.

    python3 perfbench/record.py sweep --workload W --seeds 1-10 --seconds 55 \\
            [--trace 0|1] [--out FILE]
        Run ``run.py`` once per seed, one run at a time, and print each
        metric's median and quartile spread (IQR over median).

    python3 perfbench/record.py trajectory --label L SWEEP.json ...
        Append one point, built from sweep files, to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import run
from layers import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TRAJECTORY_FILE = HERE / "trajectory.json"

# Deterministic totals of one pass at seed 1729 that the pinned episodes
# must add up to, per config, per heuristic, or over "all" episodes.
REFERENCE_TOTALS = {
    "replan": {"searches": {"H": 2757}, "expanded": {"H": 147_485}},
    "replan-ucs": {"searches": {"UCS": 2757}, "expanded": {"UCS": 2_912_133}},
    "relaxed-heuristics": {
        "expanded": {"wA*+FF": 1078, "EHC+FF": 980, "A*+hadd": 1494, "A*+hmax": 2684},
        "h_evals": {"ff": 7280, "hadd": 5220, "hmax": 6690},
    },
    "trust-switch": {
        "searches": {"all": 336},
        "expanded": {"FS+H": 14_391, "FS": 52_194},
        "score_calls": {"all": 242_254},
    },
}
H_OF_CONFIG = {"wA*+FF": "ff", "EHC+FF": "ff", "A*+hadd": "hadd", "A*+hmax": "hmax"}


def _totals(name: str, records: dict) -> dict:
    out: dict = {}
    for kind, wanted in REFERENCE_TOTALS[name].items():
        got = Counter()
        for key, counts in records.items():
            config = key.split("|", 1)[0]
            if kind == "h_evals":
                group = H_OF_CONFIG[config]
            else:
                group = config if config in wanted else "all"
            got[group] += counts[kind]
        out[kind] = dict(got)
    return out


def cmd_expected(_args) -> int:
    sys.path.insert(0, str(run.SRC))
    payload = {"seed": run.DEFAULT_SEED, "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        _, inputs = run.set_up(workload, run.DEFAULT_SEED)
        m = run.measure(inputs, workload, run.DEFAULT_SEED, math.inf, Tracer(), max_passes=1)
        totals = _totals(name, m.records)
        good = not m.faults and totals == REFERENCE_TOTALS[name]
        ok &= good
        print(f"{name}: {len(m.records)} episodes, totals {totals} "
              f"{'match' if good else 'DO NOT MATCH'}; faults {m.faults[:3]}")
        payload["workloads"][name] = {"totals": totals, "episodes": dict(sorted(m.records.items()))}
    if not ok:
        print("not written: totals or checks failed", file=sys.stderr)
        return 1
    run.EXPECTED_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {run.EXPECTED_FILE}")
    return 0


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles from statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_sweep(args) -> int:
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                              cwd=HERE.parent)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        runs.append({"seed": seed, "wall_s": wall, "attempted": result["attempted"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "units": {k: v["unit"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: {wall:.1f}s wall, {result['attempted']} episodes", flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        if len(values) >= 2:
            med, q1, q3, share = spread(values)
            print(f"{name:36s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


def machine_notes() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def cmd_trajectory(args) -> int:
    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "machine": machine_notes(), "workloads": {}}
    for path in args.sweeps:
        sweep = json.loads(Path(path).read_text(encoding="utf-8"))
        entry = point["workloads"].setdefault(sweep["workload"], {})
        section = "per_layer" if sweep["trace"] else "end_to_end"
        runs = sweep["runs"]
        metrics = {}
        for name, unit in runs[0]["units"].items():
            values = [r["metrics"][name] for r in runs]
            if len(values) >= 2:
                med, q1, q3, share = spread(values)
                metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                 "unit": unit}
            else:
                metrics[name] = {"value": values[0], "unit": unit}
        entry[section] = {"seconds": sweep["seconds"], "seeds": [r["seed"] for r in runs],
                          "metrics": metrics}
        if sweep["trace"]:
            entry["tracing_overhead_share"] = metrics["trace.overhead_share"]
    data = (json.loads(TRAJECTORY_FILE.read_text(encoding="utf-8"))
            if TRAJECTORY_FILE.exists() else {"points": []})
    data["points"].append(point)
    TRAJECTORY_FILE.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"appended '{args.label}' to {TRAJECTORY_FILE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark maintenance")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("expected")
    sw = sub.add_parser("sweep")
    sw.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    sw.add_argument("--seeds", default="1-10")
    sw.add_argument("--seconds", type=float, default=55)
    sw.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sw.add_argument("--out")
    tr = sub.add_parser("trajectory")
    tr.add_argument("--label", required=True)
    tr.add_argument("sweeps", nargs="+")
    args = ap.parse_args(argv)
    return {"expected": cmd_expected, "sweep": cmd_sweep, "trajectory": cmd_trajectory}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
