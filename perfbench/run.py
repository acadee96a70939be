"""Episode benchmark for fgs.

Runs plan-execute-replan episodes in process, one thread, through the
public API (``fgs.scenario.build_benchmark_suite``, ``fgs.assets.load_task``,
``fgs.episode.run_episode``), checks every episode's output, prints each
metric by name and unit, and ends with one JSON result line.

    python3 perfbench/run.py --workload trust-switch --seed 1729 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs every episode twice, traced and untraced in alternating order with
separate caches, reports the per-layer metrics of the traced copies, checks
that both copies made identical decisions and counts, and reports the time
gap as tracing overhead. Episodes run in closed loop, one after another. A
pass runs one scenario suite in a seeded shuffle, starting with empty
successor caches like one ``fgs bench`` experiment: pass 0 runs
``build_benchmark_suite(seed)``, later passes fresh suites derived from the
seed. A run stops at the first episode boundary past its deadline.
``setup_s`` is the median of set-ups spread over the run: one before the
first pass and one before each later pass (up to ``SETUP_REPEATS``), each
later pass running on the inputs of its own set-up.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line says ``"correct": false``), 2 when the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import SETUP_SPANS, Tracer, layer_metrics, setup_metrics, wrapper_faults
from workloads import (
    WORKLOADS,
    check_episode,
    episode_digest,
    resolve_config,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED_FILE = HERE / "expected_1729.json"
DEFAULT_SEED = 1729
SETUP_REPEATS = 15
FGS_MODULES = ("assets", "bench", "episode", "grounding", "scenario", "search")


class SetupError(Exception):
    pass


@dataclass
class Inputs:
    fgs: dict  # submodule name -> module
    tasks: dict  # task_id -> GroundProblem
    episodes: list  # pass 0: (key, scenario, task_id, config)


@dataclass
class Setups:
    """The set-ups of one run and what they measured."""

    workload: object
    seed: int
    trace: bool
    seconds: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # setup_metrics of each traced set-up
    faults: list = field(default_factory=list)

    def run(self) -> Inputs:
        gc.collect()  # each set-up starts without the last pass's garbage
        tracer = Tracer() if self.trace else None
        seconds, inputs = set_up(self.workload, self.seed, tracer)
        self.seconds.append(seconds)
        if tracer is not None:
            self.layers.append(setup_metrics(tracer))
            self.faults += wrapper_faults(tracer, SETUP_SPANS, ())
        return inputs


@dataclass
class Measured:
    """What the timed loop saw."""

    samples: list = field(default_factory=list)  # seconds per untraced episode
    traced_s: float = 0.0
    successes: int = 0
    faulty: int = 0
    faults: list = field(default_factory=list)
    traced: Counter = field(default_factory=Counter)  # per-episode totals, traced copies
    passes_completed: int = 0
    records: dict = field(default_factory=dict)  # key -> pinned counts, first pass only


def import_fgs() -> dict:
    """Import fgs afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "fgs" or n.startswith("fgs.")]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module(f"fgs.{name}") for name in FGS_MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import fgs from {SRC}: {exc}") from exc
    origin = Path(sys.modules["fgs"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"fgs was imported from {origin}, not from {SRC}")
    return mods


def set_up(workload, seed: int, tracer: Tracer | None = None) -> tuple[float, Inputs]:
    """Import fgs, generate the scenarios, parse and ground every task the
    workload uses. Returns (seconds, inputs)."""
    start = perf_counter()
    fgs = import_fgs()
    if tracer is not None:
        tracer.install()
    try:
        inputs = Inputs(fgs, {}, [])
        inputs.episodes = episodes_of(inputs, workload, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return perf_counter() - start, inputs


def episodes_of(inputs: Inputs, workload, seed: int) -> list:
    """The workload's episodes over ``build_benchmark_suite(seed)``,
    grounding any task not yet loaded."""
    fgs = inputs.fgs
    configs = [(name, resolve_config(fgs["bench"], fgs["search"], name))
               for name in workload.configs]
    episodes = []
    for sc in fgs["scenario"].build_benchmark_suite(seed):
        if len(sc.tools) > 1 and not workload.two_tool:
            continue
        task_id = fgs["assets"].task_for_scenario(sc.task_type, sc.tools).task_id
        if task_id not in inputs.tasks:
            inputs.tasks[task_id] = fgs["assets"].load_task(task_id)[2]
        for name, cfg in configs:
            episodes.append((f"{name}|{sc.scenario_id}", sc, task_id, cfg))
    return episodes


def suite_seed(seed: int, pass_no: int) -> int:
    """Pass 0 runs ``build_benchmark_suite(seed)`` itself; later passes run
    fresh suites derived from the seed, so a run times more distinct
    episodes than one suite holds and seeds share no suites."""
    if pass_no == 0:
        return seed
    return random.Random(f"suite:{seed}:{pass_no}").randrange(2**31)


def bundled_suite_faults(inputs: Inputs, seed: int) -> list[str]:
    """At the default seed the generated suite must equal the bundled files."""
    scenario = inputs.fgs["scenario"]
    suite = scenario.build_benchmark_suite(seed)
    files = sorted(inputs.fgs["assets"].benchmark_dir().glob("*.json"))
    bundled = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in files}
    generated = {sc.scenario_id: scenario.scenario_to_json(sc) for sc in suite}
    if bundled != generated:
        differ = sorted(k for k in bundled.keys() | generated.keys()
                        if bundled.get(k) != generated.get(k))
        return [f"generated suite differs from the bundled files: {differ[:5]}"]
    return []


def _run_episode(inputs: Inputs, episode, noise_on: bool, caches: dict):
    _, scenario, task_id, cfg = episode
    return inputs.fgs["episode"].run_episode(
        inputs.tasks[task_id], cfg, scenario,
        trust_policy="switchable", noise_on=noise_on, succ_cache=caches[task_id],
    )


def measure(inputs: Inputs, workload, seed: int, seconds: float, tracer: Tracer | None = None,
            expected: dict | None = None, max_passes: int | None = None,
            setups: Setups | None = None) -> Measured:
    """Run episodes until *seconds* have passed (or *max_passes* passes).

    With *setups*, each pass after the first starts with a fresh set-up
    until ``SETUP_REPEATS`` set-ups have run."""
    m = Measured()
    deadline = perf_counter() + seconds
    pass_no = 0
    while max_passes is None or pass_no < max_passes:
        if pass_no > 0 and setups is not None and len(setups.seconds) < SETUP_REPEATS:
            inputs = setups.run()
        order = inputs.episodes if pass_no == 0 else episodes_of(
            inputs, workload, suite_seed(seed, pass_no))
        order = list(order)
        random.Random(f"order:{seed}:{pass_no}").shuffle(order)
        caches = {t: {} for t in inputs.tasks}
        traced_caches = {t: {} for t in inputs.tasks}
        for i, episode in enumerate(order):
            if m.samples and perf_counter() >= deadline:
                return m
            traced = None
            if tracer is not None and i % 2 == 0:
                traced = _traced_episode(inputs, episode, workload, tracer, traced_caches)
            start = perf_counter()
            result = _guarded(_run_episode, inputs, episode, workload.noise_on, caches)
            m.samples.append(perf_counter() - start)
            if tracer is not None and i % 2 == 1:
                traced = _traced_episode(inputs, episode, workload, tracer, traced_caches)
            faults = _episode_faults(m, inputs, episode, result, traced,
                                     expected if pass_no == 0 else None, pass_no == 0)
            if faults:
                m.faulty += 1
                m.faults.append(f"{episode[0]}: {'; '.join(faults)}")
        pass_no += 1
        m.passes_completed = pass_no
    return m


def _guarded(run, *args):
    """The episode's result, or the exception it raised: an episode that
    raises counts as an error and the run goes on."""
    try:
        return run(*args)
    except Exception as exc:
        return exc


def _traced_episode(inputs: Inputs, episode, workload, tracer: Tracer, caches: dict):
    evals, scores = tracer.evals(), tracer.calls["scoring.score"]
    tracer.install()
    try:
        start = perf_counter()
        result = _guarded(tracer.timed("episode", _run_episode),
                          inputs, episode, workload.noise_on, caches)
        elapsed = perf_counter() - start
    finally:
        tracer.uninstall()
    if isinstance(result, Exception):
        return result, elapsed, None
    counts = {"digest": episode_digest(result), "searches": result.searches,
              "expanded": result.nodes_total, "h_evals": tracer.evals() - evals,
              "score_calls": tracer.calls["scoring.score"] - scores}
    return result, elapsed, counts


def _episode_faults(m: Measured, inputs: Inputs, episode, result, traced,
                    pinned: dict | None, record: bool) -> list[str]:
    """Check one episode (and its traced copy), fold it into *m*, and with
    *record* keep its counts in ``m.records``."""
    key, scenario, task_id, _ = episode
    if traced is not None:
        m.traced_s += traced[1]
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    m.successes += result.success
    counts = {"digest": episode_digest(result), "searches": result.searches,
              "expanded": result.nodes_total}
    faults = check_episode(inputs.fgs["grounding"], inputs.tasks[task_id], scenario, result)
    if traced is not None:
        t_result, _, t_counts = traced
        if t_counts is None:
            return faults + [f"traced copy raised {t_result!r}"]
        _add_traced(m.traced, t_result)
        if {k: t_counts[k] for k in counts} != counts:
            faults.append("traced and untraced copies differ")
        counts = t_counts
    expected = (pinned or {}).get(key)
    if expected is not None:
        mismatched = sorted(k for k in counts if counts[k] != expected[k])
        if mismatched:
            faults.append(f"differs from the seed-{DEFAULT_SEED} record in {mismatched}")
    if record:
        m.records[key] = counts
    return faults


def _add_traced(totals: Counter, result) -> None:
    totals["episodes"] += 1
    totals["successes"] += result.success
    totals["searches"] += result.searches
    totals["failed_attempts"] += result.failed_attempts
    totals["phase2"] += result.phase2_whitelist is not None
    totals["expanded"] += result.nodes_total
    totals["replan_expanded"] += result.nodes_total - result.nodes_first_search


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(m: Measured, setup_times: list[float], tail: int) -> tuple[dict, list[str]]:
    """End-to-end metrics, from the untraced episodes and the set-ups."""
    episode_ms = [1000 * t for t in m.samples]
    tail_ms = _percentile(episode_ms, tail)
    beyond = sum(1 for v in episode_ms if v > tail_ms)
    notes = [f"episode_ms_tail is p{tail}: {beyond} of {len(episode_ms)} episodes lie beyond it "
             f"({m.passes_completed} whole suites)",
             f"setup_s is the median of {len(setup_times)} set-ups"]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "episodes_per_s": (len(m.samples) / sum(m.samples), "1/s"),
        "episode_ms_p50": (_percentile(episode_ms, 50), "ms"),
        "episode_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (m.successes / len(m.samples), "ratio"),
    }
    return metrics, notes


def per_layer(m: Measured, tracer: Tracer, setups: list[dict]) -> dict:
    """Per-layer metrics, from the traced copies and the traced set-ups."""
    t = m.traced
    metrics = layer_metrics(tracer)
    for name, (_, unit) in setups[0].items():
        metrics[name] = (statistics.median(s[name][0] for s in setups), unit)
    episodes = max(t["episodes"], 1)
    metrics.update({
        "search.replan_expanded_share": (t["replan_expanded"] / max(t["expanded"], 1), "ratio"),
        "episode.searches_per_episode": (t["searches"] / episodes, "count"),
        "episode.failed_attempts_mean": (t["failed_attempts"] / episodes, "count"),
        "episode.phase2_share": (t["phase2"] / episodes, "ratio"),
        "episode.accepted_per_search": (t["successes"] / max(t["searches"], 1), "ratio"),
        "trace.episodes": (t["episodes"], "count"),
        "trace.overhead_share": (m.traced_s / sum(m.samples) - 1.0, "ratio"),
    })
    return metrics


def load_expected(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return data["workloads"][workload]["episodes"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.environ.pop("FGS_DATA_DIR", None)  # always the checkout's bundled data
    if not (SRC / "fgs" / "__init__.py").is_file():
        print(f"error: no fgs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    faults: list[str] = []
    setups = Setups(workload, args.seed, bool(args.trace))
    try:
        inputs = setups.run()
        if args.seed == DEFAULT_SEED:
            faults += bundled_suite_faults(inputs, args.seed)
        expected = load_expected(args.workload, args.seed)
    except (SetupError, OSError, KeyError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name}: {len(inputs.episodes)} episodes per pass, seed {args.seed}, "
          f"trace {args.trace}; python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"{platform.machine()}")
    gc.collect()
    tracer = Tracer() if args.trace else None
    m = measure(inputs, workload, args.seed, args.seconds, tracer, expected, setups=setups)
    faults += setups.faults + m.faults
    if tracer is not None:
        faults += wrapper_faults(tracer, workload.must_fire, workload.must_not_fire)
        metrics = per_layer(m, tracer, setups.layers)
    else:
        metrics, notes = end_to_end(m, setups.seconds, workload.tail)
        for note in notes:
            print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"episode_error_share                  {m.faulty / len(m.samples):.6g} ratio")
    for fault in faults[:20]:
        print(f"FAULT {fault}")
    correct = not faults
    print(json.dumps({
        "correct": correct,
        "attempted": len(m.samples),
        "failed": m.faulty,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
