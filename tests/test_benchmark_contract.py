"""The seed-1729 counts pinned by the episode benchmark, checked in tier 1.

``perfbench/expected_1729.json`` records, for every benchmark episode at
seed 1729, a digest of what the episode decided and how many searches,
expansions, heuristic evaluations and scoring calls it took. The benchmark
fails a run whose counts differ. This test reruns a few of those episodes
under the benchmark's own tracer, so a change that moves a pinned count
fails here as well, not only in a benchmark run. The reruns also pass
through the benchmark's own output check and its per-episode totals, which
read every ``EpisodeResult`` name the benchmark reads. ``perfbench`` is
imported as it is, never modified.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import fgs.assets
import fgs.bench
import fgs.episode
import fgs.grounding
import fgs.scenario

SEARCH = importlib.import_module("fgs.search")  # the attribute fgs.search is the function
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import Tracer  # noqa: E402
from run import Inputs, _add_traced, bundled_suite_faults  # noqa: E402
from workloads import WORKLOADS, check_episode, episode_digest, resolve_config  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_1729.json").read_text(encoding="utf-8"))

# Two single-search relaxed-heuristics episodes (EHC and best-first), and two
# trust-switch episodes that withdraw trust and plan over the reject set.
EPISODES = [
    ("relaxed-heuristics", "EHC+FF|woodworking_hammer_case00", False),
    ("relaxed-heuristics", "A*+hadd|cleaning_rake_case00", False),
    ("trust-switch", "FS+H|woodworking_screwdriver_case03", True),
    ("trust-switch", "FS|cleaning_rake_case03", True),
]


def test_bundled_files_match_the_benchmark_generator():
    # the benchmark regenerates the seed-1729 suite and fails a run whose
    # bundled files differ from it
    inputs = Inputs({"scenario": fgs.scenario, "assets": fgs.assets}, {}, [])
    assert bundled_suite_faults(inputs, EXPECTED["seed"]) == []


def _traced_episode(workload, key, tasks=None):
    """Rerun one seed-1729 episode under the benchmark's tracer: its pinned
    counts, the episode result and the benchmark's output check of it.
    *tasks* maps a task id to the problem and cache that its episodes
    share; without it the episode starts cold."""
    config_name, scenario_id = key.split("|")
    cfg = resolve_config(fgs.bench, SEARCH, config_name)
    scenario = fgs.scenario.load_scenario(fgs.assets.benchmark_dir() / f"{scenario_id}.json")
    task = fgs.assets.task_for_scenario(scenario.task_type, scenario.tools)
    tasks = {} if tasks is None else tasks
    if task.task_id not in tasks:
        tasks[task.task_id] = (fgs.assets.load_task(task.task_id)[2], {})
    gp, cache = tasks[task.task_id]
    tracer = Tracer()
    tracer.install()
    try:
        result = fgs.episode.run_episode(
            gp, cfg, scenario, trust_policy="switchable",
            noise_on=WORKLOADS[workload].noise_on, succ_cache=cache,
        )
    finally:
        tracer.uninstall()
    counts = {
        "digest": episode_digest(result),
        "searches": result.searches,
        "expanded": result.nodes_total,
        "h_evals": tracer.evals(),
        "score_calls": tracer.calls["scoring.score"],
    }
    return counts, result, check_episode(fgs.grounding, gp, scenario, result)


@pytest.mark.parametrize("workload,key,phase2", EPISODES, ids=[k for _, k, _ in EPISODES])
def test_traced_episode_matches_seed_1729_record(workload, key, phase2):
    assert EXPECTED["seed"] == 1729
    counts, result, faults = _traced_episode(workload, key)
    assert counts == EXPECTED["workloads"][workload]["episodes"][key]
    assert faults == []
    totals = Counter()
    _add_traced(totals, result)
    assert totals["phase2"] == phase2
    assert totals["searches"] == counts["searches"]
    assert totals["expanded"] == counts["expanded"]
    assert totals["replan_expanded"] == counts["expanded"] - result.nodes_per_search[0]


def test_every_hadd_episode_matches_seed_1729_record():
    # No fgs bench experiment runs h_add, so all of its benchmark episodes
    # are checked here.
    pinned = {
        key: counts
        for key, counts in EXPECTED["workloads"]["relaxed-heuristics"]["episodes"].items()
        if key.startswith("A*+hadd|")
    }
    assert len(pinned) == 60
    rerun = {key: _traced_episode("relaxed-heuristics", key)[0] for key in pinned}
    assert rerun == pinned


def test_relaxed_heuristics_episodes_sharing_caches_match_seed_1729_record():
    # The benchmark shares one cache per task across a pass, so heuristic
    # values and successor lists carry over between episodes; every episode
    # still evaluates and scores as often as the pinned record says.
    pinned = EXPECTED["workloads"]["relaxed-heuristics"]["episodes"]
    assert len(pinned) == 240
    tasks = {}
    rerun = {key: _traced_episode("relaxed-heuristics", key, tasks)[0] for key in pinned}
    assert rerun == pinned
