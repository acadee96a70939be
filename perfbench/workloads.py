"""The benchmark's workloads and the output check applied to every episode.

Every workload draws its scenarios from ``build_benchmark_suite(seed)``;
seed 1729 reproduces the bundled regression suite. Each was chosen to
stress a different layer:

- ``replan``: the H baseline (A* with the landmark count, no feature
  scoring) on the 60 single-tool scenarios, noise off. Every failed join
  starts a fresh search, about 45 per episode, as in the H and UCS
  baselines that take most of the baselines experiment's time. Exercises
  search, successor generation and replanning; bypasses scoring and the
  relaxation heuristics. Run by hand only: its timings swing with the
  host's speed more than the others', and ``trust-switch`` covers the
  same layers.
- ``relaxed-heuristics``: feature-guided wA*+FF, EHC+FF, A*+hadd and
  A*+hmax on the same 60 scenarios, noise off. One search per episode, so
  nearly all time goes to delete-relaxation heuristics; bypasses replanning.
- ``trust-switch``: FS+H and FS with sensor noise on over all 90 scenarios.
  The only workload where the hard constraints reject the true pair,
  trusted planning runs dry and phase 2 searches the reject set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]  # names resolved by resolve_config
    two_tool: bool  # include the two-tool scenarios
    noise_on: bool
    tail: int  # percentile reported as episode_ms_tail
    must_fire: tuple[str, ...]  # spans the traced run must reach
    must_not_fire: tuple[str, ...]  # spans the workload must bypass


_COMMON = ("search", "grounding.successors", "scenario.sense")
_RELAXED = ("heuristics.eval.ff", "heuristics.eval.hadd", "heuristics.eval.hmax")
_LANDMARKS = ("heuristics.landmarks", "heuristics.eval.landmarks")

# The tail is a percentile with at least ten episodes beyond it even in a
# 30 s run on a machine at half the speed of the one that defined the
# benchmark; it stays fixed so it names the same statistic on every commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replan", ("H",), two_tool=False, noise_on=False, tail=98,
            must_fire=_COMMON + _LANDMARKS,
            must_not_fire=("scoring.score", "heuristics.eval.zero") + _RELAXED,
        ),
        Workload(
            "relaxed-heuristics", ("wA*+FF", "EHC+FF", "A*+hadd", "A*+hmax"),
            two_tool=False, noise_on=False, tail=98,
            must_fire=_COMMON + ("scoring.score",) + _RELAXED,
            must_not_fire=("heuristics.eval.zero",) + _LANDMARKS,
        ),
        Workload(
            "trust-switch", ("FS+H", "FS"), two_tool=True, noise_on=True, tail=99,
            must_fire=_COMMON + ("scoring.score",) + _LANDMARKS,
            must_not_fire=("heuristics.eval.zero",) + _RELAXED,
        ),
        # Blind UCS replanning: one suite takes about 30 s, too long for the
        # run length, so it is run by hand and by the seed-1729 count check.
        Workload(
            "replan-ucs", ("UCS",), two_tool=False, noise_on=False, tail=75,
            must_fire=_COMMON,
            must_not_fire=("scoring.score", "heuristics.eval.zero") + _RELAXED + _LANDMARKS,
        ),
    )
}


def resolve_config(fgs_bench, fgs_search, name: str):
    """The search config behind a workload config name, taken from the
    harness's own experiment tables where it has one."""
    table = dict(fgs_bench.BASELINE_CONFIGS + fgs_bench.ALGORITHM_CONFIGS)
    if name in table:
        return table[name]
    heuristic = {"A*+hadd": "hadd", "A*+hmax": "hmax"}[name]
    return fgs_search.SearchConfig(algorithm="astar", heuristic=heuristic, use_feature_score=True)


def episode_digest(result) -> str:
    """Digest of what an episode decided; compared across runs and commits."""
    payload = [
        result.success,
        result.status,
        [list(p) for p in result.attempted],
        result.plan_length,
        result.nodes_first_search,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def check_episode(grounding, gp, scenario, result) -> list[str]:
    """Output check: the final plan must re-simulate to the goal and use the
    annotated pair; attempts must be distinct and agree with the failure
    count."""
    faults = []
    attempted = list(result.attempted)
    if len(set(attempted)) != len(attempted):
        faults.append("an attempted pair repeats")
    if result.success:
        state = gp.init
        try:
            for act in result.final_plan:
                state = grounding.apply_action(state, act)
        except grounding.GroundingError as exc:
            faults.append(f"final plan does not execute: {exc}")
        if not grounding.goal_satisfied(state, gp):
            faults.append("final plan does not reach the goal")
        if not attempted or attempted[-1] != scenario.ground_truth.pair:
            faults.append("accepted join is not the ground-truth pair")
        if result.failed_attempts != len(attempted) - 1:
            faults.append("failed_attempts disagrees with the attempted pairs")
    elif result.failed_attempts != len(attempted):
        faults.append("failed_attempts disagrees with the attempted pairs")
    if result.searches < 1 or result.searches != len(result.nodes_per_search):
        faults.append("search count disagrees with nodes_per_search")
    return faults
