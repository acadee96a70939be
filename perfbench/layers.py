"""Per-layer tracing for the episode benchmark, applied from outside the
program.

The tracer replaces, for the duration of a traced episode or set-up, the
names each caller inside ``fgs`` actually binds (``fgs.episode.search``,
``fgs.search.successors``, ``fgs.scoring.feature_score``, the ``evaluate``
method of each heuristic class, ...) with timing wrappers, and puts the
originals back afterwards. Spans nest through a stack, so a layer's self
time is its span minus the time its child spans cover. Everything stays in
memory; nothing is written out.
"""

from __future__ import annotations

import gc
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

HEURISTICS = ("ff", "hadd", "hmax", "landmarks")
CACHED_HEURISTICS = ("ff", "hadd", "hmax")
SETUP_SPANS = ("pddl.parse", "grounding.ground", "assets.load_task", "scenario.generate")


class Tracer:
    def __init__(self):
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # event counts observed at span boundaries
        self._stack: list[float] = []  # child time accumulated by each open span
        self._saved: list[tuple] = []
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, name: str, start: float) -> None:
        dt = perf_counter() - start
        child = self._stack.pop()
        self.span_s[name] += dt
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def timed(self, name: str, fn, after=None):
        """Wrap *fn* in a span; *after(result)* may add counts."""

        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installing wrappers into the fgs modules ----------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries of the currently imported ``fgs``.

        Modules come from ``sys.modules``: ``fgs.search`` as an attribute is
        the function that ``fgs/__init__`` re-exports, not the module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"fgs.{name}"] for name in
                ("assets", "episode", "heuristics", "scenario", "scoring", "search")}
        assets, episode, heuristics = mods["assets"], mods["episode"], mods["heuristics"]
        scenario, scoring, search = mods["scenario"], mods["scoring"], mods["search"]
        counts = self.counts

        def after_search(result):
            counts["search.expanded"] += result.nodes_expanded

        def after_ground(gp):
            counts["grounding.ground_actions"] += len(gp.actions)

        def after_score(phi):
            if phi == -math.inf:
                counts["scoring.rejects"] += 1

        self._patch(episode, "search", self.timed("search", episode.search, after_search))
        self._patch(episode, "sense", self.timed("scenario.sense", episode.sense))
        self._patch(search, "successors", self._successors(search.successors))
        self._patch(heuristics, "discover_landmarks",
                    self.timed("heuristics.landmarks", heuristics.discover_landmarks))
        self._patch(scoring, "feature_score",
                    self.timed("scoring.score", scoring.feature_score, after_score))
        for cls in (heuristics.FFHeuristic, heuristics.MaxHeuristic, heuristics.AddHeuristic,
                    heuristics.LandmarkCountHeuristic, heuristics.ZeroHeuristic):
            self._patch(cls, "evaluate", self._evaluate(cls.name, cls.evaluate))
        self._patch(assets, "parse_domain", self.timed("pddl.parse", assets.parse_domain))
        self._patch(assets, "parse_problem", self.timed("pddl.parse", assets.parse_problem))
        self._patch(assets, "ground", self.timed("grounding.ground", assets.ground, after_ground))
        self._patch(assets, "load_task", self.timed("assets.load_task", assets.load_task))
        self._patch(scenario, "build_benchmark_suite",
                    self.timed("scenario.generate", scenario.build_benchmark_suite))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the class inherited it

    def _successors(self, fn):
        counts = self.counts

        def successors(gp, state, cache=None):
            if cache is not None and state in cache:
                counts["grounding.succ_cache_hits"] += 1
            start = self._open()
            try:
                return fn(gp, state, cache)
            finally:
                self._close("grounding.successors", start)

        return successors

    def _evaluate(self, h: str, fn):
        counts = self.counts
        name = f"heuristics.eval.{h}"

        def evaluate(heuristic, state, parent_ctx=None):
            cache = getattr(heuristic, "_cache", None)
            if cache is not None and state in cache:
                counts[f"heuristics.cache_hits.{h}"] += 1
            start = self._open()
            try:
                value, ctx = fn(heuristic, state, parent_ctx)
            finally:
                self._close(name, start)
            if value == math.inf:
                counts["heuristics.dead_ends"] += 1
            return value, ctx

        return evaluate

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["python.gc_collections"] += 1
            self.span_s["python.gc"] += perf_counter() - self._gc_start

    def evals(self) -> int:
        return sum(self.calls[f"heuristics.eval.{h}"] for h in HEURISTICS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced episodes, by name: (value, unit)."""
    span, own, calls, counts = tracer.span_s, tracer.self_s, tracer.calls, tracer.counts
    out: dict[str, tuple[float, str]] = {
        "search.calls": (calls["search"], "count"),
        "search.expanded": (counts["search.expanded"], "count"),
        "search.self_s": (own["search"], "s"),
        "search.expansions_per_s": (_ratio(counts["search.expanded"], span["search"]), "1/s"),
    }
    for h in HEURISTICS:
        name = f"heuristics.eval.{h}"
        out[f"heuristics.eval_calls.{h}"] = (calls[name], "count")
        out[f"heuristics.eval_s.{h}"] = (span[name], "s")
        out[f"heuristics.evals_per_s.{h}"] = (_ratio(calls[name], span[name]), "1/s")
    for h in CACHED_HEURISTICS:
        out[f"heuristics.cache_hit_ratio.{h}"] = (
            _ratio(counts[f"heuristics.cache_hits.{h}"], calls[f"heuristics.eval.{h}"]), "ratio")
    out.update({
        "heuristics.dead_ends": (counts["heuristics.dead_ends"], "count"),
        "heuristics.landmarks_calls": (calls["heuristics.landmarks"], "count"),
        "heuristics.landmarks_s": (span["heuristics.landmarks"], "s"),
        "scoring.score_calls": (calls["scoring.score"], "count"),
        "scoring.score_s": (span["scoring.score"], "s"),
        "scoring.reject_share": (_ratio(counts["scoring.rejects"], calls["scoring.score"]), "ratio"),
        "scenario.sense_s": (span["scenario.sense"], "s"),
        "episode.self_s": (own["episode"], "s"),
        "grounding.successors_calls": (calls["grounding.successors"], "count"),
        "grounding.successors_s": (span["grounding.successors"], "s"),
        "grounding.succ_cache_hit_ratio": (
            _ratio(counts["grounding.succ_cache_hits"], calls["grounding.successors"]), "ratio"),
        "python.gc_collections": (counts["python.gc_collections"], "count"),
        "python.gc_s": (span["python.gc"], "s"),
    })
    return out


def setup_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up."""
    return {
        "pddl.parse_s": (tracer.span_s["pddl.parse"], "s"),
        "grounding.ground_s": (tracer.span_s["grounding.ground"], "s"),
        "grounding.ground_actions": (tracer.counts["grounding.ground_actions"], "count"),
        "assets.load_task_s": (tracer.span_s["assets.load_task"], "s"),
        "scenario.generate_s": (tracer.span_s["scenario.generate"], "s"),
    }


def wrapper_faults(tracer: Tracer, must_fire, must_not_fire) -> list[str]:
    """Wrappers that never fired where the workload must reach them, or
    fired where the workload must bypass them."""
    faults = [f"wrapper '{n}' never fired" for n in must_fire if tracer.calls[n] == 0]
    faults += [f"wrapper '{n}' fired {tracer.calls[n]} times but must not"
               for n in must_not_fire if tracer.calls[n] != 0]
    return faults
