"""Bundled asset resolution: domains, problems, the object library, and the
fixed benchmark scenarios. The FGS_DATA_DIR environment variable overrides
the bundled data directory."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .grounding import GroundProblem, ground
from .pddl import DomainDef, ProblemDef, parse_domain, parse_file, parse_problem

DATA_DIR_ENV = "FGS_DATA_DIR"


def data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


@dataclass(frozen=True)
class TaskDef:
    task_id: str
    task_type: str
    tools: tuple[str, ...]

    @property
    def domain_file(self) -> str:
        return f"{self.task_id}.domain.pddl"

    @property
    def problem_file(self) -> str:
        return f"{self.task_id}.problem.pddl"


TASK_TOOLS: dict[str, tuple[str, str]] = {  # key order is the bundled suite's order
    "woodworking": ("hammer", "screwdriver"),
    "cooking": ("spatula", "ladle"),
    "cleaning": ("rake", "squeegee"),
}

# one task per tool, plus '<task type>_either' that accepts both of its tools
TASKS: dict[str, TaskDef] = {
    t.task_id: t
    for task_type, tools in TASK_TOOLS.items()
    for t in (*(TaskDef(f"{task_type}_{tool}", task_type, (tool,)) for tool in tools),
              TaskDef(f"{task_type}_either", task_type, tools))
}
_TASK_BY_TOOLS = {(t.task_type, frozenset(t.tools)): t for t in TASKS.values()}


def task_for_scenario(task_type: str, tools) -> TaskDef:
    task = _TASK_BY_TOOLS.get((task_type, frozenset(tools)))
    if task is None:
        raise ConfigError(f"no bundled task for type '{task_type}' with tools {tuple(tools)}")
    return task


def load_task(task_id: str) -> tuple[DomainDef, ProblemDef, GroundProblem]:
    task = TASKS.get(task_id)
    if task is None:
        raise ConfigError(f"unknown task '{task_id}' (choose from {sorted(TASKS)})")
    base = data_dir() / "domains"
    domain_path = base / task.domain_file
    problem_path = base / task.problem_file
    if not domain_path.exists() or not problem_path.exists():
        raise ConfigError(f"missing bundled domain assets for task '{task_id}' under {base}")
    return load_model(domain_path, problem_path)


def load_model(domain_path, problem_path) -> tuple[DomainDef, ProblemDef, GroundProblem]:
    """The domain and problem PDDL files at the two paths, parsed, and their
    grounded model."""
    domain = parse_file(domain_path, parse_domain)
    problem = parse_file(problem_path, parse_problem, domain)
    return domain, problem, ground(domain, problem)


def benchmark_dir() -> Path:
    return data_dir() / "benchmarks"
