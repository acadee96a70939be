"""Bundled asset resolution: domains, problems, the object library, and the
fixed benchmark scenarios. The FGS_DATA_DIR environment variable overrides
the bundled data directory."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .grounding import GroundProblem, ground
from .pddl import DomainDef, ProblemDef, parse_domain, parse_problem, read_pddl

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


TASKS: dict[str, TaskDef] = {
    t.task_id: t
    for t in (
        TaskDef("woodworking_hammer", "woodworking", ("hammer",)),
        TaskDef("woodworking_screwdriver", "woodworking", ("screwdriver",)),
        TaskDef("cooking_spatula", "cooking", ("spatula",)),
        TaskDef("cooking_ladle", "cooking", ("ladle",)),
        TaskDef("cleaning_rake", "cleaning", ("rake",)),
        TaskDef("cleaning_squeegee", "cleaning", ("squeegee",)),
        TaskDef("woodworking_either", "woodworking", ("hammer", "screwdriver")),
        TaskDef("cooking_either", "cooking", ("spatula", "ladle")),
        TaskDef("cleaning_either", "cleaning", ("rake", "squeegee")),
    )
}


def task_for_scenario(task_type: str, tools) -> TaskDef:
    tools = tuple(tools)
    for task in TASKS.values():
        if task.task_type == task_type and set(task.tools) == set(tools):
            return task
    raise ConfigError(f"no bundled task for type '{task_type}' with tools {tools}")


def load_task(task_id: str) -> tuple[DomainDef, ProblemDef, GroundProblem]:
    task = TASKS.get(task_id)
    if task is None:
        raise ConfigError(f"unknown task '{task_id}' (choose from {sorted(TASKS)})")
    base = data_dir() / "domains"
    domain_path = base / task.domain_file
    problem_path = base / task.problem_file
    if not domain_path.exists() or not problem_path.exists():
        raise ConfigError(f"missing bundled domain assets for task '{task_id}' under {base}")
    domain = parse_domain(read_pddl(domain_path))
    problem = parse_problem(read_pddl(problem_path), domain)
    return domain, problem, ground(domain, problem)


def benchmark_dir() -> Path:
    return data_dir() / "benchmarks"
