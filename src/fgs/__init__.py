"""Feature-guided STRIPS planning with tool construction episodes."""

__version__ = "0.1.0"

from .episode import EpisodeResult, run_episode
from .grounding import GroundAction, GroundProblem, ground
from .pddl import DomainDef, ProblemDef, parse_domain, parse_problem
from .scenario import Scenario, generate_benchmark, load_scenario, sense
from .scoring import ObjectProfile, ToolSpec, feature_score
from .search import PlanResult, SearchConfig, search

__all__ = [
    "DomainDef",
    "EpisodeResult",
    "GroundAction",
    "GroundProblem",
    "ObjectProfile",
    "PlanResult",
    "ProblemDef",
    "Scenario",
    "SearchConfig",
    "ToolSpec",
    "__version__",
    "feature_score",
    "generate_benchmark",
    "ground",
    "load_scenario",
    "parse_domain",
    "parse_problem",
    "run_episode",
    "search",
    "sense",
]
