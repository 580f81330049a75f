"""Angle-constrained grid path planning with LIAN and eLIAN."""

from .geometry import circle_offsets, euclid, line_of_sight, turn_angle
from .grids import (
    Cell,
    Grid,
    InputError,
    Instance,
    ParseError,
    ScenarioSet,
    check_instance,
    is_traversable,
    load_map,
    load_scen,
    parse_ascii_map,
    parse_map,
    parse_scen,
)
from .planner import (
    Outcome,
    PathViolation,
    PlannerConfig,
    Search,
    SearchNode,
    SearchStats,
    Verdict,
    delta_levels,
    reconstruct_path,
    search,
    validate_path,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "Grid",
    "InputError",
    "Instance",
    "Outcome",
    "ParseError",
    "PathViolation",
    "PlannerConfig",
    "ScenarioSet",
    "Search",
    "SearchNode",
    "SearchStats",
    "Verdict",
    "check_instance",
    "circle_offsets",
    "delta_levels",
    "euclid",
    "is_traversable",
    "line_of_sight",
    "load_map",
    "load_scen",
    "parse_ascii_map",
    "parse_map",
    "parse_scen",
    "reconstruct_path",
    "search",
    "turn_angle",
    "validate_path",
]
