"""Angle-constrained grid path planning with LIAN and eLIAN."""

from .geometry import circle_offsets, euclid, line_of_sight, turn_angle
from .grids import (
    Cell,
    Grid,
    InputError,
    Instance,
    ParseError,
    ScenarioSet,
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
