"""LIAN / eLIAN search: best-first planning over (cell, parent-cell) nodes.

Both planners move in straight jumps of length delta and reject successors
that would turn the heading by more than alpha_max degrees. LIAN keeps
delta fixed. eLIAN lets delta slide within [delta_min, delta_max]: when an
expansion yields nothing, the same expansion retries at delta shrunk by the
factor k, and after success_streak consecutive successful expansions at the
same delta the successors are handed delta / k again (never above
delta_max). Setting delta_min = delta_max makes eLIAN degenerate exactly
into LIAN.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, fields
from enum import Enum

from .geometry import (
    ANGLE_EPS_DEG,
    arc_window,
    circle_rays,
    euclid,
    line_of_sight,
    sight_bits,
    turn_angle,
    turn_bits,
    turn_cos_threshold,
)
from .grids import Cell, Grid, InputError, is_traversable

LIAN = "lian"
ELIAN = "elian"
# The longest delta ladder a config may ask for. A dead end descends all of
# its levels in one expansion, between two time_cap checks.
MAX_LEVELS = 64


class Verdict(str, Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    TIMEOUT = "timeout"


def _check_number(name: str, value, integer: bool = False) -> None:
    # bool is an int subclass, but True is neither a count nor a distance.
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise InputError(f"{name} must be {kind}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise InputError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PlannerConfig:
    """All planner tunables.

    ``delta_min`` defaults to ``delta_max`` (for mode="lian" it must equal
    it) and must be at least 1, the smallest circle radius; the ladder
    delta_levels() builds may have at most MAX_LEVELS levels. ``time_cap``
    is wall-clock seconds checked once per popped open-list entry.
    Every numeric field must be a finite int or float (``success_streak``
    an int); bools are rejected.
    """

    mode: str = LIAN
    delta_max: float = 20.0
    delta_min: float | None = None
    k: float = 0.5
    alpha_max: float = 25.0
    weight: float = 2.0
    time_cap: float = 30.0
    success_streak: int = 2
    label: str | None = None

    def __post_init__(self):
        if self.mode not in (LIAN, ELIAN):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.delta_min is None:
            object.__setattr__(self, "delta_min", self.delta_max)
        for name in ("delta_max", "delta_min", "k", "alpha_max", "weight", "time_cap"):
            _check_number(name, getattr(self, name))
        _check_number("success_streak", self.success_streak, integer=True)
        if self.label is not None and not isinstance(self.label, str):
            raise InputError(f"label must be a string, got {self.label!r}")
        if not 1 <= self.delta_min <= self.delta_max:
            raise InputError("need 1 <= delta_min <= delta_max")
        if self.mode == LIAN and self.delta_min != self.delta_max:
            raise InputError("mode 'lian' requires delta_min == delta_max")
        if not 0.0 < self.k < 1.0:
            raise InputError("k must lie in (0, 1)")
        delta_levels(self)  # raises on a ladder of more than MAX_LEVELS levels
        if not 0.0 <= self.alpha_max <= 180.0:
            raise InputError("alpha_max must lie in [0, 180] degrees")
        if self.weight < 1.0:
            raise InputError("weight must be >= 1")
        if self.time_cap < 0:
            raise InputError("time_cap must be >= 0")
        if self.success_streak < 1:
            raise InputError("success_streak must be >= 1")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.mode == LIAN:
            return f"lian-{self.delta_max:g}"
        return f"elian-{self.delta_max:g}-{self.delta_min:g}"

    def to_dict(self) -> dict:
        # label is left out: records carry it as their algorithm name.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "label"}

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerConfig":
        if not isinstance(data, dict):
            raise InputError(f"a config must be a JSON object, got {data!r}")
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def delta_levels(cfg: PlannerConfig) -> tuple[float, ...]:
    """The descending ladder of usable delta values: delta_max * k^i.

    It is just (delta_max,) when delta_min == delta_max, whatever k is. A
    ladder that would need more than MAX_LEVELS levels raises InputError
    before its next level is added. A level's circle has radius
    max(1, round(delta)). round() is banker's rounding, so 2.5 gives radius
    2 but 3.5 gives 4, and neighbouring levels may share a radius (20/5 at
    k=0.9 ends 7, 6, 6, 5). Repeated radii are kept: dropping one would
    change the expansion and descent counts.
    """
    if cfg.delta_min == cfg.delta_max:
        return (cfg.delta_max,)
    levels = []
    value = cfg.delta_max
    while value >= cfg.delta_min - 1e-9:
        if len(levels) == MAX_LEVELS:
            raise InputError(f"the delta ladder must have at most {MAX_LEVELS} levels")
        levels.append(value)
        value *= cfg.k
    return tuple(levels)


class SearchNode:
    """One search state: a cell plus the cell it was reached from.

    ``level`` indexes the delta ladder of the owning search.
    """

    __slots__ = ("cell", "parent", "g", "f", "level")

    def __init__(self, cell, parent, g, f, level):
        self.cell = cell
        self.parent = parent
        self.g = g
        self.f = f
        self.level = level

    def __repr__(self) -> str:
        bp = self.parent.cell if self.parent else None
        return f"SearchNode({self.cell}, bp={bp}, g={self.g:.3f}, level={self.level})"


@dataclass
class SearchStats:
    """Counters of one search.

    ``expansions`` counts a node once per ladder level it is expanded at.
    ``reinsertions`` counts ladder descents, dead ends retried one level
    down; the name stays because records.jsonl carries it.
    """

    expansions: int = 0
    generated: int = 0
    reinsertions: int = 0
    max_open: int = 0
    runtime: float = 0.0


@dataclass
class Outcome:
    verdict: Verdict
    path: list[Cell] | None
    stats: SearchStats


def reconstruct_path(goal_node: SearchNode) -> list[Cell]:
    """Waypoints from start to goal by walking the parent chain."""
    path = []
    node = goal_node
    while node is not None:
        path.append(node.cell)
        node = node.parent
    path.reverse()
    return path


@dataclass(frozen=True)
class PathViolation:
    index: int
    kind: str  # "bounds" | "los" | "angle"
    message: str


def validate_path(grid: Grid, path: list[Cell], alpha_max: float) -> PathViolation | None:
    """Independent feasibility check of a waypoint list.

    Returns None when every waypoint lies in the grid, every consecutive
    pair has line of sight and every interior turn stays within alpha_max.
    Otherwise it returns the first waypoint off the grid, or else the first
    sight or turn violation in waypoint order. Paths need at least two
    distinct consecutive waypoints.
    """
    if len(path) < 2:
        raise InputError("path needs at least 2 waypoints")
    for a, b in zip(path, path[1:]):
        if a == b:
            raise InputError("path contains a zero-length segment")
    for i, (col, row) in enumerate(path):
        if not grid.in_bounds(col, row):
            return PathViolation(
                i, "bounds", f"{path[i]} lies outside the {grid.width}x{grid.height} grid"
            )
    for i in range(len(path) - 1):
        if not line_of_sight(grid, path[i], path[i + 1]):
            return PathViolation(i, "los", f"no line of sight {path[i]}->{path[i + 1]}")
        if i > 0:
            angle = turn_angle(path[i - 1], path[i], path[i + 1])
            if angle > alpha_max + ANGLE_EPS_DEG:
                return PathViolation(
                    i, "angle", f"turn of {angle:.6f} deg at {path[i]} exceeds {alpha_max}"
                )
    return None


class Search:
    """Single-shot search over one grid; owns all mutable state.

    A (cell, parent cell) identity is one int, its key: on a W x H grid,
    ``(col*H + row) * (W*H + 1) + pcol*H + prow + 1``, with 0 in place of
    the parent part for the start. Keys sort like (col, row, pcol, prow)
    with (-1, -1) for the start's parent, and ``closed`` is the set of
    expanded keys. An open-list entry is ``(f, -g, key, seq, parent,
    level)``. The first four fields are the sort key: smallest f, then
    largest g, then key, then insertion order, so runs are fully
    deterministic and no comparison reaches ``parent``, the expanded node
    the entry was generated from (None for the start), or ``level``, its
    ladder level. An entry's SearchNode is built only when it is popped and
    its key is not yet closed, so stale duplicates allocate nothing.

    Only this class reads or writes the grid's ``circle_tables``, a memo
    that all searches on the grid share. Per radius it maps a cell's flat
    index to ``asked << n | seen`` over the n offsets of circle_offsets():
    bit j of ``asked`` is set once offset j was tested from the cell, bit j
    of ``seen`` iff its target lies in the grid and in sight of the cell.
    """

    def __init__(self, grid: Grid, start: Cell, goal: Cell, cfg: PlannerConfig):
        if not is_traversable(grid, start):
            raise InputError(f"start {start} is blocked or out of bounds")
        if not is_traversable(grid, goal):
            raise InputError(f"goal {goal} is blocked or out of bounds")
        if start == goal:
            raise InputError("start and goal coincide; nothing to plan")
        self.grid = grid
        self.start = start
        self.goal = goal
        self.cfg = cfg
        self.levels = delta_levels(cfg)
        self.open: list = []
        self.closed: set = set()  # keys of expanded identities
        self.stats = SearchStats()
        self._seq = 0
        self._key_base = grid.width * grid.height + 1
        self._cos_threshold = turn_cos_threshold(cfg.alpha_max)
        # Per ladder level, filled on its first expansion by _ring().
        self._rings: list = [None] * len(self.levels)

    def _ring(self, level: int) -> tuple:
        # (radius, steps, count, full mask, the grid's memo for the radius,
        # circle_rays) of a ladder level. Step j is offset j of the circle as
        # (dcol, drow, hypot(dcol, drow), the offset's key shift). A circle of
        # radius >= 2 * max(width, height) lies farther out than any two
        # cells are apart: it gets no steps and is skipped unrasterized.
        grid = self.grid
        radius = max(1, round(self.levels[level]))
        if radius >= 2 * max(grid.width, grid.height):
            ring = (radius, None, 0, 0, None, None)
        else:
            height, base = grid.height, self._key_base
            rays = circle_rays(grid.width, height, radius)
            steps = tuple(
                (dc, dr, math.hypot(dc, dr), (dc * height + dr) * base) for dc, dr, _ in rays
            )
            count = len(steps)
            ring = (radius, steps, count, (1 << count) - 1,
                    grid.circle_tables.setdefault(radius, {}), rays)
        self._rings[level] = ring
        return ring

    def _streak_reached(self, node: SearchNode) -> bool:
        # True when success_streak nodes ending at `node` share its level.
        current = node
        for _ in range(self.cfg.success_streak - 1):
            parent = current.parent
            if parent is None or parent.level != node.level:
                return False
            current = parent
        return True

    def expand(self, node: SearchNode) -> None:
        """Generate successors of an expanded node, descending the ladder.

        Candidates are the in-bounds cells of the discrete circle at the
        node's delta whose turn from the node's heading stays within
        alpha_max (all of them for the start node, which has no heading),
        plus the goal when it is closer than delta and within the turn
        limit. Bounds and line of sight for the offsets in the arc_window()
        of the node's heading come, as bits, from the memo (see the class
        docstring); sight_bits() walks only the rays of offsets it has no
        answer for yet, and the cell's memo entry keeps them. Survivors whose
        identity was already expanded are dropped; the rest are pushed as
        lazy entries (see the class docstring). They differ in cell, so no
        two tie on (f, -g, key) and the order they are pushed in decides no
        pop. If nothing survives and the ladder has a next level, the node
        moves to it and the scan repeats there, counted as one more
        expansion and one descent; at the last level it is discarded.
        """
        cell = node.cell
        col, row = cell
        parent = node.parent
        if parent is not None:
            hx, hy = col - parent.cell[0], row - parent.cell[1]
        grid, closed, stats, goal = self.grid, self.closed, self.stats, self.goal
        gdc, gdr = goal[0] - col, goal[1] - row
        dg = math.hypot(gdc, gdr)
        base, ident = self._key_base, col * grid.height + row
        flat = row * grid.width + col
        key0 = ident * base + ident + 1  # a child's key less its offset's shift
        goal_shift = (gdc * grid.height + gdr) * base
        level = node.level
        while True:
            radius, targets, count, full, table, rays = self._rings[level] or self._ring(level)
            survivors = []
            if targets is not None:
                need = full if parent is None else arc_window(radius, hx, hy, self.cfg.alpha_max)
                bits = table.get(flat, 0)
                missing = need & ~(bits >> count)
                if missing:
                    bits |= missing << count | sight_bits(grid, cell, rays, missing)
                    table[flat] = bits
                bits &= need
                while bits:
                    low = bits & -bits
                    bits ^= low
                    target = targets[low.bit_length() - 1]
                    if key0 + target[3] not in closed:
                        survivors.append(target)
            # A goal on the circle that sight_bits rejected fails the same tests here.
            if dg < self.levels[level] and goal_shift not in [t[3] for t in survivors]:
                if ((parent is None or turn_bits(hx, hy, ((gdc, gdr),), self._cos_threshold))
                        and line_of_sight(grid, cell, goal) and key0 + goal_shift not in closed):
                    survivors.append((gdc, gdr, dg, goal_shift))
            if survivors:
                break
            if level + 1 == len(self.levels):
                return
            level += 1
            node.level = level
            stats.reinsertions += 1
            stats.expansions += 1
            # Drop the stale copies tying the node's (f, -g, key), which would
            # pop before a re-queued node: max_open stays a re-queue's.
            head = (node.f, -node.g, ident * base + (
                0 if parent is None else parent.cell[0] * grid.height + parent.cell[1] + 1))
            while self.open and self.open[0][:3] == head:
                heapq.heappop(self.open)

        child_level = level
        if level > 0 and parent is not None and self._streak_reached(node):
            child_level -= 1
        push, open_, seq = heapq.heappush, self.open, self._seq
        g0, weight = node.g, self.cfg.weight
        for dc, dr, step, shift in survivors:
            seq += 1
            g = g0 + step
            push(open_, (g + weight * math.hypot(gdc - dc, gdr - dr), -g, key0 + shift, seq,
                         node, child_level))
        self._seq = seq
        stats.generated += len(survivors)
        if len(open_) > stats.max_open:
            stats.max_open = len(open_)

    def run(self) -> Outcome:
        cfg = self.cfg
        perf = time.perf_counter
        t0 = perf()
        deadline = t0 + cfg.time_cap
        height, base = self.grid.height, self._key_base
        start, goal = self.start, self.goal
        goal_keys = (goal[0] * height + goal[1]) * base
        open_, closed, stats = self.open, self.closed, self.stats
        heapq.heappush(open_, (cfg.weight * euclid(start, goal), -0.0,
                               (start[0] * height + start[1]) * base, 0, None, 0))
        stats.max_open = max(stats.max_open, len(open_))

        pop = heapq.heappop
        verdict = Verdict.NOT_FOUND
        path = None
        while open_:
            if perf() > deadline:
                verdict = Verdict.TIMEOUT
                break
            f, neg_g, key, _, parent, level = pop(open_)
            if goal_keys <= key < goal_keys + base:
                verdict = Verdict.FOUND
                path = reconstruct_path(parent) + [goal]
                break
            if key in closed:
                # Stale duplicate of an identity already expanded via
                # another open-list entry; nothing new to generate.
                continue
            closed.add(key)
            stats.expansions += 1
            self.expand(SearchNode(divmod(key // base, height), parent, -neg_g, f, level))

        stats.runtime = perf() - t0
        return Outcome(verdict, path, stats)


def search(grid: Grid, start: Cell, goal: Cell, cfg: PlannerConfig) -> Outcome:
    """Plan an angle-constrained path from start to goal on the grid."""
    return Search(grid, start, goal, cfg).run()
