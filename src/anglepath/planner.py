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
    circle_offsets,
    euclid,
    line_of_sight,
    ray,
    sight_bits,
    sight_table,
    turn_angle,
    turn_bits,
    turn_cos_threshold,
)
from .grids import Cell, Grid, InputError

LIAN = "lian"
ELIAN = "elian"
# The longest delta ladder a config may ask for. A dead end descends all of
# its levels in one expansion, between two time_cap checks.
MAX_LEVELS = 64
# Search.expand's tie guard, as a share of a bound on a child's f: far above
# the two ulps by which rounding can tie a larger g's f with a smaller one's.
_TIE_SLACK = 2.0 ** -40


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


@dataclass
class SearchStats:
    """Counters of one search.

    ``expansions`` counts a node once per ladder level it is expanded at.
    ``reinsertions`` counts ladder descents, dead ends retried one level
    down; the name stays because records.jsonl carries it. ``generated``
    counts successors that passed the turn, sight and closed tests, and
    ``dominated`` those of them that were not queued because an earlier
    expansion of the same cell had queued them at a g that sorts no later
    (see Search.expand); ``generated - dominated`` entries were pushed.
    ``stale_pops`` counts popped entries whose identity was already
    expanded. Records carry neither of the last two.
    """

    expansions: int = 0
    generated: int = 0
    reinsertions: int = 0
    max_open: int = 0
    dominated: int = 0
    stale_pops: int = 0
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


# prepare() builds no sight table larger than this; such rings walk rays.
# It admits every ring of the default ladder (radii 20, 10, 5) on maps up
# to 1024x1024: 14 MiB at radius 20 there, whose build took 0.2 s and about
# 8 bytes per cell of temporaries (BENCH_16.json, table_cost).
MAX_TABLE_BYTES = 1 << 24


def _circle_ring(grid: Grid, radius: int, tabled: bool) -> tuple:
    # The grid's ring of this radius (see Search), built on first use; with
    # ``tabled`` it gets its sight table, if it has none and the size allows.
    ring = grid.circle_tables.get(radius)
    if ring is None:
        width, height = grid.width, grid.height
        base = width * height + 1
        circle = () if radius >= 2 * max(width, height) else circle_offsets(radius)
        steps = tuple(
            (dc, dr, math.hypot(dc, dr), (dc * height + dr) * base) for dc, dr in circle
        )
        rays = tuple(
            (dc, dr, ray(width, dc, dr) if abs(dc) < width and abs(dr) < height else None)
            for dc, dr in circle
        )
        ring = grid.circle_tables[radius] = (
            radius, steps, len(steps), (1 << len(steps)) - 1, {}, rays, None)
    count = ring[2]
    if (tabled and count and ring[6] is None
            and grid.width * grid.height * ((count + 7) // 8) <= MAX_TABLE_BYTES):
        # The memo is read no more: the table answers for every cell.
        ring = grid.circle_tables[radius] = ring[:4] + ({}, ring[5], sight_table(grid, ring[5]))
    return ring


def prepare(grid: Grid, cfg: PlannerConfig) -> None:
    """Build the sight tables of the rings cfg's searches use on the grid.

    Searches then read each cell's sight of a circle from its table instead
    of walking rays, with the same results. A table takes ``width * height
    * ceil(n / 8)`` bytes for a circle of n offsets; none is built above
    MAX_TABLE_BYTES.
    """
    for delta in delta_levels(cfg):
        _circle_ring(grid, max(1, round(delta)), True)


def release(grid: Grid) -> None:
    """Drop the sight tables prepare() built on the grid; searches there
    walk rays again, with the same results."""
    rings = grid.circle_tables
    for radius, ring in rings.items():
        if ring[6] is not None:
            rings[radius] = ring[:6] + (None,)


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
    its key is not yet closed, so the few stale duplicates left allocate
    nothing. Most are never queued: per ladder level, ``_queued`` maps a
    cell's flat index to ``(g, mask)``, the g of the cell's last expansion
    there and the circle offsets queued at that g, which expand() skips.

    The grid's ``circle_tables`` is read only here and written only by
    _circle_ring(), for this class and prepare(), and by release(). It
    maps each radius a search or prepare() reached to its ring ``(radius,
    steps, n, (1 << n) - 1, memo, rays, table)``, built once per grid over
    the n offsets of circle_offsets(). Step j is (dcol, drow, hypot, key
    shift) of offset j; rays[j] is (dcol, drow, ray), the ray None if the
    offset lands in the grid from no cell. The memo maps a cell's flat
    index to ``asked << n | seen``: bit j of ``asked`` is set once offset j
    was tested from the cell, bit j of ``seen`` iff its target lies in the
    grid and in sight of the cell. ``table`` is None, or
    geometry.sight_table() of the rays from prepare() until release():
    expansions then read a cell's row of the table, and the memo stays
    empty. A circle of radius >= 2 * max(width, height) lies farther out
    than any two cells are apart: its ring has no offsets and no table.
    """

    def __init__(self, grid: Grid, start: Cell, goal: Cell, cfg: PlannerConfig):
        for label, (col, row) in (("start", start), ("goal", goal)):
            if not grid.in_bounds(col, row):
                raise InputError(f"{label} ({col},{row}) out of bounds "
                                 f"for {grid.width}x{grid.height} map")
            if grid.blocked_at(col, row):
                raise InputError(f"{label} ({col},{row}) is blocked")
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
        # Per ladder level: a cell's flat index -> (g, offsets queued), see expand().
        self._queued: list = [{} for _ in self.levels]

    def _ring(self, level: int) -> tuple:
        # A ladder level's ring, built on the grid by the first search or
        # prepare() call that reaches its radius.
        radius = max(1, round(self.levels[level]))
        ring = self._rings[level] = _circle_ring(self.grid, radius, False)
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
        docstring), or from the ring's table when it has one: then no ray
        is walked. Otherwise sight_bits() walks only the rays of offsets
        the memo has no answer for yet, and the cell's memo entry keeps
        them. Survivors whose
        identity was already expanded are dropped; the rest are pushed as
        lazy entries (see the class docstring). They differ in cell, so no
        two tie on (f, -g, key) and the order they are pushed in decides no
        pop. If nothing survives and the ladder has a next level, the node
        moves to it and the scan repeats there, counted as one more
        expansion and one descent; at the last level it is discarded.

        A survivor is dominated, and not pushed, when the cell's entry in
        ``_queued`` for this level holds its offset and the node's g equals
        the entry's g or exceeds it by more than the rounding of a child's f
        can hide. A child's h does not depend on the cell's parent, so the
        earlier copy sorts first on (f, -g, key, seq) and the later one
        could only pop stale. The tie guard matters: one ulp more g can
        round to the same f and then sort first. A dominated survivor
        counts as generated and keeps the node from descending. The entry
        is read only when the arc has visible targets. Once the node
        queues a child from the circle, the entry becomes the node's g with
        those targets, plus the old offsets when they dominated; until
        then it stays as it was.
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
        g0, weight = node.g, self.cfg.weight
        level, queued_levels = node.level, self._queued
        while True:
            radius, targets, count, full, memo, rays, table = (
                self._rings[level] or self._ring(level))
            survivors, dominated = [], 0
            if targets:
                need = full if parent is None else arc_window(radius, hx, hy, self.cfg.alpha_max)
                if table:
                    size = (count + 7) // 8
                    bits = int.from_bytes(table[flat * size:flat * size + size], "little") & need
                else:
                    bits = memo.get(flat, 0)
                    missing = need & ~(bits >> count)
                    if missing:
                        bits |= missing << count | sight_bits(grid, cell, rays, missing)
                        memo[flat] = bits
                    bits &= need
                if bits:
                    queued = queued_levels[level]
                    done = queued.get(flat)
                    # A child's step is below radius + 1, so its f is below
                    # g0 + radius + 1 + weight * (dg + radius + 1).
                    if done is not None and (g0 == done[0] or g0 - done[0] > _TIE_SLACK * (
                            g0 + radius + 1 + weight * (dg + radius + 1))):
                        skip = bits & done[1]
                        mask = done[1] | bits
                        bits ^= skip
                        while skip:
                            low = skip & -skip
                            skip ^= low
                            if key0 + targets[low.bit_length() - 1][3] not in closed:
                                dominated += 1
                    else:
                        mask = bits
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        target = targets[low.bit_length() - 1]
                        if key0 + target[3] not in closed:
                            survivors.append(target)
                    if survivors:
                        queued[flat] = g0, mask
            # A goal on the circle is a target, decided by the scan above.
            if dg < self.levels[level]:
                goal_step = (gdc, gdr, dg, goal_shift)
                if ((parent is None or turn_bits(hx, hy, ((gdc, gdr),), self._cos_threshold))
                        and line_of_sight(grid, cell, goal) and key0 + goal_shift not in closed
                        and goal_step not in targets):
                    survivors.append(goal_step)
            if survivors or dominated:
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
                stats.stale_pops += 1

        child_level = level
        if level > 0 and parent is not None and self._streak_reached(node):
            child_level -= 1
        push, open_, seq = heapq.heappush, self.open, self._seq
        for dc, dr, step, shift in survivors:
            seq += 1
            g = g0 + step
            push(open_, (g + weight * math.hypot(gdc - dc, gdr - dr), -g, key0 + shift, seq,
                         node, child_level))
        self._seq = seq
        stats.generated += len(survivors) + dominated
        stats.dominated += dominated
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
                stats.stale_pops += 1
                continue
            closed.add(key)
            stats.expansions += 1
            self.expand(SearchNode(divmod(key // base, height), parent, -neg_g, f, level))

        stats.runtime = perf() - t0
        return Outcome(verdict, path, stats)


def search(grid: Grid, start: Cell, goal: Cell, cfg: PlannerConfig) -> Outcome:
    """Plan an angle-constrained path from start to goal on the grid.

    InputError names an endpoint that is out of bounds or blocked, and
    refuses start == goal.
    """
    return Search(grid, start, goal, cfg).run()
