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

import math
import reprlib
import time
import weakref
from dataclasses import dataclass, fields
from enum import Enum
from heapq import heappop, heappush
from itertools import product
from math import hypot

import numpy as np

from .geometry import (
    ANGLE_EPS_DEG,
    arc_window,
    arc_windows,
    circle_offsets,
    euclid,
    line_of_sight,
    ray,
    sight_bits,
    sight_table,
    turn_angle,
    turn_cos_threshold,
    turn_ok,
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
_from_bytes = int.from_bytes


class Verdict(str, Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    TIMEOUT = "timeout"


class _Repr(reprlib.Repr):
    # repr() refuses an int of more than sys.get_int_max_str_digits() digits
    # and takes quadratic time below that: a long int is shown by its size.
    def repr_int(self, x, level):
        if x.bit_length() > 1000:
            return f"<int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


_show = _Repr().repr  # reprlib.repr for error messages


def _check_number(name: str, value, integer: bool = False) -> None:
    # bool is an int subclass, but True is neither a count nor a distance.
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise InputError(f"{name} must be {kind}, got {_show(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise InputError(f"{name} must be finite, got {_show(value)}")


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
            raise InputError(f"unknown mode {_show(self.mode)}")
        if self.delta_min is None:
            object.__setattr__(self, "delta_min", self.delta_max)
        for name in ("delta_max", "delta_min", "k", "alpha_max", "weight", "time_cap"):
            _check_number(name, getattr(self, name))
        _check_number("success_streak", self.success_streak, integer=True)
        if self.label is not None and not isinstance(self.label, str):
            raise InputError(f"label must be a string, got {_show(self.label)}")
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
            raise InputError(f"a config must be a JSON object, got {_show(data)}")
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise InputError(f"unknown config keys: {_show(sorted(unknown))}")
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


@dataclass
class SearchStats:
    """Counters of one search.

    ``expansions`` counts a popped entry once per ladder level it is
    expanded at.
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


def reconstruct_path(node: tuple) -> list[Cell]:
    """Waypoints from the start to the node's cell, by walking the parent
    chain of a node tuple ``(cell, parent, g, level)`` (see Search)."""
    path = []
    while node is not None:
        path.append(node[0])
        node = node[1]
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


# A ring fills its sight rows from tables over square tiles of TILE x TILE
# cells, each built on the tile's first miss (see _Ring): a lone search on a
# large map pays only for the tiles it reaches. A 128x128 map is one tile.
TILE = 128
# No tile's sight table is built larger than this, margins included; such a
# tile's cells walk rays. A tile and its margins span at most TILE + 2 *
# radius cells each way, so every tile gets a table up to radius 140 (at
# radius 20, 168 x 168 cells of 14 bytes, 0.4 MB). A whole 1024x1024 table
# at radius 20, 14 MiB, took 0.2 s to build and about 8 bytes per cell of
# temporaries (BENCH_16.json, table_cost).
MAX_TABLE_BYTES = 1 << 24


class _Ring(dict):
    """The delta circle of one radius on one grid, and what cells see of it.

    Step j is (dcol, drow, hypot, key shift) of offset j of
    circle_offsets(radius); rays[j] is (dcol, drow, ray), the ray None if
    the offset lands in the grid from no cell; ``full`` is ``(1 << n) - 1``
    for the n offsets, and ``offsets`` their frozenset, which tells expand()
    in O(1) whether the goal is a circle target. A circle of radius >= 2 *
    max(width, height) lies farther out than any two cells are apart: its
    ring has no offsets.

    As a dict, the ring maps a cell's flat index to its sight row: bit j is
    set iff offset j's target lies in the grid and in sight of the cell, as
    sight_bits() over the ring's rays answers. A missing row is copied from
    the sight table of the cell's tile, the cells (col, row) with ``(row //
    TILE, col // TILE)`` equal to the tile's index. tile() builds it on the
    tile's first miss by geometry.sight_table() on the tile widened by
    ``radius`` cells each way, which holds every cell the tile's cells can
    see. A tile whose table would exceed MAX_TABLE_BYTES walks the rays of
    each missing row instead. ``tiles`` maps a tile's index to its own
    cells' rows of that table, in flat order, or to None when it walks. The
    ring reaches its grid through a weak proxy, so a grid and its rings are
    freed as soon as the grid is dropped.

    ``picks`` is the ring's _Picks: expand() reads the targets of a sight
    pattern, a row ANDed with a window, from it as one tuple.
    """

    __slots__ = ("radius", "steps", "rays", "full", "offsets", "size", "grid", "tiles", "picks")

    def __init__(self, grid: Grid, radius: int):
        width, height = grid.width, grid.height
        base = width * height + 1
        circle = () if radius >= 2 * max(width, height) else circle_offsets(radius)
        self.radius = radius
        self.steps = tuple(
            (dc, dr, math.hypot(dc, dr), (dc * height + dr) * base) for dc, dr in circle
        )
        self.rays = _rays(circle, width, height)
        self.full = (1 << len(circle)) - 1
        self.offsets = frozenset(circle)
        self.size = (len(circle) + 7) // 8  # bytes per table row
        self.grid = weakref.proxy(grid)
        self.tiles: dict = {}
        self.picks = _Picks(self.steps)

    def tile(self, index: tuple[int, int]) -> bytes | None:
        # The tile's entry in ``tiles``, built on the first call.
        tile = self.tiles.get(index, False)
        if tile is False:
            grid, radius = self.grid, self.radius
            top, left = index[0] * TILE, index[1] * TILE
            lo, hi = max(0, top - radius), min(grid.height, top + TILE + radius)
            west, east = max(0, left - radius), min(grid.width, left + TILE + radius)
            tile = None
            if (hi - lo) * (east - west) * self.size <= MAX_TABLE_BYTES:
                cut = Grid(grid.blocked[lo:hi, west:east])
                table = sight_table(cut, _rays(self.rays, cut.width, cut.height))
                table = np.frombuffer(table, np.uint8).reshape(hi - lo, east - west, self.size)
                tile = table[top - lo:top - lo + TILE, left - west:left - west + TILE].tobytes()
            self.tiles[index] = tile
        return tile

    def __missing__(self, flat: int) -> int:
        width = self.grid.width
        row, col = divmod(flat, width)
        (i, y), (j, x) = divmod(row, TILE), divmod(col, TILE)
        tile = self.tile((i, j))
        if tile is None:
            bits = sight_bits(self.grid, (col, row), self.rays)
        else:
            at = (y * min(TILE, width - j * TILE) + x) * self.size  # the tile's rows are this wide
            bits = _from_bytes(tile[at:at + self.size], "little")
        self[flat] = bits
        return bits


class _Picks(dict):
    """Sight patterns to their steps: bits -> the tuple of ``steps[j]`` for
    each set bit j, low bit first, built on the pattern's first lookup."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps

    def __missing__(self, bits: int) -> tuple:
        picked, rest = [], bits
        while rest:
            low = rest & -rest
            rest ^= low
            picked.append(self.steps[low.bit_length() - 1])
        picked = self[bits] = tuple(picked)
        return picked


def _rays(offsets, width: int, height: int) -> tuple:
    # (dcol, drow, ray) per (dcol, drow, ...) of offsets on a grid of this
    # size, the ray None when the offset lands in the grid from no cell.
    return tuple(
        (dc, dr, ray(width, dc, dr) if abs(dc) < width and abs(dr) < height else None)
        for dc, dr, *_ in offsets
    )


def _circle_ring(grid: Grid, radius: int) -> _Ring:
    # The grid's ring of this radius, built on first use.
    ring = grid.circle_tables.get(radius)
    if ring is None:
        ring = grid.circle_tables[radius] = _Ring(grid, radius)
    return ring


def prepare(grid: Grid, cfg: PlannerConfig) -> None:
    """Build every tile's sight table for the rings cfg's searches use on
    the grid, so that no search pays for a build (see _Ring).

    The tables keep ``ceil(n / 8)`` bytes per cell for a circle of n
    offsets, as one table of the whole grid would.
    """
    for delta in delta_levels(cfg):
        ring = _circle_ring(grid, max(1, round(delta)))
        if ring.steps:
            for index in product(range(-(-grid.height // TILE)), range(-(-grid.width // TILE))):
                ring.tile(index)


def release(grid: Grid) -> None:
    """Drop the sight rows, tile tables and pattern tuples of the grid's
    rings; searches there fill them again, with the same results."""
    for ring in grid.circle_tables.values():
        ring.clear()
        ring.tiles.clear()
        ring.picks.clear()


class Search:
    """Single-shot search over one grid; owns all mutable state.

    A (cell, parent cell) identity is one int, its key: on a W x H grid,
    ``(col*H + row) * (W*H + 1) + pcol*H + prow + 1``, with 0 in place of
    the parent part for the start. Keys sort like (col, row, pcol, prow)
    with (-1, -1) for the start's parent, and ``closed`` is the set of
    expanded keys. An open-list entry is ``(f, -g, key, seq, parent,
    level)``. The first four fields are the sort key: smallest f, then
    largest g, then key, then insertion order, so runs are fully
    deterministic and no comparison reaches ``parent``, the node the entry
    was generated from (None for the start), or ``level``, its ladder level.
    A node is the tuple ``(cell, parent, g, level)``, its level the one its
    expansion queued children at. expand() builds one only on the level
    visit that has visible targets or the goal in reach, so a popped entry
    that is stale or a dead end allocates nothing. Few stale duplicates are
    queued: per ladder level, ``_queued`` maps a cell's flat index to ``(g,
    mask)``, the g of the cell's last expansion there and the circle
    offsets queued at that g, which expand() skips.

    The grid's ``circle_tables`` maps each radius a search or prepare()
    reached to its _Ring, built once per grid; it is read only here and
    written only by _circle_ring(), the rings themselves and release().

    Per ladder level, ``_visits`` keeps the record a level visit of
    expand() reads, built by _visit() on the level's first expansion:
    ``(steps, ring, picks, arc_windows, delta, radius)``, steps and picks
    the ring's own. arc_windows is geometry.arc_windows() of the radius
    and alpha_max, the heading -> arc window map shared by every search in
    the process; expand() reads windows from it and stores arc_window()'s
    answer on a miss.
    ``_consts`` holds what every expand() call reads and no search changes:
    ``(grid, goal, ladder length, stats, width, height, key base, weight,
    closed, open)``, the last two the very objects of ``closed`` and
    ``open``. ``_goal_sight`` maps a cell's flat index to
    line_of_sight(cell, goal), filled by expand() on the cell's first goal
    test that passes the turn; a search walks the goal ray from a cell once.
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
        # What expand() reads on every call, unpacked there at once.
        self._consts = (grid, goal, len(self.levels), self.stats, grid.width, grid.height,
                        self._key_base, cfg.weight, self.closed, self.open)
        # Per ladder level, the record a level visit reads, filled on the
        # level's first expansion by _visit().
        self._visits: list = [None] * len(self.levels)
        # Per ladder level: a cell's flat index -> (g, offsets queued), see expand().
        self._queued: list = [{} for _ in self.levels]
        self._goal_sight: dict = {}  # flat -> line_of_sight(cell, goal), see expand()

    def _visit(self, level: int) -> tuple:
        # A ladder level's visit record (see the class docstring) over the
        # grid's ring of its radius.
        delta = self.levels[level]
        radius = max(1, round(delta))
        ring = _circle_ring(self.grid, radius)
        visit = self._visits[level] = (
            ring.steps, ring, ring.picks, arc_windows(radius, self.cfg.alpha_max), delta, radius)
        return visit

    def expand(self, entry: tuple) -> None:
        """Generate the successors of a popped open-list entry, descending
        the ladder.

        The entry is ``(f, -g, key, seq, parent, level)`` as run() popped
        it (see the class docstring): the call decodes the cell from the
        key and reads f and seq not at all. It unpacks ``_consts`` once,
        and each level visit unpacks the level's record in ``_visits``; the
        ring's full mask and the ``_queued`` map are read only by the start
        and a visit that generates children.
        Candidates are the in-bounds cells of the discrete circle at the
        level's delta whose turn from the heading, parent cell to cell,
        stays within alpha_max (all of them for the start, which has no
        heading), plus the goal when it is closer than delta, within the
        turn limit and in sight. Neither answer depends on the level, so
        the call tests the goal once, at the first level whose delta
        exceeds the goal's distance, and reuses the answer at the levels it
        descends to while that holds: one turn_ok() on the goal's offset,
        then line of sight read from the search's ``_goal_sight`` memo,
        walked on the cell's first test. A call far from the goal tests nothing. A goal
        that is a circle offset (``ring.offsets``) is left to the scan.
        The heading's window is read from the level's shared
        arc_windows() map, or on a miss computed by arc_window() and stored
        there. Bounds and line of sight for the offsets in that window
        are the window ANDed with the cell's sight row in the ring, which
        the ring fills on the cell's first visit at that radius (see
        _Ring). Keys, g and the
        ``_queued`` entry are looked at only once the arc has visible
        targets or the goal is in reach. The arc's targets are the ring's
        ``picks`` tuple of its sight pattern, in offset order. Survivors
        whose identity was already expanded are dropped; the rest are
        pushed as lazy entries (see the class docstring) in that order, the
        goal last. A child's -g is the entry's -g less the step and its f is
        ``weight * h - (-g)``: bit for bit the ``-(g + step)`` and ``g +
        weight * h`` of the definition, as negation is exact and rounding
        is symmetric in sign, with one float fewer per push. They differ
        in cell, so no two tie on (f, -g, key) and the order they are
        pushed in decides no pop. If nothing survives and the ladder has a
        next level, the expansion moves to it and the scan repeats there,
        counted as one more expansion and one descent; at the last level it
        is discarded. The call adds its descents to the counters once,
        before it returns. The node the children point to, ``(cell,
        parent, g, level)``, is built once the level is final, on the visit
        that has visible targets or the goal in reach.

        A survivor is dominated, and not pushed, when the cell's entry in
        ``_queued`` for this level holds its offset and the cell's g equals
        the entry's g or exceeds it by more than the rounding of a child's f
        can hide. A child's h does not depend on the cell's parent, so the
        earlier copy sorts first on (f, -g, key, seq) and the later one
        could only pop stale. The tie guard matters: one ulp more g can
        round to the same f and then sort first. A dominated survivor
        counts as generated and keeps the expansion from descending. The
        entry is read only when the arc has visible targets. Once the call
        queues a child from the circle, the entry becomes the cell's g with
        those targets, plus the old offsets when they dominated; until
        then it stays as it was.
        """
        grid, goal, depth, stats, width, height, base, weight, closed, open_ = self._consts
        _, ng0, key, _, parent, level = entry  # a child's -g is ng0 - step (see above)
        ident = key // base
        col, row = cell = divmod(ident, height)
        if parent is not None:
            heading = hx, hy = col - parent[0][0], row - parent[0][1]
        gdc, gdr = goal[0] - col, goal[1] - row
        dg = hypot(gdc, gdr)
        flat = row * width + col
        reach = None  # the goal test, made on the first level with dg < delta
        visits = self._visits
        descents = 0
        while True:
            targets, rows, picks, arcs, delta, radius = visits[level] or self._visit(level)
            bits = 0
            if targets:
                if parent is None:
                    need = rows.full
                else:
                    need = arcs.get(heading)
                    if need is None:
                        need = arcs[heading] = arc_window(radius, hx, hy, self.cfg.alpha_max)
                bits = rows[flat] & need
            if dg >= delta:  # and at every later level: delta falls down the ladder
                reach = False
            elif reach is None:  # the turn and sight answers hold at every level
                reach = parent is None or turn_ok(hx, hy, gdc, gdr, self._cos_threshold)
                if reach:
                    reach = self._goal_sight.get(flat)
                    if reach is None:
                        reach = self._goal_sight[flat] = line_of_sight(grid, cell, goal)
            if bits or reach:
                key0 = ident * base + ident + 1  # a child's key less its offset's shift
                g0 = -ng0
                node = (cell, parent, g0, level)
                child_level = level
                if level > 0 and parent is not None:
                    # Children move up a level once success_streak nodes
                    # ending at this one share its level.
                    ancestor = node
                    for _ in range(self.cfg.success_streak - 1):
                        ancestor = ancestor[1]
                        if ancestor is None or ancestor[3] != level:
                            break
                    else:
                        child_level -= 1
                seq = seq0 = self._seq
                dominated = 0
                if bits:
                    queued = self._queued[level]
                    done = queued.get(flat)
                    # A child's step is below radius + 1, so its f is below
                    # g0 + radius + 1 + weight * (dg + radius + 1).
                    if done is not None and (g0 == done[0] or g0 - done[0] > _TIE_SLACK * (
                            g0 + radius + 1 + weight * (dg + radius + 1))):
                        skip = bits & done[1]
                        mask = done[1] | bits
                        bits ^= skip
                        for target in picks[skip]:
                            if key0 + target[3] not in closed:
                                dominated += 1
                    else:
                        mask = bits
                    for dc, dr, step, shift in picks[bits]:
                        key = key0 + shift
                        if key not in closed:
                            seq += 1
                            ng = ng0 - step
                            heappush(open_, (weight * hypot(gdc - dc, gdr - dr) - ng, ng, key,
                                             seq, node, child_level))
                    if seq != seq0:
                        queued[flat] = g0, mask
                # A goal on the circle is a target, decided by the scan above.
                if reach:
                    shift = (gdc * height + gdr) * base
                    key = key0 + shift
                    if key not in closed and (gdc, gdr) not in rows.offsets:
                        seq += 1
                        ng = ng0 - dg
                        heappush(open_, (-ng, ng, key, seq, node, child_level))  # h is 0
                if seq != seq0 or dominated:
                    self._seq = seq
                    stats.generated += seq - seq0 + dominated
                    stats.dominated += dominated
                    if len(open_) > stats.max_open:
                        stats.max_open = len(open_)
                    break
            if level + 1 == depth:
                break
            level += 1
            descents += 1
        if descents:
            stats.expansions += descents
            stats.reinsertions += descents

    def run(self) -> Outcome:
        cfg = self.cfg
        perf = time.perf_counter
        t0 = perf()
        deadline = t0 + cfg.time_cap
        height, base = self.grid.height, self._key_base
        start, goal = self.start, self.goal
        goal_ident = goal[0] * height + goal[1]
        open_, closed, stats = self.open, self.closed, self.stats
        heappush(open_, (cfg.weight * euclid(start, goal), -0.0,
                         (start[0] * height + start[1]) * base, 0, None, 0))
        stats.max_open = max(stats.max_open, len(open_))

        # Bound once: spans.py and the tests wrap Search.expand before run.
        expand, close = self.expand, closed.add
        verdict = Verdict.NOT_FOUND
        path = None
        while open_:
            if perf() > deadline:
                verdict = Verdict.TIMEOUT
                break
            entry = heappop(open_)
            key = entry[2]
            if key // base == goal_ident:
                verdict = Verdict.FOUND
                path = reconstruct_path(entry[4]) + [goal]
                break
            if key in closed:
                # Stale duplicate of an identity already expanded via
                # another open-list entry; nothing new to generate.
                stats.stale_pops += 1
                continue
            close(key)
            expand(entry)

        stats.expansions += len(closed)  # one key per popped expansion
        stats.runtime = perf() - t0
        return Outcome(verdict, path, stats)


def search(grid: Grid, start: Cell, goal: Cell, cfg: PlannerConfig) -> Outcome:
    """Plan an angle-constrained path from start to goal on the grid.

    InputError names an endpoint that is out of bounds or blocked, and
    refuses start == goal.
    """
    return Search(grid, start, goal, cfg).run()
