"""Independent oracles used to cross-check the library.

Each oracle derives its answer by a different route than the production
code: the line-of-sight oracle clips the segment against every cell square
of its bounding box with exact integer arithmetic, once per offset, the
circle oracle rasterizes by per-row nearest-point search, the reachability
oracle exhaustively enumerates (cell, parent-cell) states with a plain FIFO
queue, the successor oracle lists an expansion's raw candidates without the
planner's arc and visibility tables, the arc-window oracle runs the turn
test on every offset of the circle instead of bisecting by angle, and the
reference search pushes each expansion's children in whatever order its
caller draws, every one of them, marking those the planner's dominance
rule drops. The seeded grid
and endpoint helpers the test modules share live here too, once, with
the builder of a popped open-list entry and a check that a process has
exited.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from collections import deque
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from anglepath import (
    Grid,
    SearchStats,
    Verdict,
    circle_offsets,
    delta_levels,
    euclid,
    line_of_sight,
    turn_angle,
)
from anglepath.geometry import ANGLE_EPS_DEG, turn_cos_threshold

# ---------------------------------------------------------------------------
# Seeded inputs and bounds shared by the test modules


def empty_grid(n):
    return Grid(np.zeros((n, n), dtype=bool))


def random_grid(rng, n, density):
    """An n x n grid, each cell blocked with probability density, row by row."""
    blocked = np.array(
        [[rng.random() < density for _ in range(n)] for _ in range(n)], dtype=bool
    )
    return Grid(blocked)


def random_endpoints(rng, grid):
    """Two distinct free cells (start, goal) drawn by rng, or None."""
    free = [
        (c, r)
        for r in range(grid.height)
        for c in range(grid.width)
        if not grid.blocked_at(c, r)
    ]
    if len(free) < 2:
        return None
    return tuple(rng.sample(free, 2))


def process_gone(pid: int) -> bool:
    """Whether no process runs as pid: none exists, or only a zombie that
    its new parent has not reaped yet, as an orphan can be for a while."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def expansion_bound(grid, cfg):
    """A generous cap on expansions: every (cell, circle cell, level) four times."""
    r_max = max(1, round(cfg.delta_max))
    return grid.width * grid.height * len(circle_offsets(r_max)) * len(delta_levels(cfg)) * 4


def ident_key(search, cell, parent_cell=None):
    """The packed key of a (cell, parent cell) identity, as in Search."""
    height = search.grid.height
    parent_part = 0 if parent_cell is None else parent_cell[0] * height + parent_cell[1] + 1
    return (cell[0] * height + cell[1]) * (search.grid.width * height + 1) + parent_part


def popped_entry(search, cell, parent=None, g=0.0, level=0):
    """The open-list entry ``(f, -g, key, seq, parent, level)`` of the
    search for cell, as run() pops it and hands it to expand(): reached
    from the node tuple ``parent`` = (cell, parent, g, level), None for the
    start, at cost g, on ladder level ``level``. A parent off the grid,
    which a test uses only for its heading, has no key part: the key then
    packs the cell alone, and the cell is all expand() decodes from it."""
    parent_cell = None if parent is None else parent[0]
    if parent_cell is not None and not search.grid.in_bounds(*parent_cell):
        parent_cell = None
    key = ident_key(search, cell, parent_cell)
    return (g + search.cfg.weight * euclid(cell, search.goal), -g, key, 0, parent, level)


# ---------------------------------------------------------------------------
# Exact rational line-of-sight oracle


def _clip_axis(lo, hi, a, d, box_min, box_max):
    """Clip parameter interval [lo, hi] to box_min <= a + t*d <= box_max.

    Intervals are (num, den) fractions with den > 0. Returns None when the
    intersection is empty.
    """
    if d == 0:
        if a < box_min or a > box_max:
            return None
        return lo, hi
    if d > 0:
        t1 = (box_min - a, d)
        t2 = (box_max - a, d)
    else:
        t1 = (a - box_max, -d)
        t2 = (a - box_min, -d)
    # lo = max(lo, t1)
    if lo[0] * t1[1] < t1[0] * lo[1]:
        lo = t1
    # hi = min(hi, t2)
    if t2[0] * hi[1] < hi[0] * t2[1]:
        hi = t2
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def segment_box_intersection(a, b, cell):
    """Intersection type of segment a->b with the closed unit square of cell.

    Returns ("none", None), ("span", None) for a positive-length overlap, or
    ("point", (x, y)) with the exact touch point in doubled coordinates.
    """
    ax, ay = 2 * a[0], 2 * a[1]
    dx, dy = 2 * b[0] - ax, 2 * b[1] - ay
    col, row = cell
    interval = ((0, 1), (1, 1))
    interval = _clip_axis(*interval, ax, dx, 2 * col - 1, 2 * col + 1)
    if interval is None:
        return "none", None
    interval = _clip_axis(*interval, ay, dy, 2 * row - 1, 2 * row + 1)
    if interval is None:
        return "none", None
    lo, hi = interval
    if lo[0] * hi[1] != hi[0] * lo[1]:
        return "span", None
    t = Fraction(lo[0], lo[1])
    return "point", (ax + t * dx, ay + t * dy)


@functools.lru_cache(maxsize=None)
def segment_cells(dcol, drow):
    """The segment (0,0)->(dcol,drow) by the exact oracle: (cells, corner pairs).

    The cells are those of its bounding box whose square it crosses with
    positive length; each corner pair is the two cells it touches at one
    lattice corner only. An integer translation maps cell squares and
    lattice corners onto cell squares and lattice corners, so the segment
    a->b meets the cells of b - a moved by a.
    """
    crossed, touches = [], {}
    for dc in range(min(0, dcol), max(0, dcol) + 1):
        for dr in range(min(0, drow), max(0, drow) + 1):
            kind, point = segment_box_intersection((0, 0), (dcol, drow), (dc, dr))
            if kind == "span":
                crossed.append((dc, dr))
            elif kind == "point":
                # A single-point contact must be at a lattice corner
                # (odd/odd in doubled coordinates).
                x, y = point
                assert x.denominator == 1 and y.denominator == 1
                assert x.numerator % 2 == 1 and y.numerator % 2 == 1
                touches.setdefault(point, []).append((dc, dr))
    assert all(len(cells) == 2 for cells in touches.values())
    return tuple(crossed), tuple(tuple(cells) for cells in touches.values())


def los_oracle(grid, a, b) -> bool:
    """Geometric line-of-sight: no crossed cell and no corner pair blocked."""
    crossed, pairs = segment_cells(b[0] - a[0], b[1] - a[1])
    col, row = a
    blocked = grid.blocked_at
    for dc, dr in crossed:
        if blocked(col + dc, row + dr):
            return False
    return not any(
        blocked(col + c1, row + r1) and blocked(col + c2, row + r2)
        for (c1, r1), (c2, r2) in pairs
    )


# ---------------------------------------------------------------------------
# Brute-force discrete circle


def circle_oracle(radius: int) -> set[tuple[int, int]]:
    """Circle points by nearest-x search per row, mirrored to all octants."""
    if radius == 0:
        return {(0, 0)}
    points: set[tuple[int, int]] = set()
    y = 0
    while True:
        m = radius * radius - y * y
        x = isqrt(m)
        if (m - x * x) > ((x + 1) * (x + 1) - m):
            x += 1
        if y > x:
            break
        for px, py in ((x, y), (y, x)):
            points.update(((px, py), (-px, py), (px, -py), (-px, -py)))
        y += 1
    return points


# ---------------------------------------------------------------------------
# Raw successor candidates


def delta_successors(cell, delta, grid, goal) -> list[tuple[int, int]]:
    """In-bounds cells of the circle of radius round(delta), goal injected last.

    The goal is appended when it lies strictly closer than delta. No
    line-of-sight or angle filtering happens here: admitted_successors()
    filters this list one candidate at a time as the reference for
    Search.expand.
    """
    col, row = cell
    cells = []
    for dc, dr in circle_offsets(max(1, round(delta))):
        c, r = col + dc, row + dr
        if grid.in_bounds(c, r):
            cells.append((c, r))
    if euclid(cell, goal) < delta and goal not in cells:
        cells.append(goal)
    return cells


def turn_ok(hx, hy, dc, dr, threshold) -> bool:
    """The planner's turn test for move (dc, dr) after heading (hx, hy).

    ``threshold`` is turn_cos_threshold(alpha_max).
    """
    if hx * dr == hy * dc and hx * dc + hy * dr > 0:
        return True  # straight on: a zero turn, whatever the rounding
    return hx * dc + hy * dr >= threshold * math.hypot(hx, hy) * math.hypot(dc, dr)


def arc_window_scan(radius, hx, hy, alpha_max) -> int:
    """arc_window() as a scan of every circle offset with turn_ok()."""
    threshold = turn_cos_threshold(alpha_max)
    return sum(1 << j for j, (dc, dr) in enumerate(circle_offsets(radius))
               if turn_ok(hx, hy, dc, dr, threshold))


def admitted_successors(grid, cell, parent_cell, delta, goal, threshold, closed):
    """delta_successors() filtered one candidate at a time.

    A candidate is kept when the move onto it passes turn_ok() after the
    heading from ``parent_cell`` (None: the start, which may turn freely),
    it is in sight of ``cell``, and ``closed(candidate)`` is false.
    """
    col, row = cell
    children = []
    for cand in delta_successors(cell, delta, grid, goal):
        if parent_cell is not None and not turn_ok(
            col - parent_cell[0], row - parent_cell[1], cand[0] - col, cand[1] - row, threshold
        ):
            continue
        if line_of_sight(grid, cell, cand) and not closed(cand):
            children.append(cand)
    return children


# ---------------------------------------------------------------------------
# Exhaustive (cell, parent-cell) reachability


def reachable(grid, start, goal, deltas, alpha_max) -> bool:
    """Does an angle-constrained path of jumps drawn from ``deltas`` exist?

    Breadth-first enumeration over (cell, parent-cell) states using the same
    successor, line-of-sight and turn predicates as the planner, but none of
    its search machinery.
    """
    radii = sorted({max(1, round(d)) for d in deltas})
    delta_top = max(deltas)
    queue = deque([(start, None)])
    seen = {(start, None)}
    while queue:
        cell, parent = queue.popleft()
        if cell == goal:
            return True
        candidates = []
        for radius in radii:
            for dc, dr in circle_offsets(radius):
                cand = (cell[0] + dc, cell[1] + dr)
                if grid.in_bounds(*cand) and cand not in candidates:
                    candidates.append(cand)
        if euclid(cell, goal) < delta_top and goal not in candidates:
            candidates.append(goal)
        for cand in candidates:
            if parent is not None and (
                turn_angle(parent, cell, cand) > alpha_max + ANGLE_EPS_DEG
            ):
                continue
            if not line_of_sight(grid, cell, cand):
                continue
            state = (cand, cell)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return False


# ---------------------------------------------------------------------------
# Reference search


def reference_search(grid, start, goal, cfg, shuffle):
    """LIAN/eLIAN by the book: (verdict, path, stats) without the tables.

    Identities are (cell, parent cell) tuples, successors are
    admitted_successors(), and a dead-end node re-enters the open list one
    ladder level down, to be popped and counted as an expansion again. Open
    entries sort on (f, -g, cell, parent cell, insertion order) with (-1, -1)
    as the start's parent, as in the planner. Each expansion's children are
    pushed in the order ``shuffle`` leaves their list in (it permutes a list
    in place, e.g. ``random.Random(seed).shuffle``): children of one
    expansion differ in cell, so no two tie before insertion order, and the
    order they are pushed in changes no verdict, path or counter. time_cap
    is ignored.

    Every child is pushed, but those the planner's dominance rule drops are
    marked: per (cell, level) the g of the cell's last expansion there that
    queued a child from the circle, and the circle offsets queued at that
    g; a later expansion at the same g, or at a g above it by more than
    rounding of a child's f can hide, marks its children on those offsets
    and adds the offsets it queues. A marked entry
    must pop stale (its identity already closed, never the goal), or not at
    all. It counts in ``generated`` and ``dominated``; ``max_open`` and
    ``stale_pops`` count unmarked entries only.
    """
    levels = delta_levels(cfg)
    threshold = turn_cos_threshold(cfg.alpha_max)
    stats = SearchStats()
    open_, closed = [], {}
    queued = {}  # (cell, level) -> (g, set of circle offsets queued)
    seq = marked_open = 0

    def push(node, marked=False):  # node: [cell, parent node, g, f, level]
        nonlocal seq, marked_open
        seq += 1
        marked_open += marked
        parent_cell = node[1][0] if node[1] else (-1, -1)
        heapq.heappush(open_, (node[3], -node[2], node[0], parent_cell, seq, marked, node))
        stats.max_open = max(stats.max_open, len(open_) - marked_open)

    def streak(node):
        current = node
        for _ in range(cfg.success_streak - 1):
            current = current[1]
            if current is None or current[4] != node[4]:
                return False
        return True

    push([start, None, 0.0, cfg.weight * euclid(start, goal), 0])
    while open_:
        *_, marked, node = heapq.heappop(open_)
        marked_open -= marked
        cell, parent, g, _, level = node
        ident = (cell, parent[0] if parent else None)
        if marked:
            assert cell != goal and ident in closed, (cell, ident)
        if cell == goal:
            path = []
            while node is not None:
                path.append(node[0])
                node = node[1]
            return Verdict.FOUND, path[::-1], stats
        if ident in closed and closed[ident] is not node:
            stats.stale_pops += not marked
            continue
        closed[ident] = node
        stats.expansions += 1
        children = admitted_successors(
            grid, cell, ident[1], levels[level], goal, threshold,
            lambda cand: (cand, cell) in closed,
        )
        shuffle(children)
        radius = max(1, round(levels[level]))
        offset = {child: (child[0] - cell[0], child[1] - cell[1]) for child in children}
        old = queued.get((cell, level))
        reach = g + radius + 1 + cfg.weight * (euclid(cell, goal) + radius + 1)
        skip = set()
        if old is not None and (g == old[0] or g - old[0] > 2.0 ** -40 * reach):
            skip = old[1]
        new = ({offset[c] for c in children} & set(circle_offsets(radius))) - skip
        if new:
            queued[(cell, level)] = (g, skip | new)
        if not children:
            if level + 1 < len(levels):
                node[4] = level + 1
                stats.reinsertions += 1
                push(node)
            continue
        child_level = level - 1 if level > 0 and parent and streak(node) else level
        for child in children:
            cg = g + euclid(cell, child)
            push([child, node, cg, cg + cfg.weight * euclid(child, goal), child_level],
                 offset[child] in skip)
            stats.dominated += offset[child] in skip
        stats.generated += len(children)
    return Verdict.NOT_FOUND, None, stats
