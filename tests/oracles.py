"""Independent oracles used to cross-check the library.

Each oracle derives its answer by a different route than the production
code: the line-of-sight oracle clips the segment against every cell square
with exact integer arithmetic, the circle oracle rasterizes by per-row
nearest-point search, the reachability oracle exhaustively enumerates
(cell, parent-cell) states with a plain FIFO queue, the successor oracle
lists an expansion's raw candidates without the planner's arc and
visibility tables, and the reference search pushes each expansion's
children in whatever order its caller draws.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction
from math import isqrt

from anglepath import circle_offsets, euclid, line_of_sight, turn_angle
from anglepath.geometry import ANGLE_EPS_DEG

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


def los_oracle(grid, a, b) -> bool:
    """Geometric line-of-sight decided cell by cell over the bounding box."""
    lo_c, hi_c = sorted((a[0], b[0]))
    lo_r, hi_r = sorted((a[1], b[1]))
    touches: dict[tuple, list] = {}
    for col in range(lo_c, hi_c + 1):
        for row in range(lo_r, hi_r + 1):
            kind, point = segment_box_intersection(a, b, (col, row))
            if kind == "none":
                continue
            if kind == "span":
                if grid.blocked_at(col, row):
                    return False
            else:
                # A single-point contact must be at a lattice corner
                # (odd/odd in doubled coordinates).
                x, y = point
                assert x.denominator == 1 and y.denominator == 1
                assert x.numerator % 2 == 1 and y.numerator % 2 == 1
                touches.setdefault((x, y), []).append((col, row))
    for cells in touches.values():
        assert len(cells) == 2
        if all(grid.blocked_at(c, r) for c, r in cells):
            return False
    return True


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
    line-of-sight or angle filtering happens here: the tests filter this
    list one candidate at a time as the reference for Search.expand.
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
    delta_successors() filtered one candidate at a time, and a dead-end
    node re-enters the open list one ladder level down, to be popped and
    counted as an expansion again. Open entries sort on (f, -g, cell,
    parent cell, insertion order) with (-1, -1) as the start's parent, as
    in the planner. Each expansion's children are pushed in the order
    ``shuffle`` leaves their list in (it permutes a list in place, e.g.
    ``random.Random(seed).shuffle``): children of one expansion differ in
    cell, so no two tie before insertion order, and the order they are
    pushed in changes no verdict, path or counter. time_cap is ignored.
    """
    from anglepath import SearchStats, Verdict, delta_levels
    from anglepath.geometry import turn_cos_threshold

    levels = delta_levels(cfg)
    threshold = turn_cos_threshold(cfg.alpha_max)
    stats = SearchStats()
    open_, closed = [], {}
    seq = 0

    def push(node):  # node: [cell, parent node, g, f, level]
        nonlocal seq
        seq += 1
        parent_cell = node[1][0] if node[1] else (-1, -1)
        heapq.heappush(open_, (node[3], -node[2], node[0], parent_cell, seq, node))
        stats.max_open = max(stats.max_open, len(open_))

    def admissible(heading, dc, dr):
        hx, hy = heading
        if hx * dr == hy * dc and hx * dc + hy * dr > 0:
            return True  # straight on: a zero turn, whatever the rounding
        return hx * dc + hy * dr >= threshold * math.hypot(hx, hy) * math.hypot(dc, dr)

    def streak(node):
        current = node
        for _ in range(cfg.success_streak - 1):
            current = current[1]
            if current is None or current[4] != node[4]:
                return False
        return True

    push([start, None, 0.0, cfg.weight * euclid(start, goal), 0])
    while open_:
        *_, node = heapq.heappop(open_)
        cell, parent, g, _, level = node
        if cell == goal:
            path = []
            while node is not None:
                path.append(node[0])
                node = node[1]
            return Verdict.FOUND, path[::-1], stats
        ident = (cell, parent[0] if parent else None)
        if ident in closed and closed[ident] is not node:
            continue
        closed[ident] = node
        stats.expansions += 1
        heading = (cell[0] - parent[0][0], cell[1] - parent[0][1]) if parent else None
        children = []
        for cand in delta_successors(cell, levels[level], grid, goal):
            dc, dr = cand[0] - cell[0], cand[1] - cell[1]
            if heading is not None and not admissible(heading, dc, dr):
                continue
            if line_of_sight(grid, cell, cand) and (cand, cell) not in closed:
                children.append(cand)
        shuffle(children)
        if not children:
            if level + 1 < len(levels):
                node[4] = level + 1
                stats.reinsertions += 1
                push(node)
            continue
        child_level = level - 1 if level > 0 and parent and streak(node) else level
        for child in children:
            cg = g + euclid(cell, child)
            push([child, node, cg, cg + cfg.weight * euclid(child, goal), child_level])
        stats.generated += len(children)
    return Verdict.NOT_FOUND, None, stats
