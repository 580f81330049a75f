"""Exact grid geometry: distances, turn angles, discrete circles, line of sight.

Cells are unit squares centered on integer (col, row) coordinates. All
predicates here are exact: the segment traversal and the circle rasterizer
use integer arithmetic only, so results are identical across platforms.
The turn test is the one floating-point predicate; arc_window evaluates it
with the same expression as the planner, so both agree bit for bit.

Line of sight has one routine, visible_targets. It tests a fan of rays from
one cell: each ray lists the cells of segment_cells() as row or column runs,
and a run is free when the grid's free-run table at its first cell covers
its length. circle_rays() precomputes the rays of a whole delta circle, so
the planner tests a node's admissible arc in one call; line_of_sight() is
the same routine applied to one ray.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .grids import MAX_RUN, Cell, Grid

Offset = tuple[int, int]  # (dcol, drow) displacement

# Angle comparisons allow this much slack (degrees) so that exact-boundary
# geometries behave deterministically under floating point.
ANGLE_EPS_DEG = 1e-9


def euclid(a: Cell, b: Cell) -> float:
    """Euclidean distance between cell centers."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def turn_angle(prev: Cell, mid: Cell, nxt: Cell) -> float:
    """Angle in degrees [0, 180] between segments prev->mid and mid->nxt.

    Collinear continuation gives 0, a reversal gives 180. Zero-length
    segments are a caller bug.
    """
    ux, uy = mid[0] - prev[0], mid[1] - prev[1]
    vx, vy = nxt[0] - mid[0], nxt[1] - mid[1]
    uu = ux * ux + uy * uy
    vv = vx * vx + vy * vy
    if uu == 0 or vv == 0:
        raise ValueError("turn_angle requires nonzero segments")
    cos = (ux * vx + uy * vy) / math.sqrt(uu * vv)
    if cos > 1.0:
        cos = 1.0
    elif cos < -1.0:
        cos = -1.0
    return math.degrees(math.acos(cos))


def _clockwise_from_east(offset: Offset) -> float:
    # Rows grow downward, so increasing atan2 sweeps clockwise on screen.
    angle = math.atan2(offset[1], offset[0])
    return angle if angle >= 0.0 else angle + 2.0 * math.pi


@lru_cache(maxsize=None)
def circle_offsets(radius: int) -> tuple[Offset, ...]:
    """Offsets of the discrete circle of the given radius.

    Midpoint rasterization mirrored through all eight octants, deduplicated,
    ordered clockwise starting from (radius, 0).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return ((0, 0),)
    points: set[Offset] = set()
    x, y = radius, 0
    d = 1 - radius
    while y <= x:
        for px, py in ((x, y), (y, x)):
            points.update(((px, py), (-px, py), (px, -py), (-px, -py)))
        y += 1
        if d < 0:
            d += 2 * y + 1
        else:
            x -= 1
            d += 2 * (y - x) + 1
    return tuple(sorted(points, key=_clockwise_from_east))


def turn_cos_threshold(alpha_max: float) -> float:
    """Cosine bound equivalent to turn_angle(...) <= alpha_max + ANGLE_EPS_DEG.

    A move (dc, dr) after heading (hx, hy) is admissible iff
    ``hx*dc + hy*dr >= threshold * hypot(hx, hy) * hypot(dc, dr)``, which
    avoids an acos per candidate. At 180 degrees every move is admissible.
    """
    bound = alpha_max + ANGLE_EPS_DEG
    return math.cos(math.radians(bound)) if bound < 180.0 else -2.0


@lru_cache(maxsize=None)
def _doubled_circle(radius: int) -> tuple[Offset, ...]:
    return circle_offsets(radius) * 2


@lru_cache(maxsize=None)
def arc_window(
    radius: int, hx: int, hy: int, alpha_max: float
) -> tuple[tuple[Offset, ...], int, int]:
    """The circle offsets a move with heading (hx, hy) may turn to.

    Returns ``(offsets, lo, hi)`` such that ``offsets[lo:hi]`` are exactly
    the offsets of circle_offsets(radius) that pass the turn test of
    turn_cos_threshold(alpha_max), each once. Because the circle is ordered
    by angle they form one circular run, stored as a slice of the circle
    repeated twice so that a run wrapping past east needs no copy. Should
    floating point ever break the run apart, the admissible offsets are
    returned explicitly instead.
    """
    circle = circle_offsets(radius)
    threshold = turn_cos_threshold(alpha_max)
    heading_norm = math.hypot(hx, hy)
    ok = [
        hx * dc + hy * dr >= threshold * heading_norm * math.hypot(dc, dr)
        for dc, dr in circle
    ]
    count = sum(ok)
    if count in (0, len(circle)):
        return _doubled_circle(radius), 0, count
    starts = [i for i in range(len(circle)) if ok[i] and not ok[i - 1]]
    if len(starts) == 1:
        return _doubled_circle(radius), starts[0], starts[0] + count
    explicit = tuple(offset for offset, keep in zip(circle, ok) if keep)
    return explicit, 0, len(explicit)


@lru_cache(maxsize=None)
def segment_cells(
    dcol: int, drow: int
) -> tuple[tuple[Offset, ...], tuple[tuple[Offset, Offset], ...]]:
    """Cells swept by the segment from (0,0) to (dcol,drow), by displacement.

    Returns ``(cells, corner_pairs)``. ``cells`` are all cells whose unit
    square the segment crosses with positive length, endpoints included;
    the segment is clear only if all of them are free. Each entry of
    ``corner_pairs`` is the pair of cells the segment touches only at one
    lattice corner it passes through exactly; passage is blocked only when
    both members of a pair are blocked (a sealed diagonal).

    Translation-invariant, hence cached per displacement. Every returned
    cell lies in the bounding box of the two endpoints.
    """
    sx = -1 if dcol < 0 else 1
    sy = -1 if drow < 0 else 1
    dx, dy = abs(dcol), abs(drow)
    cells: list[Offset] = [(0, 0)]
    pairs: list[tuple[Offset, Offset]] = []
    c = r = 0
    i = j = 1
    # Merge the vertical (x = i - 1/2) and horizontal (y = j - 1/2) boundary
    # crossings in parameter order; (2i-1)*dy vs (2j-1)*dx compares the exact
    # crossing parameters without division.
    while i <= dx or j <= dy:
        if j > dy:
            step_col = True
        elif i > dx:
            step_col = False
        else:
            lhs = (2 * i - 1) * dy
            rhs = (2 * j - 1) * dx
            if lhs == rhs:
                # Exact pass through a lattice corner: diagonal step, and the
                # two cells touched only at that corner form a pinch pair.
                pairs.append(((sx * (c + 1), sy * r), (sx * c, sy * (r + 1))))
                c += 1
                r += 1
                i += 1
                j += 1
                cells.append((sx * c, sy * r))
                continue
            step_col = lhs < rhs
        if step_col:
            c += 1
            i += 1
        else:
            r += 1
            j += 1
        cells.append((sx * c, sy * r))
    return tuple(cells), tuple(pairs)


# A ray is segment_cells(dcol, drow) laid out for one grid width, as a tuple
# (dcol, drow, step, along_rows, runs, pairs). ``step`` is hypot(dcol, drow).
# ``runs`` are (flat offset of the run's lowest-index cell, cell count)
# pairs: row runs read from Grid.free_right when along_rows, column runs
# read from Grid.free_down otherwise, in segment order from the origin.
# ``pairs`` are the corner pairs as flat offsets.
Ray = tuple[int, int, float, bool, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def ray(width: int, dcol: int, drow: int) -> Ray:
    """The segment from (0,0) to (dcol,drow) as runs on a grid of this width.

    Shallow segments (``|dcol| >= |drow|``) are grouped into row runs, steep
    ones into column runs; runs longer than MAX_RUN cells are split. The
    runs cover exactly the cells of segment_cells(dcol, drow).
    """
    cells, pairs = segment_cells(dcol, drow)
    along_rows = abs(dcol) >= abs(drow)
    # [line, lowest position, highest position]. The traversal moves one
    # cell at a time, so consecutive cells on one line are adjacent.
    spans: list[list[int]] = []
    for dc, dr in cells:
        line, pos = (dr, dc) if along_rows else (dc, dr)
        last = spans[-1] if spans else None
        if last is not None and last[0] == line and last[2] - last[1] + 1 < MAX_RUN:
            last[1] = min(last[1], pos)
            last[2] = max(last[2], pos)
        else:
            spans.append([line, pos, pos])
    runs = tuple(
        (line * width + lo if along_rows else lo * width + line, hi - lo + 1)
        for line, lo, hi in spans
    )
    flat_pairs = tuple(
        (r1 * width + c1, r2 * width + c2) for (c1, r1), (c2, r2) in pairs
    )
    return dcol, drow, math.hypot(dcol, drow), along_rows, runs, flat_pairs


@lru_cache(maxsize=None)
def circle_rays(width: int, height: int, radius: int) -> tuple[Ray, ...]:
    """Rays to circle_offsets(radius) on a width x height grid, listed twice.

    Aligned with _doubled_circle(radius), so an arc_window slice ``lo:hi``
    selects the rays of the admissible arc directly. An offset that cannot
    land in such a grid (``|dcol| >= width`` or ``|drow| >= height``) gets a
    placeholder with no cells instead of a ray, because visible_targets
    rejects its target as out of bounds from any cell.
    """
    rays = tuple(
        ray(width, dc, dr)
        if abs(dc) < width and abs(dr) < height
        else (dc, dr, math.hypot(dc, dr), True, (), ())
        for dc, dr in circle_offsets(radius)
    )
    return rays * 2


def visible_targets(
    grid: Grid, cell: Cell, rays: Sequence[Ray]
) -> list[tuple[Cell, float]]:
    """The in-bounds ray targets seen from cell, with their step lengths.

    For each ray, in order, whose target lies in the grid, the target is
    kept iff every cell the segment crosses is free (tested run by run
    against the grid's free-run tables) and no corner it passes through is
    sealed by two blocked cells. ``cell`` must be in bounds.
    """
    col, row = cell
    width, height = grid.width, grid.height
    base = row * width + col
    free_right, free_down, occ = grid.free_right, grid.free_down, grid._flat
    seen = []
    for dcol, drow, step, along_rows, runs, pairs in rays:
        c, r = col + dcol, row + drow
        if 0 <= c < width and 0 <= r < height:
            free = free_right if along_rows else free_down
            for off, length in runs:
                if free[base + off] < length:
                    break
            else:
                for off1, off2 in pairs:
                    if occ[base + off1] and occ[base + off2]:
                        break
                else:
                    seen.append(((c, r), step))
    return seen


def line_of_sight(grid: Grid, a: Cell, b: Cell) -> bool:
    """True iff the straight move between the centers of a and b is feasible.

    Every cell whose square the segment crosses must be unblocked (a and b
    included); a corner crossed exactly is passable unless both diagonal
    cells pinching it are blocked. a must be in bounds; b out of bounds
    gives False.
    """
    return bool(visible_targets(grid, a, (ray(grid.width, b[0] - a[0], b[1] - a[1]),)))
