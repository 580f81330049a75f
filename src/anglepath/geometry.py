"""Exact grid geometry: distances, turn angles, discrete circles, line of sight.

Cells are unit squares centered on integer (col, row) coordinates. All
predicates here are exact: the segment traversal and the circle rasterizer
use integer arithmetic only, so results are identical across platforms.
The turn test is the one floating-point predicate; arc_window evaluates it
with the same expression as the planner, so both agree bit for bit.

A segment is tested as a ray: the cells of segment_cells() grouped into
row or column runs, each read from the grid's free-run tables (a run is free
when the table entry at its first cell covers its length), plus the corner
pairs it pinches. sight_bits() is the one routine that runs this test: over
the rays a bitmask selects, such as the delta-circle offsets one expansion
may move to, answering with a bitmask. line_of_sight() asks it for a single
ray. Everything here is a pure function of its arguments; the caches are
lru_caches keyed by them, and the planner keeps its own per-grid memo.
"""

from __future__ import annotations

import math
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
def arc_window(radius: int, hx: int, hy: int, alpha_max: float) -> int:
    """The circle offsets a move with heading (hx, hy) may turn to, as bits.

    Bit j is set iff offset j of circle_offsets(radius) passes the turn test
    of turn_cos_threshold(alpha_max).
    """
    threshold = turn_cos_threshold(alpha_max)
    heading_norm = math.hypot(hx, hy)
    return sum(
        1 << j
        for j, (dc, dr) in enumerate(circle_offsets(radius))
        if hx * dc + hy * dr >= threshold * heading_norm * math.hypot(dc, dr)
    )


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

    Translation-invariant, so it depends on the displacement only. Not
    cached: ray() caches what it derives from it. Every returned cell lies
    in the bounding box of the two endpoints.
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
# (along_rows, runs, pairs). ``runs`` are (flat offset of the run's
# lowest-index cell, cell count) pairs: row runs read from Grid.free_right
# when along_rows, column runs read from Grid.free_down otherwise, in segment
# order from the origin. ``pairs`` are the corner pairs as flat offsets.
Ray = tuple[bool, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


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
    return along_rows, runs, flat_pairs


def line_of_sight(grid: Grid, a: Cell, b: Cell) -> bool:
    """True iff the straight move between the centers of a and b is feasible.

    Every cell whose square the segment crosses must be unblocked (a and b
    included); a corner crossed exactly is passable unless both diagonal
    cells pinching it are blocked. Either cell out of bounds gives False.
    """
    width, height = grid.width, grid.height
    if not (0 <= a[0] < width and 0 <= a[1] < height
            and 0 <= b[0] < width and 0 <= b[1] < height):
        return False
    dc, dr = b[0] - a[0], b[1] - a[1]
    return sight_bits(grid, a, ((dc, dr, ray(width, dc, dr)),), 1) == 1


@lru_cache(maxsize=None)
def circle_rays(width: int, height: int, radius: int) -> tuple[tuple[int, int, Ray | None], ...]:
    """circle_offsets(radius) as (dcol, drow, ray) on a grid of this size.

    The ray is None for an offset that lands in a width x height grid from
    no cell.
    """
    return tuple(
        (dc, dr, ray(width, dc, dr) if abs(dc) < width and abs(dr) < height else None)
        for dc, dr in circle_offsets(radius)
    )


@lru_cache(maxsize=1 << 14)
def _set_bits(bits: int) -> tuple[int, ...]:
    # Indices of the set bits, low to high. Few values recur: a cell's first
    # expansion asks for a whole arc, later ones for what another arc left.
    return tuple(j for j in range(bits.bit_length()) if bits >> j & 1)


def sight_bits(
    grid: Grid, cell: Cell, rays: tuple[tuple[int, int, Ray | None], ...], bits: int
) -> int:
    """Which of the offsets selected by ``bits`` the in-bounds cell sees.

    Bit j of ``bits`` selects rays[j], an offset (dcol, drow) and its ray
    at the grid's width. Bit j of the result is set iff it is selected, the
    target cell + (dcol, drow) lies in the grid, every run of the ray is
    free in the grid's run tables and none of its corner pairs is sealed.
    """
    width, height = grid.width, grid.height
    col, row = cell
    base = row * width + col
    free_right, free_down, occ = grid.free_right, grid.free_down, grid._flat
    seen = 0
    for j in _set_bits(bits):
        dc, dr, ray_j = rays[j]
        if 0 <= col + dc < width and 0 <= row + dr < height:
            along_rows, runs, pairs = ray_j
            free = free_right if along_rows else free_down
            for off, length in runs:
                if free[base + off] < length:
                    break
            else:
                for off1, off2 in pairs:
                    if occ[base + off1] and occ[base + off2]:
                        break
                else:
                    seen |= 1 << j
    return seen
