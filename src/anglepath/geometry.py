"""Exact grid geometry: distances, turn angles, discrete circles, line of sight.

Cells are unit squares centered on integer (col, row) coordinates. All
predicates here are exact: the segment layout and the circle rasterizer
use integer arithmetic only, so results are identical across platforms.
The turn test, turn_bits(), is the one floating-point predicate; arc_window
and the planner's goal test both call it, so they agree bit for bit.

A segment is tested as a ray: ray() lays out the cells it crosses, in
closed form, as row or column runs, each read from the grid's free-run
tables (a run is free when the table entry at its first cell covers its
length), plus the corner pairs it pinches. sight_bits() is the
one routine that runs this test: over the rays a bitmask selects, such as
the delta-circle offsets one expansion may move to, answering with a
bitmask. line_of_sight() asks it for a single ray. Everything here is a
pure function of its arguments; the caches are lru_caches keyed by them,
and the planner keeps its own per-grid rings of circle rays.
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


@lru_cache(maxsize=None)
def circle_offsets(radius: int) -> tuple[Offset, ...]:
    """Offsets of the discrete circle of the given radius.

    Midpoint rasterization mirrored through all eight octants, deduplicated,
    in sorted (dcol, drow) order.
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
    return tuple(sorted(points))


def turn_cos_threshold(alpha_max: float) -> float:
    """Cosine bound equivalent to turn_angle(...) <= alpha_max + ANGLE_EPS_DEG.

    turn_bits() compares against it, which avoids an acos per candidate. At
    180 degrees every move is admissible.
    """
    bound = alpha_max + ANGLE_EPS_DEG
    return math.cos(math.radians(bound)) if bound < 180.0 else -2.0


def turn_bits(hx: int, hy: int, offsets: tuple[Offset, ...], threshold: float) -> int:
    """Which moves of ``offsets`` may follow the heading (hx, hy), as bits.

    Bit j is set iff offsets[j] = (dc, dr) passes the turn test at
    threshold = turn_cos_threshold(alpha_max):
    ``hx*dc + hy*dr >= threshold * hypot(hx, hy) * hypot(dc, dr)``, or the
    move continues the heading exactly (collinear, same direction). The
    second clause is exact integer arithmetic: at alpha_max = 0 rounding
    alone rejects such moves, since hypot(2, 1) ** 2 is 5.000000000000001.
    """
    heading_norm = math.hypot(hx, hy)
    bits = 0
    for j, (dc, dr) in enumerate(offsets):
        if (hx * dc + hy * dr >= threshold * heading_norm * math.hypot(dc, dr)
                or (hx * dr == hy * dc and hx * dc + hy * dr > 0)):
            bits |= 1 << j
    return bits


@lru_cache(maxsize=None)
def arc_window(radius: int, hx: int, hy: int, alpha_max: float) -> int:
    """The circle offsets a move with heading (hx, hy) may turn to, as bits.

    Bit j is set iff offset j of circle_offsets(radius) passes turn_bits()
    at turn_cos_threshold(alpha_max).
    """
    return turn_bits(hx, hy, circle_offsets(radius), turn_cos_threshold(alpha_max))


# A ray is the segment from (0,0) to (dcol,drow) laid out for one grid
# width, as a tuple (along_rows, runs, pairs). ``runs`` are (flat offset of
# the run's lowest-index cell, cell count) pairs: row runs read from
# Grid.free_right when along_rows, column runs read from Grid.free_down
# otherwise, in segment order from the origin. ``pairs`` are the corner
# pairs as flat offsets.
Ray = tuple[bool, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def ray(width: int, dcol: int, drow: int) -> Ray:
    """The segment from (0,0) to (dcol,drow) as runs on a grid of this width.

    The runs cover, each once, every cell whose unit square the segment
    crosses with positive length, endpoints included: the segment is clear
    only if all of them are free. Shallow segments (``|dcol| >= |drow|``)
    are grouped into row runs, steep ones into column runs; runs longer
    than MAX_RUN cells are split. Each of ``pairs`` is the pair of cells the
    segment touches only at one lattice corner it passes through exactly;
    passage is blocked only when both members of a pair are blocked (a
    sealed diagonal). Every cell lies in the bounding box of the two
    endpoints, so the flat offsets are exact for any width above |dcol|.
    Runs and pairs come in segment order from the origin.

    No traversal is needed: with major and minor lengths da >= db, the
    segment crosses minor boundary b + 1/2 at major position
    (2b+1)*da / (2db), so line b holds the cells between the crossings of
    b - 1/2 and b + 1/2, and a crossing is a lattice corner exactly when
    (2b+1)*da is an odd multiple of db.
    """
    sx = -1 if dcol < 0 else 1
    sy = -1 if drow < 0 else 1
    along_rows = abs(dcol) >= abs(drow)
    da, db = (abs(dcol), abs(drow)) if along_rows else (abs(drow), abs(dcol))
    # Flat offset of one step along the major axis and of one line across it.
    step, line_step = (sx, sy * width) if along_rows else (sy * width, sx)
    runs = []
    pairs = []
    lo = 0
    for b in range(db + 1):
        cross = (2 * b + 1) * da
        hi = da if b == db else (cross + db - 1) // (2 * db)
        # Chunks from the origin side; a run's offset is its lowest-index cell.
        for first in range(lo, hi + 1, MAX_RUN):
            last = min(first + MAX_RUN - 1, hi)
            runs.append((b * line_step + (first if step > 0 else last) * step, last - first + 1))
        if b < db:
            if cross % db == 0 and cross // db % 2:
                # The corner (c + 1/2, r + 1/2) pinches (c + 1, r) and (c, r + 1).
                m = cross // db // 2
                c, r = (m, b) if along_rows else (b, m)
                pairs.append((sy * r * width + sx * (c + 1), sy * (r + 1) * width + sx * c))
            lo = (cross - db) // (2 * db) + 1
    return along_rows, tuple(runs), tuple(pairs)


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
    free_right, free_down = grid.free_right, grid.free_down
    seen = 0
    while bits:  # the set bits, low to high
        low = bits & -bits
        bits ^= low
        dc, dr, ray_j = rays[low.bit_length() - 1]
        if 0 <= col + dc < width and 0 <= row + dr < height:
            along_rows, runs, pairs = ray_j
            free = free_right if along_rows else free_down
            for off, length in runs:
                if free[base + off] < length:
                    break
            else:
                for off1, off2 in pairs:
                    # A cell is blocked iff its free run is empty.
                    if not (free_right[base + off1] or free_right[base + off2]):
                        break
                else:
                    seen |= low
    return seen
