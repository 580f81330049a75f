"""Exact grid geometry: distances, turn angles, discrete circles, line of sight.

Cells are unit squares centered on integer (col, row) coordinates. All
predicates here are exact: the segment layout and the circle rasterizer
use integer arithmetic only, so results are identical across platforms.
The turn test, turn_bits(), is the one floating-point predicate; arc_window
and the planner's goal test both call it, so they agree bit for bit.

A segment is tested as a ray: ray() lays out the cells it crosses, in
closed form, as row or column runs, each read from the grid's free-run
tables (a run is free when the table entry at its first cell covers its
length), plus the corner pairs it pinches. sight_bits() runs this test
from one cell over the rays a bitmask selects, such as the delta-circle
offsets one expansion may move to, answering with a bitmask;
line_of_sight() asks it for a single ray. sight_table() runs the same test
from every cell of the grid at once, a bit per cell, and keeps a row of
answers per cell. Everything here is a pure function of its arguments; the
caches are lru_caches keyed by them, and the planner keeps its own per-grid
rings of circle rays.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

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
    scale = threshold * math.hypot(hx, hy)  # the product's first factor
    bits = 0
    for j, (dc, dr) in enumerate(offsets):
        if (hx * dc + hy * dr >= scale * math.hypot(dc, dr)
                or (hx * dr == hy * dc and hx * dc + hy * dr > 0)):
            bits |= 1 << j
    return bits


# arc_window() leaves every offset this close (radians) to an edge of its
# window to turn_bits(). An offset farther in or out passes or fails the
# cosine test by at least 1 - cos(ARC_SLACK) = 5e-9, far above its rounding.
ARC_SLACK = 1e-4


@lru_cache(maxsize=None)
def _by_angle(offsets: tuple[Offset, ...]) -> tuple[list[float], list[int], list[int]]:
    # The offsets' indices in atan2 order, three times round from -3*pi, with
    # their angles and the xor of 1 << index over each prefix of that order.
    order = sorted(range(len(offsets)), key=lambda j: math.atan2(offsets[j][1], offsets[j][0]))
    angles = [math.atan2(offsets[j][1], offsets[j][0]) for j in order]
    angles = [a + turn for turn in (-2 * math.pi, 0.0, 2 * math.pi) for a in angles]
    order *= 3
    prefix = [0]
    for j in order:
        prefix.append(prefix[-1] ^ 1 << j)
    return angles, order, prefix


@lru_cache(maxsize=None)
def arc_window(radius: int, hx: int, hy: int, alpha_max: float) -> int:
    """The circle offsets a move with heading (hx, hy) may turn to, as bits.

    Bit j is set iff offset j of circle_offsets(radius) passes turn_bits()
    at turn_cos_threshold(alpha_max). The window is the offsets within
    acos(threshold) of the heading's angle, found by bisection on the
    circle's offsets sorted by angle: those more than ARC_SLACK inside its
    edges pass, and turn_bits() decides those within ARC_SLACK of them.
    """
    offsets = circle_offsets(radius)
    threshold = turn_cos_threshold(alpha_max)
    if threshold < -1.0:
        return (1 << len(offsets)) - 1
    angles, order, prefix = _by_angle(offsets)
    heading, half = math.atan2(hy, hx), math.acos(threshold)
    lo, b, c, hi = (bisect_left(angles, heading + edge) for edge in (
        -half - ARC_SLACK, -half + ARC_SLACK, half - ARC_SLACK, half + ARC_SLACK))
    if b < c:  # the inside is under 2*pi wide: it holds each offset once at most
        bits, edges = prefix[c] ^ prefix[b], order[lo:b] + order[c:hi]
    else:
        bits, edges = 0, order[lo:hi]
    passed = turn_bits(hx, hy, tuple(offsets[j] for j in edges), threshold)
    for t, j in enumerate(edges):
        if passed >> t & 1:
            bits |= 1 << j
    return bits


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


# The 8x8 bit-matrix transpose (Warren, Hacker's Delight, 2nd ed., 7-3): three
# masked swaps move bit 8i + j of a little-endian word to bit 8j + i.
_TRANSPOSE_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0))
)


def sight_table(grid: Grid, rays: tuple[tuple[int, int, Ray | None], ...]) -> bytearray:
    """What every cell sees of ``rays``: one row of ``(len(rays) + 7) // 8``
    bytes per cell, in flat index order.

    A row read as a little-endian int equals sight_bits(grid, cell, rays,
    (1 << len(rays)) - 1). Each ray is tested from every cell at once, in
    the shift-and manner: bit i of an int over the cells is set iff cell i
    has the property, and shifting it right by a ray's offset moves the
    bit of cell i + offset to i. A cell sees the ray's target iff the
    target is in bounds, each run (offset, n) is in the set of cells whose
    free run covers n, shifted by the offset, and each corner pair has a
    free member. Each eight rays' ints are then transposed into a byte
    column of the table.
    """
    width, height = grid.width, grid.height
    cells, size = width * height, (len(rays) + 7) // 8
    span = (cells + 7) // 8
    run_sets: dict[tuple[bool, int], int] = {}  # (along_rows, n) -> cells whose run covers n

    def covers(along_rows: bool, length: int, off: int) -> int:
        # The cells whose cell + off starts a free run of this length.
        key = along_rows, length
        if key not in run_sets:
            free = np.frombuffer(grid.free_right if along_rows else grid.free_down, np.uint8)
            run_sets[key] = int.from_bytes(np.packbits(free >= length, bitorder="little"), "little")
        return run_sets[key] >> off if off >= 0 else run_sets[key] << -off

    table = bytearray(cells * size)
    rows = np.frombuffer(table, np.uint8).reshape(cells, size)  # writes go to table
    group = np.zeros((span, 8), np.uint8)  # column i: the cells that see rays[8k + i]
    inside = np.zeros((height, width), bool)
    for j, (dc, dr, ray_j) in enumerate(rays):
        seen = 0
        if ray_j is not None:
            inside[:] = False
            inside[max(0, -dr):height - max(0, dr), max(0, -dc):width - max(0, dc)] = True
            seen = int.from_bytes(np.packbits(inside, bitorder="little"), "little")
            along_rows, runs, pairs = ray_j
            for off, length in runs:
                seen &= covers(along_rows, length, off)
            for off1, off2 in pairs:  # a run of one is an unblocked cell
                seen &= covers(True, 1, off1) | covers(True, 1, off2)
        group[:, j % 8] = np.frombuffer(seen.to_bytes(span, "little"), np.uint8)
        if j % 8 == 7 or j + 1 == len(rays):
            # Word p holds the group's rays as its bytes and cells 8p..8p+7
            # as their bits; transposed, its byte i is cell 8p + i's bits.
            words = group.view("<u8")
            for shift, mask in _TRANSPOSE_STEPS:
                swap = (words ^ words >> shift) & mask
                words = words ^ swap ^ swap << shift
            rows[:, j // 8] = words.view(np.uint8).reshape(-1)[:cells]
            group[:] = 0
    return table
