"""Exact grid geometry: distances, turn angles, discrete circles, line of sight.

Cells are unit squares centered on integer (col, row) coordinates. All
predicates here are exact: the segment traversal and the circle rasterizer
use integer arithmetic only, so results are identical across platforms.
The turn test is the one floating-point predicate; arc_window evaluates it
with the same expression as the planner, so both agree bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .grids import Cell, Grid

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


@lru_cache(maxsize=None)
def _flat_segment(
    width: int, dcol: int, drow: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """segment_cells() converted to row-major flat-index displacements."""
    cells, pairs = segment_cells(dcol, drow)
    flat_cells = tuple(dr * width + dc for dc, dr in cells)
    flat_pairs = tuple(
        (r1 * width + c1, r2 * width + c2) for (c1, r1), (c2, r2) in pairs
    )
    return flat_cells, flat_pairs


def line_of_sight(grid: Grid, a: Cell, b: Cell) -> bool:
    """True iff the straight move between the centers of a and b is feasible.

    Every cell whose square the segment crosses must be unblocked (a and b
    included); a corner crossed exactly is passable unless both diagonal
    cells pinching it are blocked. Both endpoints must be in bounds.
    """
    flat_cells, flat_pairs = _flat_segment(grid.width, b[0] - a[0], b[1] - a[1])
    base = a[1] * grid.width + a[0]
    occ = grid._flat
    for off in flat_cells:
        if occ[base + off]:
            return False
    for off1, off2 in flat_pairs:
        if occ[base + off1] and occ[base + off2]:
            return False
    return True
