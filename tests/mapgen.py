"""Deterministic map constructions used by the test suite.

Two families:

* ``bend_corridor``: a corridor with a quarter-circle bend carved through
  solid blockage. The bend radius is chosen so that length-4 jumps can
  follow it within a 25 degree turn limit while length-8 jumps cannot, so
  a fixed length of 8 dead-ends at the bend and an adaptive 8-to-4 planner
  gets through. ``CORRIDOR_PARAMS`` lists twenty verified parameter sets.

* ``building_map``: indoor-style benchmark maps (rooms separated by walls
  with door openings) plus hard start/goal instances, serialized in
  MovingAI ``.map``/``.scen`` format so benchmarks exercise the real file
  ingestion path.
"""

from __future__ import annotations

import math
import random

import numpy as np

from anglepath import Grid, Instance

# (width, radius, approach, band_widen); all verified so that no path of
# 8-jumps exists but a path mixing 8- and 4-jumps does, at alpha_max = 25.
CORRIDOR_PARAMS = (
    (2, 12, 10, 0.5),
    (2, 12, 10, 1.0),
    (2, 13, 10, 0.5),
    (2, 14, 16, 0.5),
    (2, 14, 16, 1.0),
    (2, 15, 16, 0.5),
    (2, 15, 16, 1.0),
    (2, 16, 13, 0.5),
    (3, 9, 16, 0.0),
    (3, 10, 13, 0.5),
    (3, 11, 10, 0.0),
    (3, 11, 13, 0.5),
    (3, 11, 16, 0.0),
    (3, 12, 13, 0.0),
    (3, 12, 16, 0.0),
    (3, 13, 10, 0.0),
    (3, 13, 13, 0.0),
    (3, 13, 16, 0.0),
    (3, 14, 10, 0.0),
    (3, 14, 13, 0.0),
)


def bend_corridor(width: int, radius: int, approach: int, band_widen: float = 0.0,
                  exit_len: int = 8):
    """Carve an L-shaped corridor with a rounded bend through solid blockage.

    Returns (grid, start, goal). The corridor runs right along a horizontal
    approach, turns upward through a quarter annulus of the given centerline
    radius, and leaves through a vertical exit. ``band_widen`` widens only
    the annulus band (half cells), keeping the straight passages at
    ``width`` cells.
    """
    band = width / 2.0 + band_widen
    straight = width / 2.0
    m0 = 1
    bx = m0 + 1 + approach
    cy = 2 + int(band) + exit_len + radius
    w = bx + radius + int(band) + 3
    h = cy + int(band) + 3
    blocked = np.ones((h, w), dtype=bool)
    centre = (bx, cy - radius)
    for y in range(h):
        for x in range(w):
            carve = (
                m0 <= x <= bx and abs(y - cy) <= straight - 0.5 + 1e-9
            )
            if not carve and x >= bx and y >= centre[1]:
                d = math.hypot(x - centre[0], y - centre[1])
                carve = radius - band <= d <= radius + band
            if not carve:
                carve = (
                    abs(x - (bx + radius)) <= straight - 0.5 + 1e-9
                    and centre[1] - exit_len <= y <= centre[1]
                )
            if carve:
                blocked[y, x] = False
    start = (m0 + 1, cy)
    goal = (bx + radius, centre[1] - exit_len + 1)
    return Grid(blocked), start, goal


def corridor_suite():
    """The twenty frozen narrow-passage instances."""
    return [bend_corridor(*params) for params in CORRIDOR_PARAMS]


# ---------------------------------------------------------------------------
# Benchmark maps


def building_blocked(seed: int, size: int = 128, spacing=(18, 30), door=(3, 7),
                     second_door_p: float = 0.3) -> np.ndarray:
    """Indoor-style occupancy: bordered rooms with door openings in walls."""
    rng = random.Random(seed)
    blocked = np.zeros((size, size), dtype=bool)
    blocked[0, :] = blocked[-1, :] = True
    blocked[:, 0] = blocked[:, -1] = True

    def wall_positions():
        out, v = [], 0
        while True:
            v += rng.randrange(*spacing)
            if v >= size - 6:
                return out
            out.append(v)

    xs, ys = wall_positions(), wall_positions()
    for x in xs:
        blocked[:, x] = True
    for y in ys:
        blocked[y, :] = True
    xs_b = [0] + xs + [size - 1]
    ys_b = [0] + ys + [size - 1]
    for x in xs:
        for y0, y1 in zip(ys_b, ys_b[1:]):
            if y1 - y0 < 8:
                continue
            doors = 2 if rng.random() < second_door_p else 1
            for _ in range(doors):
                # Clamped so that a door also fits between walls 8 apart.
                dw = min(rng.randrange(door[0], door[1] + 1), y1 - y0 - 2)
                pos = rng.randrange(y0 + 1, y1 - dw)
                blocked[pos:pos + dw, x] = False
    for y in ys:
        for x0, x1 in zip(xs_b, xs_b[1:]):
            if x1 - x0 < 8:
                continue
            doors = 2 if rng.random() < second_door_p else 1
            for _ in range(doors):
                # Clamped so that a door also fits between walls 8 apart.
                dw = min(rng.randrange(door[0], door[1] + 1), x1 - x0 - 2)
                pos = rng.randrange(x0 + 1, x1 - dw)
                blocked[y, pos:pos + dw] = False
    return blocked


def _octile_distances(blocked: np.ndarray, start) -> np.ndarray:
    """8-connected BFS step counts from start (inf where unreachable).

    The frontier advances one step at a time as a whole boolean matrix:
    dilated by the 8 neighbour shifts, then kept on free, unreached cells.
    """
    free = ~blocked
    dist = np.full(blocked.shape, np.inf)
    frontier = np.zeros(blocked.shape, dtype=bool)
    frontier[start[1], start[0]] = True
    reached = frontier.copy()
    steps = 0
    while frontier.any():
        dist[frontier] = steps
        tall = frontier.copy()
        tall[1:] |= frontier[:-1]
        tall[:-1] |= frontier[1:]
        grown = tall.copy()
        grown[:, 1:] |= tall[:, :-1]
        grown[:, :-1] |= tall[:, 1:]
        frontier = grown & free & ~reached
        reached |= frontier
        steps += 1
    return dist


def hard_instances(blocked: np.ndarray, map_id: str, count: int, seed: int,
                   min_dist_frac: float = 0.6) -> list[Instance]:
    """Far-apart, mutually reachable start/goal tasks on the map."""
    rng = random.Random(seed)
    size = blocked.shape[0]
    free = [
        (c, r)
        for r in range(size)
        for c in range(size)
        if not blocked[r, c]
    ]
    min_dist = min_dist_frac * size
    instances: list[Instance] = []
    attempts = 0
    while len(instances) < count and attempts < 10000:
        attempts += 1
        start, goal = rng.sample(free, 2)
        if math.dist(start, goal) < min_dist:
            continue
        dist = _octile_distances(blocked, start)
        steps = dist[goal[1], goal[0]]
        if not np.isfinite(steps):
            continue
        instances.append(
            Instance(
                map_id=map_id,
                start=start,
                goal=goal,
                bucket=int(steps // 16),
                reference_length=float(steps),
            )
        )
    if len(instances) < count:
        raise RuntimeError(f"could not sample {count} instances on {map_id}")
    return instances


def to_movingai_map(blocked: np.ndarray) -> str:
    h, w = blocked.shape
    rows = ["".join("@" if blocked[r, c] else "." for c in range(w)) for r in range(h)]
    return "\n".join(["type octile", f"height {h}", f"width {w}", "map"] + rows) + "\n"


def to_movingai_scen(instances: list[Instance], width: int, height: int) -> str:
    lines = ["version 1"]
    for inst in instances:
        lines.append(
            "\t".join(
                str(v)
                for v in (
                    inst.bucket,
                    inst.map_id,
                    width,
                    height,
                    inst.start[0],
                    inst.start[1],
                    inst.goal[0],
                    inst.goal[1],
                    inst.reference_length,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_benchmark_files(root, seeds=(1, 2, 3, 4, 5), size: int = 128,
                          instances_per_map: int = 20):
    """Write .map/.scen files for the benchmark suite; returns scen paths."""
    scen_paths = []
    for seed in seeds:
        blocked = building_blocked(seed, size=size)
        map_id = f"building{seed:02d}.map"
        insts = hard_instances(blocked, map_id, instances_per_map, seed=1000 + seed)
        (root / map_id).write_text(to_movingai_map(blocked))
        scen_path = root / f"building{seed:02d}.map.scen"
        scen_path.write_text(to_movingai_scen(insts, size, size))
        scen_paths.append(scen_path)
    return scen_paths
