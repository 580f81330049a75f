"""Benchmark workloads and the seeded generation of their input files.

Each workload runs a fixed pool of building maps and hard start/goal
instances from ``tests/mapgen.py``. The run seed picks, for every map, one
of the eight symmetries of the square (transpose and mirror images) and the
order in which the searches run. A symmetry maps every line of sight and
every turn angle onto an equal one, so a seed changes the files, the
coordinates and the tie-breaking order of the search, but not how much work
a run holds. Fresh map seeds did not allow that: on 128x128 building maps
the search time per map differs more than tenfold between map seeds, and a
single search can take from 1 ms to 9 s, so run-to-run spread would swamp
any change worth measuring.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import mapgen
import numpy as np

from anglepath import (
    Grid,
    Instance,
    PlannerConfig,
    ScenarioSet,
    circle_offsets,
    delta_levels,
    geometry,
    line_of_sight,
    load_map,
    load_scen,
)

# Far above the slowest search of any pool (about 9 s on a 2-core box), so
# that no verdict depends on how fast or busy the machine is.
TIME_CAP_S = 3600.0

SYMMETRIES = 8
LOS_LENGTHS = (5, 10, 20)
LOS_SEGMENTS = 400


def _configs(specs, alphas) -> tuple[PlannerConfig, ...]:
    return tuple(
        PlannerConfig(
            mode=mode,
            delta_max=dmax,
            delta_min=dmin,
            k=0.5,
            alpha_max=alpha,
            weight=2.0,
            time_cap=TIME_CAP_S,
        )
        for alpha in alphas
        for mode, dmax, dmin in specs
    )


# The criterion-6 protocol: long jumps, narrow turn limits.
NARROW_CONFIGS = _configs(
    (("lian", 20, 20), ("elian", 20, 10), ("elian", 20, 5)), (20.0, 25.0, 30.0)
)
# Short jumps and deep delta ladders at wide turn limits.
WIDE_CONFIGS = _configs(
    (("lian", 4, 4), ("elian", 8, 2), ("elian", 12, 3), ("elian", 20, 5)),
    (60.0, 75.0, 90.0),
)


@dataclass(frozen=True)
class Workload:
    """A fixed pool of maps x instances x configs, run at a given job count.

    ``fingerprint_group`` names the entry of ``fingerprints.json`` that holds
    the expected records; workloads that run the same searches share it.
    """

    name: str
    map_seeds: tuple[int, ...]
    instances_per_map: int
    configs: tuple[PlannerConfig, ...]
    jobs: int
    fingerprint_group: str

    @property
    def baseline(self) -> str:
        return self.configs[0].name

    @property
    def searches(self) -> int:
        return len(self.map_seeds) * self.instances_per_map * len(self.configs)


# Map seeds were chosen among those mapgen can build so that one pass over
# the pool takes a few seconds at jobs=1 on a 2-core box.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("narrow-long", (1, 4, 10, 13), 3, NARROW_CONFIGS, 1, "narrow-long"),
        Workload("wide-short", (12, 15, 17, 18), 5, WIDE_CONFIGS, 1, "wide-short"),
        Workload("bench-cli-jobs2", (1, 4, 10, 13), 3, NARROW_CONFIGS, 2, "narrow-long"),
    )
}

# One map, one instance and three configs per workload: for the smoke test.
SMOKE_WORKLOADS = {
    name: replace(
        w,
        map_seeds=w.map_seeds[:1],
        instances_per_map=1,
        configs=w.configs[:3],
        fingerprint_group="smoke-" + w.fingerprint_group,
    )
    for name, w in WORKLOADS.items()
}


def symmetry_array(blocked: np.ndarray, sym: int) -> np.ndarray:
    """Apply symmetry ``sym`` (bit 0 transpose, bit 1 mirror columns, bit 2
    mirror rows) to a row-major occupancy matrix."""
    out = blocked
    if sym & 1:
        out = out.T
    if sym & 2:
        out = out[:, ::-1]
    if sym & 4:
        out = out[::-1, :]
    return np.ascontiguousarray(out)


def symmetry_cell(cell, shape, sym: int):
    """The (col, row) cell that ``symmetry_array`` moves ``cell`` to."""
    col, row = cell
    height, width = shape
    if sym & 1:
        col, row = row, col
        height, width = width, height
    if sym & 2:
        col = width - 1 - col
    if sym & 4:
        row = height - 1 - row
    return col, row


@dataclass
class Inputs:
    """The files of one set-up and the program's view of them."""

    maps_dir: Path
    scen_paths: list[Path]
    configs_path: Path
    grids: dict[str, Grid]
    scenarios: list[ScenarioSet]
    load_map_s: list[float]
    load_scen_s: list[float]
    los_grid: Grid
    los_segments: dict[int, list[tuple[tuple[int, int], tuple[int, int]]]]

    def tasks(self, workload: Workload, seed: int):
        """Every (grid, instance, config) of the pool, in the seed's order."""
        tasks = [
            (self.grids[scen.map_id], inst, cfg)
            for scen in self.scenarios
            for inst in scen.instances
            for cfg in workload.configs
        ]
        random.Random(seed).shuffle(tasks)
        return tasks


def clear_geometry_caches() -> None:
    """Empty every lru cache of ``anglepath.geometry``."""
    for value in vars(geometry).values():
        cache_clear = getattr(value, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()


def _warm_geometry(grid: Grid, configs) -> None:
    # Fill the circle and segment caches for every jump the search can make.
    radii = {max(1, round(d)) for cfg in configs for d in delta_levels(cfg)}
    centre = (grid.width // 2, grid.height // 2)
    for radius in sorted(radii):
        for dc, dr in circle_offsets(radius):
            line_of_sight(grid, centre, (centre[0] + dc, centre[1] + dr))


def _draw_segments(grid: Grid, rng: random.Random, length: int, count: int):
    free = np.argwhere(~grid.blocked)  # (row, col) pairs
    segments = []
    while len(segments) < count:
        row, col = free[rng.randrange(len(free))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        end = (int(col) + round(length * math.cos(angle)), int(row) + round(length * math.sin(angle)))
        if grid.in_bounds(*end) and end != (col, row):
            segments.append(((int(col), int(row)), end))
    return segments


def pool_map(workload: Workload, map_seed: int, sym: int):
    """One pool map under symmetry ``sym``: (map_id, blocked, instances)."""
    base = mapgen.building_blocked(map_seed)
    instances = mapgen.hard_instances(
        base, f"building{map_seed:02d}.map", workload.instances_per_map, seed=1000 + map_seed
    )
    map_id = f"building{map_seed:02d}-s{sym}.map"
    moved = [
        Instance(
            map_id=map_id,
            start=symmetry_cell(inst.start, base.shape, sym),
            goal=symmetry_cell(inst.goal, base.shape, sym),
            bucket=inst.bucket,
            reference_length=inst.reference_length,
        )
        for inst in instances
    ]
    return map_id, symmetry_array(base, sym), moved


def make_inputs(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate, write and load the seed's maps and scenarios under ``root``.

    Also draws the line-of-sight micro-benchmark segments and warms the
    geometry caches with one call on each, so their cold cost lands here.
    """
    rng = random.Random(seed)
    maps_dir = root / "maps"
    maps_dir.mkdir(parents=True)
    map_paths, scen_paths = [], []
    for map_seed in workload.map_seeds:
        map_id, blocked, instances = pool_map(workload, map_seed, rng.randrange(SYMMETRIES))
        rng.shuffle(instances)
        height, width = blocked.shape
        map_path = maps_dir / map_id
        map_path.write_text(mapgen.to_movingai_map(blocked))
        scen_path = maps_dir / f"{map_id}.scen"
        scen_path.write_text(mapgen.to_movingai_scen(instances, width, height))
        map_paths.append(map_path)
        scen_paths.append(scen_path)

    configs_path = root / "configs.json"
    configs_path.write_text(json.dumps([cfg.to_dict() for cfg in workload.configs]))

    grids: dict[str, Grid] = {}
    scenarios: list[ScenarioSet] = []
    load_map_s, load_scen_s = [], []
    for map_path, scen_path in zip(map_paths, scen_paths):
        t0 = time.perf_counter()
        grids[map_path.name] = load_map(map_path)
        t1 = time.perf_counter()
        scenarios.append(load_scen(scen_path))
        load_map_s.append(t1 - t0)
        load_scen_s.append(time.perf_counter() - t1)

    for grid in grids.values():
        _warm_geometry(grid, workload.configs)
    first = grids[map_paths[0].name]
    los_segments = {
        length: _draw_segments(first, rng, length, LOS_SEGMENTS) for length in LOS_LENGTHS
    }
    for segments in los_segments.values():
        for a, b in segments:
            line_of_sight(first, a, b)
    return Inputs(
        maps_dir=maps_dir,
        scen_paths=scen_paths,
        configs_path=configs_path,
        grids=grids,
        scenarios=scenarios,
        load_map_s=load_map_s,
        load_scen_s=load_scen_s,
        los_grid=first,
        los_segments=los_segments,
    )
