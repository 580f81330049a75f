"""Batch benchmark runner and aggregation.

One RunRecord per (instance, config) run; aggregation groups records by
(algorithm, alpha_max), computes success rates, and compares runtime and
path quality over the instances every algorithm at that angle solved.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import multiprocessing
import statistics
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, fields
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .geometry import euclid, turn_angle
from .grids import Cell, Grid, InputError, Instance, ParseError, ScenarioSet, load_map
from .planner import PlannerConfig, Verdict, prepare, release, search


# The most worker processes a batch may ask for. Each is a whole
# interpreter with its own copy of the grids; the cap is fixed, not read
# from the host, so a batch is refused or run alike on every machine.
MAX_JOBS = 64

# RunRecord fields that may be None, and so may be missing from a dict.
_NULLABLE = ("path_length", "accumulated_angle_deg", "path")


@dataclass(frozen=True, slots=True)
class RunRecord:
    """Outcome of one search on one instance."""

    instance_id: str
    algorithm: str
    config: dict
    verdict: Verdict
    runtime_s: float
    path_length: float | None
    accumulated_angle_deg: float | None
    expansions: int
    reinsertions: int
    path: tuple[Cell, ...] | None

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["verdict"] = self.verdict.value
        if self.path is not None:
            data["path"] = [list(c) for c in self.path]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        values = {
            f.name: data.get(f.name) if f.name in _NULLABLE else data[f.name]
            for f in fields(cls)
        }
        values["config"] = dict(values["config"])
        values["verdict"] = Verdict(values["verdict"])
        if values["path"] is not None:
            values["path"] = tuple((c[0], c[1]) for c in values["path"])
        return cls(**values)


def path_length(path: Sequence[Cell]) -> float:
    return sum(euclid(a, b) for a, b in zip(path, path[1:]))


def accumulated_angle(path: Sequence[Cell]) -> float:
    """Sum of turn angles (degrees) over the interior waypoints of a path."""
    return sum(
        turn_angle(path[i - 1], path[i], path[i + 1]) for i in range(1, len(path) - 1)
    )


def run_instance(grid: Grid, instance: Instance, cfg: PlannerConfig) -> RunRecord:
    """Run one search and package the result; runtime covers the search only."""
    outcome = search(grid, instance.start, instance.goal, cfg)
    length = angle = None
    path = None
    if outcome.verdict is Verdict.FOUND:
        path = tuple(outcome.path)
        length = path_length(path)
        angle = accumulated_angle(path)
    return RunRecord(
        instance_id=instance.instance_id,
        algorithm=cfg.name,
        config=cfg.to_dict(),
        verdict=outcome.verdict,
        runtime_s=outcome.stats.runtime,
        path_length=length,
        accumulated_angle_deg=angle,
        expansions=outcome.stats.expansions,
        reinsertions=outcome.stats.reinsertions,
        path=path,
    )


@dataclass
class BatchResult:
    records: list[RunRecord]
    errors: list[str]


# The one grid whose sight tables and rows this process keeps. Tasks reach
# a process map by map, so it frees a map's tables when it moves on to
# another map or batch; a stolen task on a map left before builds them again.
_prepared: Grid | None = None


def _keep_tables(grid: Grid | None) -> None:
    global _prepared
    if _prepared is not None and _prepared is not grid:
        release(_prepared)
    _prepared = grid


def _run_task(grid: Grid, scen: ScenarioSet, cfg: PlannerConfig) -> tuple[list[RunRecord], list[str]]:
    _keep_tables(grid)
    prepare(grid, cfg)  # outside every search's runtime, as loading the map is
    records: list[RunRecord] = []
    errors: list[str] = []
    for instance in scen.instances:
        try:
            records.append(run_instance(grid, instance, cfg))
        except InputError as exc:
            errors.append(f"{scen.map_id}: skipped instance {instance.instance_id}: {exc}")
    return records, errors


# Tasks a worker holds at once: the one it runs and the next, so that it
# never waits for this process between tasks.
_IN_FLIGHT = 2


def _next_task(stretches: list[deque[int]], lane: int) -> int | None:
    # The front of the lane's own stretch, else the far end of the longest.
    if stretches[lane]:
        return stretches[lane].popleft()
    longest = max(stretches, key=len)
    return longest.pop() if longest else None


def _lane(conn, parent_end, grids: Mapping[str, Grid], tasks) -> None:
    # A worker process: runs the tasks whose indices arrive, answering
    # (index, result, None) or (index, exception, its traceback), until
    # run_batch stops it or its process dies, which closes the pipe.
    parent_end.close()  # so that the worker sees EOF if run_batch's process dies
    with suppress(EOFError, OSError):  # the pipe is closed: exit quietly
        while True:
            index = conn.recv()
            scen, cfg = tasks[index]
            try:
                conn.send((index, _run_task(grids[scen.map_id], scen, cfg), None))
            except Exception as exc:
                conn.send((index, exc, traceback.format_exc()))


def _run_lanes(tasks, grids: Mapping[str, Grid], lanes: int, emit) -> None:
    """Run the tasks on ``lanes`` worker processes, emitting results in order.

    The task list is cut into ``lanes`` contiguous stretches of equal count.
    Each worker takes its own stretch from the front, then the far end of
    the longest stretch left. When a task raises, only the tasks before it
    are still run and emitted, and then its exception is raised; no worker
    outlives the call.
    """
    n = len(tasks)
    stretches = [deque(range(i * n // lanes, (i + 1) * n // lanes)) for i in range(lanes)]
    conns, procs = [], []

    def lost(lane: int) -> ChildProcessError:
        procs[lane].join()
        return ChildProcessError(f"a batch worker exited with code {procs[lane].exitcode}")

    try:
        for _ in range(lanes):
            mine, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_lane, args=(theirs, mine, grids, tasks),
                                           daemon=True)
            proc.start()
            theirs.close()
            conns.append(mine)
            procs.append(proc)
        in_flight = [0] * lanes
        done: dict[int, tuple] = {}
        emitted, limit, failure = 0, len(tasks), None
        while emitted < limit:
            for lane, conn in enumerate(conns):
                while in_flight[lane] < _IN_FLIGHT:
                    index = _next_task(stretches, lane)
                    if index is None:
                        break
                    if index < limit:
                        try:
                            conn.send(index)
                        except OSError:
                            raise lost(lane) from None
                        in_flight[lane] += 1
            for conn in wait(conns):
                lane = conns.index(conn)
                try:
                    index, result, trace = conn.recv()
                except (EOFError, OSError):
                    raise lost(lane) from None
                in_flight[lane] -= 1
                if trace is None:
                    done[index] = result
                elif index < limit:
                    limit, failure = index, (result, trace)
            while emitted in done:
                emit(done.pop(emitted))
                emitted += 1
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    if failure is not None:
        raise failure[0] from ChildProcessError(f"in a batch worker:\n{failure[1]}")


def run_batch(
    scenarios: Iterable[ScenarioSet],
    configs: Sequence[PlannerConfig],
    maps_dir: str | Path | None = None,
    grids: Mapping[str, Grid] | None = None,
    jobs: int = 1,
    record_sink: Callable[[RunRecord], None] | None = None,
) -> BatchResult:
    """Run every (instance, config) pair; unreadable maps fail per set.

    Maps resolve from ``grids`` by map_id first, then from ``maps_dir`` (the
    map_id itself, then its basename), once per batch; a map that fails
    gives one error and its sets are skipped. A task is one (scenario set,
    config) pair. Tasks run in this process at ``jobs=1``, else on up to
    ``jobs`` worker processes, never more than there are tasks (see
    _run_lanes). Records come back, and reach ``record_sink``, in
    (scenario, config, instance) order whatever ``jobs`` is. A task that
    raises anything but InputError ends the batch with that exception,
    after the tasks before it have reached the sink. No grid holds sight
    tables after run_batch returns.
    ``jobs`` outside 1..MAX_JOBS raises InputError before any map is
    loaded or worker started, and so do two configs that would share a
    summary row (the same name at the same alpha_max) and an instance_id
    that appears twice, which aggregate() would count twice as run but once
    as solved.
    """
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise InputError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    scenarios = list(scenarios)
    seen: set[str] = set()
    for instance_id in (inst.instance_id for scen in scenarios for inst in scen.instances):
        if instance_id in seen:
            raise InputError(f"instance {instance_id} appears twice in the batch")
        seen.add(instance_id)
    rows = [(cfg.name, float(cfg.alpha_max)) for cfg in configs]
    for name, alpha in rows:
        if rows.count((name, alpha)) > 1:
            raise InputError(f"two configs are named {name!r} at alpha_max {alpha:g}; "
                             "give each a distinct label")
    # None marks a map that could not be loaded.
    resolved: dict[str, Grid | None] = {}
    errors: list[str] = []
    runnable: list[ScenarioSet] = []
    for scen in scenarios:
        map_id = scen.map_id
        if map_id not in resolved:
            grid = grids.get(map_id) if grids else None
            error = f"{map_id}: map not found"
            if grid is None and maps_dir is not None:
                base = Path(maps_dir)
                for cand in (base / map_id, base / Path(map_id).name):
                    if cand.is_file():
                        try:
                            grid = load_map(cand)
                        except ParseError as exc:
                            error = f"{map_id}: bad map file: {exc}"
                        break
            if grid is None:
                errors.append(error)
            resolved[map_id] = grid
        if resolved[map_id] is not None:
            runnable.append(scen)

    tasks = [(scen, cfg) for scen in runnable for cfg in configs]
    records: list[RunRecord] = []

    def emit(result: tuple[list[RunRecord], list[str]]) -> None:
        # In task order: deterministic output, streamed to the sink.
        task_records, task_errors = result
        records.extend(task_records)
        errors.extend(task_errors)
        if record_sink is not None:
            for record in task_records:
                record_sink(record)

    workers = min(jobs, len(tasks))
    if workers > 1:
        _run_lanes(tasks, resolved, workers, emit)
    else:
        try:
            for scen, cfg in tasks:
                emit(_run_task(resolved[scen.map_id], scen, cfg))
        finally:
            _keep_tables(None)
    return BatchResult(records=records, errors=errors)


@dataclass(frozen=True)
class AggregateGroup:
    """Aggregate metrics for one (algorithm, alpha_max) pair.

    Runtime and quality fields are computed only over the commonly solved
    set: instances solved by every algorithm at this angle.
    """

    algorithm: str
    alpha_max: float
    instances: int
    solved: int
    success_rate_pct: float
    only_vs_baseline_pct: float | None
    common_count: int
    common_set_id: str
    median_runtime_s: float | None
    mean_path_length: float | None
    mean_turn_angle_deg: float | None
    normalized_turn_angle: float | None


@dataclass(frozen=True)
class AggregateReport:
    baseline: str
    groups: tuple[AggregateGroup, ...]


def _common_set_id(ids: set[str]) -> str:
    digest = hashlib.sha1("\n".join(sorted(ids)).encode()).hexdigest()
    return digest[:12]


def aggregate(records: Sequence[RunRecord], baseline: str) -> AggregateReport:
    """Fold records into per-(algorithm, alpha_max) aggregate rows.

    ``only_vs_baseline_pct`` is the share of baseline-unsolved instances the
    algorithm solved. Normalized turn angle divides each group's mean by the
    baseline's mean at the smallest angle present.
    """
    if not records:
        raise InputError("no records to aggregate")
    algorithms = {r.algorithm for r in records}
    if baseline not in algorithms:
        raise InputError(f"unknown baseline label {baseline!r}")

    by_group: dict[tuple[str, float], list[RunRecord]] = {}
    for record in records:
        key = (record.algorithm, float(record.config["alpha_max"]))
        by_group.setdefault(key, []).append(record)

    solved = {
        key: {r.instance_id for r in recs if r.verdict is Verdict.FOUND}
        for key, recs in by_group.items()
    }
    common_by_alpha = {
        alpha: set.intersection(*(ids for (_, a), ids in solved.items() if a == alpha))
        for _, alpha in by_group
    }

    def common_stats(key: tuple[str, float]):
        # Median runtime, mean path length and mean turn angle of the group's
        # runs on the instances every algorithm at its angle solved.
        common = common_by_alpha[key[1]]
        on_common = [
            r for r in by_group[key] if r.instance_id in common and r.verdict is Verdict.FOUND
        ]
        if not on_common:
            return None, None, None
        return (
            statistics.median(r.runtime_s for r in on_common),
            statistics.fmean(r.path_length for r in on_common),
            statistics.fmean(r.accumulated_angle_deg for r in on_common),
        )

    stats = {key: common_stats(key) for key in by_group}
    baseline_alpha = min(a for (algo, a) in by_group if algo == baseline)
    norm_denominator = stats[(baseline, baseline_alpha)][2]

    groups = []
    for key in sorted(by_group):
        algo, alpha = key
        recs, common = by_group[key], common_by_alpha[alpha]
        median_rt, mean_len, mean_angle = stats[key]
        only_pct = None
        if (baseline, alpha) in by_group:
            base_solved = solved[(baseline, alpha)]
            unsolved = {r.instance_id for r in by_group[(baseline, alpha)]} - base_solved
            only_pct = 100.0 * len(solved[key] - base_solved) / len(unsolved) if unsolved else 0.0
        normalized = None
        if mean_angle is not None and norm_denominator:
            normalized = mean_angle / norm_denominator
        groups.append(
            AggregateGroup(
                algorithm=algo,
                alpha_max=alpha,
                instances=len(recs),
                solved=len(solved[key]),
                success_rate_pct=100.0 * len(solved[key]) / len(recs),
                only_vs_baseline_pct=only_pct,
                common_count=len(common),
                common_set_id=_common_set_id(common),
                median_runtime_s=median_rt,
                mean_path_length=mean_len,
                mean_turn_angle_deg=mean_angle,
                normalized_turn_angle=normalized,
            )
        )
    return AggregateReport(baseline=baseline, groups=tuple(groups))


REPORT_COLUMNS = tuple(f.name for f in fields(AggregateGroup))


def emit_report(report: AggregateReport, fmt: str = "csv") -> str:
    """Serialize an aggregate report; columns/keys are fixed (REPORT_COLUMNS)."""
    if fmt == "json":
        payload = {
            "baseline": report.baseline,
            "groups": [
                {col: getattr(g, col) for col in REPORT_COLUMNS} for g in report.groups
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for g in report.groups:
            writer.writerow(
                ["" if (v := getattr(g, col)) is None else v for col in REPORT_COLUMNS]
            )
        return buf.getvalue()
    raise InputError(f"unknown report format {fmt!r}")


def write_records(records: Iterable[RunRecord], out: str | Path | io.TextIOBase) -> None:
    """Append records as one JSON object per line (crash-safe streaming) to
    the file at a path, or to an open text file, which is then flushed."""
    if isinstance(out, (str, Path)):
        with open(out, "a", encoding="utf-8") as fh:
            write_records(records, fh)
        return
    for record in records:
        out.write(json.dumps(record.to_dict()) + "\n")
    out.flush()


def read_records(path: str | Path) -> list[RunRecord]:
    """Records of a file; a torn last line (no newline, no JSON) is dropped."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except json.JSONDecodeError:
                    if line.endswith("\n"):
                        raise  # a crash mid-write tears the last line only
    return records
