#!/usr/bin/env python3
"""The anglepath benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload narrow-long --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``src/anglepath`` and
``tests/mapgen.py`` from there and exits 2 when they are missing. Work files
go to ``.perfbench/`` under the checkout and are removed at exit; the result
and, with ``--trace 1``, the spans are kept in ``.perfbench/results/``.

A run sets up its inputs ``SETUP_REPEATS`` times (generate, write and load
the maps and scenarios, warm the geometry caches) and reports the median as
``setup_s``. It then runs passes over the workload's whole search pool until
``--seconds`` have passed: one ``run_instance`` call at a time for the jobs=1
workloads, one in-process ``anglepath bench --jobs 2`` call per pass for
``bench-cli-jobs2``. ``searches_per_s`` is the median over passes of pool
size / pass wall time. A search's latency is its median over the passes:
the wall time of ``run_instance`` at jobs=1, the record's ``runtime_s`` in a
worker at jobs=2; ``search_ms_p50``/``p90`` are taken over the pool's
searches (108 or more). ``peak_rss_mb`` adds the peak of the largest worker
to the benchmark process's own.

Every end-to-end time is scaled to a reference machine speed (``speed.py``):
at jobs=1 a fixed chunk of benchmark-only work runs before each search and
each search is scaled by the two chunks around it; set-ups by chunks before
and after; jobs=2 passes by chunks that a side process runs during the pass.
The unscaled pass times and the factors are kept in the environment block.
Per-layer times are as measured.

With ``--trace 1`` the passes alternate between untraced and traced (see
``spans.py``); per-layer times come from the traced ones, per-layer counts
are exact, and ``trace.overhead_frac`` compares the two kinds of pass. The
line-of-sight micro-benchmarks time ``line_of_sight`` on the seed's segments
after set-up has called it once on each.

Every pass is checked: each FOUND path must join start to goal and pass
``validate_path``, no search may time out or raise, every pass must give the
same records as the first (``runtime_s`` aside), and the records of each map
must match the digest stored in ``fingerprints.json``. The last line of
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when the output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
LOS_ROUNDS = 5
LOS_REPEATS = 10
CHUNKS_AROUND = 8  # speed samples before and after a set-up

perf = time.perf_counter


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    factor: float = 1.0  # time at reference speed / time measured
    records: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    latency_factors: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    summaries: list = field(default_factory=list)  # per-search trace summaries
    span_s: dict = field(default_factory=dict)  # span name -> summed seconds


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for the smoke test")
    return parser.parse_args(argv)


def _jobs1_pass(workload, tasks, pass_dir: Path, traced: bool, speed) -> Pass:
    from anglepath import harness

    result = Pass(traced)
    mark = speed.mark()
    sampling_s = 0.0
    chunk_before = []  # per search, the speed sample taken just before it
    t0 = perf()
    for grid, instance, cfg in tasks:
        sampling_s += speed.sample()
        t = perf()
        try:
            record = harness.run_instance(grid, instance, cfg)
        except Exception as exc:  # a crashing search is a failed search
            result.errors.append(f"{instance.instance_id} {cfg.name}: {type(exc).__name__}: {exc}")
            continue
        result.latencies_s.append(perf() - t)
        result.records.append(record)
        chunk_before.append(speed.mark() - 1)
    harness.write_records(result.records, pass_dir / "records.jsonl")
    if result.records:
        harness.aggregate(result.records, baseline=workload.baseline)
    result.wall_s = perf() - t0 - sampling_s
    speed.sample()
    result.factor = speed.factor(mark)
    # A search's speed is that of the samples just before and after it.
    result.latency_factors = [speed.factor(i, i + 2) for i in chunk_before]
    return result


def _cli_pass(workload, inputs, pass_dir: Path, traced: bool, speed) -> Pass:
    from anglepath import cli, harness

    result = Pass(traced)
    mark = speed.mark()
    prefix = pass_dir / "bench"
    argv = [
        "bench",
        "--scen", *map(str, inputs.scen_paths),
        "--maps-dir", str(inputs.maps_dir),
        "--configs", str(inputs.configs_path),
        "--jobs", str(workload.jobs),
        "--out", str(prefix),
        "--format", "json",
        "--baseline", workload.baseline,
    ]
    output = io.StringIO()
    with speed.sampling_alongside():
        t0 = perf()
        try:
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                code = cli.main(argv)
        except Exception as exc:  # a crashing batch fails every search in it
            code = f"{type(exc).__name__}: {exc}"
        result.wall_s = perf() - t0
    result.factor = speed.factor(mark)
    if code != 0:
        result.errors.append(f"anglepath bench exited with {code}: {output.getvalue()[-2000:]}")
    records_path = Path(f"{prefix}.records.jsonl")
    if records_path.is_file():
        result.records = harness.read_records(records_path)
    result.latencies_s = [r.runtime_s for r in result.records]
    result.latency_factors = [result.factor] * len(result.records)
    return result


def _measure(workload, inputs, seed: int, seconds: float, trace: bool, work: Path, speed):
    """Run whole passes until ``seconds`` have passed; traced passes alternate."""
    from spans import Tracer

    tasks = inputs.tasks(workload, seed)
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    deadline = perf() + seconds
    while not passes or perf() < deadline or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        if traced:
            tracer.spool_dir = pass_dir
            first_span, first_summary = len(tracer.spans), len(tracer.summaries)
            tracer.install()
            root = tracer.open("bench.pass")
        try:
            if workload.jobs == 1:
                result = _jobs1_pass(workload, tasks, pass_dir, traced, speed)
            else:
                result = _cli_pass(workload, inputs, pass_dir, traced, speed)
        finally:
            if traced:
                tracer.close(root)
                tracer.uninstall()
        if traced:
            result.summaries = tracer.summaries[first_summary:] + tracer.read_spool()
            for name, start, end, _ in tracer.spans[first_span:]:
                result.span_s[name] = result.span_s.get(name, 0.0) + (end - start)
        shutil.rmtree(pass_dir)
        passes.append(result)
    return passes, tracer


def _check(workload, inputs, passes):
    """(failed searches, problems) over every pass."""
    import checks

    instances = {i.instance_id: i for scen in inputs.scenarios for i in scen.instances}
    problems: list[str] = []
    failed = 0
    reference = checks.canonical_lines(passes[0].records)
    for index, result in enumerate(passes):
        problems.extend(result.errors)
        failed += workload.searches - len(result.records)
        for record in result.records:
            problem = checks.record_problem(record, inputs.grids, instances)
            if problem is not None:
                failed += 1
                problems.append(problem)
        if checks.canonical_lines(result.records) != reference:
            problems.append(f"pass {index} records differ from pass 0")
    problems.extend(
        checks.fingerprint_mismatches(
            passes[0].records, workload.fingerprint_group, checks.load_fingerprints()
        )
    )
    return failed, problems


def _los_micro(inputs) -> dict:
    from anglepath import geometry

    grid = inputs.los_grid
    metrics = {}
    clear = total = 0
    for length, segments in inputs.los_segments.items():
        rounds = []
        for _ in range(LOS_ROUNDS):
            t0 = perf()
            for _ in range(LOS_REPEATS):
                for a, b in segments:
                    geometry.line_of_sight(grid, a, b)
            rounds.append((perf() - t0) / (LOS_REPEATS * len(segments)))
        metrics[f"geometry.los_us_len{length}"] = (1e6 * statistics.median(rounds), "us")
        clear += sum(geometry.line_of_sight(grid, a, b) for a, b in segments)
        total += len(segments)
    metrics["geometry.los_clear_frac"] = (clear / total, "ratio")
    return metrics


def _search_latencies(passes) -> list[float]:
    """Each search's median latency at reference speed over the passes."""
    by_search: dict[tuple, list[float]] = {}
    for p in passes:
        for latency, factor, record in zip(p.latencies_s, p.latency_factors, p.records):
            key = (record.instance_id, record.algorithm, record.config["alpha_max"])
            by_search.setdefault(key, []).append(latency * factor)
    return [statistics.median(values) for values in by_search.values()]


def _end_to_end(workload, passes, setup_s) -> dict:
    latencies = _search_latencies(passes)
    from anglepath import Verdict

    first = passes[0].records
    solved = sum(r.verdict is Verdict.FOUND for r in first)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "searches_per_s": (
            statistics.median(workload.searches / (p.wall_s * p.factor) for p in passes),
            "1/s",
        ),
        "search_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "search_ms_p90": (1e3 * statistics.quantiles(latencies, n=10)[-1], "ms"),
        "solved_pct": (100.0 * solved / max(1, len(first)), "%"),
        "peak_rss_mb": ((usage + children) / 1024.0, "MB"),
    }


def _per_layer(workload, inputs, passes, load_map_s, load_scen_s) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    def totals(p):
        keys = ("run_s", "expand_s", "expansions", "generated", "reinsertions", "dead_ends")
        out = {k: sum(s[k] for s in p.summaries) for k in keys}
        out["max_open"] = max((s["max_open"] for s in p.summaries), default=0)
        return out

    per_pass = [totals(p) for p in traced]
    counts = per_pass[0]
    expansions = max(1, counts["expansions"])

    def med(values):
        return statistics.median(list(values))

    if workload.jobs == 1:
        overhead = [
            lat - rec.runtime_s
            for p in untraced
            for lat, rec in zip(p.latencies_s, p.records)
        ]
    else:
        overhead = [s["instance_s"] - s["runtime_s"] for p in traced for s in p.summaries]
    metrics = {
        "planner.expansions": (counts["expansions"], "count"),
        "planner.reinsertions": (counts["reinsertions"], "count"),
        "planner.generated": (counts["generated"], "count"),
        "planner.max_open": (counts["max_open"], "count"),
        "planner.generated_per_expansion": (counts["generated"] / expansions, "ratio"),
        "planner.dead_end_frac": (counts["dead_ends"] / expansions, "ratio"),
        "planner.expand_self_s": (med(t["expand_s"] for t in per_pass), "s"),
        "planner.loop_self_s": (med(t["run_s"] - t["expand_s"] for t in per_pass), "s"),
        "planner.expand_share": (
            med(t["expand_s"] / t["run_s"] for t in per_pass if t["run_s"] > 0),
            "ratio",
        ),
        "planner.us_per_expansion": (
            med(1e6 * t["run_s"] / max(1, t["expansions"]) for t in per_pass),
            "us",
        ),
        "harness.instance_overhead_ms": (1e3 * med(overhead), "ms"),
        "harness.pool_busy_frac": (
            med(sum(r.runtime_s for r in p.records) / (workload.jobs * p.wall_s) for p in untraced),
            "ratio",
        ),
        "harness.record_io_s": (med(p.span_s.get("harness.write_records", 0.0) for p in traced), "s"),
        "harness.aggregate_s": (med(p.span_s.get("harness.aggregate", 0.0) for p in traced), "s"),
        "grids.load_map_ms": (1e3 * med(load_map_s), "ms"),
        "grids.load_scen_ms": (1e3 * med(load_scen_s), "ms"),
        "trace.overhead_frac": (
            med(p.wall_s * p.factor for p in traced)
            / med(p.wall_s * p.factor for p in untraced)
            - 1.0,
            "ratio",
        ),
    }
    metrics.update(_los_micro(inputs))
    return metrics


def _environment(workload, args, passes) -> dict:
    import numpy
    import checks

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anglepath").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_speed_factor": [p.factor for p in passes],
        "searches_per_pass": workload.searches,
        "expansions_per_pass": sum(r.expansions for r in passes[0].records),
        "search_samples": len(_search_latencies(passes)),
        "records_sha256": checks.digest(passes[0].records),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "anglepath").is_dir() or not (ROOT / "tests" / "mapgen.py").is_file():
        print(f"error: {ROOT} lacks src/anglepath or tests/mapgen.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from speed import Speedometer
    from workloads import SMOKE_WORKLOADS, WORKLOADS, clear_geometry_caches, make_inputs

    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS).get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench"
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        speed = Speedometer()
        setup_s, load_map_s, load_scen_s = [], [], []
        for i in range(SETUP_REPEATS):
            mark = speed.mark()
            speed.sample(CHUNKS_AROUND)
            clear_geometry_caches()
            t0 = perf()
            inputs = make_inputs(workload, args.seed, work / f"setup{i}")
            elapsed = perf() - t0
            speed.sample(CHUNKS_AROUND)
            setup_s.append(elapsed * speed.factor(mark))
            load_map_s += inputs.load_map_s
            load_scen_s += inputs.load_scen_s

        passes, tracer = _measure(
            workload, inputs, args.seed, args.seconds, bool(args.trace), work, speed
        )
        failed, problems = _check(workload, inputs, passes)
        if args.trace:
            metrics = _per_layer(workload, inputs, passes, load_map_s, load_scen_s)
        else:
            metrics = _end_to_end(workload, passes, setup_s)
        env = _environment(workload, args, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = workload.searches * len(passes)
    correct = failed == 0 and not problems
    stem = f"{workload.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(results_dir / f"{stem}.spans.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"environment": env, "problems": problems, **result}, indent=1)
    )
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(f"failed_frac: {failed / attempted} (failed {failed} of {attempted} searches)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
