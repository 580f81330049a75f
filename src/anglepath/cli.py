"""Command-line interface: plan single instances, bench scenario batches.

Exit codes: 0 path found / batch ok, 1 not found, 2 timeout, 3 input or usage error,
4 internal error (a batch worker died, or a search raised).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .grids import InputError, Instance, ParseError, load_map, load_scen
from .harness import aggregate, emit_report, run_batch, run_instance, write_records
from .planner import PlannerConfig, Verdict
from .svg import render_svg

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_TIMEOUT = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

DEFAULT_BENCH_CONFIGS = [
    PlannerConfig(mode=mode, delta_min=delta_min)
    for mode, delta_min in (("lian", 20), ("elian", 10), ("elian", 5))
]


def _parse_cell(text: str) -> tuple[int, int]:
    try:
        col, row = (int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"expected COL,ROW, got {text!r}") from None
    return col, row


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anglepath",
        description="Angle-constrained grid path planning with LIAN and eLIAN.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan a single instance")
    plan.add_argument("--map", required=True, help="map file (.map or ASCII)")
    plan.add_argument("--start", required=True, help="start cell as COL,ROW")
    plan.add_argument("--goal", required=True, help="goal cell as COL,ROW")
    # Planner flags are stored under PlannerConfig field names and default
    # to None: a flag left out takes the field's own default.
    plan.add_argument("--alg", dest="mode", choices=["lian", "elian"])
    plan.add_argument("--delta-max", type=float)
    plan.add_argument("--delta-min", type=float)
    plan.add_argument("--k", type=float)
    plan.add_argument("--angle", dest="alpha_max", metavar="ANGLE", type=float,
                      help="alpha_max in degrees")
    plan.add_argument("--hweight", dest="weight", metavar="HWEIGHT", type=float)
    plan.add_argument("--timeout", dest="time_cap", metavar="TIMEOUT", type=float,
                      help="seconds")
    plan.add_argument("--svg", default=None, help="write an SVG drawing here")

    bench = sub.add_parser("bench", help="run scenario batches and aggregate")
    bench.add_argument("--scen", required=True, nargs="+", help="scenario files")
    bench.add_argument("--maps-dir", default=None, help="directory with map files")
    bench.add_argument("--configs", default=None, help="JSON file with config list")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", default="bench", help="output file prefix")
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.add_argument("--baseline", default=None, help="baseline algorithm label")
    return parser


def _cmd_plan(args) -> int:
    grid = load_map(args.map)
    flags = ("mode", "delta_max", "delta_min", "k", "alpha_max", "weight", "time_cap")
    cfg = PlannerConfig(**{
        name: getattr(args, name) for name in flags if getattr(args, name) is not None
    })
    instance = Instance(map_id=Path(args.map).name, start=_parse_cell(args.start), goal=_parse_cell(args.goal))
    record = run_instance(grid, instance, cfg)
    lines = [
        f"verdict: {record.verdict.value}",
        f"algorithm: {record.algorithm}",
        f"runtime_s: {record.runtime_s:.4f}",
        f"expansions: {record.expansions}",
        f"reinsertions: {record.reinsertions}",
    ]
    if record.verdict is Verdict.FOUND:
        lines += [
            f"path_length: {record.path_length:.4f}",
            f"accumulated_angle_deg: {record.accumulated_angle_deg:.4f}",
            "path: " + " ".join(f"{c},{r}" for c, r in record.path),
        ]
    if args.svg:
        # Written before anything is printed: a path that cannot be written
        # ends in exit 3 with nothing on stdout.
        render_svg(grid, record.path, out=args.svg)
        lines.append(f"svg: {args.svg}")
    print("\n".join(lines))
    return {Verdict.FOUND: EXIT_FOUND, Verdict.NOT_FOUND: EXIT_NOT_FOUND,
            Verdict.TIMEOUT: EXIT_TIMEOUT}[record.verdict]


def _load_configs(path: str | None) -> list[PlannerConfig]:
    if path is None:
        return DEFAULT_BENCH_CONFIGS
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # bad JSON, or an integer of over 4,300 digits
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise InputError("config file must hold a nonempty JSON list")
    return [PlannerConfig.from_dict(item) for item in raw]


def _cmd_bench(args) -> int:
    scen_paths = [Path(p) for p in args.scen]
    scenarios = [load_scen(p) for p in scen_paths]
    configs = _load_configs(args.configs)
    baseline = args.baseline or configs[0].name
    if baseline not in {cfg.name for cfg in configs}:
        raise InputError(f"unknown baseline label {baseline!r}")
    maps_dir = args.maps_dir
    if maps_dir is None and scen_paths:
        maps_dir = scen_paths[0].parent

    records_path = Path(f"{args.out}.records.jsonl")
    fresh = True

    def record_sink(record) -> None:
        # An old records file is replaced only once there is a record to write.
        nonlocal fresh
        if fresh:
            records_path.write_text("", encoding="utf-8")
            fresh = False
        write_records([record], records_path)

    result = run_batch(
        scenarios, configs, maps_dir=maps_dir, jobs=args.jobs, record_sink=record_sink
    )
    for err in result.errors:
        print(f"warning: {err}", file=sys.stderr)
    if not result.records:
        print("error: no instances were run", file=sys.stderr)
        return EXIT_INPUT_ERROR

    report = aggregate(result.records, baseline=baseline)
    summary_path = Path(f"{args.out}.summary.{args.format}")
    summary_path.write_text(emit_report(report, args.format), encoding="utf-8")

    print(f"records: {records_path}")
    print(f"summary: {summary_path}")
    print(f"baseline: {baseline}")
    header = f"{'algorithm':<16} {'alpha':>6} {'solved':>10} {'success%':>9} {'med_rt_s':>9}"
    print(header)
    for group in report.groups:
        med = f"{group.median_runtime_s:.3f}" if group.median_runtime_s is not None else "-"
        print(
            f"{group.algorithm:<16} {group.alpha_max:>6g} "
            f"{group.solved:>4}/{group.instances:<5} {group.success_rate_pct:>8.2f} {med:>9}"
        )
    return EXIT_FOUND


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse ends --help in exit 0 and a usage error, after printing
        # it on stderr, in exit 2, which here means TIMEOUT.
        return EXIT_FOUND if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        return _cmd_bench(args)
    except Exception as exc:
        # A dead batch worker raises ChildProcessError: an OSError, but not
        # the input's fault.
        if (isinstance(exc, (InputError, ParseError, OSError))
                and not isinstance(exc, ChildProcessError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
