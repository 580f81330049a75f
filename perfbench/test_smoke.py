"""Smoke test of the benchmark itself, on its tiny pools (about a minute).

    python -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
from anglepath import Instance, PlannerConfig, Verdict, parse_ascii_map  # noqa: E402
from anglepath.harness import run_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env_line = next(line for line in lines if line.startswith("environment: "))
    return json.loads(lines[-1]), json.loads(env_line.split(": ", 1)[1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_records_fingerprint_repeats_across_invocations():
    _, first = bench("wide-short", 0, seed=7)
    _, second = bench("wide-short", 0, seed=7)
    assert first["records_sha256"] == second["records_sha256"]


def test_corrupted_path_is_caught():
    grid = parse_ascii_map(
        """
        .......
        .......
        .#####.
        .......
        .......
        """
    )
    instance = Instance(map_id="wall.map", start=(3, 4), goal=(3, 0))
    cfg = PlannerConfig(mode="lian", delta_max=2, alpha_max=90)
    record = run_instance(grid, instance, cfg)
    assert record.verdict is Verdict.FOUND
    grids = {"wall.map": grid}
    instances = {instance.instance_id: instance}
    assert checks.record_problem(record, grids, instances) is None

    for path in (
        (instance.start, instance.goal),  # straight through the wall
        record.path[:-1],  # stops short of the goal
        (instance.start, (9, 2), instance.goal),  # leaves the map
    ):
        corrupted = dataclasses.replace(record, path=path)
        assert checks.record_problem(corrupted, grids, instances) is not None, path
        table = {"g": checks.digests_by_map([record])}
        assert checks.fingerprint_mismatches([corrupted], "g", table)

    timed_out = dataclasses.replace(record, verdict=Verdict.TIMEOUT, path=None)
    assert checks.record_problem(timed_out, grids, instances) is not None
