"""Acceptance suite: each test checks one gate criterion and prints a
PASS line with the measured figures (visible with ``pytest -s`` or on
failure)."""

import math
import random
import time

import numpy as np
import pytest

import mapgen
from anglepath import (
    Grid,
    PlannerConfig,
    Verdict,
    circle_offsets,
    line_of_sight,
    load_scen,
    search,
    turn_angle,
    validate_path,
)
from anglepath.harness import aggregate, run_batch
from oracles import (
    circle_oracle,
    expansion_bound,
    los_oracle,
    random_endpoints,
    random_grid,
    reachable,
)


def cfg_of(mode, dmax, dmin, alpha, weight=2.0, cap=2.0):
    return PlannerConfig(
        mode=mode, delta_max=dmax, delta_min=dmin, k=0.5, alpha_max=alpha,
        weight=weight, time_cap=cap,
    )


def test_criterion_1_soundness_suite():
    """Every Found path over a large randomized suite validates cleanly."""
    rng = random.Random(10001)
    runs = found = 0
    t0 = time.perf_counter()
    for scenario in range(500):
        grid = random_grid(rng, rng.randrange(16, 65), rng.uniform(0.0, 0.4))
        endpoints = random_endpoints(rng, grid)
        if endpoints is None:
            continue
        alpha = rng.choice([20.0, 25.0, 30.0, 45.0])
        configs = [
            cfg_of("lian", 20, 20, alpha),
            cfg_of("elian", 20, 10, alpha),
            cfg_of("elian", 20, 5, alpha),
            cfg_of("lian", 8, 8, alpha) if scenario % 2 else cfg_of("elian", 8, 4, alpha),
        ]
        for cfg in configs:
            out = search(grid, *endpoints, cfg)
            runs += 1
            assert out.stats.expansions <= expansion_bound(grid, cfg)
            if out.verdict is Verdict.FOUND:
                found += 1
                violation = validate_path(grid, out.path, cfg.alpha_max)
                assert violation is None, (violation, endpoints, cfg.name)
                assert out.path[0] == endpoints[0] and out.path[-1] == endpoints[1]
    elapsed = time.perf_counter() - t0
    assert runs >= 2000
    print(
        f"criterion 1 PASS: {found} found paths out of {runs} runs, "
        f"0 validation failures, {elapsed:.1f}s"
    )


def test_criterion_2_degenerate_equivalence():
    """eLIAN with delta_min = delta_max reproduces LIAN exactly."""
    rng = random.Random(20002)
    compared = 0
    while compared < 500:
        grid = random_grid(rng, rng.randrange(12, 33), rng.uniform(0.0, 0.35))
        endpoints = random_endpoints(rng, grid)
        if endpoints is None:
            continue
        delta = rng.choice([4, 6, 8])
        alpha = rng.choice([20.0, 25.0, 30.0, 45.0])
        lian = search(grid, *endpoints, cfg_of("lian", delta, delta, alpha, cap=5))
        elian = search(grid, *endpoints, cfg_of("elian", delta, delta, alpha, cap=5))
        assert lian.verdict == elian.verdict
        assert lian.path == elian.path
        assert lian.stats.expansions == elian.stats.expansions
        assert lian.stats.generated == elian.stats.generated
        assert lian.stats.reinsertions == elian.stats.reinsertions == 0
        compared += 1
    print(f"criterion 2 PASS: {compared} instances matched exactly")


def test_criterion_3_oracle_equivalence():
    """LIAN (w=1) verdict equals exhaustive state enumeration on small grids."""
    rng = random.Random(30003)
    compared = found = 0
    t0 = time.perf_counter()
    while compared < 200:
        n = rng.randrange(8, 21)
        grid = random_grid(rng, n, rng.choice([0.05, 0.1, 0.2, 0.3]))
        endpoints = random_endpoints(rng, grid)
        if endpoints is None:
            continue
        delta = rng.choice([2, 3, 4])
        alpha = rng.choice([20.0, 25.0, 30.0, 45.0])
        cfg = cfg_of("lian", delta, delta, alpha, weight=1.0, cap=30)
        out = search(grid, *endpoints, cfg)
        assert out.stats.expansions <= expansion_bound(grid, cfg)
        feasible = reachable(grid, *endpoints, [delta], alpha)
        assert (out.verdict is Verdict.FOUND) == feasible, (endpoints, delta, alpha)
        found += out.verdict is Verdict.FOUND
        compared += 1
    print(
        f"criterion 3 PASS: {compared} grids, 0 mismatches "
        f"({found} feasible), {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_4_full_length_segments_always_solved():
    """Straight goals at n * delta_max on empty grids are solved by both."""
    solved = 0
    cases = 0
    for n in range(1, 6):
        span = 20 * n
        blocked = np.zeros((11, span + 5), dtype=bool)
        grid = Grid(blocked)
        start, goal = (2, 5), (2 + span, 5)
        for cfg in (
            cfg_of("lian", 20, 20, 25, cap=10),
            cfg_of("elian", 20, 5, 25, cap=10),
        ):
            out = search(grid, start, goal, cfg)
            cases += 1
            assert out.verdict is Verdict.FOUND, (n, cfg.name)
            assert len(out.path) == n + 1
            solved += 1
    assert solved == cases == 10
    print(f"criterion 4 PASS: {solved}/{cases} straight-line instances solved")


def test_criterion_5_corridor_suite():
    """Twenty narrow-passage maps defeat LIAN-8 but not eLIAN-8-4."""
    t0 = time.perf_counter()
    lian_cfg = cfg_of("lian", 8, 8, 25, cap=20)
    elian_cfg = cfg_of("elian", 8, 4, 25, cap=20)
    elian_found = 0
    suite = mapgen.corridor_suite()
    assert len(suite) == 20
    for index, (grid, start, goal) in enumerate(suite):
        # Construction validity, by exhaustive enumeration: no fixed-8 path
        # exists, a mixed 8/4 path does.
        assert not reachable(grid, start, goal, [8], 25.0), index
        assert reachable(grid, start, goal, [8, 4], 25.0), index
        lian = search(grid, start, goal, lian_cfg)
        assert lian.verdict is Verdict.NOT_FOUND, index
        assert lian.stats.expansions <= expansion_bound(grid, lian_cfg)
        elian = search(grid, start, goal, elian_cfg)
        assert elian.stats.expansions <= expansion_bound(grid, elian_cfg)
        if elian.verdict is Verdict.FOUND:
            assert validate_path(grid, elian.path, 25.0) is None
            elian_found += 1
    assert elian_found >= 18
    print(
        f"criterion 5 PASS: LIAN-8 failed 20/20, eLIAN-8-4 solved "
        f"{elian_found}/20, {time.perf_counter() - t0:.1f}s"
    )


BENCH_ALPHAS = (20.0, 25.0, 30.0)


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    """Run the full benchmark protocol once; criteria 6 and 7 share it."""
    root = tmp_path_factory.mktemp("bench")
    scen_paths = mapgen.write_benchmark_files(root)
    scenarios = [load_scen(p) for p in scen_paths]
    configs = [
        PlannerConfig(mode=mode, delta_max=20, delta_min=dmin, k=0.5,
                      alpha_max=alpha, weight=2, time_cap=30)
        for alpha in BENCH_ALPHAS
        for mode, dmin in (("lian", 20), ("elian", 10), ("elian", 5))
    ]
    t0 = time.perf_counter()
    result = run_batch(scenarios, configs, maps_dir=root, jobs=2)
    elapsed = time.perf_counter() - t0
    assert not result.errors, result.errors
    assert len(result.records) == 5 * 20 * len(configs)
    report = aggregate(result.records, baseline="lian-20")
    return report, result.records, elapsed


def test_criterion_6_benchmark_trend(bench_report):
    """Success ordering eLIAN-20-5 >= eLIAN-20-10 >= LIAN-20 at every angle."""
    report, records, elapsed = bench_report
    groups = {(g.algorithm, g.alpha_max): g for g in report.groups}
    lines = []
    for alpha in BENCH_ALPHAS:
        lian = groups[("lian-20", alpha)]
        e10 = groups[("elian-20-10", alpha)]
        e5 = groups[("elian-20-5", alpha)]
        assert e5.solved >= e10.solved >= lian.solved, alpha
        lines.append(
            f"alpha={alpha:g}: lian-20 {lian.solved}, elian-20-10 {e10.solved}, "
            f"elian-20-5 {e5.solved} (of {lian.instances})"
        )
    gap20 = groups[("elian-20-5", 20.0)].solved - groups[("lian-20", 20.0)].solved
    assert gap20 > 0
    print(
        "criterion 6 PASS: ordering holds at every angle, 20 degree gap "
        f"+{gap20}; {'; '.join(lines)}; batch {elapsed:.0f}s"
    )


def test_criterion_7_quality_parity(bench_report):
    """On commonly solved instances, eLIAN-20-5 keeps LIAN-20's path quality."""
    report, records, _ = bench_report
    groups = {(g.algorithm, g.alpha_max): g for g in report.groups}
    details = []
    for alpha in BENCH_ALPHAS:
        lian = groups[("lian-20", alpha)]
        e5 = groups[("elian-20-5", alpha)]
        assert lian.common_count > 0
        ratio = e5.mean_path_length / lian.mean_path_length
        assert abs(ratio - 1.0) <= 0.05, (alpha, ratio)
        assert e5.mean_turn_angle_deg >= lian.mean_turn_angle_deg, alpha
        details.append(
            f"alpha={alpha:g}: len ratio {ratio:.4f}, angle "
            f"{e5.mean_turn_angle_deg:.1f} vs {lian.mean_turn_angle_deg:.1f} "
            f"on {lian.common_count} common"
        )
    print("criterion 7 PASS: " + "; ".join(details))


def test_criterion_8_termination_and_expansion_bound():
    """No search exceeds the expansion budget or fails to terminate."""
    rng = random.Random(80008)
    worst = 0.0
    runs = 0
    for _ in range(120):
        grid = random_grid(rng, rng.randrange(16, 49), rng.uniform(0.0, 0.45))
        endpoints = random_endpoints(rng, grid)
        if endpoints is None:
            continue
        mode, dmax, dmin = rng.choice(
            [("lian", 20, 20), ("elian", 20, 5), ("elian", 8, 4), ("lian", 4, 4),
             ("elian", 12, 3)]
        )
        cfg = cfg_of(mode, dmax, dmin, rng.choice([20.0, 30.0, 45.0]), cap=60)
        out = search(grid, *endpoints, cfg)
        assert out.verdict in (Verdict.FOUND, Verdict.NOT_FOUND)
        bound = expansion_bound(grid, cfg)
        assert out.stats.expansions <= bound
        worst = max(worst, out.stats.expansions / bound)
        runs += 1
    for grid, start, goal in mapgen.corridor_suite():
        cfg = cfg_of("elian", 8, 4, 25, cap=60)
        out = search(grid, start, goal, cfg)
        assert out.verdict in (Verdict.FOUND, Verdict.NOT_FOUND)
        assert out.stats.expansions <= expansion_bound(grid, cfg)
        runs += 1
    print(
        f"criterion 8 PASS: {runs} searches terminated, worst expansion "
        f"ratio {worst:.4f} of bound"
    )


def test_criterion_9_geometry_micro_suite():
    """Circle, line-of-sight and turn-angle primitives match exact oracles."""
    for radius in range(0, 65):
        assert set(circle_offsets(radius)) == circle_oracle(radius), radius

    rng = random.Random(90009)
    t0 = time.perf_counter()
    pairs = 0
    for _ in range(50):
        grid = random_grid(rng, 16, rng.uniform(0.1, 0.35))
        cells = [(c, r) for r in range(16) for c in range(16)]
        for i, a in enumerate(cells):
            blocked_a = grid.blocked_at(*a)
            for b in cells[i + 1:]:
                got = line_of_sight(grid, a, b)
                if blocked_a or grid.blocked_at(*b):
                    assert not got
                else:
                    assert got == los_oracle(grid, a, b), (a, b)
                pairs += 1
    los_elapsed = time.perf_counter() - t0

    closed_form = [
        (((0, 0), (1, 0), (2, 0)), 0.0),
        (((0, 0), (1, 0), (1, 1)), 90.0),
        (((0, 0), (1, 0), (0, 1)), 135.0),
        (((0, 0), (1, 0), (0, 0)), 180.0),
        (((0, 0), (1, 1), (2, 0)), 90.0),
        (((0, 0), (2, 0), (4, 1)), math.degrees(math.atan2(1, 2))),
        (((0, 0), (2, 1), (4, 0)), 2 * math.degrees(math.atan2(1, 2))),
        (((0, 0), (3, 4), (6, 8)), 0.0),
        (((1, 2), (4, 6), (8, 3)), math.degrees(math.acos(0.0))),
    ]
    for (p, m, n), expected in closed_form:
        assert turn_angle(p, m, n) == pytest.approx(expected, abs=1e-9)

    print(
        f"criterion 9 PASS: circles exact for r<=64, {pairs} line-of-sight "
        f"pairs match the exact oracle ({los_elapsed:.1f}s), turn angles "
        "match closed forms to 1e-9 deg"
    )
