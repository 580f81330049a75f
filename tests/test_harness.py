import csv
import importlib.util
import io
import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import mapgen
from anglepath import Grid, InputError, Instance, PlannerConfig, Verdict, parse_scen
from anglepath.harness import (
    AggregateReport,
    RunRecord,
    accumulated_angle,
    aggregate,
    emit_report,
    path_length,
    read_records,
    run_batch,
    run_instance,
    write_records,
)
from anglepath.planner import prepare
from oracles import empty_grid, random_endpoints, random_grid

ELIAN84 = PlannerConfig(
    mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=25, weight=2, time_cap=20
)
LIAN8 = PlannerConfig(mode="lian", delta_max=8, alpha_max=25, weight=2, time_cap=20)


class TestRunInstance:
    def test_straight_line(self):
        grid = empty_grid(40)
        inst = Instance("m", (5, 20), (25, 20))
        record = run_instance(grid, inst, LIAN8)
        assert record.verdict is Verdict.FOUND
        assert record.runtime_s > 0
        assert record.accumulated_angle_deg == pytest.approx(0.0, abs=1e-9)
        assert record.path_length == pytest.approx(20.0)
        assert record.algorithm == "lian-8"
        assert record.config["alpha_max"] == 25

    def test_sealed_room_not_found(self):
        blocked = np.zeros((16, 16), dtype=bool)
        blocked[4, 4:9] = True
        blocked[8, 4:9] = True
        blocked[4:9, 4] = True
        blocked[4:9, 8] = True
        grid = Grid(blocked)
        inst = Instance("m", (1, 1), (6, 6))
        record = run_instance(
            grid, inst, PlannerConfig(mode="lian", delta_max=3, alpha_max=20,
                                      weight=2, time_cap=10)
        )
        assert record.verdict is Verdict.NOT_FOUND
        assert record.path_length is None and record.accumulated_angle_deg is None

    def test_corridor_lian_vs_elian(self):
        grid, start, goal = mapgen.bend_corridor(3, 13, 10, 0.0)
        inst = Instance("corridor", start, goal)
        assert run_instance(grid, inst, LIAN8).verdict is Verdict.NOT_FOUND
        assert run_instance(grid, inst, ELIAN84).verdict is Verdict.FOUND

    def test_blocked_instance_raises(self):
        grid = Grid(np.array([[False, True], [False, False]]))
        with pytest.raises(InputError):
            run_instance(grid, Instance("m", (1, 0), (0, 1)), LIAN8)

    def test_metrics_recomputable_from_stored_path(self):
        grid, start, goal = mapgen.bend_corridor(3, 12, 13, 0.0)
        record = run_instance(grid, Instance("c", start, goal), ELIAN84)
        assert record.verdict is Verdict.FOUND
        assert record.path_length == pytest.approx(
            path_length(record.path), rel=1e-9
        )
        assert record.accumulated_angle_deg == pytest.approx(
            accumulated_angle(record.path), abs=1e-6
        )


def tiny_scen(map_id, instances):
    return parse_scen(
        "version 1\n"
        + "".join(
            f"0\t{map_id}\t40\t40\t{s[0]}\t{s[1]}\t{g[0]}\t{g[1]}\t0\n"
            for s, g in instances
        )
    )


def timeless(records):
    return [r.to_dict() | {"runtime_s": None} for r in records]


class TestRunBatch:
    def setup_method(self):
        self.grid = empty_grid(40)
        self.scens = [
            tiny_scen("a.map", [((1, 1), (30, 1)), ((1, 2), (30, 30))]),
        ]
        self.configs = [
            LIAN8,
            ELIAN84,
            PlannerConfig(mode="lian", delta_max=4, alpha_max=30, weight=2, time_cap=10),
        ]
        self.grids = {"a.map": self.grid}

    def test_record_per_instance_config(self):
        result = run_batch(self.scens, self.configs, grids=self.grids)
        assert len(result.records) == 6
        assert result.errors == []

    @staticmethod
    def essence(records):
        return {
            (
                r.instance_id,
                r.algorithm,
                r.verdict,
                r.path_length,
                r.accumulated_angle_deg,
                r.expansions,
                r.reinsertions,
                r.path,
            )
            for r in records
        }

    def test_parallel_matches_serial(self):
        serial = run_batch(self.scens, self.configs, grids=self.grids, jobs=1)
        parallel = run_batch(self.scens, self.configs, grids=self.grids, jobs=2)
        assert self.essence(serial.records) == self.essence(parallel.records)

    def test_missing_map_reports_error_and_continues(self, tmp_path):
        good = tiny_scen("good.map", [((1, 1), (30, 30))])
        bad = tiny_scen("missing.map", [((1, 1), (30, 30))])
        (tmp_path / "good.map").write_text(
            "type octile\nheight 40\nwidth 40\nmap\n" + "\n".join(["." * 40] * 40) + "\n"
        )
        result = run_batch([good, bad], [LIAN8], maps_dir=tmp_path)
        assert len(result.records) == 1
        assert len(result.errors) == 1
        assert "missing.map" in result.errors[0]

    def test_invalid_instance_skipped_with_error(self):
        blocked = np.zeros((40, 40), dtype=bool)
        blocked[5, 5] = True
        scen = tiny_scen("b.map", [((5, 5), (30, 30)), ((1, 1), (30, 30))])
        result = run_batch([scen], [LIAN8], grids={"b.map": Grid(blocked)})
        assert len(result.records) == 1
        assert result.errors == ["b.map: skipped instance b.map:5,5->30,30: start (5,5) is blocked"]

    def test_workers_receive_each_grid_once(self, monkeypatch):
        # Grids reach the workers once, when each starts, not inside
        # every task: the parent pickles each at most once per worker.
        scens = self.scens + [tiny_scen("b.map", [((2, 2), (30, 20))])]
        grids = dict(self.grids, **{"b.map": empty_grid(32)})
        serial = run_batch(scens, self.configs, grids=grids, jobs=1)
        pickled = []
        reduce = Grid.__reduce__

        def counting_reduce(grid):
            pickled.append(grid)
            return reduce(grid)

        monkeypatch.setattr(Grid, "__reduce__", counting_reduce)
        parallel = run_batch(scens, self.configs, grids=grids, jobs=2)
        for grid in grids.values():
            assert sum(p is grid for p in pickled) <= 2
        assert timeless(parallel.records) == timeless(serial.records)
        assert parallel.errors == serial.errors

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(InputError, match="jobs"):
            run_batch(self.scens, self.configs, grids=self.grids, jobs=jobs)

    def test_configs_sharing_a_summary_row_refused(self, monkeypatch):
        # Same name and alpha_max would fold two configs into one summary row.
        from dataclasses import replace

        from anglepath import harness

        monkeypatch.setattr(harness, "search", lambda *args: pytest.fail("searched"))
        twin = replace(LIAN8, weight=3)
        with pytest.raises(InputError, match="'lian-8' at alpha_max 25"):
            run_batch(self.scens, [LIAN8, ELIAN84, twin], grids=self.grids)
        monkeypatch.undo()
        result = run_batch(self.scens, [LIAN8, replace(twin, label="lian-8-w3")],
                           grids=self.grids)
        assert [r.algorithm for r in result.records] == ["lian-8"] * 2 + ["lian-8-w3"] * 2

    def test_repeated_instance_refused(self, tmp_path, monkeypatch):
        # aggregate() keys solved sets by instance_id: a repeat would count
        # twice as run but once as solved. No map is loaded, nothing searched.
        from anglepath import harness

        monkeypatch.setattr(harness, "load_map", lambda *args: pytest.fail("loaded"))
        monkeypatch.setattr(harness, "search", lambda *args: pytest.fail("searched"))
        other = tiny_scen("b.map", [((1, 1), (30, 1))])
        twice = tiny_scen("a.map", [((1, 1), (30, 1)), ((1, 2), (30, 30)), ((1, 2), (30, 30))])
        for scens, repeated in (([self.scens[0], other, self.scens[0]], "a.map:1,1->30,1"),
                                ([twice], "a.map:1,2->30,30")):
            with pytest.raises(InputError, match=f"instance {repeated} appears twice"):
                run_batch(scens, self.configs, maps_dir=tmp_path)

    def test_pool_no_larger_than_the_batch(self):
        # Two tasks at jobs=6 need two workers, not six.
        import multiprocessing

        live = []
        result = run_batch(self.scens, self.configs[:2], grids=self.grids, jobs=6,
                           record_sink=lambda record: live.append(
                               len(multiprocessing.active_children())))
        assert len(result.records) == 4
        assert 1 <= max(live) <= 2

    def test_no_grid_held_after_the_batch(self):
        # Run in this process, tasks build sight tables and rows on the
        # batch's grid; neither the module nor the grid may keep them once
        # run_batch returns or raises.
        from anglepath import harness

        def no_tables():
            rings = self.grid.circle_tables
            return harness._prepared is None and rings and all(
                not ring and not ring.tiles for ring in rings.values())

        run_batch(self.scens, self.configs, grids=self.grids, jobs=1)
        assert no_tables()

        def failing_sink(record):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_batch(self.scens, self.configs, grids=self.grids, record_sink=failing_sink)
        assert no_tables()

    def test_perfbench_tracer_sees_every_search(self, tmp_path):
        # perfbench/spans.py wraps module attributes of anglepath from
        # outside. A renamed one fails install(); one a caller has captured
        # (in a local or a partial) runs unwrapped and leaves searches with
        # no summary, or summaries with no search behind them.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        (tmp_path / "a.map").write_text(
            "type octile\nheight 40\nwidth 40\nmap\n" + "\n".join(["." * 40] * 40) + "\n"
        )
        tracer = spans.Tracer()
        tracer.install()
        try:
            result = run_batch(self.scens, self.configs, maps_dir=tmp_path, jobs=1)
            summaries = tracer.summaries
            assert len(result.records) == 6
            assert [s["expansions"] for s in summaries] == [r.expansions for r in result.records]
            assert [s["runtime_s"] for s in summaries] == [r.runtime_s for r in result.records]
            assert all(s["expand_s"] > 0 for s in summaries)
            names = {span[0] for span in tracer.spans}
            assert {"grids.load_map", "harness.run_instance", "planner.search",
                    "planner.Search.run"} <= names
        finally:
            tracer.uninstall()

    def test_each_map_loaded_once_per_batch(self, tmp_path, monkeypatch):
        from anglepath import harness

        (tmp_path / "a.map").write_text(
            "type octile\nheight 40\nwidth 40\nmap\n" + "\n".join(["." * 40] * 40) + "\n"
        )
        (tmp_path / "bad.map").write_text("type octile\nheight 2\nwidth 2\nmap\n..\n")
        loaded = []

        def counting_load(path):
            loaded.append(path.name)
            return load_map(path)

        load_map = harness.load_map
        monkeypatch.setattr(harness, "load_map", counting_load)
        scens = [tiny_scen("a.map", [((1, 1), (30, 1))]), tiny_scen("a.map", [((1, 2), (30, 30))]),
                 tiny_scen("bad.map", [((1, 1), (1, 3))]), tiny_scen("bad.map", [((1, 1), (3, 1))]),
                 tiny_scen("ghost.map", [((1, 1), (3, 1))]), tiny_scen("ghost.map", [((1, 1), (3, 3))])]
        result = run_batch(scens, [LIAN8], maps_dir=tmp_path)
        assert sorted(loaded) == ["a.map", "bad.map"]
        assert len(result.records) == 2
        assert [err.split(":")[0] for err in result.errors] == ["bad.map", "ghost.map"]
        assert "bad map file" in result.errors[0] and "map not found" in result.errors[1]

    def test_record_dict_keys_in_field_order(self):
        result = run_batch(self.scens, self.configs[:1], grids=self.grids)
        record = result.records[0]
        assert list(record.to_dict()) == [
            "instance_id", "algorithm", "config", "verdict", "runtime_s", "path_length",
            "accumulated_angle_deg", "expansions", "reinsertions", "path",
        ]
        assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
        sparse = {k: v for k, v in record.to_dict().items() if k != "path_length"}
        assert RunRecord.from_dict(sparse).path_length is None
        with pytest.raises(KeyError):
            RunRecord.from_dict({k: v for k, v in sparse.items() if k != "expansions"})

    def test_record_jsonl_round_trip(self, tmp_path):
        out = tmp_path / "records.jsonl"
        result = run_batch(self.scens, self.configs, grids=self.grids)
        write_records(result.records, out)
        loaded = read_records(out)
        assert self.essence(loaded) == self.essence(result.records)
        assert [r.config for r in loaded] == [r.config for r in result.records]

    def test_torn_last_line_dropped_only(self, tmp_path):
        out = tmp_path / "records.jsonl"
        result = run_batch(self.scens, self.configs, grids=self.grids)
        write_records(result.records, out)
        lines = out.read_text().splitlines(keepends=True)
        # A batch killed mid-write leaves a last line with no newline.
        out.write_text("".join(lines[:-1]) + lines[-1][:40])
        assert self.essence(read_records(out)) == self.essence(result.records[:-1])
        # A whole last line is kept, with or without its newline.
        out.write_text("".join(lines)[:-1])
        assert self.essence(read_records(out)) == self.essence(result.records)
        # A bad line anywhere else still raises.
        for torn in (lines[1][:40] + "\n", lines[1][:40] + "\n" + lines[1]):
            out.write_text(lines[0] + torn)
            with pytest.raises(json.JSONDecodeError):
                read_records(out)

    def test_every_found_record_metrics_recompute(self):
        rng = random.Random(77)
        grids = {}
        scens = []
        for idx in range(3):
            name = f"g{idx}.map"
            grids[name] = grid = random_grid(rng, 40, 0.15)
            scens.append(tiny_scen(name, [random_endpoints(rng, grid) for _ in range(4)]))
        result = run_batch(scens, [LIAN8, ELIAN84], grids=grids)
        found = [r for r in result.records if r.verdict is Verdict.FOUND]
        assert found
        for record in found:
            assert record.path_length == pytest.approx(
                path_length(record.path), rel=1e-9
            )
            assert record.accumulated_angle_deg == pytest.approx(
                accumulated_angle(record.path), abs=1e-6
            )


class TestLanes:
    """run_batch at jobs > 1: equal stretches, stealing, task order."""

    def setup_method(self):
        # Four sets on three maps, of 2, 1, 3 and 1 instances; map a's two
        # sets are not adjacent.
        self.scens = [
            tiny_scen("a.map", [((1, 1), (30, 1)), ((1, 2), (30, 30))]),
            tiny_scen("b.map", [((2, 2), (30, 20))]),
            tiny_scen("c.map", [((1, 1), (20, 30)), ((3, 3), (35, 5)), ((5, 1), (5, 30))]),
            tiny_scen("a.map", [((2, 5), (25, 25))]),
        ]
        self.configs = [LIAN8, ELIAN84]
        self.grids = {name: empty_grid(40) for name in ("a.map", "b.map", "c.map")}

    def batch(self, jobs):
        sunk = []
        result = run_batch(self.scens, self.configs, grids=self.grids, jobs=jobs,
                           record_sink=sunk.append)
        return result, sunk

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_records_and_sink_in_serial_order(self, jobs):
        import multiprocessing

        serial, serial_sunk = self.batch(1)
        assert len(serial.records) == 14
        result, sunk = self.batch(jobs)
        assert timeless(result.records) == timeless(serial.records)
        assert timeless(sunk) == timeless(serial_sunk) == timeless(serial.records)
        assert result.errors == serial.errors
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_failed_task_ends_the_batch_after_the_tasks_before_it(self, jobs, monkeypatch):
        # Task 5, (c.map, elian), raises in whichever process runs it (a
        # forked worker inherits the patch); tasks 0-4 hold 9 records.
        import multiprocessing

        from anglepath import harness

        serial = run_batch(self.scens, self.configs, grids=self.grids)
        run_task = harness._run_task

        def failing(grid, scen, cfg):
            if scen.map_id == "c.map" and cfg == ELIAN84:
                raise RuntimeError("task failed")
            return run_task(grid, scen, cfg)

        monkeypatch.setattr(harness, "_run_task", failing)
        sunk = []
        with pytest.raises(RuntimeError, match="task failed") as raised:
            run_batch(self.scens, self.configs, grids=self.grids, jobs=jobs,
                      record_sink=sunk.append)
        assert multiprocessing.active_children() == []
        assert timeless(sunk) == timeless(serial.records[:9])
        assert harness._prepared is None
        if jobs > 1:  # the worker's traceback comes along
            assert "in failing" in str(raised.value.__cause__)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_records_the_same_without_prepare(self, jobs, monkeypatch):
        # Sight tables built ahead change when a search learns what a cell
        # sees, not what it finds. Walls make the searches turn and descend;
        # a forked worker inherits the patch that skips prepare().
        from anglepath import harness

        blocked = np.zeros((40, 40), dtype=bool)
        blocked[4, :30] = blocked[8:36, 12] = blocked[22, 16:] = True

        def walled_batch():
            self.grids = {name: Grid(blocked) for name in self.grids}
            return self.batch(jobs)

        (prepared, sunk), rings = walled_batch(), self.grids["a.map"].circle_tables
        assert len(prepared.records) == 14 and prepared.errors == []
        assert sum(r.reinsertions for r in prepared.records) > 0
        if jobs == 1:  # the rings are this process's, and their tables freed
            assert rings and all(not ring.tiles for ring in rings.values())
        monkeypatch.setattr(harness, "prepare", lambda grid, cfg: None)
        bare, bare_sunk = walled_batch()
        if jobs == 1:  # the searches built tables themselves, and they were freed
            assert all(not ring.tiles for ring in self.grids["a.map"].circle_tables.values())
        assert timeless(bare.records) == timeless(prepared.records)
        assert timeless(bare_sunk) == timeless(sunk) == timeless(prepared.records)
        assert bare.errors == prepared.errors

    def test_a_process_keeps_one_maps_tables(self, monkeypatch):
        # Tasks run on maps a, a, b, b, c, c, a, a: after each prepare()
        # only the task's own map holds tables or rows, and after the batch
        # none.
        from anglepath import harness

        held = []

        def holds(g):
            return any(ring or ring.tiles for ring in g.circle_tables.values())

        def prepare_and_look(grid, cfg):
            prepare(grid, cfg)
            held.append([name for name, g in self.grids.items() if holds(g)])

        monkeypatch.setattr(harness, "prepare", prepare_and_look)
        self.batch(1)
        assert held == [["a.map"]] * 2 + [["b.map"]] * 2 + [["c.map"]] * 2 + [["a.map"]] * 2
        assert not any(holds(g) for g in self.grids.values())
        assert harness._prepared is None

    def test_dead_worker_ends_the_batch(self, monkeypatch):
        import multiprocessing
        import os

        from anglepath import harness

        run_task = harness._run_task

        def dying(grid, scen, cfg):
            if scen.map_id == "b.map":
                os._exit(7)
            return run_task(grid, scen, cfg)

        monkeypatch.setattr(harness, "_run_task", dying)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            run_batch(self.scens, self.configs, grids=self.grids, jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_map_cut_between_lanes(self, jobs):
        # Six tasks on one map: the equal split cuts the map between lanes
        # (tasks 0-2 and 3-5 at jobs=2, 0-1, 2-3 and 4-5 at jobs=3).
        import multiprocessing

        self.scens = [
            tiny_scen("a.map", [((1, 1), (30, 1)), ((1, 2), (30, 30))]),
            tiny_scen("a.map", [((2, 2), (30, 20))]),
            tiny_scen("a.map", [((1, 1), (20, 30)), ((3, 3), (35, 5))]),
        ]
        serial, serial_sunk = self.batch(1)
        assert len(serial.records) == 10
        result, sunk = self.batch(jobs)
        assert timeless(result.records) == timeless(serial.records)
        assert timeless(sunk) == timeless(serial_sunk) == timeless(serial.records)
        assert result.errors == serial.errors
        assert multiprocessing.active_children() == []

    def test_thieves_take_the_far_end(self):
        from anglepath.harness import _next_task

        stretches = [deque([0, 1]), deque([2, 6]), deque([3, 4, 5, 7])]
        # Lane 0 walks its own stretch from the front, then steals from the
        # far end of the longest stretch left, the first of equals on a tie.
        taken = [_next_task(stretches, 0) for _ in range(6)]
        assert taken == [0, 1, 7, 5, 6, 4]
        assert _next_task(stretches, 1) == 2
        assert _next_task(stretches, 2) == 3
        assert _next_task(stretches, 1) is None


def fake_record(iid, algo, alpha, verdict, runtime=0.01, length=None, angle=None):
    found = verdict is Verdict.FOUND
    path = ((0, 0), (10, 0)) if found else None
    return RunRecord(
        instance_id=iid,
        algorithm=algo,
        config={"alpha_max": alpha, "mode": "lian", "delta_max": 8.0},
        verdict=verdict,
        runtime_s=runtime,
        path_length=length if found else None,
        accumulated_angle_deg=angle if found else None,
        expansions=10,
        reinsertions=0,
        path=path,
    )


class TestAggregate:
    def test_only_rate_set_arithmetic(self):
        records = []
        for iid in "abcd":
            records.append(
                fake_record(iid, "base", 25, Verdict.FOUND if iid in "ab" else Verdict.NOT_FOUND,
                            length=10.0, angle=0.0)
            )
            records.append(
                fake_record(iid, "cand", 25, Verdict.FOUND if iid in "abc" else Verdict.NOT_FOUND,
                            length=10.0, angle=0.0)
            )
        report = aggregate(records, baseline="base")
        cand = next(g for g in report.groups if g.algorithm == "cand")
        assert cand.only_vs_baseline_pct == pytest.approx(50.0)
        base = next(g for g in report.groups if g.algorithm == "base")
        assert base.only_vs_baseline_pct == pytest.approx(0.0)
        assert cand.success_rate_pct - base.success_rate_pct == pytest.approx(25.0)

    def test_median_over_common_set(self):
        records = []
        for iid, rt in (("a", 1.0), ("b", 2.0), ("c", 100.0)):
            records.append(fake_record(iid, "base", 25, Verdict.FOUND, rt, 10.0, 0.0))
            records.append(fake_record(iid, "cand", 25, Verdict.FOUND, 5.0, 10.0, 0.0))
        report = aggregate(records, baseline="base")
        base = next(g for g in report.groups if g.algorithm == "base")
        assert base.median_runtime_s == pytest.approx(2.0)
        assert base.common_count == 3

    def test_common_set_is_intersection(self):
        records = [
            fake_record("a", "base", 25, Verdict.FOUND, length=10.0, angle=0.0),
            fake_record("b", "base", 25, Verdict.NOT_FOUND),
            fake_record("a", "cand", 25, Verdict.FOUND, length=12.0, angle=5.0),
            fake_record("b", "cand", 25, Verdict.FOUND, length=9.0, angle=1.0),
        ]
        report = aggregate(records, baseline="base")
        cand = next(g for g in report.groups if g.algorithm == "cand")
        assert cand.common_count == 1
        assert cand.mean_path_length == pytest.approx(12.0)
        assert cand.mean_turn_angle_deg == pytest.approx(5.0)

    def test_permutation_invariant(self):
        rng = random.Random(3)
        records = []
        for iid in "abcdefgh":
            for algo in ("base", "cand"):
                verdict = Verdict.FOUND if rng.random() < 0.7 else Verdict.NOT_FOUND
                records.append(
                    fake_record(iid, algo, 25, verdict, rng.random(), 10.0, 3.0)
                )
        report = aggregate(records, baseline="base")
        for _ in range(5):
            rng.shuffle(records)
            assert aggregate(records, baseline="base") == report

    def test_unknown_baseline_rejected(self):
        with pytest.raises(InputError):
            aggregate([fake_record("a", "x", 25, Verdict.FOUND, length=1.0, angle=0.0)],
                      baseline="nope")

    def test_empty_records_rejected(self):
        with pytest.raises(InputError):
            aggregate([], baseline="x")

    def test_normalization_against_baseline_smallest_alpha(self):
        records = []
        for alpha, angle in ((20.0, 50.0), (30.0, 100.0)):
            records.append(
                fake_record(f"i{alpha}", "base", alpha, Verdict.FOUND, length=10.0,
                            angle=angle)
            )
            records.append(
                fake_record(f"i{alpha}", "cand", alpha, Verdict.FOUND, length=10.0,
                            angle=angle * 1.5)
            )
        report = aggregate(records, baseline="base")
        by = {(g.algorithm, g.alpha_max): g for g in report.groups}
        assert by[("base", 20.0)].normalized_turn_angle == pytest.approx(1.0)
        assert by[("cand", 20.0)].normalized_turn_angle == pytest.approx(1.5)
        assert by[("base", 30.0)].normalized_turn_angle == pytest.approx(2.0)
        assert by[("cand", 30.0)].normalized_turn_angle == pytest.approx(3.0)


class TestEmitReport:
    def three_algo_report(self):
        records = []
        for iid in "abcde":
            for algo, p in (("lian-8", 0.4), ("elian-8-4", 0.7), ("elian-8-2", 0.9)):
                verdict = (
                    Verdict.FOUND
                    if (hash((iid, algo)) % 100) / 100 < p
                    else Verdict.NOT_FOUND
                )
                records.append(fake_record(iid, algo, 25, verdict, 0.02, 11.0, 4.0))
        return aggregate(records, baseline="lian-8")

    def test_empty_report_csv(self):
        text = emit_report(AggregateReport(baseline="x", groups=()), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        # The columns are AggregateGroup's fields in order; the header is
        # part of the report format.
        assert rows == [[
            "algorithm", "alpha_max", "instances", "solved", "success_rate_pct",
            "only_vs_baseline_pct", "common_count", "common_set_id", "median_runtime_s",
            "mean_path_length", "mean_turn_angle_deg", "normalized_turn_angle",
        ]]

    def test_single_algorithm_round_trip(self):
        records = [fake_record("a", "solo", 25, Verdict.FOUND, 0.5, 10.0, 2.0)]
        report = aggregate(records, baseline="solo")
        parsed = json.loads(emit_report(report, "json"))
        assert parsed["baseline"] == "solo"
        assert len(parsed["groups"]) == 1
        assert parsed["groups"][0]["success_rate_pct"] == 100.0

    def test_three_algorithm_csv_round_trip(self):
        report = self.three_algo_report()
        text = emit_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report.groups)
        for row, group in zip(rows, report.groups):
            assert row["algorithm"] == group.algorithm
            assert float(row["success_rate_pct"]) == pytest.approx(
                group.success_rate_pct
            )
            assert int(row["common_count"]) == group.common_count

    def test_json_round_trip_exact(self):
        report = self.three_algo_report()
        parsed = json.loads(emit_report(report, "json"))
        for row, group in zip(parsed["groups"], report.groups):
            for key, value in row.items():
                assert value == getattr(group, key)

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError):
            emit_report(AggregateReport(baseline="x", groups=()), "xml")


class TestSvg:
    def test_two_point_polyline(self):
        from anglepath.svg import render_svg

        grid = empty_grid(10)
        text = render_svg(grid, [(1, 1), (8, 1)])
        assert text.count("<polyline") == 1
        assert 'points="1.5,1.5 8.5,1.5"' in text
        assert text.count('class="start"') == 1
        assert text.count('class="goal"') == 1

    def test_corridor_path_has_multiple_points(self):
        from anglepath import search
        from anglepath.svg import render_svg

        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        out = search(grid, start, goal, ELIAN84)
        text = render_svg(grid, out.path)
        polyline = text.split("<polyline")[1].split("/>")[0]
        points = polyline.split('points="')[1].split('"')[0].split()
        assert len(points) >= 4

    def test_blocked_rect_tally(self):
        rng = random.Random(6)
        blocked = np.array(
            [[rng.random() < 0.3 for _ in range(12)] for _ in range(9)], dtype=bool
        )
        grid = Grid(blocked)
        from anglepath.svg import render_svg

        text = render_svg(grid, None)
        assert text.count('<rect class="b"') == int(grid.blocked.sum())

    @staticmethod
    def loop_rects(grid):
        # The blocked-cell rects as render_svg drew them first: every cell
        # tested in a row-major double loop.
        return [f'<rect class="b" x="{col}" y="{row}" width="1" height="1" fill="#444444"/>'
                for row in range(grid.height) for col in range(grid.width)
                if grid.blocked[row, col]]

    def test_blocked_rects_match_the_cell_loop(self):
        # Byte for byte: the drawing of the same grid with no blocked cell,
        # with the loop's rects after its two background lines.
        from anglepath.svg import render_svg

        rng = random.Random(20)
        grids = [random_grid(rng, rng.randrange(1, 40), rng.choice([0.1, 0.5, 0.9]))
                 for _ in range(20)]
        for h, w in ((1, 1), (1, 17), (17, 1), (9, 13)):
            grids += [Grid(np.zeros((h, w), bool)), Grid(np.ones((h, w), bool))]
        grids += [Grid(np.array([[True, False, True] * 5])), Grid(np.array([[True], [False]])),
                  Grid(np.random.default_rng(20).random((7, 23)) < 0.4)]
        for grid in grids:
            path = [(0, 0), (grid.width - 1, grid.height - 1)]
            for drawn in (path, None):
                lines = render_svg(Grid(np.zeros(grid.blocked.shape, bool)), drawn).split("\n")
                expected = "\n".join(lines[:2] + self.loop_rects(grid) + lines[2:])
                assert render_svg(grid, drawn) == expected

    def test_deterministic_and_writes_file(self, tmp_path):
        from anglepath.svg import render_svg

        grid = empty_grid(5)
        out = tmp_path / "draw.svg"
        a = render_svg(grid, [(0, 0), (4, 4)], out=out)
        b = render_svg(grid, [(0, 0), (4, 4)])
        assert a == b
        assert out.read_text() == a
