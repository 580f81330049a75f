import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mapgen
from anglepath.cli import main
from anglepath.grids import Instance, load_map
from anglepath.harness import RunRecord, read_records, run_instance
from anglepath.planner import PlannerConfig


@pytest.fixture
def open_map(tmp_path):
    path = tmp_path / "open.map"
    path.write_text("type octile\nheight 40\nwidth 40\nmap\n" + "\n".join(["." * 40] * 40) + "\n")
    return path


@pytest.fixture
def corridor_map(tmp_path):
    grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
    rows = [
        "".join("#" if grid.blocked_at(c, r) else "." for c in range(grid.width))
        for r in range(grid.height)
    ]
    path = tmp_path / "corridor.map"
    path.write_text("\n".join(rows) + "\n")
    return path, start, goal


class TestPlan:
    def test_found_exit_zero(self, open_map, capsys):
        code = main([
            "plan", "--map", str(open_map), "--start", "5,20", "--goal", "25,20",
            "--config", '{"mode": "lian", "delta_max": 20, "alpha_max": 25}',
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "found"
        assert record["path_length"] == 20.0

    def test_svg_written(self, open_map, tmp_path, capsys):
        svg = tmp_path / "path.svg"
        code = main([
            "plan", "--map", str(open_map), "--start", "5,20", "--goal", "25,20",
            "--svg", str(svg),
        ])
        assert code == 0
        assert svg.exists() and "<polyline" in svg.read_text()

    def test_unwritable_svg_prints_nothing(self, open_map, tmp_path, capsys):
        code = main([
            "plan", "--map", str(open_map), "--start", "5,20", "--goal", "25,20",
            "--svg", str(tmp_path / "nodir" / "y.svg"),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "error:" in captured.err

    def test_not_found_exit_one(self, corridor_map):
        path, start, goal = corridor_map
        code = main([
            "plan", "--map", str(path),
            "--start", f"{start[0]},{start[1]}", "--goal", f"{goal[0]},{goal[1]}",
            "--config", '{"mode": "lian", "delta_max": 8, "alpha_max": 25}',
        ])
        assert code == 1

    def test_elian_recovers_exit_zero(self, corridor_map):
        path, start, goal = corridor_map
        code = main([
            "plan", "--map", str(path),
            "--start", f"{start[0]},{start[1]}", "--goal", f"{goal[0]},{goal[1]}",
            "--config",
            '{"mode": "elian", "delta_max": 8, "delta_min": 4, "k": 0.5, "alpha_max": 25}',
        ])
        assert code == 0

    def test_timeout_exit_two(self, tmp_path):
        big = tmp_path / "big.map"
        big.write_text("type octile\nheight 150\nwidth 150\nmap\n" + "\n".join(["." * 150] * 150) + "\n")
        code = main([
            "plan", "--map", str(big), "--start", "2,2", "--goal", "140,140",
            "--config", '{"delta_max": 3, "time_cap": 0}',
        ])
        assert code == 2

    def test_blocked_start_exit_three(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("#..\n...\n...\n")
        code = main(["plan", "--map", str(path), "--start", "0,0", "--goal", "2,2"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("delta_min", ["1e-10", "0.5"])
    def test_sub_unit_delta_min_exit_three(self, open_map, capsys, delta_min):
        # Below radius 1 the ladder would never end; the config is refused.
        t0 = time.perf_counter()
        code = main(["plan", "--map", str(open_map), "--start", "5,20", "--goal", "25,20",
                     "--config", f'{{"mode": "elian", "delta_max": 20, "delta_min": {delta_min}}}'])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "delta_min" in captured.err
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("config", [
        {"mode": "lian", "delta_max": 8, "alpha_max": 25, "success_streak": 3, "label": "L8"},
        {"mode": "elian", "delta_max": 8, "delta_min": 4, "k": 0.5, "alpha_max": 25,
         "success_streak": 3, "label": "E84"},
        None,
    ], ids=["lian-8", "elian-8-4", "no-config"])
    def test_prints_bench_record(self, corridor_map, capsys, config):
        # plan's one line is the record bench writes for the same config;
        # without --config, plan runs PlannerConfig().
        path, start, goal = corridor_map
        argv = ["plan", "--map", str(path),
                "--start", f"{start[0]},{start[1]}", "--goal", f"{goal[0]},{goal[1]}"]
        if config is not None:
            argv += ["--config", json.dumps(config)]
        main(argv)
        line, = capsys.readouterr().out.splitlines()
        cfg = PlannerConfig() if config is None else PlannerConfig.from_dict(config)
        expected = run_instance(load_map(path), Instance(path.name, start, goal), cfg)
        got = RunRecord.from_dict(json.loads(line))
        assert replace(got, runtime_s=0.0) == replace(expected, runtime_s=0.0)
        if config is not None:
            assert got.algorithm == config["label"]
            assert got.config["success_streak"] == 3

    def test_help_names_config_only(self, capsys):
        assert main(["plan", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--config" in out
        for flag in ("--alg", "--delta-max", "--delta-min", "--k", "--angle", "--hweight",
                     "--timeout"):
            assert flag not in out

    @pytest.mark.parametrize("config,fragment", [
        ('{"mode": "lian",', "--config: Expecting"),
        ("[1]", "must be a JSON object"),
        ('{"mode": "lian", "bogus": 1}', "unknown config keys: ['bogus']"),
        ('{"delta_max": NaN}', "delta_max must be finite"),
        ('{"delta_max": 1e400}', "delta_max must be finite"),
        ('{"delta_max": ' + "9" * 5000 + "}", "digits"),  # int() refuses it
        ("[" * 100000, "nested too deeply"),  # RecursionError
        # A long bad value is echoed shortened, not whole.
        ("[" + ",".join(map(str, range(1, 20001))) + "]", "must be a JSON object"),
        ('{"mode": "' + "x" * 100000 + '"}', "unknown mode 'xxx"),
    ], ids=["malformed", "non-object", "unknown-key", "nan", "inf", "long-int", "deep",
            "long-list", "long-mode"])
    def test_bad_config_exit_three(self, open_map, capsys, config, fragment):
        code = main(["plan", "--map", str(open_map), "--start", "5,20", "--goal", "25,20",
                     "--config", config])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 300
        assert fragment in captured.err

    def test_missing_map_exit_three(self, tmp_path):
        code = main(["plan", "--map", str(tmp_path / "nope.map"), "--start", "0,0",
                     "--goal", "1,1"])
        assert code == 3

    def test_bad_cell_syntax_exit_three(self, open_map):
        code = main(["plan", "--map", str(open_map), "--start", "zap", "--goal", "1,1"])
        assert code == 3

    @pytest.mark.parametrize("data", [
        "type octile\nheight \u00b2\nwidth 2\nmap\n..\n".encode(),
        b"type octile\nheight 1\nwidth 2\nmap\n.\xff\n",
    ])
    def test_malformed_map_exit_three(self, tmp_path, capsys, data):
        path = tmp_path / "bad.map"
        path.write_bytes(data)
        code = main(["plan", "--map", str(path), "--start", "0,0", "--goal", "1,0"])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["plan"], "the following arguments are required: --map, --start, --goal"),
        (["bench", "--scen", "a.scen", "--jobs", "two"],
         "argument --jobs: invalid int value: 'two'"),
        (["bench", "--scen", "a.scen", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ], ids=["missing-flag", "non-int-jobs", "bad-format", "unknown-subcommand"])
    def test_usage_error_exit_three(self, capsys, argv, message):
        # argparse would exit 2, which means TIMEOUT.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("usage: anglepath")
        assert f"error: {message}" in captured.err

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: anglepath")


def write_bench_inputs(tmp_path, seeds=(21, 22), size=64, count=3):
    scen_paths = []
    for seed in seeds:
        blocked = mapgen.building_blocked(seed, size=size)
        map_id = f"m{seed}.map"
        insts = mapgen.hard_instances(blocked, map_id, count, seed=seed, min_dist_frac=0.5)
        (tmp_path / map_id).write_text(mapgen.to_movingai_map(blocked))
        scen = tmp_path / f"{map_id}.scen"
        scen.write_text(mapgen.to_movingai_scen(insts, size, size))
        scen_paths.append(scen)
    return scen_paths


class TestBench:
    def test_end_to_end_csv(self, tmp_path, capsys):
        scens = write_bench_inputs(tmp_path)
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([
            {"mode": "lian", "delta_max": 8, "alpha_max": 30, "weight": 2, "time_cap": 10},
            {"mode": "elian", "delta_max": 8, "delta_min": 4, "k": 0.5,
             "alpha_max": 30, "weight": 2, "time_cap": 10},
        ]))
        prefix = tmp_path / "run"
        code = main([
            "bench", "--scen", *[str(s) for s in scens],
            "--maps-dir", str(tmp_path), "--configs", str(configs),
            "--jobs", "1", "--out", str(prefix), "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        records = read_records(f"{prefix}.records.jsonl")
        assert len(records) == 2 * 2 * 3  # sets x configs x instances
        with open(f"{prefix}.summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["algorithm"] for row in rows} == {"lian-8", "elian-8-4"}
        assert "baseline: lian-8" in out

    def test_json_summary_and_baseline_flag(self, tmp_path):
        scens = write_bench_inputs(tmp_path, seeds=(23,), count=2)
        prefix = tmp_path / "out"
        code = main([
            "bench", "--scen", str(scens[0]), "--maps-dir", str(tmp_path),
            "--out", str(prefix), "--format", "json", "--baseline", "elian-20-5",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "out.summary.json").read_text())
        assert payload["baseline"] == "elian-20-5"
        assert {g["algorithm"] for g in payload["groups"]} == {
            "lian-20", "elian-20-10", "elian-20-5",
        }

    def test_default_configs_take_planner_defaults(self, open_map, tmp_path):
        # Without --configs, the three configs set mode and delta_min only.
        scen = tmp_path / "open.scen"
        scen.write_text("version 1\n0\topen.map\t40\t40\t5\t20\t25\t20\t20\n")
        assert main(["bench", "--scen", str(scen), "--out", str(tmp_path / "d")]) == 0
        lines = (tmp_path / "d.records.jsonl").read_text().splitlines()
        defaults = {"k": 0.5, "alpha_max": 25.0, "weight": 2.0, "time_cap": 30.0,
                    "success_streak": 2}
        assert [(r["algorithm"], r["config"]) for r in map(json.loads, lines)] == [
            (name, {"mode": mode, "delta_max": 20.0, "delta_min": delta_min, **defaults})
            for name, mode, delta_min in (("lian-20", "lian", 20),
                                          ("elian-20-10", "elian", 10),
                                          ("elian-20-5", "elian", 5))
        ]
        assert '"delta_max": 20.0, "delta_min": 10, "k": 0.5, "alpha_max": 25.0' in lines[1]

    def test_missing_map_warns_but_continues(self, tmp_path, capsys):
        scens = write_bench_inputs(tmp_path, seeds=(24,), count=2)
        orphan = tmp_path / "orphan.scen"
        orphan.write_text("version 1\n0\tghost.map\t8\t8\t0\t0\t5\t5\t5\n")
        prefix = tmp_path / "o"
        code = main([
            "bench", "--scen", str(scens[0]), str(orphan),
            "--maps-dir", str(tmp_path), "--out", str(prefix),
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "ghost.map" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_three(self, open_map, tmp_path, capsys, jobs):
        scen = tmp_path / "open.scen"
        scen.write_text("version 1\n0\topen.map\t40\t40\t5\t20\t25\t20\t20\n")
        code = main(["bench", "--scen", str(scen), "--jobs", jobs, "--out", str(tmp_path / "x")])
        assert code == 3
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_refused_batch_keeps_old_records(self, open_map, tmp_path, capsys):
        old = tmp_path / "x.records.jsonl"
        old.write_text("old\n")
        scen = tmp_path / "open.scen"
        scen.write_text("version 1\n0\topen.map\t40\t40\t5\t20\t25\t20\t20\n")
        orphan = tmp_path / "orphan.scen"
        orphan.write_text("version 1\n0\tghost.map\t8\t8\t0\t0\t5\t5\t5\n")
        out = str(tmp_path / "x")
        assert main(["bench", "--scen", str(scen), "--jobs", "0", "--out", out]) == 3
        assert old.read_text() == "old\n"
        assert main(["bench", "--scen", str(orphan), "--out", out]) == 3
        assert old.read_text() == "old\n"
        # A batch that runs replaces the old file with its own records.
        assert main(["bench", "--scen", str(scen), "--out", out]) == 0
        assert [r.algorithm for r in read_records(old)] == [
            "lian-20", "elian-20-10", "elian-20-5",
        ]

    def test_configs_sharing_a_summary_row_exit_three(self, open_map, tmp_path, capsys):
        # Two lian-3 configs at alpha 25, differing only in weight, used to
        # be merged into one "lian-3 25 2/4" summary row.
        scen = tmp_path / "open.scen"
        scen.write_text("version 1\n0\topen.map\t40\t40\t5\t20\t25\t20\t20\n"
                        "0\topen.map\t40\t40\t5\t21\t25\t21\t20\n")
        twins = [{"mode": "lian", "delta_max": 3, "alpha_max": 25, "weight": w} for w in (1, 2)]
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps(twins))
        out = str(tmp_path / "x")
        args = ["bench", "--scen", str(scen), "--configs", str(configs), "--out", out]
        assert main(args) == 3
        assert "'lian-3'" in capsys.readouterr().err
        assert not (tmp_path / "x.records.jsonl").exists()
        twins[1]["label"] = "lian-3-w2"
        configs.write_text(json.dumps(twins))
        assert main(args) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[:4] == ["lian-3", "25", "2/2", "100.00"] for row in rows)
        assert any(row.startswith("lian-3-w2 ") for row in rows)

    def test_unknown_baseline_exit_three_before_any_search(
        self, open_map, tmp_path, capsys, monkeypatch
    ):
        from anglepath import harness

        monkeypatch.setattr(harness, "search", lambda *args: pytest.fail("searched"))
        old = tmp_path / "x.records.jsonl"
        old.write_bytes(b"old\n")
        scen = tmp_path / "open.scen"
        scen.write_text("version 1\n0\topen.map\t40\t40\t5\t20\t25\t20\t20\n")
        code = main(["bench", "--scen", str(scen), "--out", str(tmp_path / "x"),
                     "--baseline", "lian-2O"])
        assert code == 3
        assert "unknown baseline label 'lian-2O'" in capsys.readouterr().err
        assert old.read_bytes() == b"old\n"

    def test_repeated_instance_exit_three(self, open_map, tmp_path, capsys):
        # A repeat would count twice as run but once as solved: "1/2 50.00"
        # for an instance every config solves.
        line = "0\topen.map\t40\t40\t5\t20\t25\t20\t20\n"
        once = tmp_path / "once.scen"
        once.write_text("version 1\n" + line)
        twice = tmp_path / "twice.scen"
        twice.write_text("version 1\n" + line + line)
        out = str(tmp_path / "x")
        for scens in ([once, once], [twice]):
            assert main(["bench", "--scen", *map(str, scens), "--out", out]) == 3
            assert "open.map:5,20->25,20 appears twice" in capsys.readouterr().err
        assert not (tmp_path / "x.records.jsonl").exists()

    def test_nothing_runnable_exit_three(self, tmp_path, capsys):
        orphan = tmp_path / "orphan.scen"
        orphan.write_text("version 1\n0\tghost.map\t8\t8\t0\t0\t5\t5\t5\n")
        code = main(["bench", "--scen", str(orphan), "--maps-dir", str(tmp_path),
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_non_utf8_files_exit_three(self, tmp_path, capsys):
        scens = write_bench_inputs(tmp_path, seeds=(25,), count=2)
        bad_scen = tmp_path / "bad.scen"
        bad_scen.write_bytes(scens[0].read_bytes().replace(b"m25", b"m\xe9"))
        code = main(["bench", "--scen", str(bad_scen), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "UTF-8" in capsys.readouterr().err
        # An undecodable map fails its scenario set, as an unparsable one does.
        map_path = tmp_path / "m25.map"
        map_path.write_bytes(map_path.read_bytes() + b"\xff\n")
        code = main(["bench", "--scen", str(scens[0]), "--out", str(tmp_path / "y")])
        assert code == 3
        assert "bad map file" in capsys.readouterr().err

    def test_non_utf8_configs_exit_three(self, tmp_path, capsys):
        scens = write_bench_inputs(tmp_path, seeds=(25,), count=2)
        bad = tmp_path / "c.json"
        bad.write_bytes(b'[{"mode": "lian", "label": "\xff"}]')
        code = main([
            "bench", "--scen", str(scens[0]), "--maps-dir", str(tmp_path),
            "--configs", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text,fragment", [
        ("[" * 200000 + "]" * 200000, "nested too deeply"),  # RecursionError
        ('[{"mode": "lian", "delta_max": ' + "9" * 5000 + "}]", "digits"),  # int() refuses it
        ('[{"mode": "lian",}]', "Expecting"),
    ])
    def test_unparsable_configs_exit_three(self, tmp_path, capsys, text, fragment):
        # json.loads raises RecursionError and plain ValueError as well as
        # JSONDecodeError; each is a bad config file, not a crash.
        scens = write_bench_inputs(tmp_path, seeds=(25,), count=2)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main([
            "bench", "--scen", str(scens[0]), "--maps-dir", str(tmp_path),
            "--configs", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and fragment in err

    def test_bad_configs_exit_three(self, tmp_path):
        scens = write_bench_inputs(tmp_path, seeds=(25,), count=2)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"mode": "lian", "delta_max": 8, "bogus": 1}]))
        code = main([
            "bench", "--scen", str(scens[0]), "--maps-dir", str(tmp_path),
            "--configs", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_infinite_delta_config_exits_three_quickly(self, tmp_path):
        # JSON parses 1e400 as inf; the delta ladder used to grow without end.
        scens = write_bench_inputs(tmp_path, seeds=(25,), count=2)
        bad = tmp_path / "inf.json"
        bad.write_text('[{"mode": "lian", "delta_max": 1e400, "alpha_max": 25}]')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "anglepath.cli", "bench", "--scen", str(scens[0]),
             "--maps-dir", str(tmp_path), "--configs", str(bad), "--out", str(tmp_path / "x")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "delta_max" in proc.stderr
        assert time.perf_counter() - t0 < 20


# Small input files for the whole-CLI property test: valid, malformed and
# non-UTF-8 ones, by name. The test also names missing files ("nope.*") and
# passes a scenario file more than once.
CLI_FILES = {
    "open.map": b"type octile\nheight 8\nwidth 8\nmap\n" + b"........\n" * 8,
    "ascii.map": b"......\n.#....\n......\n....#.\n",
    "walled.map": b"......\n...###\n...#..\n...###\n",  # (5, 2) is walled in
    "bad.map": b"type octile\nheight 3\nwidth 9\nmap\n...\n",
    "latin1.map": b"type octile\nheight 1\nwidth 2\nmap\n.\xe9\n",
    "ok.scen": b"version 1\n0\topen.map\t8\t8\t1\t1\t6\t6\t7.1\n"
               b"0\topen.map\t8\t8\t0\t7\t7\t0\t9.9\n",
    "ascii.scen": b"version 1\n0\tascii.map\t6\t4\t1\t1\t5\t3\t5\n"
                  b"0\tascii.map\t6\t4\t0\t0\t5\t0\t5\n",
    "ghost.scen": b"version 1\n0\tghost.map\t8\t8\t0\t0\t5\t5\t7.1\n",
    "bad.scen": b"version 2\n0\topen.map\n",
    "latin1.scen": b"version 1\n0\topen\xff.map\t8\t8\t0\t0\t5\t5\t7.1\n",
    "ok.json": json.dumps([
        {"mode": "lian", "delta_max": 3, "alpha_max": 45},
        {"mode": "elian", "delta_max": 4, "delta_min": 2, "alpha_max": 45},
    ]).encode(),
    "same-row.json": json.dumps([
        {"mode": "lian", "delta_max": 3, "weight": 1},
        {"mode": "lian", "delta_max": 3, "weight": 2},
    ]).encode(),
    "bad.json": b'[{"mode": "lian",',
    "keys.json": b'[{"bogus": 1}]',
    "empty.json": b"[]",
    "latin1.json": b'[{"mode": "lian", "label": "\xff"}]',
}
NUMBERS = ("1", "2.5", "4", "45", "180", "1e300")
BAD_NUMBERS = ("0", "-1", "0.5", "0.99", "1e400", "nan", "inf", "x")
CELLS = ("0,0", "5,2", "2,3", "1,1", "6,6")
BAD_CELLS = ("99,1", "-1,0", "1", "a,b", "1,1,1")


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name, data in CLI_FILES.items():
        (root / name).write_bytes(data)
    return root


def flag_values(flags):
    """A strategy for some of ``flags`` (name -> value strategy), flattened."""
    names = st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)
    return names.flatmap(lambda chosen: st.tuples(*(flags[n] for n in chosen)).map(
        lambda values: [part for n, v in zip(chosen, values) for part in (n, v)]))


def config_texts(numbers):
    """A strategy for ``plan --config`` texts, valid and not."""
    keys = st.sampled_from([f.name for f in fields(PlannerConfig)] + ["bogus"])
    values = st.one_of(numbers, st.sampled_from(['"lian"', '"elian"', '"x"']))
    objects = st.lists(st.tuples(keys, values), max_size=3).map(
        lambda items: "{" + ", ".join(f'"{k}": {v}' for k, v in items) + "}")
    return st.one_of(objects, st.sampled_from(
        ["[1]", '{"mode": "lian",', "NaN", '{"delta_max": NaN}', "[" * 100000]))


def cli_argv(path):
    """A strategy for argv: a command and drawn flags, files named by ``path``."""
    maps = st.one_of(st.sampled_from(["open.map", "ascii.map", "walled.map"]),
                     st.sampled_from(["bad.map", "latin1.map", "nope.map"]))
    scens = st.sampled_from([n for n in CLI_FILES if n.endswith(".scen")] + ["nope.scen"])
    jsons = st.sampled_from([n for n in CLI_FILES if n.endswith(".json")] + ["nope.json"])
    numbers = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(BAD_NUMBERS))
    cells = st.one_of(st.sampled_from(CELLS), st.sampled_from(BAD_CELLS))
    plan_flags = {
        "--config": config_texts(numbers),
        "--svg": st.sampled_from(["out.svg", "no-dir/out.svg"]).map(path),
    }
    bench_flags = {
        "--maps-dir": st.sampled_from([".", "no-dir"]).map(path),
        "--configs": jsons.map(path),
        # No value above 1: each example starts no worker process.
        "--jobs": st.sampled_from(["1", "0", "-3", "x"]),
        "--format": st.sampled_from(["csv", "json", "xml"]),
        "--baseline": st.sampled_from(["lian-3", "elian-4-2", "lian-20", "nope"]),
    }
    plan = st.tuples(maps.map(path), cells, cells, flag_values(plan_flags)).map(
        lambda t: ["plan", "--map", t[0], "--start", t[1], "--goal", t[2], *t[3]])
    bench = st.tuples(
        st.lists(scens.map(path), min_size=1, max_size=3),  # may repeat a file
        flag_values(bench_flags),
        st.sampled_from(["o", "no-dir/o"]).map(path),
    ).map(lambda t: ["bench", "--scen", *t[0], *t[1], "--out", t[2]])
    other = st.lists(st.sampled_from(["plan", "bench", "--help", "--bogus", "x"]), max_size=3)
    return st.one_of(plan, bench, other)


class TestInternalErrors:
    """A failure of the program, not of its input, ends in one line and exit 4."""

    @staticmethod
    def bench(tmp_path, capsys, jobs):
        scens = write_bench_inputs(tmp_path, seeds=(21,), size=32, count=2)
        code = main(["bench", "--scen", str(scens[0]), "--jobs", str(jobs),
                     "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        return code, err

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_dead_worker(self, jobs, tmp_path, capsys, monkeypatch):
        # A worker's death raises ChildProcessError, an OSError, which is
        # no input error; a forked worker inherits the patch.
        from anglepath import harness

        monkeypatch.setattr(harness, "_run_task", lambda grid, scen, cfg: os._exit(7))
        code, err = self.bench(tmp_path, capsys, jobs)
        assert code == 4
        assert err == "internal error: ChildProcessError: a batch worker exited with code 7\n"

    def test_child_process_error_at_one_job(self, tmp_path, capsys, monkeypatch):
        # At jobs=1 no worker can die, but the same error from a task is
        # still the program's.
        from anglepath import harness

        def lost(*args):
            raise ChildProcessError("a helper exited with code 7")

        monkeypatch.setattr(harness, "search", lost)
        code, err = self.bench(tmp_path, capsys, 1)
        assert code == 4
        assert err == "internal error: ChildProcessError: a helper exited with code 7\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_search_that_raises(self, jobs, tmp_path, capsys, monkeypatch):
        from anglepath import harness

        def endless(*args):
            return endless(*args)

        monkeypatch.setattr(harness, "search", endless)
        code, err = self.bench(tmp_path, capsys, jobs)
        assert code == 4
        assert err.startswith("internal error: RecursionError: maximum recursion depth exceeded")
        assert err.count("\n") == 1


class TestWholeCli:
    @settings(max_examples=300)
    @given(data=st.data(), old_records=st.booleans())
    def test_any_argv_ends_in_an_exit_code(self, cli_dir, data, old_records):
        argv = data.draw(cli_argv(lambda name: str(cli_dir / name)))
        for prefix in ("o", "no-dir/o"):
            for leftover in cli_dir.glob(f"{prefix}.*"):
                leftover.unlink()
        records = cli_dir / "o.records.jsonl"
        if old_records:
            records.write_bytes(b"old\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"{argv[0] if argv else 'no command'}: exit {code}")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if code == 3 and old_records:
            assert records.read_bytes() == b"old\n", argv
