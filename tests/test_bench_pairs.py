"""The pure functions of tools/bench_pairs.py, on run lists built by hand."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "searches_per_s", "unit": "1/s", "better": "higher"}
LOWER = {"name": "search_ms_p50", "unit": "ms", "better": "lower"}
PARENT = [100.0 + i for i in range(10)]  # inclusive quartiles 102.25 and 106.75


def results(metric, parent, change):
    """compare()'s input: one result per run, each carrying only ``metric``."""
    return {side: [{"metrics": {metric["name"]: {"value": v}}} for v in runs]
            for side, runs in (("parent", parent), ("change", change))}


def verdict(metric, parent, change):
    compared = bench_pairs.compare([metric], results(metric, parent, change))
    doc = {"workloads": {"w": {"pairs": len(parent), "metrics": compared}}}
    return bench_pairs.judge(doc, f"w:{metric['name']}")


class TestSpec:
    def test_parses_workload_seed_and_pairs(self):
        assert bench_pairs._spec("narrow-long:191:10") == ("narrow-long", 191, 10)
        assert bench_pairs._spec("a:b:-3:2") == ("a:b", -3, 2)

    @pytest.mark.parametrize("text", [
        "narrow-long", "narrow-long:191", "narrow-long:x:10", "narrow-long:191:ten",
        "narrow-long:1.5:10", "",
    ])
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD:FIRST_SEED:PAIRS"):
            bench_pairs._spec(text)

    @pytest.mark.parametrize("pairs", [1, 0, -4])
    def test_rejects_fewer_than_two_pairs(self, pairs):
        with pytest.raises(argparse.ArgumentTypeError, match="at least 2"):
            bench_pairs._spec(f"wide-short:201:{pairs}")


class TestSummary:
    def test_inclusive_quartiles(self):
        # The exclusive method would give 12.5 and 37.5.
        assert bench_pairs.summary([40.0, 10.0, 30.0, 20.0]) == {
            "median": 25.0, "q1": 17.5, "q3": 32.5, "runs": [40.0, 10.0, 30.0, 20.0]}
        five = bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0])
        assert (five["q1"], five["median"], five["q3"]) == (2.0, 3.0, 4.0)

    def test_two_runs_and_rounding(self):
        assert bench_pairs.summary([1.0, 2.0]) == {
            "median": 1.5, "q1": 1.25, "q3": 1.75, "runs": [1.0, 2.0]}
        third = bench_pairs.summary([1 / 3, 2 / 3])
        assert third["runs"] == [0.33333, 0.66667] and third["median"] == 0.5


class TestCompare:
    def test_counts_pairs_for_a_higher_metric(self):
        change = [v + 1 for v in PARENT[:7]] + [PARENT[7], PARENT[8] - 1, PARENT[9] - 2]
        [entry] = bench_pairs.compare([HIGHER], results(HIGHER, PARENT, change)).values()
        assert (entry["pairs_won"], entry["pairs_lost"]) == (7, 2)  # one tie
        assert entry["before"] == bench_pairs.summary(PARENT)
        assert entry["after"] == bench_pairs.summary(change)
        assert entry["change"] == round(entry["after"]["median"] / 104.5 - 1, 6)
        assert (entry["unit"], entry["better"]) == ("1/s", "higher")

    def test_counts_pairs_for_a_lower_metric(self):
        # Lower reads better: the seven smaller values win.
        change = [v - 1 for v in PARENT[:7]] + [PARENT[7], PARENT[8] + 1, PARENT[9] + 2]
        [entry] = bench_pairs.compare([LOWER], results(LOWER, PARENT, change)).values()
        assert (entry["pairs_won"], entry["pairs_lost"]) == (7, 2)
        assert entry["change"] < 0

    def test_zero_parent_median_has_no_change(self):
        [entry] = bench_pairs.compare([LOWER], results(LOWER, [0.0, 0.0], [1.0, 0.0])).values()
        assert entry["change"] is None and (entry["pairs_won"], entry["pairs_lost"]) == (0, 1)


class TestJudge:
    def test_holds_with_all_pairs_and_a_gain_above_the_iqr(self):
        claim = verdict(HIGHER, PARENT, [v + 5 for v in PARENT])  # gain 5 > IQR 4.5
        assert claim["held"] and "better in 10 of 10 pairs" in claim["result"]
        assert "is above the parent's interquartile range (4.5)" in claim["result"]

    def test_holds_with_nine_pairs_of_ten(self):
        change = [v + 10 for v in PARENT[:9]] + [PARENT[9] - 1]
        assert verdict(HIGHER, PARENT, change)["held"]

    def test_fails_with_eight_pairs_of_ten(self):
        change = [v + 10 for v in PARENT[:8]] + [PARENT[8] - 1, PARENT[9] - 1]
        claim = verdict(HIGHER, PARENT, change)
        assert not claim["held"] and "better in 8 of 10 pairs" in claim["result"]

    def test_fails_with_a_gain_inside_the_iqr(self):
        claim = verdict(HIGHER, PARENT, [v + 4 for v in PARENT])  # gain 4 <= IQR 4.5
        assert not claim["held"] and "not above" in claim["result"]
        assert not verdict(HIGHER, PARENT, [v + 4.5 for v in PARENT])["held"]

    def test_lower_metric_gains_by_falling(self):
        assert verdict(LOWER, PARENT, [v - 5 for v in PARENT])["held"]
        assert not verdict(LOWER, PARENT, [v + 5 for v in PARENT])["held"]
        assert not verdict(LOWER, PARENT, [v - 4 for v in PARENT])["held"]


class TestBenchWorkload:
    @staticmethod
    def fake_run(digests):
        """run_once() stand-in: each side its own source digest, and at each
        seed the records digest ``digests[side](seed)``."""
        def run_once(checkout, workload, seed, seconds):
            side = str(checkout)
            return {"failed": 0, "attempted": 3,
                    "metrics": {"searches_per_s": {"value": 10.0 + seed}},
                    "environment": {"src_sha256": f"src-{side}",
                                    "records_sha256": digests[side](seed)}}
        return run_once

    def run(self, monkeypatch, digests):
        monkeypatch.setattr(bench_pairs, "run_once", self.fake_run(digests))
        checkouts = {side: Path(side) for side in bench_pairs.SIDES}
        return bench_pairs.bench_workload(checkouts, [HIGHER], "w", 7, 3, 1.0)

    def test_checks_hold_each_seeds_records_digest(self, monkeypatch):
        same = {side: lambda seed: f"records-{seed}" for side in bench_pairs.SIDES}
        entry, _ = self.run(monkeypatch, same)
        assert entry["seeds"] == [7, 8, 9]
        assert entry["checks"]["records_sha256"] == ["records-7", "records-8", "records-9"]
        assert entry["checks"]["records_equal"] and entry["checks"]["failed"] == 0
        assert (entry["checks"]["src_sha256_parent"], entry["checks"]["src_sha256_change"]) == (
            "src-parent", "src-change")

    def test_differing_records_stop_the_tool(self, monkeypatch):
        digests = {"parent": lambda seed: f"records-{seed}",
                   "change": lambda seed: f"records-{seed}" if seed < 8 else "other"}
        with pytest.raises(SystemExit, match="w seed 8: records differ"):
            self.run(monkeypatch, digests)
