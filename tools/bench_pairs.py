"""Run alternating pairs of perfbench/run.py in a parent and a changed checkout.

    python tools/bench_pairs.py --out BENCH_19.json --title "..." \\
        --claim narrow-long:searches_per_s \\
        narrow-long:191:10 wide-short:201:4 bench-cli-jobs2:211:4

Each ``WORKLOAD:FIRST_SEED:PAIRS`` spec runs PAIRS pairs at seeds FIRST_SEED,
FIRST_SEED + 1, ...; a pair runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, T being
BENCHMARK.json's ``run_seconds``, the parent first on even pairs. The
parent is ``--parent-rev`` (default HEAD), exported by ``git archive`` into
a temporary directory, which leaves the repository's own state alone; the
change is this checkout, uncommitted edits included.

A run whose last line says ``correct: false``, whose records digest
differs from the other side's at the same seed, or whose ``src/anglepath``
digest (perfbench's ``src_sha256``) equals the other side's, stops the tool
with exit 1: the last means both sides run the same code, as they do when
the change is committed and ``--parent-rev`` is left at HEAD.
The output file holds, per workload, each run's end-to-end metrics (as
BENCHMARK.json lists them) and, per metric, the median and quartiles
(inclusive method) of each side, the relative change of the medians and
the pairs the change won and lost, each side's source digest and the
records digest of each seed; it is written again after each workload. ``--claim
WORKLOAD:METRIC`` adds whether that metric's gain holds: the change won at
least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. SIGTERM stops
the tool as an exception does: the running perfbench child is killed and
the exported parent removed. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _spec(text: str) -> tuple[str, int, int]:
    try:
        workload, first, pairs = text.rsplit(":", 2)
        first_seed, count = int(first), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST_SEED:PAIRS, got {text!r}")
    if count < 2:  # quartiles need two runs a side
        raise argparse.ArgumentTypeError(f"PAIRS must be at least 2, got {count}")
    return workload, first_seed, count


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=_spec, metavar="WORKLOAD:FIRST_SEED:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="", help="what the change does, for the output")
    parser.add_argument("--parent-rev", default="HEAD")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    return parser.parse_args(argv)


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line plus its environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"{checkout}: {workload} seed {seed} reports correct: false:\n"
                         f"{proc.stderr}")
    for line in lines:
        if line.startswith("environment: "):
            result["environment"] = json.loads(line[len("environment: "):])
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "runs": [round(v, 5) for v in runs]}


def compare(metrics: list[dict], results: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric: both sides' runs, summaries, change and wins."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        before, after = summary(sides["parent"]), summary(sides["change"])
        won = sum((a > b) if higher else (a < b) for b, a in zip(*sides.values()))
        lost = sum((a < b) if higher else (a > b) for b, a in zip(*sides.values()))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "before": before, "after": after,
            "change": round(after["median"] / before["median"] - 1, 6) if before["median"] else None,
            "pairs_won": won, "pairs_lost": lost,
        }
    return out


def judge(doc: dict, claim: str) -> dict:
    """Whether the claimed metric's gain holds on the runs in ``doc``."""
    workload, metric = claim.split(":", 1)
    entry = doc["workloads"][workload]
    m = entry["metrics"][metric]
    before, after = m["before"], m["after"]
    gain = after["median"] - before["median"]
    if m["better"] == "lower":
        gain = -gain
    iqr = before["q3"] - before["q1"]
    held = m["pairs_won"] >= 0.9 * entry["pairs"] and gain > iqr
    return {
        "workload": workload,
        "metric": metric,
        "result": (f"{m['change']:+.1%} ({before['median']} -> {after['median']} {m['unit']}),"
                   f" better in {m['pairs_won']} of {entry['pairs']} pairs; the gain in the"
                   f" median ({gain:.5g}) is {'above' if gain > iqr else 'not above'} the"
                   f" parent's interquartile range ({iqr:.5g})"),
        "held": held,
    }


def bench_workload(checkouts: dict[str, Path], metrics: list[dict], workload: str,
                   first_seed: int, pairs: int, seconds: float) -> tuple[dict, dict]:
    seeds = list(range(first_seed, first_seed + pairs))
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first_side = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            results[side].append(run_once(checkouts[side], workload, seed, seconds))
        envs = {side: results[side][-1]["environment"] for side in SIDES}
        if envs["parent"]["src_sha256"] == envs["change"]["src_sha256"]:
            raise SystemExit(f"{workload} seed {seed}: both sides run the same src/anglepath"
                             f" ({envs['change']['src_sha256']}); is --parent-rev the change?")
        if envs["parent"]["records_sha256"] != envs["change"]["records_sha256"]:
            raise SystemExit(f"{workload} seed {seed}: records differ")
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {results[side][-1]['metrics']['searches_per_s']['value']:.2f}/s"
            for side in SIDES), file=sys.stderr, flush=True)
    entry = {
        "seeds": seeds,
        "pairs": pairs,
        "trace": 0,
        "first_side": first_side,
        "checks": {
            "correct": True,
            "failed": sum(r["failed"] for side in SIDES for r in results[side]),
            "records_equal": True,
            # Equal on both sides at each seed, checked above: one list serves.
            "records_sha256": [r["environment"]["records_sha256"] for r in results["change"]],
            **{f"src_sha256_{side}": results[side][-1]["environment"]["src_sha256"]
               for side in SIDES},
            **{f"attempted_{side}": [r["attempted"] for r in results[side]] for side in SIDES},
        },
        "metrics": compare(metrics, results),
    }
    return entry, results["change"][-1]["environment"]


def save(doc: dict, path: Path) -> None:
    order = ("change", "parent_commit", "protocol", "environment", "claim", "workloads")
    ordered = {key: doc[key] for key in order if key in doc}
    path.write_text(json.dumps({**ordered, **doc}, indent=1) + "\n")


def main(argv=None) -> int:
    # subprocess.run kills its child on any exception, and the with block
    # below removes the export; SIGTERM's default would skip both.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    doc: dict = {"workloads": {}}
    if args.title:
        doc["change"] = args.title
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        doc["parent_commit"] = export(args.parent_rev, Path(parent))
        doc["protocol"] = (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
            " --trace 0, run from a checkout of the parent and of the change by"
            " tools/bench_pairs.py; pairs alternate which side runs first (parent first"
            " on even pairs); median and quartiles (inclusive method) over the runs of"
            " each side; pairs_won counts pairs where the change reads better,"
            " pairs_lost where it reads worse")
        for workload, first_seed, pairs in args.specs:
            doc["workloads"][workload], env = bench_workload(
                {"parent": Path(parent), "change": ROOT}, metrics, workload, first_seed,
                pairs, seconds)
            doc["environment"] = {key: env.get(key)
                                  for key in ("python", "numpy", "nproc", "cpu")}
            save(doc, args.out)
    if args.claim:
        doc["claim"] = judge(doc, args.claim)
        save(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
