#!/usr/bin/env python3
"""Rewrite ``fingerprints.json`` from the current program.

    python3 perfbench/record_fingerprints.py

Runs every search of every pool map under all eight symmetries (a few
minutes) and stores the digest of each map's runtime-stripped records. Run it
only when a change alters search results on purpose, and say so in that
change: the digests are what makes such a change visible.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from anglepath import Grid  # noqa: E402
from anglepath.harness import run_instance  # noqa: E402

import checks  # noqa: E402
from workloads import SMOKE_WORKLOADS, SYMMETRIES, WORKLOADS, pool_map  # noqa: E402


def main() -> int:
    table: dict[str, dict[str, str]] = {}
    for workload in [*WORKLOADS.values(), *SMOKE_WORKLOADS.values()]:
        if workload.fingerprint_group in table:
            continue
        group = table[workload.fingerprint_group] = {}
        for map_seed in workload.map_seeds:
            for sym in range(SYMMETRIES):
                map_id, blocked, instances = pool_map(workload, map_seed, sym)
                grid = Grid(blocked)
                records = [
                    run_instance(grid, inst, cfg) for inst in instances for cfg in workload.configs
                ]
                group.update(checks.digests_by_map(records))
                print(workload.fingerprint_group, map_id, group[map_id], flush=True)
    checks.FINGERPRINTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
