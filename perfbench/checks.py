"""Output checks: path validity and record fingerprints.

A record's fingerprint ignores ``runtime_s``, the one field that may differ
between two runs of the same code. ``fingerprints.json`` stores, for each
fingerprint group and each generated map file, the digest of all records on
that map; every symmetry of every pool map is stored, so any seed is
checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from anglepath import Grid, Instance, Verdict, validate_path

FINGERPRINTS_PATH = Path(__file__).with_name("fingerprints.json")


def stripped(record) -> dict:
    data = record.to_dict()
    del data["runtime_s"]
    return data


def canonical_lines(records) -> list[str]:
    """Runtime-stripped records as sorted JSON lines."""
    return sorted(json.dumps(stripped(r), sort_keys=True) for r in records)


def digest(records) -> str:
    """Order-independent digest of runtime-stripped records."""
    return hashlib.sha256("\n".join(canonical_lines(records)).encode()).hexdigest()


def map_id_of(record) -> str:
    return record.instance_id.rsplit(":", 1)[0]


def digests_by_map(records) -> dict[str, str]:
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(map_id_of(record), []).append(record)
    return {map_id: digest(group)[:16] for map_id, group in sorted(groups.items())}


def load_fingerprints() -> dict:
    if not FINGERPRINTS_PATH.is_file():
        return {}
    return json.loads(FINGERPRINTS_PATH.read_text())


def fingerprint_mismatches(records, group: str, table: dict) -> list[str]:
    """Maps whose records differ from the stored digests of ``group``."""
    expected = table.get(group, {})
    return [
        f"{map_id}: records digest {got} != stored {expected.get(map_id)}"
        for map_id, got in digests_by_map(records).items()
        if expected.get(map_id) != got
    ]


def record_problem(
    record, grids: dict[str, Grid], instances: dict[str, Instance]
) -> str | None:
    """Why a record counts as a failed search, or None if it does not.

    A search fails when it timed out, or when it reports FOUND with a path
    that does not join start to goal or that ``validate_path`` rejects.
    """
    if record.verdict is Verdict.TIMEOUT:
        return f"{record.instance_id} {record.algorithm}: timed out"
    if record.verdict is not Verdict.FOUND:
        return None
    path = list(record.path or ())
    instance = instances[record.instance_id]
    if len(path) < 2 or path[0] != instance.start or path[-1] != instance.goal:
        return f"{record.instance_id} {record.algorithm}: path does not join start to goal"
    grid = grids[map_id_of(record)]
    if not all(grid.in_bounds(col, row) for col, row in path):
        return f"{record.instance_id} {record.algorithm}: path leaves the map"
    try:
        violation = validate_path(grid, path, record.config["alpha_max"])
    except ValueError as exc:
        return f"{record.instance_id} {record.algorithm}: invalid path: {exc}"
    if violation is not None:
        return f"{record.instance_id} {record.algorithm}: {violation.message}"
    return None
