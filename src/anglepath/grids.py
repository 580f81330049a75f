"""Occupancy grids and MovingAI map/scenario ingestion.

Coordinates are (col, row) with row 0 at the top of the file, matching the
conventions of MovingAI ``.scen`` files, so published scenario coordinates
work unmodified. The agent occupies cell centers.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Cell = tuple[int, int]  # (col, row)

# Ground-agent terrain convention: trees and water block, swamp is passable.
PASSABLE_CHARS = frozenset(".GS")
BLOCKED_CHARS = frozenset("@OTW")


class ParseError(ValueError):
    """Malformed map or scenario input; message names the offending line."""


class InputError(ValueError):
    """Invalid planning input (bad start/goal, inconsistent config)."""


# Free-run table entries saturate here so that each fits in one byte.
MAX_RUN = 255


def _free_runs(blocked: np.ndarray) -> np.ndarray:
    """Per cell, the count of consecutive free cells from it along axis 1.

    A blocked cell counts 0. Counts stop at the end of the row and saturate
    at MAX_RUN.
    """
    width = blocked.shape[1]
    cols = np.arange(width, dtype=np.int32)
    # Column of the first blocked cell at or after each cell (width if none).
    stops = np.where(blocked, cols, np.int32(width))
    next_stop = np.minimum.accumulate(stops[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(next_stop - cols, MAX_RUN).astype(np.uint8)


class Grid:
    """Occupancy map of blocked and unblocked cells, fixed once built.

    Besides the boolean matrix it carries row-major byte tables for the
    search hot loop: ``free_right`` / ``free_down`` hold the number of
    consecutive free cells starting at each cell going right / down, capped
    at MAX_RUN. A run of n cells starting at flat index i is free iff
    ``free_right[i] >= n`` (``free_down[i] >= n`` for a column run), for
    n <= MAX_RUN, and a cell is blocked iff its ``free_right`` entry is 0.

    ``circle_tables`` holds the planner's delta-circle rings on this grid,
    one per radius; planner.Search's docstring gives their layout. It is
    derived data: pickling drops it and searches on the unpickled grid fill
    it again as they go.
    """

    __slots__ = (
        "width", "height", "blocked", "free_right", "free_down", "circle_tables",
    )

    def __init__(self, blocked: np.ndarray):
        blocked = np.asarray(blocked, dtype=bool)
        if blocked.ndim != 2 or blocked.size == 0:
            raise ValueError("blocked must be a nonempty 2-D boolean matrix")
        blocked = blocked.copy()
        blocked.flags.writeable = False
        self.height, self.width = blocked.shape
        self.blocked = blocked
        self.free_right = _free_runs(blocked).tobytes()
        self.free_down = _free_runs(np.ascontiguousarray(blocked.T)).T.tobytes()
        self.circle_tables: dict[int, tuple] = {}

    def __reduce__(self):
        # Rebuild through __init__: numpy unpickles arrays writeable, and the
        # byte tables must be derived from the matrix the grid ends up with.
        return Grid, (self.blocked,)

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height

    def blocked_at(self, col: int, row: int) -> bool:
        return not self.free_right[row * self.width + col]


@dataclass(frozen=True)
class Instance:
    """One start/goal task bound to a named map."""

    map_id: str
    start: Cell
    goal: Cell
    bucket: int | None = None
    reference_length: float | None = None

    @property
    def instance_id(self) -> str:
        s, g = self.start, self.goal
        return f"{self.map_id}:{s[0]},{s[1]}->{g[0]},{g[1]}"


@dataclass(frozen=True)
class ScenarioSet:
    map_id: str
    instances: tuple[Instance, ...]


def _as_text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    return data


def _decode_rows(rows: list[tuple[int, str]], width: int, blocked_chars, passable_chars) -> Grid:
    """The Grid of ``rows``, (line number, row text) pairs of terrain characters.

    Every row must hold ``width`` characters, each in ``blocked_chars`` or
    ``passable_chars`` (ASCII characters both); errors name the row's line
    and, for an unknown character, the first in row-major order.
    """
    for line, row in rows:
        if len(row) != width:
            raise ParseError(f"line {line}: row length {len(row)} != width {width}")
    # Allocated only once every row matched the width, however large.
    text = "".join(row for _, row in rows)
    if text.isascii():
        kinds = np.zeros(128, dtype=np.uint8)  # 0 unknown, 1 passable, 2 blocked
        kinds[[ord(ch) for ch in passable_chars]] = 1
        kinds[[ord(ch) for ch in blocked_chars]] = 2
        cells = kinds[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
        if cells.all():
            return Grid((cells == 2).reshape(len(rows), width))
    # Some character is unknown: a non-ASCII one, or one the table marked 0.
    for line, row in rows:
        for ch in row:
            if ch not in blocked_chars and ch not in passable_chars:
                raise ParseError(f"line {line}: unknown terrain character {ch!r}")


def parse_map(data: str | bytes) -> Grid:
    """Parse a MovingAI ``.map`` file into a Grid.

    Header must provide ``type``, ``height H`` and ``width W`` lines followed
    by a ``map`` line and exactly H rows of W terrain characters.
    """
    lines = _as_text(data).splitlines()
    height = width = None
    body_start = None
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0].lower()
        if key == "map":
            body_start = idx + 1
            break
        if key == "type":
            if len(fields) != 2:
                raise ParseError(f"line {idx + 1}: malformed type header: {raw!r}")
        elif key in ("height", "width"):
            # isdigit() alone admits characters int() refuses, such as '²',
            # and int() refuses more than 4,300 digits.
            size = 0
            if len(fields) == 2 and fields[1].isascii() and fields[1].isdigit():
                with contextlib.suppress(ValueError):
                    size = int(fields[1])
            if size <= 0:
                raise ParseError(f"line {idx + 1}: malformed {key} header: {raw!r}")
            if key == "height":
                height = size
            else:
                width = size
        else:
            raise ParseError(f"line {idx + 1}: unexpected header line: {raw!r}")
    if body_start is None:
        raise ParseError("missing 'map' header line")
    if height is None or width is None:
        raise ParseError(f"line {body_start}: header lacks height or width")

    rows = [(body_start + i + 1, raw) for i, raw in enumerate(lines[body_start:]) if raw.strip()]
    if len(rows) != height:
        raise ParseError(
            f"line {body_start + 1}: expected {height} map rows, found {len(rows)}"
        )
    return _decode_rows(rows, width, BLOCKED_CHARS, PASSABLE_CHARS)


def parse_ascii_map(data: str | bytes) -> Grid:
    """Parse the minimal test format: ``#`` blocked, ``.`` free, no header."""
    lines = _as_text(data).splitlines()
    rows = [(i + 1, raw.strip()) for i, raw in enumerate(lines) if raw.strip()]
    if not rows:
        raise ParseError("empty map")
    return _decode_rows(rows, len(rows[0][1]), "#", ".")


def load_map(path: str | Path) -> Grid:
    """Load a map file, auto-detecting MovingAI vs minimal ASCII format."""
    text = _as_text(Path(path).read_bytes())
    if text.lstrip().lower().startswith("type"):
        return parse_map(text)
    return parse_ascii_map(text)


def parse_scen(data: str | bytes) -> ScenarioSet:
    """Parse a MovingAI ``.scen`` file (version 1, 9 tab-separated fields)."""
    lines = _as_text(data).splitlines()
    version_seen = False
    map_id: str | None = None
    instances: list[Instance] = []
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if not version_seen:
            fields = line.split()
            if len(fields) != 2 or fields[0].lower() != "version" or fields[1] != "1":
                raise ParseError(f"line {idx + 1}: expected 'version 1', got {raw!r}")
            version_seen = True
            continue
        fields = line.split()
        if len(fields) != 9:
            raise ParseError(f"line {idx + 1}: expected 9 fields, found {len(fields)}")
        try:
            bucket = int(fields[0])
            width, height = int(fields[2]), int(fields[3])
            scol, srow = int(fields[4]), int(fields[5])
            gcol, grow = int(fields[6]), int(fields[7])
            ref_len = float(fields[8])
        except ValueError:
            raise ParseError(f"line {idx + 1}: non-numeric field in {raw!r}") from None
        if not (math.isfinite(ref_len) and ref_len >= 0):
            raise ParseError(
                f"line {idx + 1}: reference length must be finite and >= 0, got {fields[8]!r}"
            )
        name = fields[1]
        if map_id is None:
            map_id = name
        elif name != map_id:
            raise ParseError(
                f"line {idx + 1}: map {name!r} differs from {map_id!r}; "
                "one scenario set per map"
            )
        for label, col, row in (("start", scol, srow), ("goal", gcol, grow)):
            if not (0 <= col < width and 0 <= row < height):
                raise ParseError(
                    f"line {idx + 1}: {label} ({col},{row}) outside declared "
                    f"{width}x{height} map"
                )
        instances.append(
            Instance(
                map_id=name,
                start=(scol, srow),
                goal=(gcol, grow),
                bucket=bucket,
                reference_length=ref_len,
            )
        )
    if not version_seen:
        raise ParseError("missing 'version 1' header")
    return ScenarioSet(map_id=map_id or "", instances=tuple(instances))


def load_scen(path: str | Path) -> ScenarioSet:
    return parse_scen(Path(path).read_bytes())

