import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapgen
from anglepath import (
    ParseError,
    load_map,
    load_scen,
    parse_ascii_map,
    parse_map,
    parse_scen,
)

SMALL_MAP = "type octile\nheight 2\nwidth 2\nmap\n.@\n..\n"


class TestParseMap:
    def test_small_map(self):
        g = parse_map(SMALL_MAP)
        assert (g.width, g.height) == (2, 2)
        assert g.blocked_at(1, 0)
        assert not g.blocked_at(0, 0)
        assert not g.blocked_at(0, 1)
        assert not g.blocked_at(1, 1)
        assert int(g.blocked.sum()) == 1

    def test_all_passable(self):
        g = parse_map("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
        assert int(g.blocked.sum()) == 0

    def test_large_map_blocked_tally(self):
        # Independent tally: count blocked characters in the file body.
        text = mapgen.to_movingai_map(mapgen.building_blocked(3, size=512))
        body = text.split("map\n", 1)[1]
        expected = sum(body.count(ch) for ch in "@OTW")
        g = parse_map(text)
        assert (g.width, g.height) == (512, 512)
        assert int(g.blocked.sum()) == expected

    def test_terrain_classification(self):
        g = parse_map("type octile\nheight 1\nwidth 7\nmap\n.GS@OTW\n")
        assert [g.blocked_at(c, 0) for c in range(7)] == [
            False, False, False, True, True, True, True,
        ]

    def test_classification_round_trip(self):
        text = mapgen.to_movingai_map(mapgen.building_blocked(9, size=48))
        g = parse_map(text)
        body = [ln for ln in text.splitlines()[4:] if ln]
        for r, line in enumerate(body):
            for c, ch in enumerate(line):
                assert g.blocked_at(c, r) == (ch in "@OTW")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("type octile\nheight 2\nwidth 2\nmap\n.@\n", "expected 2 map rows"),
            ("type octile\nheight 1\nwidth 3\nmap\n.@\n", "row length 2"),
            ("type octile\nheight 1\nwidth 2\nmap\n.z\n", "unknown terrain"),
            ("type octile\nheight 1\nmap\n..\n", "lacks height or width"),
            ("type octile\nheight x\nwidth 2\nmap\n..\n", "malformed height"),
            ("type octile\nheight \u00b2\nwidth 2\nmap\n..\n", "malformed height"),
            ("type octile\nheight 1\nwidth 10000000000000000\nmap\n..\n", "row length 2"),
            ("bogus 1\nheight 1\nwidth 2\nmap\n..\n", "unexpected header"),
            ("type octile\nheight 1\nwidth 2\n..\n", "unexpected header"),
        ],
    )
    def test_errors_name_lines(self, text, fragment):
        with pytest.raises(ParseError, match="line \\d+") as err:
            parse_map(text)
        assert fragment in str(err.value)

    def test_missing_map_line(self):
        with pytest.raises(ParseError, match="missing 'map'"):
            parse_map("type octile\nheight 1\nwidth 2\n")


class TestParseAscii:
    def test_basic(self):
        g = parse_ascii_map("..#\n.#.\n...")
        assert (g.width, g.height) == (3, 3)
        assert g.blocked_at(2, 0) and g.blocked_at(1, 1)
        assert int(g.blocked.sum()) == 2

    def test_ragged_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ascii_map("...\n..\n...")

    def test_unknown_char_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ascii_map("..x\n...\n...")

    def test_load_map_autodetect(self, tmp_path):
        movingai = tmp_path / "a.map"
        movingai.write_text(SMALL_MAP)
        ascii_path = tmp_path / "b.map"
        ascii_path.write_text("..\n#.\n")
        assert load_map(movingai).blocked_at(1, 0)
        assert load_map(ascii_path).blocked_at(0, 1)


SCEN = (
    "version 1\n"
    "0\tmaps/x.map\t512\t512\t10\t20\t30\t40\t45.5\n"
    "7\tmaps/x.map\t512\t512\t1\t2\t3\t4\t5.25\n"
)


class TestParseScen:
    def test_field_mapping(self):
        s = parse_scen(SCEN)
        assert s.map_id == "maps/x.map"
        inst = s.instances[0]
        assert inst.bucket == 0
        assert inst.start == (10, 20)
        assert inst.goal == (30, 40)
        assert inst.reference_length == 45.5
        assert s.instances[1].bucket == 7

    def test_empty_body(self):
        s = parse_scen("version 1\n")
        assert s.instances == ()

    def test_row_count_matches_line_count(self):
        blocked = mapgen.building_blocked(4, size=64)
        insts = mapgen.hard_instances(blocked, "m.map", 9, seed=5, min_dist_frac=0.5)
        text = mapgen.to_movingai_scen(insts, 64, 64)
        expected = len([ln for ln in text.splitlines()[1:] if ln.strip()])
        assert len(parse_scen(text).instances) == expected == 9

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("version 2\n", "version 1"),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\n", "expected 9 fields"),
            ("version 1\n0\tm\t8\t8\ta\t1\t2\t2\t1\n", "non-numeric"),
            ("version 1\n0\tm\t8\t8\t9\t1\t2\t2\t1\n", "outside declared"),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\t8\t1\n", "outside declared"),
            (
                "version 1\n0\ta\t8\t8\t1\t1\t2\t2\t1\n0\tb\t8\t8\t1\t1\t2\t2\t1\n",
                "one scenario set per map",
            ),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\t2\tnan\n", "reference length"),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\t2\tinf\n", "reference length"),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\t2\t-inf\n", "reference length"),
            ("version 1\n0\tm\t8\t8\t1\t1\t2\t2\t-3\n", "reference length"),
        ],
    )
    def test_errors_name_lines(self, text, fragment):
        with pytest.raises(ParseError, match="line \\d+|version") as err:
            parse_scen(text)
        assert fragment in str(err.value)


@pytest.mark.parametrize("parse,load,data", [
    (parse_map, load_map, SMALL_MAP.encode().replace(b".@", b".\xff")),
    (parse_scen, load_scen, SCEN.encode().replace(b"maps/x", b"maps/\xe9")),
])
def test_non_utf8_rejected(tmp_path, parse, load, data):
    with pytest.raises(ParseError, match="UTF-8"):
        parse(data)
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="UTF-8"):
        load(path)


def lines_of(*tokens):
    # Text built from lines that are mostly near misses of valid input.
    line = st.one_of(st.sampled_from(tokens), st.text(max_size=6), st.builds(
        " ".join, st.lists(st.one_of(st.sampled_from(tokens), st.text(max_size=4),
                                     st.integers(-2, 10**18).map(str)), max_size=9)))
    return st.one_of(st.lists(line, max_size=8).map("\n".join), st.binary(max_size=64))


@settings(max_examples=400, deadline=None)
@given(lines_of("type octile", "height", "width", "map", "2", "\u00b2", "..", ".@", "@T"))
def test_parse_map_fuzz(data):
    try:
        grid = parse_map(data)
    except ParseError:
        return
    assert grid.width * grid.height <= len(data)


@settings(max_examples=400, deadline=None)
@given(lines_of("version 1", "version", "0\tm.map\t8\t8\t1\t1\t2\t2\t1.5", "\t", "m.map",
                "1e999", "nan", "-1"))
def test_parse_scen_fuzz(data):
    try:
        scen = parse_scen(data)
    except ParseError:
        return
    for inst in scen.instances:
        assert math.isfinite(inst.reference_length) and inst.reference_length >= 0


class TestTraversable:
    """The occupancy matrix and free-run tables that decide traversability."""

    def test_grid_immutable(self):
        import numpy as np

        g = parse_ascii_map("..\n..")
        with pytest.raises(ValueError):
            g.blocked[0, 0] = True
        src = np.zeros((2, 2), dtype=bool)
        from anglepath import Grid

        g2 = Grid(src)
        src[0, 0] = True  # must not leak into the grid
        assert int(g2.blocked.sum()) == 0
        for table in (g2.free_right, g2.free_down):
            assert type(table) is bytes

    def test_grid_pickle_round_trip(self):
        # run_batch with jobs > 1 ships grids to worker processes this way.
        import pickle
        import random

        from anglepath import Grid, PlannerConfig, line_of_sight, search

        rng = random.Random(3)
        g = Grid(mapgen.building_blocked(1)[:40, :30])
        size = len(pickle.dumps(g))
        free = [(c, r) for r in range(g.height) for c in range(g.width) if not g.blocked_at(c, r)]
        pairs = [rng.sample(free, 2) for _ in range(6)]
        cfg = PlannerConfig(mode="elian", delta_max=8, delta_min=2, alpha_max=25)

        def run_all(grid):
            return [(out.verdict, out.path, out.stats.expansions)
                    for out in (search(grid, a, b, cfg) for a, b in pairs)]

        outcomes = run_all(g)
        assert sorted(g.circle_tables) == [2, 4, 8]
        # The circle-visibility memo is derived data and never travels with
        # the grid; the same searches on the copy fill the same memo.
        assert len(pickle.dumps(g)) == size
        copy = pickle.loads(pickle.dumps(g))
        assert copy.circle_tables == {}
        assert run_all(copy) == outcomes
        assert copy.circle_tables == g.circle_tables
        assert (copy.width, copy.height) == (g.width, g.height)
        assert (copy.blocked == g.blocked).all()
        with pytest.raises(ValueError):
            copy.blocked[0, 0] = False
        for name in ("free_right", "free_down"):
            assert getattr(copy, name) == getattr(g, name)
        for _ in range(300):
            a = (rng.randrange(g.width), rng.randrange(g.height))
            b = (rng.randrange(g.width), rng.randrange(g.height))
            assert line_of_sight(copy, a, b) == line_of_sight(g, a, b)

    def test_free_run_tables_count_free_cells(self):
        import random

        import numpy as np

        from anglepath import Grid
        from anglepath.grids import MAX_RUN

        rng = random.Random(11)
        shapes = [(rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(20)]
        for height, width in shapes + [(1, 300), (300, 1)]:
            blocked = np.array(
                [[rng.random() < 0.3 for _ in range(width)] for _ in range(height)]
            )
            if width == 300 or height == 300:
                blocked[:] = False
                blocked.flat[280] = True
            g = Grid(blocked)
            for row in range(height):
                for col in range(width):
                    right = down = 0
                    while col + right < width and not blocked[row, col + right]:
                        right += 1
                    while row + down < height and not blocked[row + down, col]:
                        down += 1
                    index = row * width + col
                    assert g.free_right[index] == min(right, MAX_RUN)
                    assert g.free_down[index] == min(down, MAX_RUN)
