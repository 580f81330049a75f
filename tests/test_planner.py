import math
import random
import re
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapgen
from anglepath import (
    Grid,
    InputError,
    PlannerConfig,
    Search,
    SearchNode,
    SearchStats,
    Verdict,
    delta_levels,
    line_of_sight,
    parse_ascii_map,
    reconstruct_path,
    search,
    validate_path,
)
from anglepath.geometry import circle_offsets, turn_cos_threshold
from anglepath import planner
from anglepath.planner import MAX_LEVELS, prepare, release
from oracles import (
    admitted_successors,
    delta_successors,
    empty_grid,
    expansion_bound,
    random_endpoints,
    random_grid,
    reachable,
    reference_search,
)

LIAN20 = PlannerConfig(mode="lian", delta_max=20, alpha_max=25, weight=2, time_cap=10)


class TestConfig:
    def test_lian_defaults_delta_min(self):
        cfg = PlannerConfig(mode="lian", delta_max=8)
        assert cfg.delta_min == 8
        assert cfg.name == "lian-8"

    def test_lian_rejects_distinct_delta_min(self):
        with pytest.raises(InputError):
            PlannerConfig(mode="lian", delta_max=8, delta_min=4)

    def test_elian_name(self):
        cfg = PlannerConfig(mode="elian", delta_max=20, delta_min=5)
        assert cfg.name == "elian-20-5"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "foo"},
            {"delta_max": 0},
            {"mode": "elian", "delta_max": 4, "delta_min": 8},
            {"k": 0.0},
            {"k": 1.0},
            {"alpha_max": -1},
            {"alpha_max": 200},
            {"weight": 0.5},
            {"success_streak": 0},
            {"delta_max": 1e400},  # what JSON parses 1e400 to: inf
            {"delta_max": 10**400},
            {"delta_max": "20"},
            {"mode": "elian", "delta_max": 8, "delta_min": math.nan},
            {"k": math.nan},
            {"weight": math.nan},
            {"weight": math.inf},
            {"time_cap": math.nan},
            {"time_cap": -1},
            {"success_streak": True},
            {"success_streak": 2.0},
            {"label": 7},
            {"delta_max": 0.5},  # no circle is smaller than radius 1
            {"mode": "elian", "delta_max": 20, "delta_min": 1e-10},
            {"mode": "elian", "delta_max": 20, "delta_min": 0.999},
            {"mode": "elian", "delta_max": 1e9, "delta_min": 1, "k": 0.999999},
            {"mode": "elian", "delta_max": 20, "delta_min": 1, "k": 1 - 2**-52},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InputError):
            PlannerConfig(**kwargs)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(InputError):
            PlannerConfig.from_dict([["mode", "lian"]])

    def test_round_trip_dict(self):
        cfg = PlannerConfig(mode="elian", delta_max=20, delta_min=5, alpha_max=30)
        assert PlannerConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_keys(self):
        # Records embed this dict, so its key order is part of their bytes.
        cfg = PlannerConfig(mode="elian", delta_max=20, delta_min=5, label="x")
        assert list(cfg.to_dict()) == [
            "mode", "delta_max", "delta_min", "k", "alpha_max", "weight",
            "time_cap", "success_streak",
        ]

    def test_levels_ladder(self):
        cfg = PlannerConfig(mode="elian", delta_max=20, delta_min=5, k=0.5)
        assert delta_levels(cfg) == (20.0, 10.0, 5.0)
        cfg2 = PlannerConfig(mode="elian", delta_max=8, delta_min=5, k=0.5)
        assert delta_levels(cfg2) == (8.0,)
        assert delta_levels(LIAN20) == (20.0,)

    def test_levels_bounded(self):
        # 2^63 halves down to 1 in 64 levels; one more level is refused.
        cfg = PlannerConfig(mode="elian", delta_max=2.0**63, delta_min=1, k=0.5)
        assert len(delta_levels(cfg)) == MAX_LEVELS == 64
        with pytest.raises(InputError, match="at most 64 levels"):
            PlannerConfig(mode="elian", delta_max=2.0**64, delta_min=1, k=0.5)

    def test_levels_keep_repeated_radii(self):
        # round() is banker's rounding: 2.5 rounds to 2, 3.5 to 4.
        radii = [max(1, round(d)) for d in delta_levels(
            PlannerConfig(mode="elian", delta_max=20, delta_min=5, k=0.9))]
        assert radii[-4:] == [7, 6, 6, 5]
        cfg = PlannerConfig(mode="elian", delta_max=7, delta_min=1.75, k=0.5)
        assert [max(1, round(d)) for d in delta_levels(cfg)] == [7, 4, 2]
        cfg = PlannerConfig(mode="elian", delta_max=5, delta_min=1.25, k=0.5)
        assert [max(1, round(d)) for d in delta_levels(cfg)] == [5, 2, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["mode", "delta_max", "delta_min", "k", "alpha_max", "weight",
                         "time_cap", "success_streak", "label", "bogus"]),
        st.one_of(
            st.sampled_from(["lian", "elian"]),
            st.floats(1, 1e12),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            st.floats(1 - 1e-12, 1, exclude_max=True),
            st.floats(),
            st.integers(-5, 10**20),
            st.booleans(),
            st.none(),
            st.text(max_size=3),
        ),
    ))
    def test_from_dict_fuzz(self, data):
        # Any dict either fails with InputError or gives a config whose
        # ladder is short and quick to build.
        t0 = time.perf_counter()
        try:
            cfg = PlannerConfig.from_dict(data)
        except InputError:
            return
        assert 1 <= len(delta_levels(cfg)) <= MAX_LEVELS
        assert time.perf_counter() - t0 < 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1, 1e15),
        st.floats(0, 1),
        st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                  st.floats(1 - 1e-12, 1, exclude_max=True)),
    )
    def test_elian_ladders_bounded(self, dmax, frac, k):
        t0 = time.perf_counter()
        try:
            cfg = PlannerConfig(mode="elian", delta_max=dmax,
                                delta_min=max(1.0, dmax * frac), k=k)
        except InputError:
            return
        levels = delta_levels(cfg)
        assert 1 <= len(levels) <= MAX_LEVELS
        assert levels[0] == dmax and levels[-1] >= cfg.delta_min - 1e-9
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("mode", ["lian", "elian"])
    def test_equal_deltas_give_one_level(self, mode):
        # However close k is to 1, equal deltas make one level, so the search
        # keeps a fixed delta and never descends.
        cfg = PlannerConfig(mode=mode, delta_max=20, delta_min=20, k=1 - 1e-12)
        assert delta_levels(cfg) == (20,)
        blocked = np.zeros((30, 30), dtype=bool)
        blocked[:, 15] = True
        out = search(Grid(blocked), (1, 1), (28, 28), cfg)
        assert out.verdict is Verdict.NOT_FOUND
        assert (out.stats.expansions, out.stats.reinsertions) == (16, 0)

    def test_levels_tolerate_float_noise(self):
        # 20 * 0.3 * 0.3 lands a hair under 1.8; the floor must still admit it.
        cfg = PlannerConfig(mode="elian", delta_max=20, delta_min=1.8, k=0.3)
        levels = delta_levels(cfg)
        assert len(levels) == 3
        assert levels[0] == 20.0
        assert levels[1] == pytest.approx(6.0)
        assert levels[2] == pytest.approx(1.8)


class TestDeltaSuccessors:
    def test_unit_circle(self):
        grid = empty_grid(21)
        cells = delta_successors((10, 10), 1.0, grid, (20, 20))
        assert cells == [(9, 10), (10, 9), (10, 11), (11, 10)]  # circle order

    def test_goal_injected_when_close(self):
        grid = empty_grid(21)
        cells = delta_successors((10, 10), 20.0, grid, (15, 10))
        assert (15, 10) in cells
        assert cells[-1] == (15, 10)

    def test_goal_not_injected_at_exact_delta(self):
        grid = empty_grid(41)
        cells = delta_successors((10, 10), 20.0, grid, (30, 10))
        # distance equals delta: not injected, but present as a circle cell
        assert cells.count((30, 10)) == 1

    def test_bounds_clipping(self):
        grid = empty_grid(3)
        cells = delta_successors((0, 0), 2.0, grid, (2, 2))
        assert set(cells) == {(2, 0), (2, 1), (1, 2), (0, 2)}


# The walls around cell (4, 4) of a 9x9 grid.
WALLED_IN = ((5, 3), (5, 4), (5, 5), (3, 5), (4, 5), (3, 3), (4, 3), (3, 4))


def elian_cfg(dmax=20, dmin=5):
    return PlannerConfig(
        mode="elian", delta_max=dmax, delta_min=dmin, k=0.5, alpha_max=25,
        weight=2, time_cap=10,
    )


def ident_key(search, cell, parent_cell=None):
    """The packed key of a (cell, parent cell) identity, as in Search."""
    height = search.grid.height
    parent_part = 0 if parent_cell is None else parent_cell[0] * height + parent_cell[1] + 1
    return (cell[0] * height + cell[1]) * (search.grid.width * height + 1) + parent_part


def decode_key(search, key):
    """(cell, parent cell) of a packed key; the start's parent is None."""
    height = search.grid.height
    ident, parent_part = divmod(key, search.grid.width * height + 1)
    return divmod(ident, height), None if parent_part == 0 else divmod(parent_part - 1, height)


def open_entries(search):
    """(cell, parent cell, level, g, f) of each open entry, in push order."""
    decoded = []
    for f, neg_g, key, _, parent, level in sorted(search.open, key=lambda entry: entry[3]):
        cell, parent_cell = decode_key(search, key)
        assert ident_key(search, cell, parent_cell) == key
        assert parent_cell == (None if parent is None else parent.cell)
        decoded.append((cell, parent_cell, level, -neg_g, f))
    return decoded


class TestExpand:
    def test_empty_successors_reinserts_at_halved_delta(self):
        # Walled-in cell: circle cells are out of bounds, goal fails sight.
        # One expand call descends the 20/10 ladder and pushes nothing.
        blocked = np.zeros((9, 9), dtype=bool)
        for c, r in WALLED_IN:
            blocked[r, c] = True
        grid = Grid(blocked)
        s = Search(grid, (4, 4), (8, 8), elian_cfg(dmax=20, dmin=10))
        node = SearchNode((4, 4), None, 0.0, 0.0, 0)
        s.closed.add(ident_key(s, (4, 4)))
        s.expand(node)
        assert (s.stats.reinsertions, s.stats.expansions) == (1, 1)
        assert node.level == 1 and s.levels[node.level] == 10.0
        assert s.open == [] and s.stats.generated == 0

    def test_dead_end_descends_and_generates_in_one_call(self):
        # Radius 20 leaves the 21x21 grid from its centre and a wall hides
        # the goal; the children come from the radius-10 circle, at level 1.
        blocked = np.zeros((21, 21), dtype=bool)
        blocked[19, 19] = True
        s = Search(Grid(blocked), (10, 10), (20, 20), elian_cfg())
        node = SearchNode((10, 10), None, 0.0, 0.0, 0)
        s.expand(node)
        assert (s.stats.reinsertions, s.stats.expansions) == (1, 1)
        assert node.level == 1
        entries = open_entries(s)
        assert len(entries) == s.stats.generated == len(circle_offsets(10))
        for cell, parent_cell, level, g, _ in entries:
            assert (parent_cell, level) == ((10, 10), 1)
            assert g == math.hypot(cell[0] - 10, cell[1] - 10)

    def test_delta_at_floor_discards_node(self):
        blocked = np.zeros((9, 9), dtype=bool)
        for c, r in WALLED_IN:
            blocked[r, c] = True
        grid = Grid(blocked)
        s = Search(grid, (4, 4), (8, 8), elian_cfg(dmax=20, dmin=5))
        node = SearchNode((4, 4), None, 0.0, 0.0, 2)  # already at delta_min
        s.closed.add(ident_key(s, (4, 4)))
        s.expand(node)
        assert s.stats.reinsertions == 0
        assert s.open == []
        assert node.level == 2 and s.levels[node.level] == 5.0

    def test_streak_raises_successor_delta(self):
        grid = empty_grid(41)
        s = Search(grid, (0, 20), (40, 20), elian_cfg())
        grandparent = SearchNode((0, 20), None, 0.0, 0.0, 1)
        parent = SearchNode((10, 20), grandparent, 10.0, 0.0, 1)
        node = SearchNode((20, 20), parent, 20.0, 0.0, 1)
        s.expand(node)
        assert s.stats.generated > 0
        assert s.levels[0] == 20.0
        for _, parent_cell, level, _, _ in open_entries(s):
            assert parent_cell == (20, 20) and level == 0

    def test_no_streak_keeps_delta(self):
        grid = empty_grid(41)
        s = Search(grid, (0, 20), (40, 20), elian_cfg())
        parent = SearchNode((10, 20), None, 0.0, 0.0, 0)
        node = SearchNode((20, 20), parent, 10.0, 0.0, 1)
        s.expand(node)
        assert s.stats.generated > 0
        assert s.levels[1] == 10.0
        for _, parent_cell, level, _, _ in open_entries(s):
            assert parent_cell == (20, 20) and level == 1

    def test_streak_longer_chain(self):
        cfg = PlannerConfig(
            mode="elian", delta_max=20, delta_min=5, k=0.5, alpha_max=25,
            weight=2, time_cap=10, success_streak=3,
        )
        grid = empty_grid(61)
        s = Search(grid, (0, 30), (60, 30), cfg)
        a = SearchNode((0, 30), None, 0.0, 0.0, 1)
        b = SearchNode((10, 30), a, 10.0, 0.0, 1)
        c = SearchNode((20, 30), b, 20.0, 0.0, 1)
        s.expand(c)  # chain of three at the same delta: raise
        assert all(level == 0 for _, _, level, _, _ in open_entries(s))
        s2 = Search(grid, (0, 30), (60, 30), cfg)
        c2 = SearchNode((20, 30), b, 20.0, 0.0, 1)
        b.parent = SearchNode((0, 30), None, 0.0, 0.0, 0)
        s2.expand(c2)  # chain broken at depth two: keep
        assert all(level == 1 for _, _, level, _, _ in open_entries(s2))

    def test_closed_identities_pruned(self):
        grid = empty_grid(41)
        s = Search(grid, (0, 20), (40, 20), elian_cfg())
        node = SearchNode((20, 20), None, 0.0, 0.0, 0)
        s.expand(node)
        first = {cell for cell, _, _, _, _ in open_entries(s)}
        assert (40, 20) in first
        s2 = Search(grid, (0, 20), (40, 20), elian_cfg())
        s2.closed.add(ident_key(s2, (40, 20), (20, 20)))
        node2 = SearchNode((20, 20), None, 0.0, 0.0, 0)
        s2.expand(node2)
        second = {cell for cell, _, _, _, _ in open_entries(s2)}
        assert second == first - {(40, 20)}


class TestExpandMatchesFullScan:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 10**6),
        alpha=st.sampled_from([0.0, 20.0, 45.0, 90.0, 135.0, 179.999, 180.0]),
        delta=st.sampled_from([1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0]),
        heading=st.one_of(
            st.none(),  # the start node
            # Headings whose admissible arc wraps past east (angle 0).
            st.sampled_from([(1, 0), (8, -1), (8, 1), (10, 0), (5, -2), (7, 3)]),
            # Mostly headings on no circle, like a move onto an injected goal.
            st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(lambda h: h != (0, 0)),
        ),
    )
    def test_children_equal_full_scan(self, seed, alpha, delta, heading):
        rng = random.Random(seed)
        grid = random_grid(rng, rng.randrange(6, 25), rng.choice([0.0, 0.15, 0.3]))
        free = [
            (c, r)
            for r in range(grid.height)
            for c in range(grid.width)
            if not grid.blocked_at(c, r)
        ]
        if len(free) < 2:
            return
        cell = rng.choice(free)
        near = [f for f in free if f != cell and math.dist(f, cell) <= delta + 1]
        goal = rng.choice(near if near and rng.random() < 0.5 else [f for f in free if f != cell])
        cfg = PlannerConfig(mode="lian", delta_max=delta, alpha_max=alpha, time_cap=10)
        s = Search(grid, cell, goal, cfg)
        parent = None
        if heading is not None:
            parent = SearchNode((cell[0] - heading[0], cell[1] - heading[1]), None, 0.0, 0.0, 0)
        node = SearchNode(cell, parent, 0.0, 0.0, 0)
        for cand in delta_successors(cell, delta, grid, goal):
            if rng.random() < 0.3:
                s.closed.add(ident_key(s, cand, cell))
        expected = admitted_successors(
            grid, cell, None if parent is None else parent.cell, delta, goal,
            turn_cos_threshold(alpha), lambda cand: ident_key(s, cand, cell) in s.closed,
        )
        s.expand(node)
        entries = open_entries(s)
        children = [child for child, _, _, _, _ in entries]
        assert len(children) == len(set(children))
        assert set(children) == set(expected)
        assert s.stats.generated == len(expected)
        for child, parent_cell, level, g, f in entries:
            assert (parent_cell, level) == (cell, 0)
            assert g == node.g + math.hypot(child[0] - cell[0], child[1] - cell[1])
            assert f == g + cfg.weight * math.hypot(goal[0] - child[0], goal[1] - child[1])


class TestHugeDelta:
    # A 30x20 map: no circle cell of radius >= 60 can land in it.
    OPEN = ["." * 30] * 20
    WALLED = ["." * 30] * 14 + ["." * 20 + "#" * 10] + ["." * 20 + "#" + "." * 9] * 5

    @pytest.mark.parametrize("delta", [1e3, 1e5, 1e9])
    def test_visible_goal_in_one_jump(self, delta):
        grid = parse_ascii_map("\n".join(self.OPEN))
        cfg = PlannerConfig(mode="lian", delta_max=delta, alpha_max=25, time_cap=20)
        t0 = time.perf_counter()
        out = search(grid, (1, 1), (28, 18), cfg)
        assert time.perf_counter() - t0 < 5.0
        assert out.verdict is Verdict.FOUND
        assert out.path == [(1, 1), (28, 18)]

    @pytest.mark.parametrize("delta", [1e3, 1e5, 1e9])
    def test_walled_off_goal_not_found(self, delta):
        grid = parse_ascii_map("\n".join(self.WALLED))
        cfg = PlannerConfig(mode="elian", delta_max=delta, delta_min=delta / 4,
                            alpha_max=25, time_cap=20)
        t0 = time.perf_counter()
        out = search(grid, (1, 1), (25, 17), cfg)
        assert time.perf_counter() - t0 < 5.0
        assert out.verdict is Verdict.NOT_FOUND
        assert out.stats.reinsertions == 2


    def test_large_circle_in_range_respects_time_cap(self):
        # Radius 600 lands in a 512x512 open map, and the goal is walled
        # off, so the search runs until its time cap. Line of sight to the
        # circle is tested per expansion, inside the search clock.
        blocked = np.zeros((512, 512), dtype=bool)
        blocked[500:, 500] = blocked[500, 500:] = True
        grid = Grid(blocked)
        cfg = PlannerConfig(mode="lian", delta_max=600, alpha_max=180, time_cap=0.2)
        t0 = time.perf_counter()
        out = search(grid, (0, 0), (510, 510), cfg)
        assert time.perf_counter() - t0 < 0.2 + 2.0
        assert out.verdict is Verdict.TIMEOUT
        # The kept answers grow with the cells expanded, not with the map.
        radius, steps, count, full, memo, rays, table = grid.circle_tables[600]
        assert 1 <= len(memo) <= out.stats.expansions
        assert table is None


def essence(out):
    # An outcome less its runtime: verdict, path and every other counter.
    return out.verdict, out.path, [getattr(out.stats, f.name) for f in fields(SearchStats)
                                   if f.name != "runtime"]


class TestPrepare:
    """prepare() gives rings sight tables; searches read them, same results."""

    CONFIGS = (
        PlannerConfig(mode="lian", delta_max=8, alpha_max=25),
        PlannerConfig(mode="elian", delta_max=8, delta_min=2, k=0.5, alpha_max=25),
        PlannerConfig(mode="elian", delta_max=12, delta_min=3, k=0.7, alpha_max=60),
        PlannerConfig(mode="elian", delta_max=100, delta_min=5, k=0.2, alpha_max=20),
    )

    def test_prepared_searches_match_unprepared(self):
        # The narrow-passage suite, where LIAN dead-ends and eLIAN descends,
        # and small random grids, some with mirrored ties, under every config.
        cases = [(grid, start, goal, cfg) for grid, start, goal in mapgen.corridor_suite()
                 for cfg in self.CONFIGS[:2]]
        for seed in range(48):
            inst = differential_instance(seed, seed % 2 == 1)
            if inst is not None:
                cases.append((*inst, self.CONFIGS[seed % len(self.CONFIGS)]))
        # A benchmark building map under the criterion-6 ladder.
        building = Grid(mapgen.building_blocked(4))
        free = [(c, r) for r in range(building.height) for c in range(building.width)
                if not building.blocked_at(c, r)]
        rng = random.Random(16)
        elian = PlannerConfig(mode="elian", delta_max=20, delta_min=5, alpha_max=30)
        cases += [(building, *rng.sample(free, 2), elian) for _ in range(6)]
        descents = 0
        for grid, start, goal, cfg in cases:
            prepared = Grid(grid.blocked)
            prepare(prepared, cfg)
            out = search(prepared, start, goal, cfg)
            assert essence(out) == essence(search(grid, start, goal, cfg)), (start, goal, cfg)
            descents += out.stats.reinsertions
        assert descents > 1000

    def test_table_rings_walk_no_ray(self, monkeypatch):
        # Expansions read a prepared ring's table: no call of sight_bits,
        # and nothing in the memo.
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = self.CONFIGS[1]
        expected = essence(search(Grid(grid.blocked), start, goal, cfg))
        prepare(grid, cfg)
        monkeypatch.setattr(planner, "sight_bits", lambda *args: pytest.fail("walked a ray"))
        assert essence(search(grid, start, goal, cfg)) == expected
        assert sorted(grid.circle_tables) == [2, 4, 8]
        for radius, steps, count, full, memo, rays, table in grid.circle_tables.values():
            assert len(table) == grid.width * grid.height * ((count + 7) // 8)
            assert memo == {}

    def test_prepare_adds_a_table_to_a_searched_ring(self):
        # A ring a search built keeps its steps and rays; its memo, which
        # the table makes unread, is emptied.
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = PlannerConfig(mode="lian", delta_max=8, alpha_max=25)
        before = essence(search(grid, start, goal, cfg))
        ring = grid.circle_tables[8]
        assert ring[6] is None and ring[4]
        prepare(grid, cfg)
        tabled = grid.circle_tables[8]
        assert tabled[:4] == ring[:4] and tabled[5] is ring[5]
        assert tabled[4] == {} and tabled[6] is not None
        prepare(grid, cfg)
        assert grid.circle_tables[8] is tabled
        assert essence(search(grid, start, goal, cfg)) == before

    def test_release_drops_only_the_tables(self):
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = self.CONFIGS[1]
        prepare(grid, cfg)
        tabled = dict(grid.circle_tables)
        release(grid)
        assert sorted(grid.circle_tables) == [2, 4, 8]
        for radius, ring in grid.circle_tables.items():
            assert ring[:6] == tabled[radius][:6] and ring[6] is None
        assert essence(search(grid, start, goal, cfg)) == essence(
            search(Grid(grid.blocked), start, goal, cfg))
        walked = dict(grid.circle_tables)
        release(grid)  # no tables: nothing changes
        assert grid.circle_tables == walked

    def test_no_table_above_the_cap_or_without_offsets(self, monkeypatch):
        grid = empty_grid(20)
        prepare(grid, PlannerConfig(mode="lian", delta_max=40))  # 40 >= 2 * 20
        assert grid.circle_tables[40][2:4] == (0, 0)
        assert grid.circle_tables[40][6] is None
        # A radius-3 ring has 16 offsets: 2 bytes for each of 400 cells.
        monkeypatch.setattr(planner, "MAX_TABLE_BYTES", 799)
        prepare(grid, PlannerConfig(mode="lian", delta_max=3))
        assert grid.circle_tables[3][6] is None
        monkeypatch.setattr(planner, "MAX_TABLE_BYTES", 800)
        prepare(grid, PlannerConfig(mode="lian", delta_max=3))
        assert len(grid.circle_tables[3][6]) == 800


class TestSearch:
    def test_straight_line_single_segment(self):
        grid = empty_grid(100)
        out = search(grid, (10, 10), (30, 10), LIAN20)
        assert out.verdict is Verdict.FOUND
        assert out.path == [(10, 10), (30, 10)]
        assert math.isclose(sum_len(out.path), 20.0)

    def test_corridor_archetype_lian_fails_elian_recovers(self):
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        lian = search(
            grid, start, goal,
            PlannerConfig(mode="lian", delta_max=8, alpha_max=25, weight=2, time_cap=20),
        )
        assert lian.verdict is Verdict.NOT_FOUND
        elian = search(
            grid, start, goal,
            PlannerConfig(
                mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=25,
                weight=2, time_cap=20,
            ),
        )
        assert elian.verdict is Verdict.FOUND
        assert elian.path[0] == start and elian.path[-1] == goal
        assert validate_path(grid, elian.path, 25) is None
        assert all(
            line_of_sight(grid, a, b) for a, b in zip(elian.path, elian.path[1:])
        )
        assert elian.stats.reinsertions > 0

    def test_second_search_reuses_the_grid_rings(self):
        # A radius's ring is built by the first search on the grid to reach
        # it; a later search takes the very same objects.
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = PlannerConfig(mode="elian", delta_max=8, delta_min=2, k=0.5, alpha_max=25)
        first = Search(grid, start, goal, cfg)
        first.run()
        assert sorted(grid.circle_tables) == [2, 4, 8]
        second = Search(grid, start, goal, cfg)
        second.run()
        assert None not in first._rings
        for level, ring in enumerate(first._rings):
            assert second._rings[level] is ring
            assert grid.circle_tables[ring[0]] is ring

    def test_degenerate_elian_equals_lian(self):
        rng = random.Random(5150)
        for _ in range(40):
            grid = random_grid(rng, rng.randrange(12, 33), rng.choice([0.0, 0.1, 0.25]))
            inst = random_endpoints(rng, grid)
            if inst is None:
                continue
            start, goal = inst
            delta = rng.choice([4, 6, 10])
            alpha = rng.choice([20.0, 30.0, 45.0])
            lian = search(
                grid, start, goal,
                PlannerConfig(mode="lian", delta_max=delta, alpha_max=alpha,
                              weight=2, time_cap=10),
            )
            elian = search(
                grid, start, goal,
                PlannerConfig(mode="elian", delta_max=delta, delta_min=delta,
                              k=0.5, alpha_max=alpha, weight=2, time_cap=10),
            )
            assert lian.verdict == elian.verdict
            assert lian.path == elian.path
            assert lian.stats.expansions == elian.stats.expansions
            assert lian.stats.generated == elian.stats.generated

    def test_zero_turn_limit_goes_straight_off_the_axes(self):
        # At alpha_max = 0 only straight continuation is allowed. hypot(2, 1)
        # squared rounds above 5, so a cosine test alone rejects every move
        # after the first one along (2, 1) and the search dead-ends.
        grid = Grid(np.zeros((12, 24), dtype=bool))
        cfg = PlannerConfig(mode="lian", delta_max=2, alpha_max=0, time_cap=10)
        out = search(grid, (0, 0), (20, 10), cfg)
        assert out.verdict is Verdict.FOUND
        assert out.path == [(2 * i, i) for i in range(11)]
        assert validate_path(grid, out.path, 0.0) is None

    def test_blocked_endpoints_rejected(self):
        grid = parse_ascii_map("#..\n...\n...")
        with pytest.raises(InputError):
            search(grid, (0, 0), (2, 2), LIAN20)
        with pytest.raises(InputError):
            search(grid, (2, 2), (0, 0), LIAN20)
        with pytest.raises(InputError):
            search(grid, (1, 1), (1, 1), LIAN20)

    @pytest.mark.parametrize(
        "start, goal, message",
        [
            ((0, 0), (2, 2), "start (0,0) is blocked"),
            ((2, 2), (0, 0), "goal (0,0) is blocked"),
            ((3, 1), (2, 2), "start (3,1) out of bounds for 3x3 map"),
            ((1, -1), (2, 2), "start (1,-1) out of bounds for 3x3 map"),
            # (-1, 1) falls on a free entry of the row-major tables.
            ((2, 2), (-1, 1), "goal (-1,1) out of bounds for 3x3 map"),
            ((1, 1), (2, 3), "goal (2,3) out of bounds for 3x3 map"),
        ],
        ids=["blocked-start", "blocked-goal", "start-past-width", "negative-start",
             "negative-goal", "goal-past-height"],
    )
    def test_unusable_endpoint_named(self, start, goal, message):
        grid = parse_ascii_map("#..\n...\n...")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Search(grid, start, goal, LIAN20)

    def test_timeout_reports_stats(self):
        grid = empty_grid(200)
        cfg = PlannerConfig(mode="lian", delta_max=4, alpha_max=25, weight=2,
                            time_cap=0.0)
        out = search(grid, (5, 5), (190, 190), cfg)
        assert out.verdict is Verdict.TIMEOUT
        assert out.path is None
        assert out.stats.runtime >= 0.0

    def test_unreachable_goal_exhausts_open(self):
        grid = parse_ascii_map(
            "..........\n"
            "....####..\n"
            "....#..#..\n"
            "....#..#..\n"
            "....####..\n"
            "..........\n"
        )
        cfg = PlannerConfig(mode="elian", delta_max=4, delta_min=2, k=0.5,
                            alpha_max=30, weight=2, time_cap=10)
        out = search(grid, (0, 0), (6, 2), cfg)
        assert out.verdict is Verdict.NOT_FOUND

    def test_deterministic_repeat(self):
        rng = random.Random(8)
        grid = random_grid(rng, 40, 0.2)
        inst = random_endpoints(rng, grid)
        assert inst is not None
        cfg = PlannerConfig(mode="elian", delta_max=12, delta_min=3, k=0.5,
                            alpha_max=30, weight=2, time_cap=10)
        a = search(grid, *inst, cfg)
        b = search(grid, *inst, cfg)
        assert a.verdict == b.verdict and a.path == b.path
        assert a.stats.expansions == b.stats.expansions


class TestRunLoop:
    def test_reinserted_node_pops_as_itself_one_level_down(self):
        # The walled-in start dead-ends at every level of the 20/10/5 ladder:
        # a single expand call descends it to level 2, each level counted as
        # an expansion, and the search ends with the open list empty.
        blocked = np.zeros((9, 9), dtype=bool)
        for c, r in WALLED_IN:
            blocked[r, c] = True
        s = Search(Grid(blocked), (4, 4), (8, 8), elian_cfg())
        expanded = []
        expand = s.expand

        def record(node):
            expanded.append((node.cell, node.level))
            expand(node)
            expanded.append((node.cell, node.level))

        s.expand = record
        out = s.run()
        assert out.verdict is Verdict.NOT_FOUND
        assert expanded == [((4, 4), 0), ((4, 4), 2)]
        assert (out.stats.expansions, out.stats.reinsertions) == (3, 2)
        assert s.closed == {ident_key(s, (4, 4))}

    def test_closed_identity_entry_skipped_unexpanded(self):
        # Two expansions of cell (10, 15) from different parents both push a
        # lazy entry for ((15, 15), (10, 15)): the second at a lower g, so
        # it is not dominated. Only the cheaper one may expand.
        grid = empty_grid(30)
        s = Search(grid, (2, 15), (27, 15), PlannerConfig(
            mode="lian", delta_max=5, alpha_max=25, weight=2, time_cap=10))
        a = SearchNode((10, 15), SearchNode((5, 15), None, 0.0, 0.0, 0), 1.0, 1.0, 0)
        b = SearchNode((10, 15), SearchNode((5, 16), None, 0.0, 0.0, 0), 0.0, 0.0, 0)
        s.expand(a)
        s.expand(b)
        assert s.stats.dominated == 0
        pushed = open_entries(s)
        idents = [(cell, parent_cell) for cell, parent_cell, _, _, _ in pushed]
        assert idents.count(((15, 15), (10, 15))) == 2
        expanded = []
        s.expand = expanded.append  # from here on expansions generate nothing
        out = s.run()
        assert out.verdict is Verdict.NOT_FOUND
        # Every identity expands once, the start last (its f is the largest).
        assert out.stats.expansions == len(expanded) == len(set(idents)) + 1
        assert out.stats.stale_pops == len(idents) - len(set(idents))
        assert expanded[-1].cell == (2, 15)
        [node] = [node for node in expanded if node.cell == (15, 15)]
        assert node.parent is b  # the lower-g entry of the pair
        assert len(s.closed) == len(expanded)

    def test_goal_reached_through_lazy_entry(self):
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        s = Search(grid, start, goal, elian_cfg(dmax=8, dmin=4))
        expanded = []
        expand = s.expand

        def record(node):
            expanded.append(node)
            expand(node)

        s.expand = record
        out = s.run()
        assert out.path == [(2, 24), (10, 23), (18, 24), (22, 23), (25, 21), (27, 18),
                            (29, 10), (28, 4)]
        # The goal's SearchNode is never built: the path is its parent's
        # chain plus the goal cell.
        assert all(node.cell != goal for node in expanded)
        assert all(decode_key(s, key)[0] != goal for key in s.closed)
        assert ident_key(s, out.path[-2], out.path[-3]) in s.closed
        [parent] = [node for node in expanded[1:]
                    if (node.cell, node.parent.cell) == (out.path[-2], out.path[-3])]
        assert reconstruct_path(parent) + [goal] == out.path


class TestDominance:
    """A cell expanded again at one level queues no child its earlier
    expansion there queued at a g that sorts no later."""

    CFG = PlannerConfig(mode="lian", delta_max=5, alpha_max=25, weight=2, time_cap=10)

    @staticmethod
    def node(parent_cell, g):
        return SearchNode((10, 15), SearchNode(parent_cell, None, 0.0, 0.0, 0), g, 0.0, 0)

    def cells(self, cfg, *nodes):
        """Cells each expansion of ``nodes`` queues, expanded in order in one search."""
        s = Search(empty_grid(30), (2, 15), (27, 15), cfg)
        queued = []
        for node in nodes:
            before = len(s.open)
            s.expand(node)
            queued.append({cell for cell, *_ in open_entries(s)[before:]})
        return s, queued

    def test_equal_g_queues_no_shared_child(self):
        _, [alone] = self.cells(self.CFG, self.node((5, 17), 3.0))
        s, [first, second] = self.cells(self.CFG, self.node((5, 15), 3.0),
                                        self.node((5, 17), 3.0))
        shared = first & alone
        assert shared and alone - shared
        assert second == alone - shared
        # The dominated children still count as generated.
        assert s.stats.dominated == len(shared)
        assert s.stats.generated == len(first) + len(alone)

    def test_one_ulp_higher_g_queues_again(self):
        # One ulp more g may round a child's f to the same value with a
        # larger g, which sorts first: the tie guard queues the second copy.
        g = 3.0
        s, [first, second] = self.cells(self.CFG, self.node((5, 15), g),
                                        self.node((5, 16), math.nextafter(g, math.inf)))
        assert first & second and s.stats.dominated == 0

    def test_all_dominated_keeps_level(self):
        # Parents on one line give one heading, so one arc: every successor
        # of the second expansion is dominated, and that node neither
        # descends the ladder nor queues anything.
        cfg = elian_cfg(dmax=5, dmin=2)
        second = self.node((0, 15), 7.0)
        s, [first, queued] = self.cells(cfg, self.node((5, 15), 3.0), second)
        assert queued == set() and s.stats.dominated == len(first) > 0
        assert (second.level, s.stats.reinsertions) == (0, 0)


def differential_instance(seed, mirror):
    """A random grid with start and goal, or None; mirror=True makes the
    grid symmetric about the start's row and puts the goal on that row, so
    mirrored paths tie on f and g and reach identities from two parents."""
    rng = random.Random(seed)
    width, half = rng.randrange(6, 26), rng.randrange(2, 11)
    density = rng.choice([0.0, 0.1, 0.2, 0.3])
    blocked = np.array([[rng.random() < density for _ in range(width)]
                        for _ in range(2 * half + 1)], dtype=bool)
    if mirror:
        blocked[half + 1:] = blocked[:half][::-1]
        free = [(c, half) for c in range(width) if not blocked[half, c]]
    else:
        free = [(c, r) for r in range(2 * half + 1) for c in range(width)
                if not blocked[r, c]]
    if len(free) < 2:
        return None
    return Grid(blocked), *rng.sample(free, 2)


DIFFERENTIAL_LADDERS = [
    ("lian", 1, 1), ("lian", 4, 4), ("lian", 6, 6),
    ("elian", 8, 2), ("elian", 6, 1), ("elian", 12, 3), ("elian", 10, 1.5),
]


class TestMatchesReferenceSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        mirror=st.booleans(),
        alpha=st.sampled_from([20.0, 45.0, 90.0, 180.0]),
        warm_alpha=st.sampled_from([20.0, 45.0, 90.0, 180.0]),
        ladder=st.sampled_from(DIFFERENTIAL_LADDERS),
        k=st.sampled_from([0.5, 0.7]),
        weight=st.sampled_from([1.0, 2.0]),
        streak=st.integers(1, 3),
        push_seed=st.integers(0, 2**32),
    )
    # Mirrored paths tie: a dead end must drop the stale copies of its own
    # entry, or max_open comes out one higher than the reference's.
    @example(seed=302, mirror=True, alpha=180.0, warm_alpha=20.0, ladder=("elian", 8, 2),
             k=0.7, weight=2.0, streak=3, push_seed=0)
    @example(seed=10, mirror=True, alpha=180.0, warm_alpha=45.0, ladder=("elian", 6, 1),
             k=0.5, weight=1.0, streak=1, push_seed=0)
    # A cell reached at g values one ulp apart: its children's f round to the
    # same value and the larger g pops first, so the later expansion must
    # queue them again (the tie guard of Search.expand).
    @example(seed=359885, mirror=True, alpha=180.0, warm_alpha=180.0, ladder=("lian", 6, 6),
             k=0.7, weight=1.0, streak=2, push_seed=0)
    def test_verdict_path_and_counters(self, seed, mirror, alpha, warm_alpha, ladder, k,
                                       weight, streak, push_seed):
        inst = differential_instance(seed, mirror)
        if inst is None:
            return
        grid, start, goal = inst
        mode, dmax, dmin = ladder
        # The second search runs on the circle-visibility memo the first
        # one left on the grid, as every search after the first does in a
        # batch; the reference keeps no memo. The reference pushes each
        # expansion's children in a drawn order, which must change nothing.
        shuffle = random.Random(push_seed).shuffle
        for angle in (alpha, warm_alpha):
            cfg = PlannerConfig(mode=mode, delta_max=dmax, delta_min=dmin, k=k,
                                alpha_max=angle, weight=weight, success_streak=streak,
                                time_cap=60)
            out = search(grid, start, goal, cfg)
            verdict, path, stats = reference_search(grid, start, goal, cfg, shuffle)
            assert (out.verdict, out.path) == (verdict, path), angle
            assert self.counters(out.stats) == self.counters(stats), angle

    @staticmethod
    def counters(stats):
        return (stats.expansions, stats.generated, stats.reinsertions, stats.max_open,
                stats.dominated, stats.stale_pops)


# (expansions, generated, reinsertions, max_open) per mapgen.corridor_suite()
# instance; eLIAN-8-4 also pins the path. LIAN-8 finds none of them.
LIAN8_STATS = (
    (5, 4, 0, 3), (5, 4, 0, 3), (5, 4, 0, 3), (7, 6, 0, 3), (8, 7, 0, 4),
    (5, 4, 0, 2), (10, 9, 0, 6), (4, 3, 0, 1), (15, 14, 0, 5), (19, 18, 0, 7),
    (8, 7, 0, 3), (18, 17, 0, 6), (17, 16, 0, 5), (17, 16, 0, 5), (17, 16, 0, 5),
    (11, 10, 0, 5), (16, 15, 0, 5), (22, 21, 0, 6), (12, 11, 0, 5), (16, 15, 0, 5),
)
ELIAN8_4 = (
    ((8, 12, 2, 7), [(2, 23), (10, 23), (18, 21), (21, 19), (23, 16), (24, 12), (24, 4)]),
    ((8, 12, 2, 7), [(2, 24), (10, 24), (18, 22), (21, 20), (23, 17), (24, 13), (24, 5)]),
    ((7, 11, 1, 6), [(2, 24), (10, 24), (18, 22), (21, 20), (23, 17), (25, 9), (25, 4)]),
    ((13, 11, 3, 3), [(2, 25), (10, 25), (18, 25), (26, 23), (29, 21), (31, 18), (32, 14),
                      (32, 6), (32, 4)]),
    ((16, 15, 4, 4), [(2, 26), (10, 26), (18, 26), (26, 24), (29, 22), (31, 19), (32, 15),
                      (32, 7), (32, 5)]),
    ((8, 11, 1, 5), [(2, 26), (10, 26), (18, 26), (26, 24), (29, 22), (31, 19), (33, 11),
                     (33, 4)]),
    ((20, 22, 5, 8), [(2, 27), (10, 27), (18, 27), (26, 25), (29, 23), (31, 20), (33, 12),
                      (33, 5)]),
    ((10, 10, 2, 3), [(2, 27), (10, 27), (18, 27), (25, 24), (28, 21), (30, 18), (31, 14),
                      (31, 6), (31, 4)]),
    ((13, 15, 4, 7), [(2, 20), (10, 19), (18, 20), (22, 19), (25, 17), (27, 14), (28, 10),
                      (27, 4)]),
    ((27, 28, 8, 10), [(2, 22), (10, 23), (18, 21), (21, 19), (23, 16), (25, 8), (25, 5)]),
    ((11, 12, 3, 5), [(2, 22), (10, 22), (18, 20), (21, 18), (23, 15), (24, 11), (23, 4)]),
    ((48, 38, 17, 9), [(2, 23), (10, 24), (18, 22), (21, 20), (24, 18), (26, 15), (27, 11),
                       (26, 5)]),
    ((31, 26, 9, 5), [(2, 22), (10, 22), (18, 23), (22, 22), (25, 20), (27, 17), (29, 9),
                      (29, 4)]),
    ((28, 23, 9, 5), [(2, 23), (10, 24), (18, 22), (22, 21), (25, 19), (27, 16), (28, 12),
                      (27, 4)]),
    ((23, 21, 7, 6), [(2, 23), (10, 23), (18, 23), (25, 20), (28, 17), (30, 14), (31, 10),
                      (30, 4)]),
    ((10, 16, 2, 9), [(2, 24), (10, 24), (18, 22), (21, 20), (23, 17), (25, 9), (25, 4)]),
    ((13, 13, 3, 5), [(2, 24), (10, 23), (18, 24), (22, 23), (25, 21), (27, 18), (29, 10),
                      (28, 4)]),
    ((41, 35, 13, 8), [(2, 24), (10, 25), (18, 24), (22, 23), (25, 21), (28, 18), (31, 11),
                       (31, 4)]),
    ((20, 19, 6, 6), [(2, 25), (10, 26), (18, 24), (21, 22), (23, 19), (26, 12), (26, 4)]),
    ((14, 19, 3, 9), [(2, 25), (10, 24), (18, 25), (22, 24), (25, 22), (27, 19), (29, 11),
                      (29, 4)]),
)


class TestCorridorSuitePins:
    # records.jsonl carries neither generated nor max_open; these pin them.
    def stats(self, out):
        s = out.stats
        return s.expansions, s.generated, s.reinsertions, s.max_open

    def test_lian_8(self):
        cfg = PlannerConfig(mode="lian", delta_max=8, alpha_max=25, weight=2, time_cap=60)
        for i, (grid, start, goal) in enumerate(mapgen.corridor_suite()):
            out = search(grid, start, goal, cfg)
            assert (out.verdict, out.path) == (Verdict.NOT_FOUND, None), i
            assert self.stats(out) == LIAN8_STATS[i], i

    def test_elian_8_4(self):
        cfg = PlannerConfig(mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=25,
                            weight=2, time_cap=60)
        for i, (grid, start, goal) in enumerate(mapgen.corridor_suite()):
            out = search(grid, start, goal, cfg)
            assert out.verdict is Verdict.FOUND, i
            assert (self.stats(out), out.path) == ELIAN8_4[i], i


def sum_len(path):
    return sum(math.dist(a, b) for a, b in zip(path, path[1:]))


class TestReconstruct:
    def test_single_segment(self):
        grid = empty_grid(50)
        out = search(grid, (10, 10), (30, 10), LIAN20)
        assert out.path == [(10, 10), (30, 10)]

    def test_chain_order(self):
        a = SearchNode((0, 0), None, 0, 0, 0)
        b = SearchNode((8, 0), a, 8, 0, 0)
        c = SearchNode((16, 0), b, 16, 0, 0)
        assert reconstruct_path(c) == [(0, 0), (8, 0), (16, 0)]

    def test_corridor_endpoints_and_sight(self):
        grid, start, goal = mapgen.bend_corridor(3, 12, 13, 0.0)
        cfg = PlannerConfig(mode="elian", delta_max=8, delta_min=4, k=0.5,
                            alpha_max=25, weight=2, time_cap=20)
        out = search(grid, start, goal, cfg)
        assert out.verdict is Verdict.FOUND
        path = out.path
        assert path[0] == start and path[-1] == goal
        assert all(line_of_sight(grid, a, b) for a, b in zip(path, path[1:]))


class TestValidatePath:
    def test_straight_ok(self):
        grid = empty_grid(21)
        assert validate_path(grid, [(0, 0), (20, 0)], 25) is None

    def test_right_angle_flagged(self):
        grid = empty_grid(21)
        violation = validate_path(grid, [(0, 0), (10, 0), (10, 10)], 25)
        assert violation is not None
        assert violation.kind == "angle" and violation.index == 1

    def test_los_violation_flagged(self):
        grid = parse_ascii_map("...\n.#.\n...")
        violation = validate_path(grid, [(0, 1), (2, 1)], 90)
        assert violation is not None
        assert violation.kind == "los" and violation.index == 0

    def test_off_grid_waypoint_flagged_before_sight(self):
        grid = parse_ascii_map("...\n...\n..#")
        # (0,-1) -> (2,1) was once read from wrapped flat indices as clear.
        for path, index in (
            ([(0, -1), (2, 1)], 0),
            ([(0, 0), (2, 2), (3, 2)], 2),  # (2,2) is blocked, but (3,2) is off
            ([(0, 0), (5, 5), (1, 1)], 1),
        ):
            violation = validate_path(grid, path, 180)
            assert violation is not None
            assert (violation.kind, violation.index) == ("bounds", index), path

    def test_short_path_rejected(self):
        grid = empty_grid(3)
        with pytest.raises(InputError):
            validate_path(grid, [(0, 0)], 25)
        with pytest.raises(InputError):
            validate_path(grid, [(0, 0), (0, 0)], 25)

    def test_boundary_angle_tolerated(self):
        grid = empty_grid(21)
        # exact 45 degree turn against alpha_max = 45
        assert validate_path(grid, [(0, 0), (10, 0), (20, 10)], 45) is None


class TestSearchProperties:
    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_found_paths_validate_and_respect_levels(self, seed):
        rng = random.Random(seed)
        grid = random_grid(rng, rng.randrange(16, 49), rng.uniform(0.0, 0.4))
        inst = random_endpoints(rng, grid)
        if inst is None:
            return
        mode, dmin = rng.choice([("lian", 12), ("elian", 6), ("elian", 3)])
        cfg = PlannerConfig(mode=mode, delta_max=12, delta_min=dmin, k=0.5,
                            alpha_max=rng.choice([20.0, 25.0, 30.0, 45.0]),
                            weight=2, time_cap=5)
        out = search(grid, *inst, cfg)
        assert out.stats.expansions <= expansion_bound(grid, cfg)
        if out.verdict is not Verdict.FOUND:
            return
        assert validate_path(grid, out.path, cfg.alpha_max) is None
        levels = delta_levels(cfg)
        segments = [math.dist(a, b) for a, b in zip(out.path, out.path[1:])]
        for seg in segments[:-1]:
            assert any(abs(seg - lv) < 1.0 for lv in levels)
        assert segments[-1] < cfg.delta_max + 1.0

    def test_lian_verdict_matches_exhaustive_enumeration(self):
        rng = random.Random(314)
        checked = 0
        for _ in range(60):
            n = rng.randrange(8, 21)
            grid = random_grid(rng, n, rng.choice([0.05, 0.15, 0.3]))
            inst = random_endpoints(rng, grid)
            if inst is None:
                continue
            delta = rng.choice([2, 3, 4])
            alpha = rng.choice([20.0, 25.0, 30.0, 45.0])
            cfg = PlannerConfig(mode="lian", delta_max=delta, alpha_max=alpha,
                                weight=1.0, time_cap=30)
            out = search(grid, *inst, cfg)
            assert (out.verdict is Verdict.FOUND) == reachable(
                grid, *inst, [delta], alpha
            )
            checked += 1
        assert checked >= 40

    def test_level_nesting_expands_success_set(self):
        rng = random.Random(2718)
        solved = {"lian-8": set(), "elian-8-4": set(), "elian-8-2": set()}
        for trial in range(40):
            grid = random_grid(rng, rng.randrange(16, 33), rng.uniform(0.05, 0.3))
            inst = random_endpoints(rng, grid)
            if inst is None:
                continue
            for name, dmin in (("lian-8", 8), ("elian-8-4", 4), ("elian-8-2", 2)):
                mode = "lian" if name == "lian-8" else "elian"
                cfg = PlannerConfig(mode=mode, delta_max=8, delta_min=dmin, k=0.5,
                                    alpha_max=30, weight=2, time_cap=30)
                if search(grid, *inst, cfg).verdict is Verdict.FOUND:
                    solved[name].add(trial)
        assert solved["lian-8"] <= solved["elian-8-4"] <= solved["elian-8-2"]
