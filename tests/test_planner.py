import dataclasses
import math
import random
import re
import time
from dataclasses import fields
from types import SimpleNamespace

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
from anglepath.geometry import circle_offsets, sight_bits, sight_table, turn_cos_threshold
from anglepath import geometry, planner
from anglepath.planner import MAX_LEVELS, prepare, release
from oracles import (
    admitted_successors,
    arc_window_scan,
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

    @pytest.mark.parametrize("name", [
        "mode", "delta_max", "delta_min", "k", "alpha_max", "weight", "time_cap",
        "success_streak", "label",
    ])
    def test_huge_ints_rejected_with_short_messages(self, name):
        # repr() refuses an int of more than 4300 digits; the message names
        # its size instead.
        with pytest.raises(InputError) as caught:
            PlannerConfig(**{name: 10**5000})
        assert len(str(caught.value).encode()) < 200
        assert "16610 bits" in str(caught.value)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(InputError):
            PlannerConfig.from_dict([["mode", "lian"]])
        with pytest.raises(InputError, match="16610 bits"):
            PlannerConfig.from_dict(10**5000)

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


class TestGoalTest:
    """expand() tests the goal once per call: at most one turn test, and
    one sight walk per cell and search."""

    def cases(self):
        # At the parent commit, the first walks the goal ray up to three
        # times from one cell and the second tests one turn twice in a call.
        blocked = mapgen.building_blocked(4)
        cfg = PlannerConfig(mode="elian", delta_max=12, delta_min=3, k=0.5, alpha_max=60)
        for inst in mapgen.hard_instances(blocked, "b4", 2, seed=3):
            yield Grid(blocked), inst.start, inst.goal, cfg

    @pytest.mark.parametrize("delta, move, extra", [
        (20, (19, 6), 0),  # hypot 19.92: on the radius-20 circle, inside delta
        (4.5, (4, 1), 0),  # radius round(4.5) = 4
        (20, (10, 3), 1),  # on no circle: queued after the arc
    ])
    def test_goal_on_the_circle_is_queued_once(self, delta, move, extra):
        s = Search(empty_grid(61), (30, 30), (30 + move[0], 30 + move[1]),
                   PlannerConfig(mode="lian", delta_max=delta, alpha_max=25))
        parent = SearchNode((30 - move[0], 30 - move[1]), None, 0.0, 0.0, 0)
        s.expand(SearchNode((30, 30), parent, 0.0, 0.0, 0))
        arc = geometry.arc_window(max(1, round(delta)), *move, 25)
        children = [cell for cell, _, _, _, _ in open_entries(s)]
        assert children.count(s.goal) == 1
        assert s._seq == s.stats.generated == bin(arc).count("1") + extra

    def test_goal_ray_walked_once_per_cell_and_search(self, monkeypatch):
        walks = []
        real = planner.line_of_sight

        def line_of_sight(grid, a, b):
            walks.append((a, b))
            return real(grid, a, b)

        monkeypatch.setattr(planner, "line_of_sight", line_of_sight)
        for grid, start, goal, cfg in self.cases():
            del walks[:]
            first = search(grid, start, goal, cfg)
            n = len(walks)
            assert n > 0 and {b for _, b in walks} == {goal}
            assert len({a for a, _ in walks}) == n
            second = search(grid, start, goal, cfg)  # a new memo: it walks again
            assert walks[n:] == walks[:n] and second.path == first.path

    def test_one_goal_turn_test_per_expand_call(self, monkeypatch):
        turns, per_call = [], []
        real_turn, real_expand = planner.turn_ok, Search.expand

        def turn_ok(*args):
            turns.append(args)
            return real_turn(*args)

        def expand(search, node):
            before = len(turns)
            real_expand(search, node)
            per_call.append(len(turns) - before)

        monkeypatch.setattr(planner, "turn_ok", turn_ok)
        monkeypatch.setattr(Search, "expand", expand)
        for grid, start, goal, cfg in self.cases():
            assert search(grid, start, goal, cfg).verdict is Verdict.FOUND
        assert max(per_call) == 1 and sum(per_call) == len(turns)


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
        # Every tile is over the table cap, so each expanded cell walks the
        # rays: the kept rows grow with the cells expanded, not with the map.
        ring = grid.circle_tables[600]
        assert 1 <= len(ring) <= out.stats.expansions
        assert ring.tiles and set(ring.tiles.values()) == {None}


def essence(out):
    # An outcome less its runtime: verdict, path and every other counter.
    return out.verdict, out.path, [getattr(out.stats, f.name) for f in fields(SearchStats)
                                   if f.name != "runtime"]


def tall_walled_grid():
    # 60 rows of 16 cells, random blocks and two walls with gaps: searches
    # wind through many tiles of 3 x 3 cells, at radii wider than a tile.
    rng = random.Random(22)
    blocked = np.array([[rng.random() < 0.08 for _ in range(16)] for _ in range(60)])
    blocked[20, 3:] = blocked[40, :13] = True
    grid = Grid(blocked)
    free = [(c, r) for r in range(grid.height) for c in range(grid.width)
            if not grid.blocked_at(c, r)]
    pairs = [rng.sample(free, 2) for _ in range(8)]
    return grid, pairs


def tile_indices(grid, tile):
    return [(i, j) for i in range(-(-grid.height // tile)) for j in range(-(-grid.width // tile))]


def assert_rows_match_rays(grid):
    # Every sight row the searches left equals sight_bits() over the circle.
    rows = 0
    for ring in grid.circle_tables.values():
        for flat, row in ring.items():
            cell = flat % grid.width, flat // grid.width
            assert row == sight_bits(grid, cell, ring.rays, ring.full), (ring.radius, cell)
        rows += len(ring)
    assert rows > 0


class TestPrepare:
    """prepare() builds the tile tables of a config's rings; searches copy
    rows from them, with the same results."""

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
        # After prepare(), a search builds no table and walks no ray: it
        # copies every row it reads from a tile's table.
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = self.CONFIGS[1]
        expected = essence(search(Grid(grid.blocked), start, goal, cfg))
        monkeypatch.setattr(planner, "TILE", 4)
        prepare(grid, cfg)
        monkeypatch.setattr(planner, "sight_bits", lambda *args: pytest.fail("walked a ray"))
        monkeypatch.setattr(planner, "sight_table", lambda *args: pytest.fail("built a table"))
        assert essence(search(grid, start, goal, cfg)) == expected
        assert sorted(grid.circle_tables) == [2, 4, 8]
        for ring in grid.circle_tables.values():
            assert sorted(ring.tiles) == tile_indices(grid, 4)
            for (i, j), table in ring.tiles.items():  # the tile's own rows
                rows = min(grid.height, 4 * i + 4) - 4 * i
                cols = min(grid.width, 4 * j + 4) - 4 * j
                assert len(table) == rows * cols * ring.size
            assert ring

    def test_prepare_adds_a_table_to_a_searched_ring(self, monkeypatch):
        # A ring a search built keeps its rows and the tiles it reached;
        # prepare() builds only the tiles it lacks.
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = PlannerConfig(mode="lian", delta_max=8, alpha_max=25)
        monkeypatch.setattr(planner, "TILE", 4)
        before = essence(search(grid, start, goal, cfg))
        ring = grid.circle_tables[8]
        rows, tiles = dict(ring), dict(ring.tiles)
        assert rows and 0 < len(tiles) < len(tile_indices(grid, 4))
        prepare(grid, cfg)
        assert grid.circle_tables[8] is ring and dict(ring) == rows
        assert sorted(ring.tiles) == tile_indices(grid, 4)
        assert all(ring.tiles[index] is tile for index, tile in tiles.items())
        tabled = dict(ring.tiles)
        prepare(grid, cfg)
        assert ring.tiles == tabled
        assert essence(search(grid, start, goal, cfg)) == before

    def test_release_drops_only_the_tables(self):
        grid, start, goal = mapgen.bend_corridor(3, 13, 13, 0.0)
        cfg = self.CONFIGS[1]
        prepare(grid, cfg)
        search(grid, start, goal, cfg)
        rings = dict(grid.circle_tables)
        steps = {radius: (ring.steps, ring.rays) for radius, ring in rings.items()}
        release(grid)
        assert grid.circle_tables == rings
        for radius, ring in grid.circle_tables.items():
            assert ring is rings[radius] and (ring.steps, ring.rays) == steps[radius]
            assert not ring and ring.tiles == {} and ring.picks == {}
        assert essence(search(grid, start, goal, cfg)) == essence(
            search(Grid(grid.blocked), start, goal, cfg))

    def test_no_table_above_the_cap_or_without_offsets(self, monkeypatch):
        grid = empty_grid(20)
        prepare(grid, PlannerConfig(mode="lian", delta_max=40))  # 40 >= 2 * 20
        assert (grid.circle_tables[40].steps, grid.circle_tables[40].full) == ((), 0)
        assert grid.circle_tables[40].tiles == {}
        # A radius-3 ring has 16 offsets: 2 bytes for each of 400 cells.
        monkeypatch.setattr(planner, "MAX_TABLE_BYTES", 799)
        prepare(grid, PlannerConfig(mode="lian", delta_max=3))
        assert grid.circle_tables[3].tiles == {(0, 0): None}
        release(grid)
        monkeypatch.setattr(planner, "MAX_TABLE_BYTES", 800)
        prepare(grid, PlannerConfig(mode="lian", delta_max=3))
        assert len(grid.circle_tables[3].tiles[0, 0]) == 800


class TestSightRows:
    """A ring's rows equal sight_bits() over its whole circle, however they
    were filled: from one table, from tile tables or by walking rays."""

    CFG = PlannerConfig(mode="elian", delta_max=8, delta_min=2, k=0.5, alpha_max=45)

    def test_rows_from_one_table(self):
        building = Grid(mapgen.building_blocked(4))
        free = [(c, r) for r in range(building.height) for c in range(building.width)
                if not building.blocked_at(c, r)]
        rng = random.Random(22)
        elian = PlannerConfig(mode="elian", delta_max=20, delta_min=5, alpha_max=30)
        for _ in range(4):
            search(building, *rng.sample(free, 2), elian)
        assert sorted(building.circle_tables) == [5, 10, 20]
        assert all(list(ring.tiles) == [(0, 0)] for ring in building.circle_tables.values())
        assert_rows_match_rays(building)

    @pytest.mark.parametrize("cap", [planner.MAX_TABLE_BYTES, 0])
    def test_rows_from_tiles_or_rays(self, cap, monkeypatch):
        # Tiles of 3 x 3 cells, at radii 8, 4 and 2; with no table allowed,
        # every tile walks the rays of each row.
        grid, pairs = tall_walled_grid()
        expected = [essence(search(grid, a, b, self.CFG)) for a, b in pairs]
        assert sum(out[0] is Verdict.FOUND for out in expected) >= 6
        tiled = Grid(grid.blocked)
        monkeypatch.setattr(planner, "TILE", 3)
        monkeypatch.setattr(planner, "MAX_TABLE_BYTES", cap)
        assert [essence(search(tiled, a, b, self.CFG)) for a, b in pairs] == expected
        assert sorted(tiled.circle_tables) == [2, 4, 8]
        for ring in tiled.circle_tables.values():
            assert len({i for i, _ in ring.tiles}) > 5 and len({j for _, j in ring.tiles}) > 3
            assert all((tile is None) == (cap == 0) for tile in ring.tiles.values())
        assert_rows_match_rays(tiled)

    def test_a_search_inside_one_tile_builds_one_tile_per_ring(self, monkeypatch):
        blocked = np.zeros((300, 40), dtype=bool)
        blocked[100, :] = True  # no cell past row 99 is reached
        blocked[50, :30] = blocked[50, 33:] = True  # a gap of 3 cells: eLIAN descends
        grid = Grid(blocked)
        built = []

        def counting_table(grid, rays):
            built.append((grid.height, grid.width))
            return sight_table(grid, rays)

        monkeypatch.setattr(planner, "sight_table", counting_table)
        out = search(grid, (5, 10), (35, 90), self.CFG)
        assert out.verdict is Verdict.FOUND and out.stats.reinsertions > 0
        assert sorted(grid.circle_tables) == [2, 4, 8]
        assert all(list(ring.tiles) == [(0, 0)] for ring in grid.circle_tables.values())
        # Tile (0, 0) and its margin: rows 0 to TILE + radius, all 40 columns.
        assert sorted(built) == [(130, 40), (132, 40), (136, 40)]

    def test_release_keeps_outcomes(self, monkeypatch):
        monkeypatch.setattr(planner, "TILE", 3)
        grid, pairs = tall_walled_grid()
        before = [essence(search(grid, a, b, self.CFG)) for a, b in pairs]
        assert all(ring.picks for ring in grid.circle_tables.values())
        release(grid)
        assert all(not ring and not ring.tiles and not ring.picks
                   for ring in grid.circle_tables.values())
        assert [essence(search(grid, a, b, self.CFG)) for a, b in pairs] == before
        assert_rows_match_rays(grid)


class TestSightPatterns:
    """A ring's ``picks`` maps each sight pattern expand() read to the ring's
    steps of its set bits, low bit first: the order children are pushed in."""

    def test_patterns_hold_their_steps_low_bit_first(self):
        blocked = mapgen.building_blocked(4)
        grids = [Grid(blocked)]
        for alpha in (25, 90):
            cfg = dataclasses.replace(elian_cfg(), alpha_max=alpha)
            for inst in mapgen.hard_instances(blocked, "b4", 4, seed=20):
                search(grids[0], inst.start, inst.goal, cfg)
        for grid, start, goal in mapgen.corridor_suite():
            for cfg in (PlannerConfig(mode="lian", delta_max=8), elian_cfg(dmax=8, dmin=4)):
                search(grid, start, goal, cfg)
            grids.append(grid)
        patterns = 0
        for grid in grids:
            for ring in grid.circle_tables.values():
                steps = ring.steps
                assert ring.picks.steps is steps
                for bits, picked in ring.picks.items():
                    assert picked == tuple(steps[j] for j in range(len(steps)) if bits >> j & 1)
                    patterns += bits.bit_count() > 1
        assert patterns > 900  # 1,003 patterns of two or more targets


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
        assert None not in first._visits
        for level, visit in enumerate(first._visits):
            ring = visit[1]
            assert second._visits[level][1] is ring
            assert grid.circle_tables[ring.radius] is ring

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


def probe_expand(monkeypatch):
    """Wrap Search.expand as perfbench's tracer does; return the call log.

    Each call leaves (cell, entries pushed, generated, dominated, descents,
    levels moved, stale pops, whether the node ended at the last level).
    Each node that run hands to expand must be a SearchNode built from the
    entry run popped last; expand's own pops, of stale entries, come later.
    """
    calls = []
    original = Search.expand
    popped = []
    real_heappop = planner.heappop

    def heappop(heap):
        popped.append(real_heappop(heap))
        return popped[-1]

    def expand(search, node):
        f, neg_g, key, _, parent, level = popped[-1]
        assert type(node) is SearchNode
        assert node.cell == divmod(key // search._key_base, search.grid.height)
        assert node.parent is parent
        assert (node.g, node.f, node.level) == (-neg_g, f, level)
        s = search.stats
        before = (search._seq, s.generated, s.dominated, s.reinsertions, node.level,
                  s.stale_pops)
        original(search, node)
        after = (search._seq, s.generated, s.dominated, s.reinsertions, node.level,
                 s.stale_pops)
        calls.append((node.cell, *(a - b for a, b in zip(after, before)),
                      node.level == len(search.levels) - 1))

    monkeypatch.setattr(Search, "expand", expand)
    monkeypatch.setattr(planner, "heappop", heappop)
    return calls


class TestExpandTracerContract:
    """perfbench/spans.py wraps Search.expand: it takes one call for each
    popped expansion, ladder descents aside, and a dead end for a call that
    leaves stats.generated as it was. Inlining expand into run would zero
    both without failing anything else."""

    def cases(self):
        lian = PlannerConfig(mode="lian", delta_max=8, alpha_max=25, weight=2, time_cap=60)
        elian = PlannerConfig(mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=25,
                              weight=2, time_cap=60)
        for grid, start, goal in mapgen.corridor_suite():
            yield grid, start, goal, lian
            yield grid, start, goal, elian
        blocked = mapgen.building_blocked(1)
        [inst] = mapgen.hard_instances(blocked, "b1", 1, seed=3)
        yield Grid(blocked), inst.start, inst.goal, elian_cfg(dmax=20, dmin=5)

    def test_one_call_per_popped_expansion(self, monkeypatch):
        calls = probe_expand(monkeypatch)
        dead_ends = descended_and_pushed = 0
        for grid, start, goal, cfg in self.cases():
            del calls[:]
            stats = search(grid, start, goal, cfg).stats
            assert len(calls) == stats.expansions - stats.reinsertions
            assert sum(c[4] for c in calls) == stats.reinsertions
            for _, pushed, generated, dominated, descents, moved, _, at_last in calls:
                assert descents == moved
                assert generated == pushed + dominated
                if generated == 0:
                    # Nothing queued, nothing dominated: a dead end, which
                    # descended to the last level and was discarded there.
                    assert pushed == dominated == 0 and at_last
                    dead_ends += 1
                descended_and_pushed += descents > 0 and pushed > 0
        assert dead_ends > 0 and descended_and_pushed > 0

    @pytest.mark.parametrize("pops", [1, 9, 30])
    def test_timeout_keeps_the_counts_of_work_done(self, monkeypatch, pops):
        # A clock that ticks once per call: the deadline passes after
        # `pops` entries were popped, in the middle of the search.
        grid, start, goal = mapgen.corridor_suite()[11]

        def cfg(time_cap):
            return PlannerConfig(mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=25,
                                 weight=2, time_cap=time_cap)

        calls = probe_expand(monkeypatch)
        assert search(grid, start, goal, cfg(60)).verdict is Verdict.FOUND
        uncapped = list(calls)
        del calls[:]
        ticks = iter(range(10**6))
        monkeypatch.setattr(planner, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        out = search(grid, start, goal, cfg(pops))
        assert out.verdict is Verdict.TIMEOUT and out.path is None
        assert calls == uncapped[:len(calls)] and len(calls) < len(uncapped)
        descents = sum(c[4] for c in calls)
        assert (out.stats.expansions, out.stats.reinsertions) == (len(calls) + descents, descents)
        run_stale = out.stats.stale_pops - sum(c[6] for c in calls)
        assert len(calls) + run_stale == pops
        if pops > 1:
            assert descents > 0

    @pytest.mark.parametrize("alpha_max", [20, 25, 30])
    def test_arc_maps_hold_arc_windows_of_ring_headings(self, alpha_max):
        # Every heading a search stores in the shared arc_windows() maps is
        # the offset of a ring of its ladder, and maps to its window.
        filled = 0
        for grid, start, goal, cfg in self.cases():
            cfg = dataclasses.replace(cfg, alpha_max=alpha_max)
            geometry.arc_windows.cache_clear()
            search(grid, start, goal, cfg)
            radii = {max(1, round(delta)) for delta in delta_levels(cfg)}
            offsets = {offset for radius in radii for offset in circle_offsets(radius)}
            for radius in radii:
                arcs = geometry.arc_windows(radius, alpha_max)
                assert set(arcs) <= offsets
                for (hx, hy), bits in arcs.items():
                    assert bits == arc_window_scan(radius, hx, hy, alpha_max)
                filled += len(arcs)
        assert filled > 0

    def test_configs_sharing_a_radius_keep_their_own_windows(self, monkeypatch):
        # Two turn limits at one radius, run one after the other on one
        # grid, give what each gives on a fresh grid with an arc map of
        # its own.
        grid, start, goal = mapgen.corridor_suite()[11]
        configs = [PlannerConfig(mode="elian", delta_max=8, delta_min=4, k=0.5, alpha_max=alpha,
                                 weight=2, time_cap=60) for alpha in (20, 30)]
        with monkeypatch.context() as patch:
            patch.setattr(planner, "arc_windows", lambda radius, alpha_max: {})
            fresh = [essence(search(Grid(grid.blocked), start, goal, cfg)) for cfg in configs]
        assert fresh[0] != fresh[1]
        geometry.arc_windows.cache_clear()
        for _ in range(2):  # the second time on warm maps
            assert [essence(search(grid, start, goal, cfg)) for cfg in configs] == fresh


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


class TestQueuedEntriesBitForBit:
    """Each entry expand queues holds, bit for bit, the -g and f of the
    definition: g = parent.g + hypot(step) and f = g + weight * h. A change
    to how expand rounds either fails here, not only in the benchmark's
    record digests."""

    def cases(self):
        blocked = mapgen.building_blocked(4)
        building = Grid(blocked)
        instances = mapgen.hard_instances(blocked, "b4", 4, seed=20)
        for alpha in (25, 90):
            for cfg in (PlannerConfig(mode="lian", delta_max=8, time_cap=60),
                        elian_cfg(dmax=8, dmin=4)):
                for grid, start, goal in mapgen.corridor_suite():
                    yield grid, start, goal, dataclasses.replace(cfg, alpha_max=alpha)
            for cfg in (LIAN20, elian_cfg()):
                for inst in instances:
                    yield building, inst.start, inst.goal, dataclasses.replace(
                        cfg, alpha_max=alpha)

    def test_queued_entries_hold_exact_g_and_f(self, monkeypatch):
        pushed = []
        real_heappush = planner.heappush

        def heappush(heap, entry):
            pushed.append(entry)
            real_heappush(heap, entry)

        monkeypatch.setattr(planner, "heappush", heappush)
        checked = goals = left = 0
        for grid, start, goal, cfg in self.cases():
            del pushed[:]
            s = Search(grid, start, goal, cfg)
            s.run()
            assert pushed[0][4] is None  # the start, pushed by run
            left += len(s.open)
            for f, neg_g, key, _, parent, _ in pushed[1:]:
                (col, row), (pcol, prow) = divmod(key // s._key_base, grid.height), parent.cell
                g = parent.g + math.hypot(col - pcol, row - prow)
                assert neg_g == -g, (cfg, (col, row), parent.cell)
                assert f == g + cfg.weight * math.hypot(goal[0] - col, goal[1] - row)
                if (col, row) == goal:
                    assert f == g
                    goals += 1
                checked += 1
        assert checked > 15000 and goals > 50 and left > 4000


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
