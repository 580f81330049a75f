import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglepath import (
    Grid,
    circle_offsets,
    euclid,
    line_of_sight,
    parse_ascii_map,
    turn_angle,
)
from anglepath import PlannerConfig, Search, SearchNode, geometry, planner
from anglepath.geometry import arc_window, ray, sight_bits, sight_table, turn_cos_threshold
from anglepath.grids import MAX_RUN
from oracles import (
    arc_window_scan,
    circle_oracle,
    empty_grid,
    los_oracle,
    random_grid,
    segment_cells,
    turn_ok,
)


class TestEuclid:
    def test_zero(self):
        assert euclid((0, 0), (0, 0)) == 0.0

    def test_pythagorean_triple(self):
        assert euclid((0, 0), (3, 4)) == 5.0

    def test_general(self):
        assert euclid((10, 20), (30, 40)) == pytest.approx(math.sqrt(800), abs=1e-12)


class TestTurnAngle:
    def test_collinear(self):
        assert turn_angle((0, 0), (1, 0), (2, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_perpendicular(self):
        assert turn_angle((0, 0), (1, 0), (1, 1)) == pytest.approx(90.0, abs=1e-9)

    def test_reversal(self):
        assert turn_angle((0, 0), (1, 0), (0, 0)) == pytest.approx(180.0, abs=1e-9)

    def test_closed_form(self):
        expected = math.degrees(math.acos(4 / (2 * math.sqrt(5))))
        assert turn_angle((0, 0), (2, 0), (4, 1)) == pytest.approx(expected, abs=1e-12)
        assert turn_angle((0, 0), (2, 0), (4, 1)) == pytest.approx(26.565051, abs=1e-6)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            turn_angle((1, 1), (1, 1), (2, 2))
        with pytest.raises(ValueError):
            turn_angle((0, 0), (1, 1), (1, 1))

    @given(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.integers(1, 7),
    )
    def test_translation_and_scale_invariant(self, p, m, n, shift, factor):
        if p == m or m == n:
            return
        base = turn_angle(p, m, n)
        moved = turn_angle(
            (p[0] + shift[0], p[1] + shift[1]),
            (m[0] + shift[0], m[1] + shift[1]),
            (n[0] + shift[0], n[1] + shift[1]),
        )
        scaled = turn_angle(
            (p[0] * factor, p[1] * factor),
            (m[0] * factor, m[1] * factor),
            (n[0] * factor, n[1] * factor),
        )
        assert moved == pytest.approx(base, abs=1e-9)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestCircleOffsets:
    def test_radius_zero(self):
        assert circle_offsets(0) == ((0, 0),)

    def test_radius_one(self):
        assert set(circle_offsets(1)) == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_radius_two(self):
        expected = {
            (2, 0), (0, 2), (-2, 0), (0, -2),
            (1, 2), (-1, 2), (1, -2), (-1, -2),
            (2, 1), (-2, 1), (2, -1), (-2, -1),
        }
        assert set(circle_offsets(2)) == expected
        assert len(circle_offsets(2)) == 12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_offsets(-1)

    def test_matches_bruteforce_oracle(self):
        for radius in range(0, 65):
            assert set(circle_offsets(radius)) == circle_oracle(radius), radius

    def test_ordering_sorted(self):
        # Bit j of every circle mask is offset j, so the order is pinned.
        assert circle_offsets(1) == ((-1, 0), (0, -1), (0, 1), (1, 0))
        for radius in (1, 2, 5, 17):
            offsets = circle_offsets(radius)
            assert list(offsets) == sorted(set(offsets))

    def test_radial_error_below_one(self):
        for radius in range(1, 65):
            for dc, dr in circle_offsets(radius):
                assert abs(math.hypot(dc, dr) - radius) < 1.0

    def test_count_nondecreasing(self):
        counts = [len(circle_offsets(r)) for r in range(1, 65)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_eight_fold_symmetry(self):
        for radius in range(1, 65):
            pts = set(circle_offsets(radius))
            for dc, dr in pts:
                assert {(dr, dc), (-dc, dr), (dc, -dr), (-dr, -dc)} <= pts


def mask_offsets(circle, bits):
    """The offsets whose bits are set, in circle order."""
    return [offset for j, offset in enumerate(circle) if bits >> j & 1]


def window_offsets(radius, hx, hy, alpha_max):
    bits = arc_window(radius, hx, hy, alpha_max)
    assert isinstance(bits, int) and bits >> len(circle_offsets(radius)) == 0
    return mask_offsets(circle_offsets(radius), bits)


class TestArcWindow:
    BENCH_ALPHAS = (20.0, 25.0, 30.0, 60.0, 75.0, 90.0)

    def test_equals_full_scan_for_circle_headings(self):
        for radius in range(1, 21):
            circle = circle_offsets(radius)
            for hx, hy in circle:
                for alpha in self.BENCH_ALPHAS:
                    window = window_offsets(radius, hx, hy, alpha)
                    expected = [o for o in circle if turn_ok(hx, hy, *o, turn_cos_threshold(alpha))]
                    assert len(window) == len(set(window))
                    assert set(window) == set(expected), (radius, hx, hy, alpha)

    def test_half_turn_yields_every_offset_once(self):
        for radius in (1, 2, 5, 10, 20):
            circle = circle_offsets(radius)
            for hx, hy in circle + ((3, -7), (1, 0), (-5, 2)):
                window = window_offsets(radius, hx, hy, 180.0)
                assert sorted(window) == sorted(circle)

    def test_zero_turn_keeps_only_collinear_offsets(self):
        # Every offset straight on is kept too: hypot(2, 1) ** 2 rounds above
        # 5, so a cosine test alone would drop (4, 2) after heading (2, 1).
        for radius in (1, 2, 5, 10, 20):
            circle = circle_offsets(radius)
            for hx, hy in circle + ((3, 4), (1, 2), (-7, 3)):
                straight_on = [
                    (dc, dr) for dc, dr in circle if hx * dr - hy * dc == 0 and hx * dc + hy * dr > 0
                ]
                assert window_offsets(radius, hx, hy, 0.0) == straight_on, (radius, hx, hy)

    @pytest.mark.parametrize("alpha", [0.0, 20.0, 45.0, 90.0, 135.0, 179.999, 180.0])
    def test_wrapping_and_off_circle_headings(self, alpha):
        # Headings near east make the arc wrap past angle 0; the rest lie on
        # no circle, like the heading of a move injected onto the goal.
        headings = [(1, 0), (9, -1), (9, 1), (13, -5), (-4, 7), (2, -11), (6, 6)]
        for radius in (1, 3, 10, 20):
            circle = circle_offsets(radius)
            for hx, hy in headings:
                window = window_offsets(radius, hx, hy, alpha)
                expected = [o for o in circle if turn_ok(hx, hy, *o, turn_cos_threshold(alpha))]
                assert len(window) == len(set(window))
                assert set(window) == set(expected), (radius, hx, hy)

    DIFFERENTIAL_ALPHAS = (0.0, 1e-9, 20.0, 25.0, 30.0, 45.0, 60.0, 89.9999999, 90.0,
                           90.0000001, 135.0, 179.999999999, 180.0)

    @pytest.mark.parametrize("radius", list(range(1, 65)) + [600])
    def test_equals_the_full_scan(self, radius):
        # Bisection by angle must give the scan's bits exactly, edges
        # included: headings from this and the neighbouring rings (a ladder
        # step) and from goal steps up to 300 cells, at boundary alphas.
        rng = random.Random(radius)
        headings = []
        for ring in (radius, max(1, radius // 2), 2 * radius):
            circle = circle_offsets(ring)
            headings += rng.sample(circle, min(8, len(circle)))
        while len(headings) < 32:
            step = (rng.randint(-300, 300), rng.randint(-300, 300))
            if step != (0, 0):
                headings.append(step)
        for hx, hy in headings:
            for alpha in self.DIFFERENTIAL_ALPHAS:
                assert arc_window(radius, hx, hy, alpha) == arc_window_scan(
                    radius, hx, hy, alpha), (radius, hx, hy, alpha)

    def test_broken_run_falls_back_to_explicit_offsets(self, monkeypatch):
        # The mask is per offset, whatever the circle's order: here the
        # admissible offsets are not one run of it.
        scrambled = ((-2, 0), (2, 0), (0, 2), (2, 1))
        monkeypatch.setattr(geometry, "circle_offsets", lambda radius: scrambled)
        assert arc_window.__wrapped__(2, 1, 0, 30.0) == 0b1010


class TestLineOfSight:
    def test_empty_grid_diagonal(self):
        g = parse_ascii_map("\n".join(["....."] * 5))
        assert line_of_sight(g, (0, 0), (4, 4))

    def test_blocked_center(self):
        g = parse_ascii_map("...\n.#.\n...")
        assert not line_of_sight(g, (0, 1), (2, 1))

    def test_sealed_diagonal_corner(self):
        # Segment passes exactly through the corner shared by two blocked
        # cells; with both pinch cells blocked it must fail.
        g = parse_ascii_map(".#.\n#..\n...")
        assert not line_of_sight(g, (0, 0), (1, 1))

    def test_half_open_corner_passes(self):
        g = parse_ascii_map(".#.\n...\n...")
        assert line_of_sight(g, (0, 0), (1, 1))
        g2 = parse_ascii_map("...\n#..\n...")
        assert line_of_sight(g2, (0, 0), (1, 1))

    def test_blocked_endpoint(self):
        g = parse_ascii_map("#..\n...\n...")
        assert not line_of_sight(g, (0, 0), (2, 2))
        assert not line_of_sight(g, (2, 2), (0, 0))

    def test_degenerate_same_cell(self):
        g = parse_ascii_map("..\n..")
        assert line_of_sight(g, (1, 1), (1, 1))

    def test_out_of_bounds_endpoint(self):
        # Off-grid cells must not be read from wrapped flat indices.
        g = parse_ascii_map("...\n...\n..#")
        for a, b in (((0, -1), (2, 1)), ((0, -1), (0, 1)), ((3, 0), (1, 1)), ((-1, 2), (1, 2))):
            assert not line_of_sight(g, a, b), (a, b)
            assert not line_of_sight(g, b, a), (b, a)

    def test_matches_exact_oracle_randomized(self):
        rng = random.Random(20240)
        for _ in range(25):
            n = rng.randrange(4, 13)
            g = random_grid(rng, n, 0.25)
            for _ in range(160):
                a = (rng.randrange(n), rng.randrange(n))
                b = (rng.randrange(n), rng.randrange(n))
                assert line_of_sight(g, a, b) == los_oracle(g, a, b), (g.blocked.tolist(), a, b)

    @given(st.data())
    def test_symmetry(self, data):
        n = data.draw(st.integers(3, 32))
        density = data.draw(st.floats(0.0, 0.5))
        g = random_grid(random.Random(data.draw(st.integers(0, 10**6))), n, density)
        a = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        b = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        assert line_of_sight(g, a, b) == line_of_sight(g, b, a)

    def test_blocking_any_traversed_cell_breaks_sight(self):
        rng = random.Random(7)
        for _ in range(40):
            n = 12
            a = (rng.randrange(n), rng.randrange(n))
            b = (rng.randrange(n), rng.randrange(n))
            if a == b:
                continue
            assert line_of_sight(empty_grid(n), a, b)
            crossed, _ = segment_cells(b[0] - a[0], b[1] - a[1])
            assert (0, 0) in crossed and (b[0] - a[0], b[1] - a[1]) in crossed
            for dc, dr in crossed:
                blocked = np.zeros((n, n), dtype=bool)
                blocked[a[1] + dr, a[0] + dc] = True
                assert not line_of_sight(Grid(blocked), a, b)


class TestRay:
    WIDTHS = (1, 3, 7, 26, 600)

    def check(self, dcol, drow, widths):
        crossed, touches = segment_cells(dcol, drow)
        # A flat offset names one cell of the bounding box when the grid is
        # at least as wide as the box; no narrower grid holds the segment.
        left = min(0, dcol)
        for width in widths:
            if width <= abs(dcol):
                continue
            along_rows, runs, pairs = ray(width, dcol, drow)
            assert along_rows == (abs(dcol) >= abs(drow))
            step = 1 if along_rows else width

            def cell(off):
                dr, dc = divmod(off - left, width)
                return dc + left, dr

            run_cells = []
            for off, length in runs:
                assert 1 <= length <= MAX_RUN, (dcol, drow, width)
                run_cells.append([cell(off + t * step) for t in range(length)])
            cells = [c for run in run_cells for c in run]
            assert sorted(cells) == sorted(crossed), (dcol, drow, width)
            assert sorted(tuple(sorted(p)) for p in pairs) == sorted(
                tuple(sorted(dr * width + dc for dc, dr in pair)) for pair in touches
            ), (dcol, drow, width)
            # Segment order from the origin: each run lies wholly beyond the
            # one before it, and each pinched corner beyond the one before.
            along = [[dc * dcol + dr * drow for dc, dr in run] for run in run_cells]
            assert (0, 0) in run_cells[0] and (dcol, drow) in run_cells[-1]
            assert all(max(a) < min(b) for a, b in zip(along, along[1:])), (dcol, drow, width)
            corners = [
                (c1 + c2) * dcol + (r1 + r2) * drow
                for (c1, r1), (c2, r2) in ((cell(o1), cell(o2)) for o1, o2 in pairs)
            ]
            assert corners == sorted(set(corners)), (dcol, drow, width)

    def test_runs_cover_each_crossed_cell_once(self):
        for dcol in range(-25, 26):
            for drow in range(-25, 26):
                self.check(dcol, drow, self.WIDTHS)

    def test_rays_longer_than_a_table_entry(self):
        for dcol, drow in ((599, 0), (-599, 0), (0, 599), (0, -599), (599, 1), (-599, -1),
                           (599, 3), (2, -599)):
            self.check(dcol, drow, (600, 601))


def pinched_grid(rng, height, width, density, pinches):
    """Random blockage plus diagonal pairs that seal a lattice corner."""
    blocked = np.array(
        [[rng.random() < density for _ in range(width)] for _ in range(height)]
    )
    for _ in range(pinches):
        c, r = rng.randrange(width - 1), rng.randrange(height - 1)
        diagonal = rng.random() < 0.5
        blocked[r, c] = blocked[r + 1, c + 1] = diagonal
        blocked[r + 1, c] = blocked[r, c + 1] = not diagonal
    return Grid(blocked)


def ring_rays(grid, radius):
    # As planner.Search lays out a ring: no ray for an offset that lands in
    # the grid from no cell.
    return tuple(
        (dc, dr, ray(grid.width, dc, dr) if abs(dc) < grid.width and abs(dr) < grid.height
         else None)
        for dc, dr in circle_offsets(radius)
    )


def visible_offsets(grid, radius, cell, need=None):
    """The circle offsets selected by need (default all) that cell sees."""
    circle = circle_offsets(radius)
    full = (1 << len(circle)) - 1
    rays = ring_rays(grid, radius)
    bits = sight_bits(grid, cell, rays, full if need is None else need)
    assert bits & ~(full if need is None else need) == 0
    return mask_offsets(circle, bits)


def expected_offsets(grid, radius, cell, los):
    """The circle offsets from cell whose target is in bounds and seen by los."""
    return [
        (dc, dr)
        for dc, dr in circle_offsets(radius)
        if grid.in_bounds(cell[0] + dc, cell[1] + dr)
        and los(grid, cell, (cell[0] + dc, cell[1] + dr))
    ]


class TestSightTable:
    """sight_table() answers for every cell at once what sight_bits() does."""

    @staticmethod
    def check(grid, radius, asked=None):
        # Every cell's row against sight_bits over the offsets ``asked``
        # (default all); the table answers for all of them either way.
        rays = ring_rays(grid, radius)
        size = (len(rays) + 7) // 8
        full = (1 << len(rays)) - 1
        table = sight_table(grid, rays)
        assert len(table) == grid.width * grid.height * size
        for row in range(grid.height):
            for col in range(grid.width):
                start = (row * grid.width + col) * size
                seen = int.from_bytes(table[start:start + size], "little")
                if asked is not None:
                    assert seen & ~asked == 0, (col, row)
                expected = sight_bits(grid, (col, row), rays, full if asked is None else asked)
                assert seen == expected, (radius, col, row)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_equal_sight_bits(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        height, width = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        pinches = data.draw(st.integers(0, 8)) if min(height, width) > 1 else 0
        grid = pinched_grid(
            rng, height, width, data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])), pinches)
        # Radii up to wider than the grid, the largest with offsets among them.
        side = max(width, height)
        radius = data.draw(st.sampled_from([1, 2, 3, 5, 7, side + 1, 2 * side - 1]))
        self.check(grid, radius)

    @pytest.mark.parametrize("shape", [(1, 600), (600, 1), (3, 600)])
    def test_runs_longer_than_a_table_entry(self, shape):
        # Of the thousands of offsets at these radii only those with a ray
        # can land; sight_bits is asked about those, the table holds zeros
        # for the rest.
        for radius in (max(shape) - 1, 300):
            for block in (None, 254, 255, 256, 300, 511):
                blocked = np.zeros(shape, dtype=bool)
                if block is not None:
                    blocked.flat[block] = True
                grid = Grid(blocked)
                asked = sum(1 << j for j, (_, _, ray_j) in enumerate(ring_rays(grid, radius))
                            if ray_j is not None)
                self.check(grid, radius, asked)


class TestVisibleTargets:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_circle_rays_match_exact_oracle(self, data):
        # Every circle offset from every cell, on non-square grids that circles
        # often overhang, with corners sealed by diagonal pairs.
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        height, width = data.draw(st.integers(2, 14)), data.draw(st.integers(2, 14))
        g = pinched_grid(
            rng, height, width, data.draw(st.sampled_from([0.0, 0.1, 0.25])),
            data.draw(st.integers(0, 6)),
        )
        radius = data.draw(st.integers(1, 12))
        count = len(circle_offsets(radius))
        for row in range(height):
            for col in range(width):
                cell = (col, row)
                expected = expected_offsets(g, radius, cell, los_oracle)
                # An ask for some offsets answers for those alone.
                part = data.draw(st.integers(0, (1 << count) - 1))
                asked = mask_offsets(circle_offsets(radius), part)
                assert visible_offsets(g, radius, cell, part) == [
                    o for o in asked if o in expected
                ], (cell, radius, part)
                assert visible_offsets(g, radius, cell) == expected, (cell, radius)
                for dc, dr in circle_offsets(radius):
                    target = (col + dc, row + dr)
                    assert line_of_sight(g, cell, target) == ((dc, dr) in expected)

    def test_answers_are_kept_on_the_grid(self, monkeypatch):
        # Search.expand keeps what sight_bits answered per radius and cell,
        # so no ray from a cell is walked twice on one grid.
        walked = []

        class CountingRay(tuple):
            # A ray that notes its offset's index when the kernel unpacks it.
            def __iter__(self):
                walked.append(self.j)
                return tuple.__iter__(self)

        def counting_ray(width, dcol, drow):
            counted = CountingRay(ray(width, dcol, drow))
            counted.j = circle_offsets(2).index((dcol, drow))
            return counted

        monkeypatch.setattr(planner, "ray", counting_ray)
        cfg = PlannerConfig(mode="lian", delta_max=2, alpha_max=30)

        def children(grid, parent):
            # The cells pushed by expanding (0, 0) reached from parent (None: the start).
            s = Search(grid, (0, 0), (2, 2), cfg)
            back = None if parent is None else SearchNode(parent, None, 0.0, 0.0, 0)
            s.expand(SearchNode((0, 0), back, 0.0, 0.0, 0))
            return sorted(divmod(key // s._key_base, grid.height) for _, _, key, *_ in s.open)

        g = parse_ascii_map("...\n.#.\n...")
        # 12 offsets at radius 2; from (0, 0) only (0, 2), (1, 2), (2, 0)
        # and (2, 1), bits 6, 8, 10 and 11, land, and the blocked centre
        # hides (1, 2) and (2, 1). Heading east asks bits 9-11.
        assert children(g, (-1, 0)) == [(2, 0)]
        assert walked == [10, 11]  # (2, -1), bit 9, is off the grid
        assert children(g, None) == [(0, 2), (2, 0)]
        assert walked == [10, 11, 6, 8]
        assert children(g, (0, -1)) == [(0, 2)]  # heading south: bits 4, 6 and 8
        assert len(walked) == 4  # every offset was asked before
        # One ring per radius, and in its memo one entry per asked cell:
        # asked bits above the seen ones.
        assert list(g.circle_tables) == [2]
        radius, steps, count, full, memo, rays, table = g.circle_tables[2]
        assert memo == {0: 0xFFF << 12 | 1 << 10 | 1 << 6}
        assert table is None  # searches alone walk rays; prepare() builds tables
        fresh = parse_ascii_map("...\n.#.\n...")
        assert fresh.circle_tables == {}
        assert children(fresh, (-1, 0)) == [(2, 0)]
        assert walked[4:] == [10, 11]  # a new grid keeps its own answers

    @pytest.mark.parametrize("shape", [(1, 600), (600, 1)])
    def test_straight_rays_longer_than_a_table_entry(self, shape):
        along = max(shape)
        for block in (254, 255, 256, 300, 509, 510, 511, 599):
            blocked = np.zeros(shape, dtype=bool)
            blocked.flat[block] = True
            g = Grid(blocked)
            end = (along - 1, 0) if shape[0] == 1 else (0, along - 1)
            assert not line_of_sight(g, (0, 0), end)
            assert not line_of_sight(g, end, (0, 0))
            before = (block - 1, 0) if shape[0] == 1 else (0, block - 1)
            assert line_of_sight(g, (0, 0), before)
            assert visible_offsets(g, along - 1, (0, 0)) == []
            assert visible_offsets(g, along - 1, end) == []
            open_grid = Grid(np.zeros(shape, dtype=bool))
            assert visible_offsets(open_grid, along - 1, (0, 0)) == [end]

    def test_shallow_ray_longer_than_a_table_entry(self):
        # (0,0) -> (599,1) crosses row 0 for 300 cells, then row 1.
        for block in ((260, 0), (299, 0), (300, 0), (300, 1), (560, 1), (270, 2)):
            blocked = np.zeros((3, 600), dtype=bool)
            blocked[block[1], block[0]] = True
            g = Grid(blocked)
            for a, b in (((0, 0), (599, 1)), ((599, 1), (0, 0)), ((0, 1), (599, 2))):
                assert line_of_sight(g, a, b) == los_oracle(g, a, b), (block, a, b)
            # Circles far wider than the grid is tall: only the offsets
            # with |drow| <= 2 can land, from the end columns or near them.
            for radius, cols in ((599, (0, 599)), (300, (0, 1, 255, 256, 299, 300, 599))):
                for cell in [(col, row) for col in cols for row in range(3)]:
                    expected = expected_offsets(g, radius, cell, los_oracle)
                    assert visible_offsets(g, radius, cell) == expected, (block, radius, cell)
