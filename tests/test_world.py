import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeants.agents import Ant, Heading
from spikeants.circuit import AntBrain
from spikeants.render import ANT_COLOR, PALETTE, render_snapshot
from spikeants.world import (
    Color,
    EvaporationConfig,
    Grid,
    PatchKind,
    PheromoneField,
    SENSES,
)

EPS = 0.05


def color_of(kind=PatchKind.EMPTY, food=0, pos=0.0, neg=0.0, eps=EPS):
    """Effective color of the only cell of a 1x1 grid holding this state;
    a wall takes no deposit."""
    g = Grid(1, 1, clear_threshold=eps)
    g.set_kind(0, 0, kind, food)
    g.deposit(0, 0, PheromoneField.POSITIVE, pos)
    g.deposit(0, 0, PheromoneField.NEGATIVE, neg)
    return g.effective_color_at(0, 0)


def documented_color(kind, negative, positive, eps):
    """The color priority, written out: wall, food, negative, harm,
    positive, black."""
    if kind == PatchKind.WALL:
        return Color.WHITE
    if kind == PatchKind.FOOD:
        return Color.GREEN
    if negative >= eps:
        return Color.RED
    if kind == PatchKind.HARM:
        return Color.RED
    if positive >= eps:
        return Color.GREEN
    return Color.BLACK


# Pheromone levels on both sides of the visibility threshold, and on it.
AROUND_EPS = st.one_of(
    st.sampled_from([0.0, math.nextafter(EPS, 0.0), EPS, math.nextafter(EPS, 1.0)]),
    st.floats(min_value=0.0, max_value=2 * EPS))


def food_of(kind):
    """The food units `set_kind` needs for a patch of this kind."""
    return int(kind is PatchKind.FOOD)


@st.composite
def small_grids(draw):
    """Random kinds and pheromone levels, laid through `Grid.deposit`
    (exact on a fresh cell) before the kinds are set, so that a wall
    clears its cell as it would in a run."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    g = Grid(w, h, clear_threshold=EPS)
    for y in range(h):
        for x in range(w):
            kind = draw(st.sampled_from(list(PatchKind)))
            neg, pos = draw(AROUND_EPS), draw(AROUND_EPS)
            g.deposit(x, y, PheromoneField.NEGATIVE, neg)
            g.deposit(x, y, PheromoneField.POSITIVE, pos)
            g.set_kind(x, y, kind, food_of(kind))
    return g


def cells(g):
    return [(x, y) for y in range(g.height) for x in range(g.width)]


def every_case_grid():
    """One cell per kind, per pheromone (none, exactly at the threshold)
    and per field: food under both pheromones included. A wall takes no
    deposit, so its column is four clean walls."""
    g = Grid(4, 4, clear_threshold=EPS)
    for x, kind in enumerate(PatchKind):
        for y in range(4):
            g.set_kind(x, y, kind, food_of(kind))
            g.deposit(x, y, PheromoneField.NEGATIVE, EPS * (y >> 1))
            g.deposit(x, y, PheromoneField.POSITIVE, EPS * (y & 1))
    return g


def grid_state(g):
    """Everything a `Grid` write can change, as one comparable value."""
    return (bytes(g.sense), g.food.tobytes(), g.positive.tobytes(), g.negative.tobytes(),
            g.marked_cell_counts(), g.empty_cell_count(), g.total_food())


def rendered_pixels(g, ants=None):
    """Each cell's (r, g, b), row-major, in `render_snapshot`'s frame."""
    pixels = render_snapshot(g, ants).split(b"255\n", 1)[1]
    return [tuple(pixels[3 * i:3 * i + 3]) for i in range(g.width * g.height)]


def assert_rendered(g, positions):
    """With an ant on each of these positions, each cell is painted its
    color, and each ant's cell `ANT_COLOR`."""
    brain = AntBrain(kickstart=False)
    ants = [Ant(position=p, heading=Heading.NORTH, brain=brain) for p in positions]
    for (x, y), pixel in zip(cells(g), rendered_pixels(g, ants)):
        assert pixel == (ANT_COLOR if (x, y) in positions else PALETTE[g.effective_color_at(x, y)])


class TestColorRule:
    @given(small_grids())
    @example(every_case_grid())
    def test_cell_and_grid_lookups_follow_the_priority(self, g):
        for x, y in cells(g):
            want = documented_color(g.kind[y, x], g.negative[y, x], g.positive[y, x], EPS)
            assert g.effective_color_at(x, y) is want

    @settings(deadline=None)
    @given(st.data())
    def test_render_paints_cell_colors_with_ants_on_top(self, data):
        g = data.draw(small_grids())
        assert_rendered(g, data.draw(st.lists(st.sampled_from(cells(g)), max_size=3)))

    def test_render_paints_every_reachable_byte(self):
        """The frame has a pixel-table row per sense byte; every byte a
        grid can hold (4 kinds by 4 mark pairs, walls unmarked) is painted
        its color, with ants on two cells."""
        g = every_case_grid()
        assert len(set(g.sense)) == 13
        assert_rendered(g, [(0, 0), (3, 3)])


class TestEffectiveColor:
    def test_wall_is_white(self):
        assert color_of(PatchKind.WALL) is Color.WHITE

    def test_negative_masks_empty_red(self):
        assert color_of(neg=0.5, eps=0.01) is Color.RED

    def test_food_dominates_any_pheromone(self):
        assert color_of(PatchKind.FOOD, food=3, pos=5.0, neg=5.0) is Color.GREEN

    def test_positive_presents_empty_green(self):
        assert color_of(pos=1.0) is Color.GREEN

    def test_negative_beats_positive(self):
        assert color_of(pos=1.0, neg=1.0) is Color.RED

    def test_harm_is_red(self):
        assert color_of(PatchKind.HARM) is Color.RED

    def test_clean_empty_is_black(self):
        assert color_of(pos=EPS / 2, neg=EPS / 2) is Color.BLACK

    @given(st.sampled_from(list(PatchKind)),
           st.floats(min_value=0, max_value=2, allow_nan=False),
           st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_pure_function(self, kind, pos, neg):
        food = 1 if kind is PatchKind.FOOD else 0
        a = color_of(kind, food, pos, neg)
        b = color_of(kind, food, pos, neg)
        assert a is b


class TestGrid:
    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0)])
    def test_empty_dimension_rejected(self, width, height):
        with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
            Grid(width, height)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_clear_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="^clear_threshold must be positive and finite$"):
            Grid(3, 3, clear_threshold=threshold)

    @pytest.mark.parametrize("kind", [7, 4, -1])
    def test_from_kinds_rejects_a_kind_outside_patchkind(self, kind):
        with pytest.raises(ValueError, match="^kinds must be PatchKind values$"):
            Grid.from_kinds(np.array([[kind, 0]]), 1)

    def test_kind_is_read_only(self):
        g = Grid(2, 1)
        with pytest.raises(ValueError, match="read-only"):
            g.kind[0, 1] = PatchKind.WALL
        assert g.kind.tolist() == [[PatchKind.EMPTY, PatchKind.EMPTY]]

    @pytest.mark.parametrize("kind", [0, 1, 2, 3, 7])
    def test_set_kind_reads_an_int_as_its_member(self, kind):
        """A plain int kind sets a marked cell as its `PatchKind` member
        does, through the next evaporation; one outside `PatchKind` is
        refused before anything is written."""
        def marked_grid():
            g = Grid(2, 1, clear_threshold=EPS)
            g.deposit(0, 0, PheromoneField.NEGATIVE, 1.0)
            return g

        by_int = marked_grid()
        if kind == 7:
            before = grid_state(by_int)
            with pytest.raises(ValueError):
                by_int.set_kind(0, 0, kind)
            assert grid_state(by_int) == before
            return
        by_member = marked_grid()
        for g, k in ((by_int, kind), (by_member, PatchKind(kind))):
            g.set_kind(0, 0, k, food_of(PatchKind(kind)))
            g.evaporate_step(EvaporationConfig(clear_threshold=EPS))
        assert grid_state(by_int) == grid_state(by_member)

    @pytest.mark.parametrize("method", ["set_kind", "deposit", "consume_food",
                                        "effective_color_at"])
    @pytest.mark.parametrize("x, y", [(-1, 0), (3, 0), (0, -1), (0, 2)])
    def test_a_cell_just_outside_is_refused(self, method, x, y):
        """Each checked method refuses the four cells just outside a 3x2
        grid, one past each edge, and writes nothing."""
        g = Grid(3, 2, clear_threshold=EPS)
        g.set_kind(0, 1, PatchKind.FOOD, 2)
        g.deposit(1, 0, PheromoneField.POSITIVE, 1.0)
        g.deposit(2, 1, PheromoneField.NEGATIVE, 1.0)
        calls = {"set_kind": lambda: g.set_kind(x, y, PatchKind.FOOD, 1),
                 "deposit": lambda: g.deposit(x, y, PheromoneField.NEGATIVE, 1.0),
                 "consume_food": lambda: g.consume_food(x, y),
                 "effective_color_at": lambda: g.effective_color_at(x, y)}
        before = grid_state(g)
        with pytest.raises(ValueError, match=rf"^cell \({x}, {y}\) out of bounds$"):
            calls[method]()
        assert grid_state(g) == before


class TestDeposit:
    def test_additive_accumulation(self):
        g = Grid(5, 5)
        g.deposit(2, 2, PheromoneField.POSITIVE, 1.0)
        g.deposit(2, 2, PheromoneField.POSITIVE, 1.0)
        assert g.positive[2, 2] == 2.0

    def test_wall_deposit_ignored_with_diagnostic(self):
        g = Grid(5, 5)
        g.set_kind(1, 1, PatchKind.WALL)
        g.deposit(1, 1, PheromoneField.NEGATIVE, 1.0)
        assert g.negative[1, 1] == 0.0

    def test_negative_deposit_turns_cell_red(self):
        g = Grid(5, 5, clear_threshold=EPS)
        g.deposit(3, 3, PheromoneField.NEGATIVE, 1.0)
        assert g.effective_color_at(3, 3) is Color.RED

    def test_out_of_bounds_rejected(self):
        g = Grid(5, 5)
        with pytest.raises(ValueError):
            g.deposit(9, 0, PheromoneField.POSITIVE, 1.0)

    @pytest.mark.parametrize("field", list(PheromoneField))
    @pytest.mark.parametrize("amount", [math.nan, math.inf, -1.0])
    def test_bad_amount_rejected(self, field, amount):
        g = Grid(5, 5)
        with pytest.raises(ValueError, match="^deposit amount must be finite and non-negative$"):
            g.deposit(1, 1, field, amount)
        assert not g.positive.any() and not g.negative.any()


class TestEvaporation:
    def test_single_step_arithmetic(self):
        g = Grid(3, 3)
        g.deposit(1, 1, PheromoneField.NEGATIVE, 100.0)
        cfg = EvaporationConfig(rho_positive=0.1, rho_negative=0.1,
                                clear_threshold=0.5)
        g.evaporate_step(cfg)
        assert g.negative[1, 1] == pytest.approx(90.0, rel=1e-12)

    def test_clearing_tick_matches_closed_form(self):
        # 100 * 0.9^t < 0.5 first at t = ceil(log(0.005)/log(0.9)) = 51
        cfg = EvaporationConfig(rho_positive=0.1, rho_negative=0.1,
                                clear_threshold=0.5)
        expected_steps = math.ceil(math.log(0.005) / math.log(0.9))
        assert expected_steps == 51
        g = Grid(3, 3, clear_threshold=0.5)
        g.deposit(1, 1, PheromoneField.NEGATIVE, 100.0)
        steps = 0
        while g.negative[1, 1] > 0.0:
            g.evaporate_step(cfg)
            steps += 1
            assert steps < 200
        assert steps == expected_steps

    def test_the_grid_threshold_clears(self):
        """Evaporation takes only its rates from the config; it clears at
        the grid's own threshold, the one the color rule reads."""
        cfg = EvaporationConfig(rho_positive=0.1, rho_negative=0.1, clear_threshold=0.5)
        g = Grid(3, 1, clear_threshold=EPS)
        g.deposit(0, 0, PheromoneField.NEGATIVE, 0.4)
        g.deposit(1, 0, PheromoneField.POSITIVE, 0.4)
        g.deposit(2, 0, PheromoneField.NEGATIVE, EPS)
        g.evaporate_step(cfg)
        assert g.negative[0, 0] == pytest.approx(0.36) and g.positive[0, 1] == pytest.approx(0.36)
        assert g.negative[0, 2] == 0.0
        assert g.marked_cell_counts() == (1, 1)
        assert [g.effective_color_at(x, 0) for x in range(3)] == [Color.RED, Color.GREEN,
                                                                  Color.BLACK]

    def test_zero_stays_zero(self):
        g = Grid(3, 3)
        cfg = EvaporationConfig()
        g.evaporate_step(cfg)
        assert g.positive.sum() == 0.0 and g.negative.sum() == 0.0

    def test_mass_strictly_decreasing_between_deposits(self):
        g = Grid(4, 4)
        g.deposit(1, 1, PheromoneField.POSITIVE, 3.0)
        g.deposit(2, 2, PheromoneField.NEGATIVE, 7.0)
        cfg = EvaporationConfig()
        prev = g.positive.sum() + g.negative.sum()
        for _ in range(50):
            g.evaporate_step(cfg)
            cur = g.positive.sum() + g.negative.sum()
            if prev > 0:
                assert cur < prev
            prev = cur

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.one_of(AROUND_EPS, st.floats(0.0, 1e300)),
                              st.one_of(AROUND_EPS, st.floats(0.0, 1e300))),
                    min_size=1, max_size=40))
    def test_matches_masked_clearing(self, levels):
        """The reference rule, decay then masked assignment of faint
        cells, gives the same bits on finite non-negative fields."""
        cfg = EvaporationConfig(clear_threshold=EPS)
        g = Grid(len(levels), 1, clear_threshold=EPS)
        for x, (pos, neg) in enumerate(levels):
            g.deposit(x, 0, PheromoneField.POSITIVE, pos)
            g.deposit(x, 0, PheromoneField.NEGATIVE, neg)
        want = {}
        for name, rho in (("positive", cfg.rho_positive), ("negative", cfg.rho_negative)):
            field = getattr(g, name) * (1.0 - rho)
            field[field < EPS] = 0.0
            want[name] = field.tobytes()
        g.evaporate_step(cfg)
        assert g.positive.tobytes() == want["positive"]
        assert g.negative.tobytes() == want["negative"]

    def test_rho_bounds_validated(self):
        with pytest.raises(ValueError):
            EvaporationConfig(rho_positive=0.0)
        with pytest.raises(ValueError):
            EvaporationConfig(rho_negative=1.0)
        with pytest.raises(ValueError):
            EvaporationConfig(clear_threshold=0.0)


class TestFood:
    def test_bite_reduces_quantity(self):
        g = Grid(3, 3)
        g.set_kind(1, 1, PatchKind.FOOD, 5)
        assert g.consume_food(1, 1) == 4
        assert g.effective_color_at(1, 1) is Color.GREEN

    def test_exhaustion_turns_empty(self):
        g = Grid(3, 3)
        g.set_kind(1, 1, PatchKind.FOOD, 1)
        assert g.consume_food(1, 1) == 0
        assert g.kind[1, 1] == PatchKind.EMPTY
        assert g.effective_color_at(1, 1) is Color.BLACK

    def test_non_food_noop(self):
        g = Grid(3, 3)
        assert g.consume_food(1, 1) == 0
        assert g.kind[1, 1] == PatchKind.EMPTY

    def test_total_food(self):
        g = Grid(5, 5)
        assert g.total_food() == 0
        g.set_kind(1, 1, PatchKind.FOOD, 10)
        g.set_kind(3, 3, PatchKind.FOOD, 10)
        assert g.total_food() == 20
        for _ in range(3):
            g.consume_food(1, 1)
        assert g.total_food() == 17

    def test_total_food_monotone_under_consumption(self):
        g = Grid(5, 5)
        g.set_kind(2, 2, PatchKind.FOOD, 4)
        last = g.total_food()
        for _ in range(6):
            g.consume_food(2, 2)
            cur = g.total_food()
            assert cur <= last
            last = cur

    def test_food_invariant_on_set_kind(self):
        g = Grid(3, 3)
        with pytest.raises(ValueError):
            g.set_kind(0, 0, PatchKind.FOOD, 0)
        with pytest.raises(ValueError):
            g.set_kind(0, 0, PatchKind.EMPTY, 5)


class TestCounts:
    def test_marked_cell_counts_track_visible_marks(self):
        g = Grid(5, 5, clear_threshold=EPS)
        assert g.marked_cell_counts() == (0, 0)
        g.deposit(1, 1, PheromoneField.NEGATIVE, 1.0)
        g.deposit(2, 2, PheromoneField.NEGATIVE, EPS / 2)  # below threshold
        g.deposit(3, 3, PheromoneField.POSITIVE, EPS)
        assert g.marked_cell_counts() == (1, 1)
        assert g.marked_cell_counts()[0] <= g.empty_cell_count()

    @settings(max_examples=100, deadline=None)
    @given(small_grids())
    def test_counts_match_summed_masks(self, g):
        empty = g.kind == PatchKind.EMPTY.value
        counts = g.marked_cell_counts()
        assert [type(count) for count in counts] == [int, int]
        assert counts == (int((empty & (g.negative >= EPS)).sum()),
                          int((empty & (g.positive >= EPS)).sum()))


class DenseGrid:
    """The pheromone rules written out over whole arrays, with no index of
    marked cells: the reference the grid's fields must match bit for bit."""

    def __init__(self, width, height):
        self.kind = np.full((height, width), PatchKind.EMPTY.value, dtype=np.uint8)
        self.food = np.zeros((height, width), dtype=np.int64)
        self.fields = {field: np.zeros((height, width)) for field in PheromoneField}

    def deposit(self, x, y, field, amount):
        if self.kind[y, x] != PatchKind.WALL:
            self.fields[field][y, x] += amount

    def set_kind(self, x, y, kind, food):
        self.kind[y, x] = kind
        self.food[y, x] = food
        if kind is PatchKind.WALL:
            for values in self.fields.values():
                values[y, x] = 0.0

    def consume_food(self, x, y):
        if self.kind[y, x] == PatchKind.FOOD:
            self.food[y, x] -= 1
            if self.food[y, x] == 0:
                self.kind[y, x] = PatchKind.EMPTY

    def evaporate_step(self, cfg):
        for field, rho in ((PheromoneField.POSITIVE, cfg.rho_positive),
                           (PheromoneField.NEGATIVE, cfg.rho_negative)):
            values = self.fields[field]
            values *= 1.0 - rho
            values[values < EPS] = 0.0

    def marked_cell_counts(self):
        empty = self.kind == PatchKind.EMPTY.value
        return tuple(int(np.count_nonzero(empty & (self.fields[field] >= EPS)))
                     for field in (PheromoneField.NEGATIVE, PheromoneField.POSITIVE))


SPARSE_W, SPARSE_H = 3, 2
SPARSE_CELLS = st.tuples(st.integers(0, SPARSE_W - 1), st.integers(0, SPARSE_H - 1))
FIELD_OPS = st.lists(st.one_of(
    st.tuples(st.just("deposit"), SPARSE_CELLS, st.sampled_from(list(PheromoneField)),
              st.one_of(AROUND_EPS, st.just(1e300), st.floats(0.0, 1e300))),
    st.tuples(st.just("set_kind"), SPARSE_CELLS, st.sampled_from(list(PatchKind)),
              st.integers(1, 3)),
    st.tuples(st.just("consume_food"), SPARSE_CELLS),
    st.tuples(st.just("evaporate_step"))), max_size=40)
WALL_AND_BACK = [("deposit", (1, 1), PheromoneField.NEGATIVE, 1.0), ("evaporate_step",),
                 ("set_kind", (1, 1), PatchKind.WALL, 1), ("set_kind", (1, 1), PatchKind.EMPTY, 1),
                 ("deposit", (1, 1), PheromoneField.NEGATIVE, 1.0), ("evaporate_step",)]
# Marked food is green until its last unit goes, then red.
EATEN_UNDER_A_MARK = [("set_kind", (0, 0), PatchKind.FOOD, 2),
                      ("deposit", (0, 0), PheromoneField.NEGATIVE, 1.0),
                      ("consume_food", (0, 0)), ("consume_food", (0, 0)),
                      ("consume_food", (0, 0)), ("evaporate_step",)]

# A wall clears a cell marked since the last evaporation, swapping the
# last indexed cell into its slot; reopened and marked again before the
# next evaporation, the cell is indexed once.
WALLED_BEFORE_EVAPORATING = [("deposit", (0, 0), PheromoneField.POSITIVE, 1.0),
                             ("deposit", (1, 0), PheromoneField.POSITIVE, 1.0),
                             ("set_kind", (0, 0), PatchKind.WALL, 1),
                             ("set_kind", (0, 0), PatchKind.EMPTY, 1),
                             ("deposit", (0, 0), PheromoneField.POSITIVE, 1.0),
                             ("evaporate_step",)]


# Runs of evaporation long enough for a field to decay for many ticks
# with no cell near the threshold and then cross it, between deposits
# either side of the threshold, large ones and walls.
DECAY_OPS = st.lists(st.one_of(
    st.tuples(st.just("deposit"), SPARSE_CELLS, st.sampled_from(list(PheromoneField)),
              st.one_of(AROUND_EPS, st.floats(0.0, 10.0), st.just(1e300))),
    st.tuples(st.just("set_kind"), SPARSE_CELLS, st.sampled_from([PatchKind.WALL, PatchKind.EMPTY])),
    st.tuples(st.just("evaporate"), st.integers(1, 64))), max_size=20)
# Three positive cells, each clearing on the tick after the last on which
# the floor shows that none can: 1.0 laid first decays 98 ticks at 0.03
# and clears on the 99th, a fainter one laid later clears before it, and
# one between them clears last.
DECAY_PAST_THE_FLOOR = [("deposit", (0, 0), PheromoneField.POSITIVE, 1.0), ("evaporate", 64),
                        ("deposit", (1, 0), PheromoneField.POSITIVE, 2 * EPS),
                        ("deposit", (2, 0), PheromoneField.POSITIVE, 0.5),
                        ("evaporate", 34), ("evaporate", 1), ("evaporate", 41)]


class TestSparseFields:
    @settings(max_examples=300, deadline=None)
    @given(FIELD_OPS, st.sampled_from([EvaporationConfig(clear_threshold=EPS),
                                       EvaporationConfig(0.5, 0.9, EPS)]))
    @example(WALL_AND_BACK, EvaporationConfig(clear_threshold=EPS))
    @example(EATEN_UNDER_A_MARK, EvaporationConfig(0.5, 0.9, EPS))
    @example(WALLED_BEFORE_EVAPORATING, EvaporationConfig(clear_threshold=EPS))
    @example([("deposit", (0, 0), PheromoneField.POSITIVE, EPS / 2)], EvaporationConfig())
    def test_matches_the_dense_rules(self, ops, cfg):
        """Random deposits, kind changes, bites and evaporations leave the
        same bits, census, colors and food total as the whole-array rules,
        after every operation: an indexed cell is never lost or counted
        twice, and no write leaves a cell's sense byte stale."""
        g, ref = Grid(SPARSE_W, SPARSE_H, clear_threshold=EPS), DenseGrid(SPARSE_W, SPARSE_H)
        for name, *args in ops:
            if name == "deposit":
                (x, y), field, amount = args
                g.deposit(x, y, field, amount)
                ref.deposit(x, y, field, amount)
            elif name == "set_kind":
                (x, y), kind, units = args
                food = units * food_of(kind)
                g.set_kind(x, y, kind, food)
                ref.set_kind(x, y, kind, food)
            elif name == "consume_food":
                (x, y), = args
                g.consume_food(x, y)
                ref.consume_food(x, y)
            else:
                g.evaporate_step(cfg)
                ref.evaporate_step(cfg)
            assert g.positive.tobytes() == ref.fields[PheromoneField.POSITIVE].tobytes()
            assert g.negative.tobytes() == ref.fields[PheromoneField.NEGATIVE].tobytes()
            assert g.marked_cell_counts() == ref.marked_cell_counts()
            assert (g.kind == ref.kind).all()
            assert g.empty_cell_count() == np.count_nonzero(ref.kind == PatchKind.EMPTY)
            for (x, y), pixel in zip(cells(g), rendered_pixels(g)):
                want = documented_color(ref.kind[y, x], ref.fields[PheromoneField.NEGATIVE][y, x],
                                        ref.fields[PheromoneField.POSITIVE][y, x], EPS)
                assert g.effective_color_at(x, y) is want
                assert pixel == PALETTE[want]
                assert SENSES[g.sense[y * SPARSE_W + x]] == (ref.kind[y, x], want)
            assert g.total_food() == ref.food.sum()
            for marks, field in ((g._positive, g.positive), (g._negative, g.negative)):
                assert np.sort(marks.cells[:marks.n]).tolist() == np.flatnonzero(field).tolist()

    def test_walling_a_value_written_directly_keeps_the_index(self):
        """A value written into a field directly was never indexed, so
        walling its cell clears it and leaves the index as it was."""
        g = Grid(2, 1, clear_threshold=EPS)
        g.deposit(1, 0, PheromoneField.NEGATIVE, 1.0)
        g.negative[0, 0] = 1.0
        g.set_kind(0, 0, PatchKind.WALL)
        assert g.negative.tolist() == [[0.0, 1.0]]
        assert g._negative.cells[:g._negative.n].tolist() == [1]

    @settings(max_examples=200, deadline=None)
    @given(DECAY_OPS, st.sampled_from([EvaporationConfig(clear_threshold=EPS),
                                       EvaporationConfig(0.5, 0.9, EPS)]))
    @example(DECAY_PAST_THE_FLOOR, EvaporationConfig(clear_threshold=EPS))
    def test_decay_matches_the_dense_rules_on_both_sides_of_the_floor(self, ops, cfg):
        """Ticks on which each field's `floor` shows that no cell can clear
        leave the same bits, census and sense bytes as the whole-array
        rules, and so do the ticks that cross the threshold; the floor
        bounds every indexed value after every operation and tick."""
        g, ref = Grid(SPARSE_W, SPARSE_H, clear_threshold=EPS), DenseGrid(SPARSE_W, SPARSE_H)

        def check():
            negative, positive = ref.fields[PheromoneField.NEGATIVE], ref.fields[PheromoneField.POSITIVE]
            assert g.positive.tobytes() == positive.tobytes()
            assert g.negative.tobytes() == negative.tobytes()
            sense = ref.kind << 2 | (negative >= EPS) << 1 | (positive >= EPS)
            assert bytes(g.sense) == sense.astype(np.uint8).tobytes()
            assert g._census == np.bincount(sense.reshape(-1), minlength=len(SENSES)).tolist()
            for marks in g._positive, g._negative:
                if marks.n:
                    assert marks.floor <= marks.flat[marks.cells[:marks.n]].min()

        for name, *args in ops:
            if name == "deposit":
                (x, y), field, amount = args
                g.deposit(x, y, field, amount)
                ref.deposit(x, y, field, amount)
            elif name == "set_kind":
                (x, y), kind = args
                g.set_kind(x, y, kind)
                ref.set_kind(x, y, kind, 0)
            else:
                for _ in range(args[0]):
                    g.evaporate_step(cfg)
                    ref.evaporate_step(cfg)
                    check()
            check()
