import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeants.agents import Ant, Heading
from spikeants.circuit import AntBrain
from spikeants.config import (
    ConfigError,
    SimConfig,
    config_hash,
    config_reference_text,
    parse_config,
    serialize_config,
)
from spikeants.render import render_snapshot
from spikeants.scenario import (
    CHAR_TO_KIND,
    ScenarioError,
    parse_scenario,
    reference_scenario,
    serialize_scenario,
)
from spikeants.world import Grid, PatchKind, PheromoneField

SMALL = """\
width 5
height 4
food_quantity 7
heading 0 E
map
#####
#.F.#
#A..#
#####
"""


@st.composite
def scenario_texts(draw):
    """A valid small scenario: any mix of cells, a heading per spawn,
    and optional `food_quantity` and `random_ants`, in any header order."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rows = ["".join(draw(st.lists(st.sampled_from("#.FRA"), min_size=width, max_size=width)))
            for _ in range(height)]
    spawns = sum(row.count("A") for row in rows)
    header = [f"width {width}", f"height {height}"]
    header += [f"heading {i} {draw(st.sampled_from(Heading)).value}" for i in range(spawns)]
    for key in ("food_quantity", "random_ants"):
        value = draw(st.none() | st.integers(1, 50))
        if value is not None:
            header.append(f"{key} {value}")
    return "\n".join(draw(st.permutations(header)) + ["map"] + rows) + "\n"


# Lines near the grammar of each parser, so fuzzing reaches past the first check.
SCENARIO_LINES = st.one_of(
    st.text(max_size=10),
    st.sampled_from(["map", "", "width", "heading 0", "heading 0 N", "heading -1 E",
                     "heading x S", "random_ants -3", "food_quantity 0"]),
    st.tuples(st.sampled_from(["width", "height", "food_quantity", "random_ants", "heading 0"]),
              st.one_of(st.integers(-3, 10 ** 12).map(str), st.text(max_size=4)))
    .map(" ".join),
    st.text("#.FRA? ", max_size=8),
)
CONFIG_KEYS = [line.split(" = ")[0] for line in serialize_config(SimConfig()).splitlines()]
CONFIG_VALUES = st.one_of(
    st.text(max_size=8),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "off", "1e308", "5e-324", "-0.0", "nan", "-inf", "cw", "ccw",
                     "training:5", "foraging:0,training:3", "184", "185", "0"]),
)
CONFIG_LINES = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(" = ".join),
)


class TestParseScenario:
    def test_small_scenario(self):
        s = parse_scenario(SMALL)
        assert (s.width, s.height, s.food_quantity) == (5, 4, 7)
        assert s.spawns == ((1, 2, Heading.EAST),)
        grid = s.build_grid()
        assert grid.kind[1, 2] == PatchKind.FOOD
        assert grid.food[1, 2] == 7
        assert grid.total_food() == 7
        assert grid.kind[2, 1] == PatchKind.EMPTY  # spawn cell is plain ground

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("## Scenario format", 1)[1].split("```\n")[1]
        s = parse_scenario(text)
        assert (s.width, s.height, s.food_quantity, s.random_ants) == (12, 12, 6, 2)
        assert s.spawns == ((3, 1, Heading.EAST),)
        assert s.build_grid().total_food() == 24

    def test_three_by_three_single_empty_center(self):
        text = "width 3\nheight 3\nmap\n###\n#.#\n###\n"
        grid = parse_scenario(text).build_grid()
        assert grid.empty_cell_count() == 1

    def test_short_row_reports_line(self):
        text = "width 5\nheight 4\nmap\n#####\n###\n#####\n#####\n"
        with pytest.raises(ScenarioError, match="line 5"):
            parse_scenario(text)

    def test_unknown_character_reports_position(self):
        text = "width 3\nheight 1\nmap\n#?#\n"
        with pytest.raises(ScenarioError, match="column 2"):
            parse_scenario(text)

    def test_missing_heading_rejected(self):
        text = "width 3\nheight 1\nmap\n#A#\n"
        with pytest.raises(ScenarioError,
                           match=r"missing heading for spawn 0 \(line 4, column 2\)"):
            parse_scenario(text)

    @pytest.mark.parametrize("row, message", [
        ("#A?#", r"missing heading for spawn 0 \(line 4, column 2\)"),
        ("#?A#", r"unknown cell character '\?' \(line 4, column 2\)"),
    ], ids=["spawn_first", "unknown_first"])
    def test_leftmost_fault_in_a_row_reported(self, row, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(f"width 4\nheight 1\nmap\n{row}\n")

    def test_duplicate_heading_rejected(self):
        text = "width 3\nheight 1\nheading 0 N\nheading 0 E\nmap\n#A#\n"
        with pytest.raises(ScenarioError, match=r"duplicate heading for spawn 0 \(line 4\)"):
            parse_scenario(text)

    def test_wrong_row_count(self):
        text = "width 3\nheight 3\nmap\n###\n###\n"
        with pytest.raises(ScenarioError, match="expected 3 map rows"):
            parse_scenario(text)

    def test_unknown_header_key(self):
        text = "width 3\nheight 1\nwobble 4\nmap\n###\n"
        with pytest.raises(ScenarioError, match="unknown header key 'wobble'"):
            parse_scenario(text)

    def test_missing_map_line(self):
        with pytest.raises(ScenarioError, match="missing 'map'"):
            parse_scenario("width 3\nheight 1\n")

    @pytest.mark.parametrize("header, message", [
        ("width 0\nheight 1", "'width' must be positive"),
        ("width 3\nheight 1\nfood_quantity 0", "food_quantity must be positive"),
        ("width 3\nheight 1\nrandom_ants -1", "random_ants must be non-negative"),
        ("width 3\nheight 1\nheading 0 N", "heading given for nonexistent spawn 0"),
    ], ids=["width_zero", "food_quantity_zero", "random_ants_negative", "heading_without_spawn"])
    def test_bad_header_value_rejected(self, header, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(header + "\nmap\n###\n")

    def test_trailing_blank_lines_accepted(self):
        assert parse_scenario("width 3\nheight 1\nmap\n###\n\n\n").rows == ("###",)

    @settings(max_examples=200, deadline=None)
    @given(scenario_texts())
    @example(SMALL)
    def test_round_trip_is_fixed_point(self, text):
        s1 = parse_scenario(text)
        text1 = serialize_scenario(s1)
        s2 = parse_scenario(text1)
        assert s2 == s1
        assert serialize_scenario(s2) == text1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCENARIO_LINES, max_size=8).map("\n".join) | st.text())
    def test_fuzzed_text_raises_only_scenario_errors(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    def test_huge_dimensions_fail_before_allocating(self):
        """Dimensions are bounded by the body the text must hold: a header
        that claims a 10^9 x 10^9 grid over one row fails at once."""
        text = "width 1000000000\nheight 1000000000\nmap\n###\n"
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ScenarioError, match="expected 1000000000 map rows, found 1"):
                parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 0.5
        assert peak < 1 << 20

    def test_reference_scenarios_load(self):
        train = reference_scenario("training")
        forage = reference_scenario("foraging")
        assert train.random_ants == 1
        assert forage.random_ants == 10
        assert forage.boundary_is_walled()
        assert forage.build_grid().total_food() == 270  # 3 blobs of 9 cells x 10
        grid = train.build_grid()
        assert (grid.kind == PatchKind.HARM).sum() > 0
        assert grid.total_food() > 0

    @pytest.mark.parametrize("name", ["training", "foraging"])
    def test_build_grid_matches_per_cell_set_kind(self, name):
        s = reference_scenario(name)
        want = Grid(s.width, s.height)
        for y, row in enumerate(s.rows):
            for x, ch in enumerate(row):
                kind = CHAR_TO_KIND[ch]
                want.set_kind(x, y, kind, s.food_quantity if kind is PatchKind.FOOD else 0)
        got = s.build_grid()
        assert (got.kind == want.kind).all()
        assert (got.food == want.food).all()
        assert got.sense == want.sense
        assert got.total_food() == want.total_food()
        assert got.marked_cell_counts() == want.marked_cell_counts()
        assert got.empty_cell_count() == want.empty_cell_count()

    def test_build_grid_rejects_food_without_quantity(self):
        with pytest.raises(ValueError, match="food_quantity"):
            replace(parse_scenario(SMALL), food_quantity=0).build_grid()

    @pytest.mark.parametrize("quantity, row", [(10 ** 20, "#.#"),
                                               (2 ** 63 - 1, "FFF")],
                             ids=["beyond_int64", "total_beyond_int64"])
    def test_oversized_food_quantity_rejected(self, quantity, row):
        """A quantity whose food total would not fit the int64 food array
        fails at its line, instead of an OverflowError in build_grid or a
        total that wraps."""
        text = f"width 3\nheight 1\nfood_quantity {quantity}\nmap\n{row}\n"
        with pytest.raises(ScenarioError, match=r"^food_quantity .*\(line 3\)$"):
            parse_scenario(text)

    def test_largest_food_total_is_exact(self):
        quantity = (2 ** 63 - 1) // 3
        text = f"width 3\nheight 1\nfood_quantity {quantity}\nmap\nFFF\n"
        assert parse_scenario(text).build_grid().total_food() == 3 * quantity

    def test_round_trip_reference_scenarios(self):
        for name in ("training", "foraging"):
            s = reference_scenario(name)
            assert parse_scenario(serialize_scenario(s)) == s


class TestConfigFile:
    def test_defaults_round_trip(self):
        text = serialize_config(SimConfig())
        cfg = parse_config(text)
        assert cfg == SimConfig()
        assert config_hash(cfg) == config_hash(SimConfig())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'ant_speed'"):
            parse_config("ant_speed = 3\n")

    def test_window_cutoff_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown key 'stdp_window_cutoff'"):
            parse_config("stdp_window_cutoff = 100\n")

    def test_window_cutoff_follows_tau(self):
        assert parse_config("stdp_tau_plus = 40\n").stdp.window_cutoff == 200

    def test_values_and_comments(self):
        cfg = parse_config("""
            # overrides
            seed = 42
            stdp_a_plus = 0.2
            evap_rho_negative = 0.01
            pheromone_enabled = false
        """)
        assert cfg.seed == 42
        assert cfg.stdp.a_plus == 0.2
        assert cfg.evaporation.rho_negative == 0.01
        assert cfg.pheromone_enabled is False

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nseed = 2\n", "line 2: repeated key 'seed'"),
        ("stdp_w_max = 2\n# again\nstdp_w_max 2\n", "line 3: repeated key 'stdp_w_max'"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("seed = banana\n")

    @pytest.mark.parametrize("line", [
        "evap_rho_negative = 2.0",
        "neuron_threshold = -1",
        "neuron_refractory_ticks = 0",
        "circuit_np_tau = 0",
        "circuit_nociceptor_refractory = 0",
        "neuron_rest = nan",
        "ant_deposit_amount_positive = nan",
        "circuit_reflex_weight = nan",
        "circuit_reflex_weight = -1",
        "circuit_sense_amplitude = -2",
        "circuit_drive_weight = inf",
        "stdp_w_max = inf",
        "evap_clear_threshold = inf",
        "seed = -1",
        "stdp_tau_plus = 1e308",
        "stdp_tau_minus = 1e308",
        "circuit_np_pulse_count = 185",
        "ant_brain_steps = 0",
        "world_ticks = 0",
        "n_ants = -1",
        "phase_schedule = foraging:0",
        "ant_positive_deposit_ticks = -1",
        "circuit_np_pulse_count = 0",
        "stdp_w_min = -1",
        "ant_rotate_direction = up",
        "circuit_plastic_init_fraction = 1",
        "neuron_refractory_ticks = 9223372036854775808",
        "circuit_nociceptor_refractory = 9223372036854775808",
        "circuit_pacemaker_period = 9223372036854775808",
        "circuit_np_pulse_count = 10000000\ncircuit_np_tau = 1e300",
        "neuron_threshold = 1e308\nneuron_rest = -1e308\nneuron_refractory_potential = -1e308",
        "neuron_threshold = 1.7976931348623157e308\ncircuit_np_pulse_count = 1",
    ], ids=["evap_rho_negative", "neuron_threshold", "neuron_refractory_ticks",
            "circuit_np_tau", "circuit_nociceptor_refractory", "neuron_rest_nan",
            "ant_deposit_amount_positive_nan", "circuit_reflex_weight_nan",
            "circuit_reflex_weight_negative", "circuit_sense_amplitude_negative",
            "circuit_drive_weight_inf", "stdp_w_max_inf", "evap_clear_threshold_inf",
            "seed_negative", "stdp_tau_plus_overflow", "stdp_tau_minus_overflow",
            "circuit_np_pulse_count_unreachable", "ant_brain_steps", "world_ticks_zero",
            "n_ants_negative", "phase_schedule_zero_ticks", "ant_positive_deposit_ticks_negative",
            "circuit_np_pulse_count_zero", "stdp_w_min_negative",
            "ant_rotate_direction_up", "circuit_plastic_init_fraction_one",
            "neuron_refractory_ticks_beyond_int64", "circuit_nociceptor_refractory_beyond_int64",
            "circuit_pacemaker_period_beyond_int64", "circuit_np_pulse_count_undecaying",
            "neuron_threshold_span_overflow", "neuron_threshold_max_single_pulse"])
    def test_invalid_domain_value_rejected(self, line):
        key = line.split()[0]
        started = time.perf_counter()
        with pytest.raises(ConfigError, match=f"^{key} "):
            parse_config(line + "\n")
        assert time.perf_counter() - started < 0.5

    def test_huge_pulse_count_fails_fast(self):
        """The counter weight sums one term per pulse; a count out of
        reach is rejected before that sum."""
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="^circuit_np_pulse_count must be at most 184 "):
            parse_config("circuit_np_pulse_count = 100000000\n")
        assert time.perf_counter() - started < 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CONFIG_LINES, max_size=4).map("\n".join))
    def test_fuzzed_text_raises_only_config_errors(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    def test_reference_text_is_loadable(self):
        assert parse_config(config_reference_text()) == SimConfig()

    def test_default_hash_is_pinned(self):
        assert config_hash(SimConfig()) == "9ee337e81afa2645"

    def test_hash_sensitive_to_values(self):
        assert config_hash(parse_config("seed = 1\n")) != config_hash(SimConfig())


class TestRender:
    def test_all_empty_is_black(self):
        grid = parse_scenario("width 3\nheight 2\nmap\n...\n...\n").build_grid()
        data = render_snapshot(grid)
        header, _, pixels = data.partition(b"255\n")
        assert header.startswith(b"P6\n3 2\n")
        assert pixels == bytes(18)

    def test_palette_colors(self):
        text = "width 4\nheight 1\nfood_quantity 2\nmap\n#.FR\n"
        grid = parse_scenario(text).build_grid()
        grid.deposit(1, 0, PheromoneField.NEGATIVE, 1.0)
        pixels = render_snapshot(grid).split(b"255\n", 1)[1]
        assert pixels[0:3] == b"\xff\xff\xff"    # wall
        assert pixels[3:6] == b"\xff\x00\x00"    # negative mark
        assert pixels[6:9] == b"\x00\xff\x00"    # food
        assert pixels[9:12] == b"\xff\x00\x00"   # harm

    def test_ants_drawn_on_top(self):
        grid = parse_scenario("width 2\nheight 1\nmap\n..\n").build_grid()
        ant = Ant(position=(1, 0), heading=Heading.NORTH, brain=AntBrain(kickstart=False))
        pixels = render_snapshot(grid, [ant]).split(b"255\n", 1)[1]
        assert pixels[3:6] == bytes((64, 64, 255))

    def test_same_state_same_bytes(self):
        grid = reference_scenario("foraging").build_grid()
        assert render_snapshot(grid) == render_snapshot(grid)
