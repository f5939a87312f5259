"""Transition tables kept from run to run: a run's outputs do not depend
on the runs before it in the process.

A kept table is reused only by a brain with the same circuit config
`repr` and plastic weights. The runs drawn here vary both: seeds, weight
sets, circuit variants that change what a tabled brain senses
(`sense_amplitude`), how far it steps per world tick (`ant_brain_steps`)
or only the sign of a zero (`neuron_rest`), phase schedules that hand
trained brains to a table, and `compare`. Each run must give what it
gives from an empty store.
"""

import gc

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spikeants import engine, table
from spikeants.agents import SimPhase
from spikeants.circuit import MOTOR_FORWARD, MOTOR_ROTATE, SMELLS, trained_reference_weights
from spikeants.config import parse_config
from spikeants.plasticity import StdpConfig
from spikeants.scenario import parse_scenario

ARENA = parse_scenario("""\
width 10
height 10
food_quantity 6
random_ants 2
map
##########
#........#
#..FF....#
#..FF....#
#........#
#.....R..#
#........#
#........#
#........#
##########
""")

PLASTIC_KEYS = [(smell, motor) for smell in SMELLS for motor in (MOTOR_FORWARD, MOTOR_ROTATE)]
STDP = StdpConfig()  # every drawn config keeps the default bounds

WEIGHT_SETS = st.one_of(
    st.just("reference"), st.none(),
    st.lists(st.floats(STDP.w_min, STDP.w_max), min_size=len(PLASTIC_KEYS),
             max_size=len(PLASTIC_KEYS)).map(lambda ws: dict(zip(PLASTIC_KEYS, ws))))


# Two values of each circuit setting a kept table must tell apart.
CIRCUIT = {"circuit_sense_amplitude": ("2.0", "0.5"),
           "neuron_rest": ("0.0", "-0.0"),
           "ant_brain_steps": ("10", "5")}


@st.composite
def sequences(draw):
    """2-4 runs, each a config text, a weight set (None for the wired
    initial weights) and whether the run is a `compare`. The weight sets
    come from a pool of one or two, and the circuits from a pair that
    differs in one setting, so that runs often meet a kept table for
    their weights but another circuit. Five brain ticks per world tick
    end some runs with a neuron just out of its dead time, at a rest
    whose sign shows."""
    weight_sets = draw(st.lists(WEIGHT_SETS, min_size=1, max_size=2))
    base = {key: draw(st.sampled_from(values)) for key, values in CIRCUIT.items()}
    changed = draw(st.sampled_from(sorted(CIRCUIT)))
    other = {**base, changed: next(v for v in CIRCUIT[changed] if v != base[changed])}
    runs = []
    for _ in range(draw(st.integers(2, 4))):
        circuit = draw(st.sampled_from([base, other]))
        lines = [f"seed = {draw(st.integers(1, 3))}",
                 *(f"{key} = {value}" for key, value in circuit.items()),
                 draw(st.sampled_from(["world_ticks = 31",
                                       "phase_schedule = training:15,foraging:30",
                                       "phase_schedule = foraging:20,training:10,foraging:20"]))]
        runs.append(("\n".join(lines) + "\n", draw(st.sampled_from(weight_sets)),
                     draw(st.booleans())))
    return runs


def outputs(text, weights, comparing):
    """A run's metrics CSV, final weights and final brain states, clocks
    included; the CSVs of both arms for a `compare`."""
    cfg = parse_config(text)
    if weights == "reference":
        weights = trained_reference_weights(cfg.stdp)
    if comparing:
        result = engine.compare(cfg, ARENA, weights=weights)
        return result.enabled.to_csv_text(), result.disabled.to_csv_text()
    schedule = cfg.phase_schedule or ((SimPhase.FORAGING, cfg.world_ticks),)
    metrics, ants = engine._execute(cfg, ARENA, weights, schedule)
    return (metrics.to_csv_text(), [ant.brain.weights() for ant in ants],
            [(ant.brain.net.current_tick,
              ant.brain.net.state_key(range(len(ant.brain.net.states)))) for ant in ants])


def circuit_run(sense_amplitude, rest, steps):
    """A 31-tick foraging run on the reference weights."""
    return (f"seed = 1\ncircuit_sense_amplitude = {sense_amplitude}\nneuron_rest = {rest}\n"
            f"ant_brain_steps = {steps}\nworld_ticks = 31\n", "reference", False)


# `empty_store` holds no state of a test's own, so one instance serves
# every example.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sequence=sequences())
# Each run changes one circuit setting of the run before it, and each
# change alone would change the run's outputs on the table before.
@example(sequence=[circuit_run("0.5", "0.0", 10), circuit_run("2.0", "0.0", 10),
                   circuit_run("2.0", "0.0", 5), circuit_run("2.0", "-0.0", 5)])
def test_runs_do_not_depend_on_what_ran_before(sequence, empty_store):
    empty_store()
    in_sequence = [outputs(*run) for run in sequence]
    for run, got in zip(sequence, in_sequence):
        empty_store()
        assert outputs(*run) == got


def test_a_run_inside_another_builds_its_own_table(empty_store, monkeypatch):
    """A run takes each kept table out of the store under `_store_lock`,
    so two runs at once never hold one table: a run started from another
    run's frame hook, on the same config and weights, builds a table of
    its own while the outer run holds the kept one. Each run gives the
    CSV it gives alone, and with the cyclic collector off neither leaves
    garbage behind."""
    cfg = parse_config("seed = 1\nworld_ticks = 31\n")
    weights = trained_reference_weights(cfg.stdp)
    empty_store()
    alone = engine.run(cfg, ARENA, weights=weights).to_csv_text()
    original_init = table.TransitionTable.__init__
    built, outer_tables, inner_tables, inner = [], [], [], []

    def counted_init(tbl, brain):
        original_init(tbl, brain)
        built.append(tbl)

    def outer_hook(tick, grid, ants):
        outer_tables.extend(ant.tabled.table for ant in ants)
        if tick == 10:
            metrics = engine.run(cfg, ARENA, weights=weights, frame_hook=lambda tick, grid, ants:
                                 inner_tables.extend(ant.tabled.table for ant in ants))
            inner.append(metrics.to_csv_text())

    monkeypatch.setattr(table.TransitionTable, "__init__", counted_init)
    gc.collect()
    gc.disable()
    try:
        outer = engine.run(cfg, ARENA, weights=weights, frame_hook=outer_hook).to_csv_text()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outer == alone and inner == [alone]
    [outer_table], [inner_table] = set(outer_tables), set(inner_tables)
    assert built == [inner_table] and inner_table is not outer_table
