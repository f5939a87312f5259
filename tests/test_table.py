import copy
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeants import circuit, table
from spikeants.circuit import (
    MOTOR_FORWARD,
    MOTOR_ROTATE,
    SMELLS,
    AntBrain,
    CircuitConfig,
    StimulusFrame,
    trained_reference_weights,
)
from spikeants.plasticity import StdpConfig
from spikeants.snn import Network, run_cell

STIMULI = list(circuit.STIMULI)
PLASTIC_KEYS = [(smell, motor) for smell in SMELLS for motor in (MOTOR_FORWARD, MOTOR_ROTATE)]


def full_state(brain):
    net = brain.net
    return net.current_tick, net.state_key(range(len(net.states)))


def state_on_leaving(brain):
    """The full state `brain` would leave its table with; the brain
    itself stays in the table. A shallow copy shares the network, which
    a tabled brain only reads for its clock."""
    probe = copy.copy(brain)
    probe.leave_table()
    return full_state(probe)


def assert_table_matches_stepping(weights, steps, frames, cfg=CircuitConfig(), left=None):
    """Two brains in one table and one stepped brain, all fresh and
    kickstarted, see the same frames: every world tick gives the same
    actuator frame, and the state each tabled brain would leave with
    equals the stepped brain's full network state. After leaving the
    table the networks are equal. The second table brain follows the
    first, so its ticks are all lookups. When `left` is given, it says
    whether the tabled brains left their full table before the end.
    Returns the table."""
    cfg = replace(cfg, brain_steps_per_world_tick=steps)
    stepped, *tabled = [AntBrain(cfg) for _ in range(3)]
    tables = {}
    for brain in [stepped, *tabled]:
        brain.set_weights(weights)
    for brain in tabled:
        table.share_table(tables, brain)
    assert len(tables) == 1
    for frame in frames:
        want = stepped.world_tick(frame)
        assert [brain.world_tick(frame) for brain in tabled] == [want, want]
        for brain in tabled:
            assert state_on_leaving(brain) == full_state(stepped)
    if left is not None:
        assert [brain.table is None for brain in tabled] == [left, left]
    for brain in tabled:
        brain.leave_table()
        assert brain.table is None
        assert full_state(brain) == full_state(stepped)
    return tables.popitem()[1]


class TestTransitionTable:
    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({key: st.floats(StdpConfig().w_min, StdpConfig().w_max)
                                  for key in PLASTIC_KEYS}),
           st.integers(1, 12),
           st.lists(st.sampled_from(STIMULI), max_size=60),
           st.sampled_from([table.MAX_TABLE_STATES, 1, 2]))
    def test_lookups_match_stepping(self, weights, steps, frames, bound):
        """Random frame sequences give the same actuator frames and, after
        leaving, the same network state through the table as stepped;
        with room for one or two core states, the brains leave the table
        on a new core state and are stepped from there, and full caches
        are emptied."""
        with mock.patch.object(table, "MAX_TABLE_STATES", bound):
            held = assert_table_matches_stepping(weights, steps, frames)
        assert len(held._rows) <= bound
        assert len(held._moves) <= bound
        assert all(len(rest_moves) <= bound for _, _, rest_moves in held._slots.values())

    def test_long_counters_and_delays(self):
        """A nociceptor dead time of 300 ticks and pacemaker delays of
        300 ticks do not fit one byte; the keys must still be exact."""
        cfg = CircuitConfig(nociceptor_refractory=300, pacemaker_period=600, np_tau=10000.0)
        frames = [StimulusFrame(pain_contact=True)] + STIMULI * 3
        assert_table_matches_stepping(trained_reference_weights(), 12, frames, cfg)
        # The first world tick already reaches states beyond one byte.
        probe = AntBrain(replace(cfg, brain_steps_per_world_tick=12))
        probe.world_tick(frames[0])
        assert probe.net.states[probe.layout.nociceptor].refractory_remaining > 255
        assert max(probe.net.pending_pulses) - probe.net.current_tick > 255

    def test_the_energy_counter_adds_no_states(self):
        """The energy counter passes through new potentials for hundreds
        of world ticks, and feeds no neuron. It does add moves, but its
        cell is a value apart from the core, so a long varied run holds
        only a few core states."""
        rng = random.Random(7)
        frames = [rng.choice(STIMULI) for _ in range(1500)]
        held = assert_table_matches_stepping(trained_reference_weights(), 10, frames)
        assert len(held._rows) <= 16
        assert len(held._moves) > 100

    def test_a_new_move_runs_only_what_is_new(self):
        """A new move runs the first three actuators only when their cells
        are new under its slot, and the energy counter once. Over a long
        run most new moves are a new counter potential, so the cell runs
        stay well under one per actuator per move."""
        rng = random.Random(7)
        frames = [rng.choice(STIMULI) for _ in range(1500)]
        runs = []

        def counted_run_cell(*args):
            runs.append(args)
            return run_cell(*args)

        with mock.patch.object(table, "run_cell", counted_run_cell):
            held = assert_table_matches_stepping(trained_reference_weights(), 10, frames)
        assert len(runs) == len(held._moves) + sum(3 * len(rest_moves)
                                                   for _, _, rest_moves in held._slots.values())
        assert len(runs) < 2 * len(held._moves)

    def test_the_energy_counter_fires_through_the_table(self):
        """Reward-free stretches let the counter reach threshold, so the
        negative pheromone it drives comes out of lookups too."""
        frames = ([StimulusFrame()] * 45 + [StimulusFrame(reward_contact=True)]) * 4
        probe = AntBrain()
        probe.set_weights(trained_reference_weights())
        assert sum(probe.world_tick(frame).emit_negative_pheromone for frame in frames) >= 4
        assert_table_matches_stepping(trained_reference_weights(), 10, frames)

    @pytest.mark.parametrize("cfg, steps, full", [
        # A slow energy counter (long np_tau, 150 pulses to fire) makes a
        # new move of every world tick in a 150-tick cycle, while the
        # core cycles through two states.
        (CircuitConfig(np_tau=10000.0, np_pulse_count=150), 10, "moves"),
        # A 600-tick pacemaker loop holds a new pulse delay on every world
        # tick, while both actuators it reaches fire on its pulse and fall
        # back to rest (one pulse fires the counter).
        (CircuitConfig(pacemaker_period=600, np_pulse_count=1, np_tau=1.0), 12, "core"),
    ])
    def test_a_full_kind_of_state_sends_brains_back_to_stepping(self, cfg, steps, full):
        """With room for 8 core states and 8 entries per cache, a full
        core table sends the brains back to stepping. A full move cache
        is emptied instead: the brains stay in the table and step their
        networks only for new slots. Either way they match stepping."""
        frames = [StimulusFrame()] * 40 + STIMULI * 3
        original_step = Network.step
        brain_steps, runs = [], []

        def counted_step(net):
            brain_steps.append(1)
            return original_step(net)

        def counted_run_cell(*args):
            runs.append(args)
            return run_cell(*args)

        with mock.patch.object(table, "MAX_TABLE_STATES", 8), \
                mock.patch.object(Network, "step", counted_step), \
                mock.patch.object(table, "run_cell", counted_run_cell):
            held = assert_table_matches_stepping(trained_reference_weights(), steps, frames,
                                                 cfg, left=full == "core")
        if full == "core":
            assert len(held._rows) == 8
            return
        assert len(held._rows) < 8
        # One counter run per new move: more moves than the cache holds.
        assert sum(args[2] is held.params[-1] for args in runs) > 8 >= len(held._moves)
        # The stepped brain steps every world tick, the tabled ones only
        # for each slot, once.
        assert len(brain_steps) == steps * (len(frames) + len(held._slots))

    def test_actuators_feed_no_neuron(self):
        """The table runs the actuators apart from the core, which is
        exact only while no synapse leaves an actuator."""
        brain = AntBrain()
        held = table.TransitionTable(brain)
        assert not [syn for syn in brain.net.synapses if syn.pre in held.actuators]
        assert sorted(held.core + list(held.actuators)) == list(range(len(brain.net.states)))

    def test_a_full_table_keeps_the_brain_stepped(self):
        with mock.patch.object(table, "MAX_TABLE_STATES", 0):
            tables = {}
            brain = AntBrain()
            table.share_table(tables, brain)
            assert brain.table is None
            assert len(tables) == 1

    def test_each_weight_set_gets_its_own_table(self):
        tables = {}
        pairs = []
        for weights in (trained_reference_weights(), AntBrain().weights()):
            tabled, stepped = AntBrain(), AntBrain()
            for brain in (tabled, stepped):
                brain.set_weights(weights)
            table.share_table(tables, tabled)
            pairs.append((tabled, stepped))
        assert len(tables) == 2
        for frame in STIMULI * 3:
            for tabled, stepped in pairs:
                assert tabled.world_tick(frame) == stepped.world_tick(frame)

    def test_the_brain_keeps_its_clock_rate(self):
        """Tabled or stepped, a world tick advances the clock by the
        brain's own `brain_steps_per_world_tick`."""
        cfg = CircuitConfig(brain_steps_per_world_tick=7)
        tabled, stepped = AntBrain(cfg), AntBrain(cfg)
        table.share_table({}, tabled)
        assert tabled.table is not None
        for world_ticks, frame in enumerate(STIMULI + [StimulusFrame()] * 30, start=1):
            for brain in (tabled, stepped):
                brain.world_tick(frame)
                assert brain.net.current_tick == 7 * world_ticks
        assert tabled.table is not None

    def test_a_learning_brain_stays_stepped(self):
        tables = {}
        brain = AntBrain(learning=True)
        table.share_table(tables, brain)
        assert brain.table is None
        assert tables == {}
