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


def state_on_leaving(tabled, ticks):
    """The full state `tabled`'s brain would leave its table with after
    `ticks` world ticks in it; the brain itself stays in the table. A
    shallow copy leaves on the shared network, which the table never
    reads, and the clock that leaving moves is put back."""
    net = tabled.brain.net
    clock = net.current_tick
    copy.copy(tabled).leave(ticks)
    state = full_state(tabled.brain)
    net.current_tick = clock
    return state


def moves(held):
    """The moves table `held` knows: the edges of its indexed nodes."""
    return sum(edge is not None for node in held._nodes.values() for edge in node.edges)


def assert_table_matches_stepping(weights, steps, frames, cfg=CircuitConfig()):
    """Two brains in one table and one stepped brain, all fresh and
    kickstarted, see the same frames: every world tick gives the same
    actuator frame, and the state each tabled brain would leave with
    equals the stepped brain's full network state. The tabled brains
    stay in the table to the end, and after leaving it the networks are
    equal. The second table brain follows the first, so its ticks are
    all lookups. Returns the table."""
    cfg = replace(cfg, brain_steps_per_world_tick=steps)
    stepped, *brains = [AntBrain(cfg) for _ in range(3)]
    tables = {}
    for brain in [stepped, *brains]:
        brain.set_weights(weights)
    tabled = [table.share_table(tables, brain) for brain in brains]
    assert len(tables) == 1 and None not in tabled
    for ticks, frame in enumerate(frames, start=1):
        want = stepped.world_tick(frame)
        assert [held.advance(frame.code) for held in tabled] == [want, want]
        for held in tabled:
            assert state_on_leaving(held, ticks) == full_state(stepped)
    for held in tabled:
        held.leave(len(frames))
        assert full_state(held.brain) == full_state(stepped)
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
        with room for one or two entries, full caches are emptied and
        the brains stay in the table."""
        with mock.patch.object(table, "MAX_TABLE_STATES", bound):
            held = assert_table_matches_stepping(weights, steps, frames)
        assert len(held._slots) <= bound
        assert len(held._nodes) <= bound
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
        assert len({row for row, _ in held._slots}) <= 16
        assert moves(held) > 100

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
        assert len(runs) == moves(held) + sum(3 * len(rest_moves)
                                              for _, _, rest_moves in held._slots.values())
        assert len(runs) < 2 * moves(held)

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
        """With room for 8 entries per cache, a full cache of slots or
        nodes is emptied: the brains stay in the table, match stepping,
        and networks are stepped only to compute a slot, once, which
        after a cache is emptied may be one met before."""
        frames = [StimulusFrame()] * 40 + STIMULI * 3
        original_step, original_key = Network.step, Network.state_key
        brain_steps, runs, keyed = [], [], []

        def counted_step(net):
            brain_steps.append(1)
            return original_step(net)

        def counted_run_cell(*args):
            runs.append(args)
            return run_cell(*args)

        def recorded_key(net, neurons):
            keyed.append(neurons)
            return original_key(net, neurons)

        with mock.patch.object(table, "MAX_TABLE_STATES", 8), \
                mock.patch.object(Network, "step", counted_step), \
                mock.patch.object(table, "run_cell", counted_run_cell), \
                mock.patch.object(Network, "state_key", recorded_key):
            held = assert_table_matches_stepping(trained_reference_weights(), steps, frames, cfg)
        # Each slot computed keys the core state it reaches.
        slots = sum(neurons is held.core for neurons in keyed)
        assert slots <= len(frames)
        assert len(brain_steps) == steps * (len(frames) + slots)
        assert len(held._slots) <= 8 and len(held._nodes) <= 8
        if full == "core":
            # Every world tick meets a new core state.
            assert slots == len(frames)
        else:
            # One counter run per new move: more moves than the node index
            # holds nodes.
            assert sum(args[2] is held.params[-1] for args in runs) > 8
            assert slots < len(frames)

    def test_actuators_feed_no_neuron(self):
        """The table runs the actuators apart from the core, which is
        exact only while no synapse leaves an actuator."""
        brain = AntBrain()
        held = table.TransitionTable(brain)
        assert not [syn for syn in brain.net.synapses if syn.pre in held.actuators]
        assert sorted(held.core + list(held.actuators)) == list(range(len(brain.net.states)))

    def test_each_weight_set_gets_its_own_table(self):
        tables = {}
        pairs = []
        for weights in (trained_reference_weights(), AntBrain().weights()):
            brain, stepped = AntBrain(), AntBrain()
            for each in (brain, stepped):
                each.set_weights(weights)
            pairs.append((table.share_table(tables, brain), stepped))
        assert len(tables) == 2
        for frame in STIMULI * 3:
            for tabled, stepped in pairs:
                assert tabled.advance(frame.code) == stepped.world_tick(frame)

    def test_the_brain_keeps_its_clock_rate(self):
        """Tabled or stepped, a world tick advances the clock by the
        brain's own `brain_steps_per_world_tick`: a brain that leaves its
        table after k world ticks has clock 7 * k, and one that has not
        left stays tabled."""
        cfg = CircuitConfig(brain_steps_per_world_tick=7)
        brain, stepped = AntBrain(cfg), AntBrain(cfg)
        tabled = table.share_table({}, brain)
        assert tabled is not None
        for world_ticks, frame in enumerate(STIMULI + [StimulusFrame()] * 30, start=1):
            tabled.advance(frame.code)
            stepped.world_tick(frame)
            assert stepped.net.current_tick == 7 * world_ticks
            assert state_on_leaving(tabled, world_ticks)[0] == 7 * world_ticks
            assert brain.net.current_tick == 0
        tabled.leave(world_ticks)
        assert brain.net.current_tick == 7 * world_ticks

    def test_a_tabled_brain_keeps_its_network_until_it_leaves(self):
        """New slots are stepped on the table's own brain: a tabled
        brain's network, clock included, stays as it joined until it
        leaves, however many slots its moves compute."""
        brain = AntBrain()
        brain.set_weights(trained_reference_weights())
        net = brain.net
        joined = net.current_tick, net.state_key(range(15))
        tabled = table.share_table({}, brain)
        for _ in range(5):
            for code in range(16):
                tabled.advance(code)
        assert len(tabled.table._slots) == 17
        assert (net.current_tick, net.state_key(range(15))) == joined
        tabled.leave(5 * 16)
        assert net.current_tick == 5 * 16 * tabled.table.steps

    def test_a_learning_brain_stays_stepped(self):
        tables = {}
        brain = AntBrain(learning=True)
        assert table.share_table(tables, brain) is None
        assert tables == {}
