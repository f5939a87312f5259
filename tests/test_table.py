import random
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spikeants import table
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

# The 16 stimulus frames: smell ahead (none or one of three) x pain x reward.
STIMULI = [StimulusFrame(smell, pain, reward) for smell in (None,) + SMELLS
           for pain in (False, True) for reward in (False, True)]
PLASTIC_KEYS = [(smell, motor) for smell in SMELLS for motor in (MOTOR_FORWARD, MOTOR_ROTATE)]


def full_state(brain):
    net = brain.net
    return net.current_tick, net.state_key(range(len(net.states)))


def actuator_states(brain):
    layout = brain.layout
    return [brain.net.states[n] for n in (layout.motor_forward, layout.motor_rotate,
                                          layout.pheromone_positive, layout.pheromone_negative)]


def assert_table_matches_stepping(weights, steps, frames, cfg=CircuitConfig()):
    """Two brains in one table and one stepped brain, all fresh and
    kickstarted, see the same frames: every world tick gives the same
    actuator frame and leaves the same actuator states in each network,
    and after leaving the table the networks are equal. The second
    table brain follows the first, so its ticks are all lookups.
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
            assert actuator_states(brain) == actuator_states(stepped)
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
        with room for one or two states, the brains leave the table on
        a new transition and are stepped from there."""
        with mock.patch.object(table, "MAX_TABLE_STATES", bound):
            held = assert_table_matches_stepping(weights, steps, frames)
        assert len(held) <= bound

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
        of world ticks, and feeds no neuron: it runs beside the table,
        so a long varied run holds only a few core states."""
        rng = random.Random(7)
        frames = [rng.choice(STIMULI) for _ in range(1500)]
        held = assert_table_matches_stepping(trained_reference_weights(), 10, frames)
        assert len(held) <= 16

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
