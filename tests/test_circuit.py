import builtins
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikeants.circuit import (
    MOTOR_FORWARD,
    MOTOR_ROTATE,
    ActuatorFrame,
    AntBrain,
    CircuitConfig,
    SMELLS,
    STIMULI,
    StimulusFrame,
    format_weights,
    parse_weights,
    trained_reference_weights,
)
from spikeants.plasticity import StdpConfig
from spikeants.snn import CELL, SpikeEvent, ValidationError
from spikeants.world import Color


def motor_spikes(brain, ticks, neuron):
    return [ev.tick for ev in brain.step_ticks(ticks) if ev.neuron == neuron]


PAIN = StimulusFrame(pain_contact=True)
REWARD = StimulusFrame(reward_contact=True)


def condition(brain, smell, unconditioned, pairings, stimulus_gap=2, trial_gap=60):
    """Pair `smell` with the `unconditioned` frame `pairings` times, with
    learning on, and return the plastic weights. The smell leads by
    `stimulus_gap` ticks; a negative gap presents the unconditioned
    stimulus first. `trial_gap` puts cross-trial pairings in the window's
    far tail."""
    first, second = StimulusFrame(smell_ahead=smell), unconditioned
    if stimulus_gap < 0:
        first, second = second, first
    brain.learning = True
    for _ in range(pairings):
        brain.sense(first)
        brain.step_ticks(abs(stimulus_gap))
        brain.sense(second)
        brain.step_ticks(trial_gap)
    brain.learning = False
    return brain.weights()


class TestBuildBrain:
    def test_all_roles_distinct(self):
        brain = AntBrain(kickstart=False)
        lay = brain.layout
        ids = (list(lay.olfactory_receptors.values()) + list(lay.afferents.values())
               + [lay.nociceptor, lay.reward_sensor, lay.motor_forward,
                  lay.motor_rotate, lay.pacemaker_a, lay.pacemaker_b,
                  lay.kickstart, lay.pheromone_positive, lay.pheromone_negative])
        assert len(ids) == len(set(ids)) == 15

    def test_each_receptor_feeds_one_afferent(self):
        brain = AntBrain(kickstart=False)
        lay = brain.layout
        for smell in SMELLS:
            outs = [s for s in brain.net.synapses
                    if s.pre == lay.olfactory_receptors[smell]]
            assert len(outs) == 1
            assert outs[0].post == lay.afferents[smell]

    def test_plastic_synapses_initialized_weak(self):
        brain = AntBrain(kickstart=False)
        for w in brain.weights().values():
            assert w == pytest.approx(0.1 * brain.stdp_cfg.w_max)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 1.0, exclude_max=True))
    def test_initial_weights_lie_in_bounds(self, w_min, w_max, fraction):
        """The initial plastic weight lies `plastic_init_fraction` of the
        way from w_min to w_max, so a brain accepts its own weights."""
        assume(w_min < w_max)
        stdp = StdpConfig(w_min=w_min, w_max=w_max)
        brain = AntBrain(CircuitConfig(plastic_init_fraction=fraction), stdp, kickstart=False)
        for w in brain.weights().values():
            assert stdp.w_min <= w <= stdp.w_max
        brain.set_weights(brain.weights())

    @staticmethod
    def learn(brain, ticks):
        """Pair a harm smell with pain, then step `ticks` brain ticks."""
        brain.sense(StimulusFrame(smell_ahead=Color.RED))
        brain.step()
        brain.sense(StimulusFrame(pain_contact=True))
        return brain.step_ticks(ticks - 1)

    @staticmethod
    def stdp_records(brain):
        return ({n: list(t) for n, t in brain._post_ticks.items()},
                {sid: list(t) for sid, t in brain._arrival_ticks.items()},
                brain._arrivals)

    @pytest.mark.parametrize("learning", [False, True])
    def test_copy_matches_a_wired_brain(self, learning):
        wired, copy = AntBrain(learning=learning), AntBrain(learning=learning).copy()
        key = copy.net.state_key(range(15))
        assert len(key) > 15 * CELL.size  # the kickstart pulse is in flight
        assert key == wired.net.state_key(range(15))
        assert copy.net.synapses == wired.net.synapses
        assert copy.layout == wired.layout
        assert copy.weights() == wired.weights()
        assert copy.learning is learning
        assert self.learn(copy, 300) == self.learn(wired, 300)
        assert copy.weights() == wired.weights()
        assert self.stdp_records(copy) == self.stdp_records(wired)

    def test_copy_of_a_learning_brain_learns_alike(self):
        """A copy carries the STDP records too, plastic pulses in flight
        included, so it goes on like a brain with the same history."""
        brain, twin = AntBrain(learning=True), AntBrain(learning=True)
        for b in (brain, twin):
            self.learn(b, 50)
            b.sense(StimulusFrame(smell_ahead=Color.WHITE))
            b.step_ticks(2)
        records = self.stdp_records(brain)
        assert all(records)
        copy = brain.copy()
        assert self.stdp_records(copy) == records
        assert self.learn(copy, 300) == self.learn(twin, 300)
        assert copy.net.state_key(range(15)) == twin.net.state_key(range(15))
        assert copy.weights() == twin.weights()
        assert self.stdp_records(copy) == self.stdp_records(twin)
        assert self.stdp_records(brain) == records

    def test_copy_shares_nothing_mutable(self):
        original = AntBrain()
        copy = original.copy()
        key, untrained = copy.net.state_key(range(15)), copy.weights()
        original.set_weights(trained_reference_weights())
        assert copy.net.state_key(range(15)) == key
        assert copy.weights() == untrained

        key = original.net.state_key(range(15))
        copy.learning = True
        self.learn(copy, 50)
        assert copy.weights() != untrained and copy._post_ticks and copy._arrival_ticks
        assert original.net.state_key(range(15)) == key
        assert original.weights() == trained_reference_weights()
        assert self.stdp_records(original) == ({}, {}, {})
        assert not original.learning

    def test_short_period_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            CircuitConfig(pacemaker_period=1)
        with pytest.raises(ValidationError, match="exceed the refractory"):
            CircuitConfig(pacemaker_period=2, refractory_ticks=2)


class TestDerivedConstants:
    def counter_synapse(self, brain):
        lay = brain.layout
        return next(s for s in brain.net.synapses
                    if s.pre == lay.pacemaker_a and s.post == lay.pheromone_negative)

    def test_counter_weight_is_the_wired_weight(self):
        assert CircuitConfig().counter_weight == self.counter_synapse(AntBrain()).weight

    def test_libm_results_are_pinned(self):
        """Every digest rests on these results of `math.exp` and `**` for
        the default config. A libm that rounds one of them differently
        fails here, at the constant it moved."""
        cfg = CircuitConfig()
        assert cfg.base_params._decay_per_tick.hex() == "0x1.a330ad6166159p-1"
        assert cfg.nociceptor_params._decay_per_tick.hex() == "0x1.a330ad6166159p-1"
        assert cfg.counter_params._decay_per_tick.hex() == "0x1.fae7cfd2b9cfep-1"
        assert cfg.counter_weight.hex() == "0x1.c2cb580832d19p-4"

    def test_constants_do_not_depend_on_builtin_sum(self, monkeypatch):
        """CPython 3.12's `sum` adds floats with Neumaier compensation, so
        a constant summed by it would move between interpreters. Under
        that `sum`, the pinned bits and the pulse-count bound hold."""
        plain_sum = builtins.sum

        def compensated_sum(iterable, start=0):
            items = list(iterable)
            if not items or not all(type(x) is float for x in items):
                return plain_sum(items, start)
            s, c = float(start), 0.0
            for x in items:
                t = s + x
                c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
                s = t
            return s + c if c else s

        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_libm_results_are_pinned()
        with pytest.raises(ValidationError, match="must be at most 184"):
            CircuitConfig(np_pulse_count=185)

    def test_replace_derives_again(self):
        default = CircuitConfig()
        cfg = replace(default, np_pulse_count=8, nociceptor_refractory=4, np_tau=50.0)
        assert cfg.counter_weight > default.counter_weight
        assert cfg.counter_weight == self.counter_synapse(AntBrain(cfg)).weight
        assert cfg.nociceptor_params.refractory_duration == 4
        assert cfg.counter_params.decay_time_constant == 50.0
        assert cfg.base_params == default.base_params

    @pytest.mark.parametrize("name", ["counter_weight", "base_params",
                                      "nociceptor_params", "counter_params"])
    def test_derived_fields_are_not_parameters(self, name):
        with pytest.raises(TypeError):
            CircuitConfig(**{name: CircuitConfig().counter_weight})

    def test_cells_use_the_derived_params(self):
        cfg = CircuitConfig()
        brain = AntBrain(cfg)
        lay = brain.layout
        params = brain.net.params
        assert params[lay.nociceptor] is cfg.nociceptor_params
        assert params[lay.pheromone_negative] is cfg.counter_params
        others = set(range(15)) - {lay.nociceptor, lay.pheromone_negative}
        assert all(params[i] is cfg.base_params for i in others)

    def test_layout_ids_are_stable(self):
        lay = AntBrain().layout
        assert list(lay.olfactory_receptors.values()) == [0, 1, 2]
        assert list(lay.afferents.values()) == [3, 4, 5]
        assert (lay.nociceptor, lay.reward_sensor, lay.motor_forward, lay.motor_rotate,
                lay.pacemaker_a, lay.pacemaker_b, lay.kickstart, lay.pheromone_positive,
                lay.pheromone_negative) == (6, 7, 8, 9, 10, 11, 12, 13, 14)
        assert lay.plastic_synapses == {
            (smell, motor): 3 + 2 * i + j
            for i, smell in enumerate(SMELLS)
            for j, motor in enumerate((MOTOR_FORWARD, MOTOR_ROTATE))}


class TestPacemaker:
    def test_no_kickstart_means_total_silence(self):
        brain = AntBrain(kickstart=False)
        assert brain.step_ticks(1000) == []

    @pytest.mark.parametrize("period", [6, 10, 14])
    def test_forward_motor_fires_every_period(self, period):
        brain = AntBrain(CircuitConfig(pacemaker_period=period))
        spikes = motor_spikes(brain, 20 * period, brain.layout.motor_forward)
        assert spikes[0] == 3  # kickstart(1) -> pacemaker(2) -> motor(3)
        intervals = [b - a for a, b in zip(spikes, spikes[1:])]
        assert intervals and set(intervals) == {period}

    def test_exact_intervals_over_100_cycles(self):
        brain = AntBrain()
        spikes = motor_spikes(brain, 1020, brain.layout.motor_forward)
        intervals = [b - a for a, b in zip(spikes, spikes[1:])]
        assert len(intervals) >= 100
        assert set(intervals) == {10}


SHORT_COUNTER = CircuitConfig(np_pulse_count=8, np_tau=100.0)


class TestEnergyCounter:
    def hand_simulated_first_spike(self, brain):
        """Independent per-tick integration of the counter membrane."""
        cfg = brain.circuit_cfg
        lay = brain.layout
        pulse_weight = next(s.weight for s in brain.net.synapses
                            if s.pre == lay.pacemaker_a and s.post == lay.pheromone_negative)
        m = math.exp(-1.0 / cfg.np_tau)
        # pacemaker_a first fires at tick 2, then every period; +1 delay
        arrivals = set(range(3, 5000, cfg.pacemaker_period))
        u = 0.0
        for t in range(1, 5000):
            u *= m
            if t in arrivals:
                u += pulse_weight
            if u >= cfg.firing_threshold:
                return t
        raise AssertionError("no spike in horizon")

    @pytest.mark.parametrize("cfg,first", [
        (SHORT_COUNTER, 73),          # 8th pulse: tick 3 + 7 * 10
        (CircuitConfig(), 193),       # default 20 pulses: tick 3 + 19 * 10
    ])
    def test_first_spike_matches_hand_simulation(self, cfg, first):
        brain = AntBrain(cfg)
        expected = self.hand_simulated_first_spike(brain)
        spikes = motor_spikes(brain, 300, brain.layout.pheromone_negative)
        assert spikes[0] == expected == first

    def test_largest_accepted_count_fires_on_its_last_pulse(self):
        """Past 184 pulses the default weight's margin outgrows the last
        pulse and the counter would fire early, so 184 is the largest
        count accepted, and a real brain counts exactly that many."""
        largest = 1
        while True:
            try:
                CircuitConfig(np_pulse_count=largest + 1)
            except ValidationError:
                break
            largest += 1
        assert largest == 184
        brain = AntBrain(CircuitConfig(np_pulse_count=largest))
        spikes = motor_spikes(brain, 2000, brain.layout.pheromone_negative)
        # pacemaker_a fires at tick 2 and every period; +1 delay
        assert spikes[0] == self.hand_simulated_first_spike(brain) == 3 + (largest - 1) * 10

    @pytest.mark.parametrize("rest", [-0.5, 0.5])
    @pytest.mark.parametrize("count", [1, 20, 184])
    def test_count_is_exact_off_zero_rest(self, rest, count):
        """The counter climbs from its resting potential, so the weight
        shares out threshold - rest: it fires on exactly the count-th
        pacemaker pulse whatever the rest."""
        brain = AntBrain(CircuitConfig(resting_potential=rest, np_pulse_count=count))
        spikes = motor_spikes(brain, 3 + count * 10, brain.layout.pheromone_negative)
        # pacemaker_a fires at tick 2 and every period; +1 delay
        assert spikes[0] == 3 + (count - 1) * 10

    @pytest.mark.parametrize("count", [185, 250, 10 ** 8])
    def test_unreachable_count_is_rejected(self, count):
        with pytest.raises(ValidationError, match="np_pulse_count must be at most 184 "):
            CircuitConfig(np_pulse_count=count)

    def test_steady_cadence_without_reward(self):
        brain = AntBrain(SHORT_COUNTER)
        spikes = motor_spikes(brain, 1000, brain.layout.pheromone_negative)
        intervals = [b - a for a, b in zip(spikes, spikes[1:])]
        assert set(intervals) == {80}  # pulse count 8 * period 10

    def test_reward_resets_the_counter(self):
        control = AntBrain(SHORT_COUNTER)
        control_spikes = motor_spikes(control, 400, control.layout.pheromone_negative)

        brain = AntBrain(SHORT_COUNTER)
        reward_tick = 100
        spikes = []
        for _ in range(reward_tick):
            spikes.extend(brain.step())
        brain.sense(StimulusFrame(reward_contact=True))
        for _ in range(400 - reward_tick):
            spikes.extend(brain.step())
        np_spikes = [ev.tick for ev in spikes
                     if ev.neuron == brain.layout.pheromone_negative]

        cycle = 8 * 10
        control_next = next(t for t in control_spikes if t > reward_tick)
        test_next = next(t for t in np_spikes if t > reward_tick)
        assert test_next - control_next >= cycle


class TestStimulusFrames:
    def test_each_prebuilt_frame_has_its_index_as_code(self):
        assert len(STIMULI) == 16
        assert [frame.code for frame in STIMULI] == list(range(16))

    def test_hand_built_frames_equal_the_prebuilt_ones(self):
        """Codes written out bit by bit (smell, pain, reward), so a
        reordered `Color` or `SMELLS` fails here."""
        by_hand = {
            0b0000: StimulusFrame(),
            0b0001: StimulusFrame(reward_contact=True),
            0b0010: StimulusFrame(pain_contact=True),
            0b0100: StimulusFrame(smell_ahead=Color.WHITE),
            0b1000: StimulusFrame(smell_ahead=Color.RED),
            0b1100: StimulusFrame(smell_ahead=Color.GREEN),
            0b1011: StimulusFrame(Color.RED, pain_contact=True, reward_contact=True),
            0b1111: StimulusFrame(Color.GREEN, pain_contact=True, reward_contact=True),
        }
        for code, frame in by_hand.items():
            assert frame.code == code
            assert STIMULI[code] == frame
            assert (STIMULI[code].smell_ahead, STIMULI[code].pain_contact,
                    STIMULI[code].reward_contact) == (frame.smell_ahead, frame.pain_contact,
                                                      frame.reward_contact)

    @pytest.mark.parametrize("smell", [Color.BLACK, "green", 0])
    def test_a_frame_rejects_what_is_not_a_smell(self, smell):
        with pytest.raises(ValidationError, match=f"smell_ahead must be a smell .*{smell!r}"):
            StimulusFrame(smell_ahead=smell)


class TestSense:
    def test_smell_routes_to_matching_receptor_only(self):
        brain = AntBrain(kickstart=False)
        brain.sense(StimulusFrame(smell_ahead=Color.GREEN))
        events = brain.step_ticks(1)
        assert events == [SpikeEvent(brain.layout.olfactory_receptors[Color.GREEN], 1)]

    def test_pain_reaches_rotate_through_the_reflex(self):
        brain = AntBrain(kickstart=False)
        brain.sense(StimulusFrame(pain_contact=True))
        events = brain.step_ticks(3)
        ticks = {ev.neuron: ev.tick for ev in events}
        assert ticks[brain.layout.nociceptor] == 1
        assert ticks[brain.layout.motor_rotate] == 2  # one synaptic delay later

    def test_reward_reaches_forward_and_positive_pheromone(self):
        brain = AntBrain(kickstart=False)
        brain.sense(StimulusFrame(reward_contact=True))
        events = brain.step_ticks(3)
        fired = {ev.neuron for ev in events}
        assert brain.layout.motor_forward in fired
        assert brain.layout.pheromone_positive in fired

    def test_empty_frame_only_pacemaker_activity(self):
        brain = AntBrain()
        brain.sense(StimulusFrame())
        events = brain.step_ticks(50)
        pacers = {brain.layout.pacemaker_a, brain.layout.pacemaker_b,
                  brain.layout.kickstart, brain.layout.motor_forward,
                  brain.layout.pheromone_negative}
        assert {ev.neuron for ev in events} <= pacers


class TestActuate:
    def test_forward_only(self):
        brain = AntBrain(kickstart=False)
        lay = brain.layout
        frame = brain.actuate([SpikeEvent(lay.motor_forward, 1)])
        assert frame == ActuatorFrame(move_forward=True)

    def test_rotate_wins_over_forward(self):
        brain = AntBrain(kickstart=False)
        lay = brain.layout
        frame = brain.actuate([SpikeEvent(lay.motor_forward, 1),
                               SpikeEvent(lay.motor_rotate, 1)])
        assert frame.rotate and not frame.move_forward

    def test_positive_pheromone_without_movement(self):
        brain = AntBrain(kickstart=False)
        frame = brain.actuate([SpikeEvent(brain.layout.pheromone_positive, 1)])
        assert frame == ActuatorFrame(emit_positive_pheromone=True)


class TestConditioning:
    def test_zero_pairings_leave_initial_weights(self):
        brain = AntBrain(kickstart=False)
        before = brain.weights()
        report = condition(brain, Color.WHITE, PAIN, 0)
        assert report == before

    def test_200_pain_pairings_near_ceiling(self):
        brain = AntBrain(kickstart=False)
        report = condition(brain, Color.WHITE, PAIN, 200, stimulus_gap=2)
        assert report[(Color.WHITE, MOTOR_ROTATE)] >= 0.9 * brain.stdp_cfg.w_max
        # untouched pathways stay at initialization
        assert report[(Color.WHITE, MOTOR_FORWARD)] == pytest.approx(0.1)
        assert report[(Color.GREEN, MOTOR_ROTATE)] == pytest.approx(0.1)

    def test_reward_pairings_condition_forward(self):
        brain = AntBrain(kickstart=False)
        report = condition(brain, Color.GREEN, REWARD, 200, stimulus_gap=2)
        assert report[(Color.GREEN, MOTOR_FORWARD)] >= 0.9 * brain.stdp_cfg.w_max

    def test_reversed_order_depresses(self):
        brain = AntBrain(kickstart=False)
        report = condition(brain, Color.WHITE, PAIN, 200, stimulus_gap=-2)
        assert report[(Color.WHITE, MOTOR_ROTATE)] <= 0.1

    def test_reflex_pathways_bit_identical_after_training(self):
        brain = AntBrain(kickstart=False)
        plastic_ids = set(brain.layout.plastic_synapses.values())
        fixed_before = [(i, s.weight) for i, s in enumerate(brain.net.synapses)
                        if i not in plastic_ids]
        condition(brain, Color.WHITE, PAIN, 100)
        condition(brain, Color.GREEN, REWARD, 100)
        fixed_after = [(i, s.weight) for i, s in enumerate(brain.net.synapses)
                       if i not in plastic_ids]
        assert fixed_before == fixed_after

    def test_transfer_smell_alone_elicits_response(self):
        brain = AntBrain(kickstart=False)
        condition(brain, Color.WHITE, PAIN, 200, stimulus_gap=2)
        brain.sense(StimulusFrame(smell_ahead=Color.WHITE))
        events = brain.step_ticks(4)  # receptor -> afferent -> motoneuron
        assert brain.layout.motor_rotate in {ev.neuron for ev in events}

    def test_untrained_smell_is_behaviorally_silent(self):
        brain = AntBrain(kickstart=False)
        brain.sense(StimulusFrame(smell_ahead=Color.WHITE))
        events = brain.step_ticks(6)
        fired = {ev.neuron for ev in events}
        assert brain.layout.motor_rotate not in fired
        assert brain.layout.motor_forward not in fired

    # The smell path is one synapse longer than the reflex path, so the
    # arrival-to-spike lag is stimulus_gap - 1: gaps cutoff + 1 and
    # -(cutoff - 1) still pair within the window, cutoff + 2 and -cutoff
    # do not.
    @pytest.mark.parametrize("sign, shift, conditions", [
        (1, 1, True), (-1, 1, True), (1, 2, False), (-1, 0, False)],
        ids=["cutoff_plus_1", "minus_cutoff_plus_1", "cutoff_plus_2", "minus_cutoff"])
    def test_only_gaps_inside_the_window_condition(self, sign, shift, conditions):
        brain = AntBrain(kickstart=False)
        cutoff = brain.stdp_cfg.window_cutoff
        gap = sign * cutoff + shift
        report = condition(brain, Color.WHITE, PAIN, 5, stimulus_gap=gap, trial_gap=cutoff + 5)
        moved = report[(Color.WHITE, MOTOR_ROTATE)] != pytest.approx(0.1)
        assert moved is conditions


class TestLearningBookkeeping:
    def test_held_ticks_stay_within_window(self):
        # Every smell and pain keep arriving while the pacemaker drives the
        # forward motoneuron, so each record is refilled all run long.
        brain = AntBrain(learning=True)
        cutoff = brain.stdp_cfg.window_cutoff
        for i in range(2 * cutoff + 40):
            if i % 7 == 0:
                brain.sense(StimulusFrame(smell_ahead=SMELLS[i // 7 % 3]))
            if i % 21 == 10:
                brain.sense(StimulusFrame(pain_contact=True))
            brain.step()
        now = brain.net.current_tick
        held = [*brain._post_ticks.values(), *brain._arrival_ticks.values()]
        assert len(held) == 2 + 6 and all(held)  # both motoneurons, six synapses
        for ticks in held:
            assert ticks[-1] <= now
            assert ticks[-1] - ticks[0] <= cutoff
            assert ticks[0] >= now - cutoff - 21


class TestWeightFiles:
    def test_round_trip(self):
        brain = AntBrain(kickstart=False)
        condition(brain, Color.RED, PAIN, 50)
        text = format_weights(brain.weights())
        assert parse_weights(text) == brain.weights()

    def test_blank_lines_skipped(self):
        weights = trained_reference_weights()
        assert parse_weights("\n" + format_weights(weights).replace("\n", "\n  \n")) == weights
        with pytest.raises(ValidationError, match="^weight file line 3: "):
            parse_weights("\n\nwhite forward\n")

    def test_missing_entry_rejected(self):
        text = "white forward 0.5\n"
        with pytest.raises(ValidationError, match="missing entries"):
            parse_weights(text)

    def test_bad_lines_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_weights("white forward\n")
        with pytest.raises(ValidationError, match="unknown smell"):
            parse_weights("mauve forward 0.5\n")

    @pytest.mark.parametrize("line, message", [
        ("black forward 0.5", "'black' is not a smell"),
        ("white spin 0.5", "unknown motor 'spin'"),
        ("white forward x", "bad number 'x'"),
    ], ids=["smell_black", "motor_spin", "value_x"])
    def test_bad_fields_rejected(self, line, message):
        with pytest.raises(ValidationError, match=f"^weight file line 1: {message}$"):
            parse_weights(line + "\n")

    def test_weight_outside_bounds_rejected(self):
        brain = AntBrain(kickstart=False)
        weights = trained_reference_weights()
        weights[(Color.WHITE, MOTOR_FORWARD)] = 5.0
        with pytest.raises(ValidationError,
                           match=r"^weight for white->forward outside \[w_min, w_max\]$"):
            brain.set_weights(weights)

    def test_duplicate_line_rejected(self):
        text = format_weights(trained_reference_weights()) + "red rotate 0.0\n"
        with pytest.raises(ValidationError, match="line 7: duplicate entry for red->rotate"):
            parse_weights(text)

    def test_reference_weights_shape(self):
        ref = trained_reference_weights()
        assert ref[(Color.WHITE, MOTOR_ROTATE)] == 1.0
        assert ref[(Color.GREEN, MOTOR_FORWARD)] == 1.0
        assert ref[(Color.GREEN, MOTOR_ROTATE)] == 0.0
        brain = AntBrain(kickstart=False)
        brain.set_weights(ref)
        assert brain.weights() == ref
