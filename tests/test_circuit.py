import math
import warnings
from dataclasses import replace

import pytest

from spikeants.circuit import (
    MOTOR_FORWARD,
    MOTOR_ROTATE,
    ActuatorFrame,
    AntBrain,
    CircuitConfig,
    ConditioningSchedule,
    SMELLS,
    StimulusFrame,
    format_weights,
    parse_weights,
    run_conditioning,
    trained_reference_weights,
)
from spikeants.snn import SpikeEvent, ValidationError
from spikeants.world import Color


def motor_spikes(brain, ticks, neuron):
    return [ev.tick for ev in brain.step_ticks(ticks) if ev.neuron == neuron]


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
        report = run_conditioning(
            brain, ConditioningSchedule(Color.WHITE, "pain", 0))
        assert report == before

    def test_200_pain_pairings_near_ceiling(self):
        brain = AntBrain(kickstart=False)
        report = run_conditioning(
            brain, ConditioningSchedule(Color.WHITE, "pain", 200, stimulus_gap=2))
        assert report[(Color.WHITE, MOTOR_ROTATE)] >= 0.9 * brain.stdp_cfg.w_max
        # untouched pathways stay at initialization
        assert report[(Color.WHITE, MOTOR_FORWARD)] == pytest.approx(0.1)
        assert report[(Color.GREEN, MOTOR_ROTATE)] == pytest.approx(0.1)

    def test_reward_pairings_condition_forward(self):
        brain = AntBrain(kickstart=False)
        report = run_conditioning(
            brain, ConditioningSchedule(Color.GREEN, "reward", 200, stimulus_gap=2))
        assert report[(Color.GREEN, MOTOR_FORWARD)] >= 0.9 * brain.stdp_cfg.w_max

    def test_reversed_order_depresses(self):
        brain = AntBrain(kickstart=False)
        report = run_conditioning(
            brain, ConditioningSchedule(Color.WHITE, "pain", 200, stimulus_gap=-2))
        assert report[(Color.WHITE, MOTOR_ROTATE)] <= 0.1

    def test_reflex_pathways_bit_identical_after_training(self):
        brain = AntBrain(kickstart=False)
        plastic_ids = set(brain.layout.plastic_synapses.values())
        fixed_before = [(i, s.weight) for i, s in enumerate(brain.net.synapses)
                        if i not in plastic_ids]
        run_conditioning(brain, [
            ConditioningSchedule(Color.WHITE, "pain", 100),
            ConditioningSchedule(Color.GREEN, "reward", 100),
        ])
        fixed_after = [(i, s.weight) for i, s in enumerate(brain.net.synapses)
                       if i not in plastic_ids]
        assert fixed_before == fixed_after

    def test_transfer_smell_alone_elicits_response(self):
        brain = AntBrain(kickstart=False)
        run_conditioning(
            brain, ConditioningSchedule(Color.WHITE, "pain", 200, stimulus_gap=2))
        brain.learning = False
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

    def test_gap_beyond_window_warns(self):
        brain = AntBrain(kickstart=False)
        wide = brain.stdp_cfg.window_cutoff
        with pytest.warns(UserWarning, match="learning window"):
            run_conditioning(
                brain, ConditioningSchedule(Color.WHITE, "pain", 1,
                                            stimulus_gap=wide + 2, trial_gap=wide + 5))

    # The smell path is one synapse longer than the reflex path, so the
    # arrival-to-spike lag is stimulus_gap - 1: gaps cutoff + 1 and
    # -(cutoff - 1) still pair within the window, cutoff + 2 and -cutoff
    # do not.
    @pytest.mark.parametrize("sign, shift, conditions", [
        (1, 1, True), (-1, 1, True), (1, 2, False), (-1, 0, False)],
        ids=["cutoff_plus_1", "minus_cutoff_plus_1", "cutoff_plus_2", "minus_cutoff"])
    def test_warning_marks_the_window_edge(self, sign, shift, conditions):
        brain = AntBrain(kickstart=False)
        cutoff = brain.stdp_cfg.window_cutoff
        gap = sign * cutoff + shift
        schedule = ConditioningSchedule(Color.WHITE, "pain", 5, stimulus_gap=gap,
                                        trial_gap=cutoff + 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_conditioning(brain, schedule)
        assert bool(caught) is not conditions
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
        run_conditioning(brain, ConditioningSchedule(Color.RED, "pain", 50))
        text = format_weights(brain.weights())
        assert parse_weights(text) == brain.weights()

    def test_missing_entry_rejected(self):
        text = "white forward 0.5\n"
        with pytest.raises(ValidationError, match="missing entries"):
            parse_weights(text)

    def test_bad_lines_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_weights("white forward\n")
        with pytest.raises(ValidationError, match="unknown smell"):
            parse_weights("mauve forward 0.5\n")

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
