import dataclasses
import math
import random

import pytest

from spikeants.snn import (
    Network,
    NeuronParams,
    NeuronPhase,
    NeuronState,
    Sign,
    ValidationError,
    decay,
)

from reference_snn import random_topology, simulate

DEFAULT = NeuronParams(resting_potential=0.0, firing_threshold=1.0,
                       refractory_potential=-1.0, refractory_duration=2,
                       decay_time_constant=5.0)
NO_DECAY = NeuronParams(decay_time_constant=math.inf)


def make_net(n=1, params=DEFAULT):
    net = Network()
    for _ in range(n):
        net.create_neuron(params)
    return net


class TestCreateNeuron:
    def test_fresh_neuron_at_rest(self):
        net = Network()
        nid = net.create_neuron(DEFAULT)
        assert nid == 0
        assert net.states[0].membrane_potential == 0.0
        assert net.states[0].phase is NeuronPhase.OPEN

    def test_sequential_ids(self):
        net = make_net(1)
        assert net.create_neuron(DEFAULT) == 1

    def test_threshold_must_exceed_rest(self):
        with pytest.raises(ValidationError, match="firing_threshold must exceed resting_potential"):
            NeuronParams(resting_potential=0.0, firing_threshold=0.0)

    def test_other_invariants(self):
        with pytest.raises(ValidationError):
            NeuronParams(refractory_potential=0.5)
        with pytest.raises(ValidationError):
            NeuronParams(decay_time_constant=0.0)
        with pytest.raises(ValidationError):
            NeuronParams(refractory_duration=0)


class TestConnect:
    def test_sequential_synapse_ids(self):
        net = make_net(2)
        assert net.connect(0, 1, 0.5, Sign.EXCITATORY, 1) == 0
        assert net.connect(1, 0, 0.5, Sign.EXCITATORY, 1) == 1

    def test_unknown_neuron(self):
        net = make_net(1)
        with pytest.raises(ValidationError, match="unknown neuron"):
            net.connect(0, 99, 0.5, Sign.EXCITATORY, 1)

    def test_zero_delay_rejected(self):
        net = make_net(2)
        with pytest.raises(ValidationError, match="delay must be >= 1"):
            net.connect(0, 1, 0.5, Sign.EXCITATORY, 0)

    def test_negative_weight_rejected(self):
        net = make_net(2)
        with pytest.raises(ValidationError):
            net.connect(0, 1, -0.1, Sign.EXCITATORY, 1)

    def test_connect_leaves_membranes_alone(self):
        net = make_net(2)
        net.connect(0, 1, 0.5, Sign.EXCITATORY, 1)
        assert all(s.membrane_potential == 0.0 for s in net.states)


class TestPsp:
    def test_inhibitory_subtracts(self):
        # No decay, so values stay exact: 0.5 then -1.0 gives -0.5.
        net = make_net(1, NO_DECAY)
        net.inject_pulse(0, 0.5)
        net.step()
        assert net.states[0].membrane_potential == 0.5
        net.inject_pulse(0, 1.0, Sign.INHIBITORY)
        net.step()
        assert net.states[0].membrane_potential == -0.5


class TestDecay:
    def test_rest_is_fixed_point(self):
        assert decay(0.0, DEFAULT, 100) == 0.0

    def test_closed_form_one_tau(self):
        # u0=1, rest=0, tau=5, t=5 -> exp(-1)
        assert decay(1.0, DEFAULT, 5) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_long_time_asymptote(self):
        assert abs(decay(-1.0, DEFAULT, 2000)) < 1e-12

    def test_exact_at_zero_elapsed(self):
        assert decay(0.73, DEFAULT, 0) == 0.73

    def test_open_phase_matches_closed_form(self):
        # Per-tick multiplication in step() vs the closed form.
        for tau, u0, ticks in [(5.0, 0.9, 40), (17.3, -0.4, 200), (2.0, 0.5, 25)]:
            params = NeuronParams(decay_time_constant=tau)
            net = make_net(1, params)
            net.inject_pulse(0, u0)
            net.step()
            for t in range(1, ticks + 1):
                net.step()
                expected = u0 * math.exp(-t / tau)
                assert net.states[0].membrane_potential == pytest.approx(expected, rel=1e-9)


class TestInjectAndStep:
    def test_suprathreshold_injection_spikes_next_step(self):
        net = make_net(1)
        net.inject_pulse(0, 2.0)
        events = net.step()
        assert events == [(0, 1)]

    def test_refractory_neglects_input(self):
        net = make_net(1)
        net.inject_pulse(0, 2.0)
        net.step()
        assert net.states[0].phase is NeuronPhase.REFRACTORY
        net.inject_pulse(0, 5.0)
        events = net.step()
        assert events == []
        assert net.states[0].membrane_potential == DEFAULT.refractory_potential

    def test_zero_injection_is_noop_without_decay(self):
        net = make_net(1, NO_DECAY)
        net.inject_pulse(0, 0.0)
        net.step()
        assert net.states[0].membrane_potential == 0.0

    def test_unknown_target_rejected(self):
        net = make_net(1)
        with pytest.raises(ValidationError):
            net.inject_pulse(5, 1.0)

    def test_summation_vs_threshold(self):
        net = make_net(1, NO_DECAY)
        net.inject_pulse(0, 0.6)
        net.inject_pulse(0, 0.6)
        assert len(net.step()) == 1
        net2 = make_net(1, NO_DECAY)
        net2.inject_pulse(0, 0.6)
        assert net2.step() == []

    def test_delay_contract(self):
        net = make_net(2, NO_DECAY)
        net.connect(0, 1, 0.5, Sign.EXCITATORY, 3)
        net.inject_pulse(0, 2.0)
        net.step()  # tick 1: neuron 0 spikes
        net.step()  # tick 2
        net.step()  # tick 3
        assert net.states[1].membrane_potential == 0.0
        net.step()  # tick 4 = spike tick 1 + delay 3
        assert net.states[1].membrane_potential == 0.5

    def test_post_refractory_reopens_at_rest(self):
        net = make_net(1)
        net.inject_pulse(0, 2.0)
        net.step()
        net.step()
        net.step()  # refractory_duration=2 elapses here
        assert net.states[0].phase is NeuronPhase.OPEN
        assert net.states[0].membrane_potential == 0.0

    def test_spike_implies_threshold_then_refractory_potential(self):
        net = make_net(1, NO_DECAY)
        net.inject_pulse(0, 0.7)
        net.step()
        net.inject_pulse(0, 0.4)  # 0.7 + 0.4 >= 1.0
        events = net.step()
        assert len(events) == 1
        assert net.states[0].membrane_potential == DEFAULT.refractory_potential

    def test_pending_pulses_strictly_future_after_step(self):
        net = make_net(2)
        net.connect(0, 1, 0.5, Sign.EXCITATORY, 2)
        net.inject_pulse(0, 2.0)
        for _ in range(5):
            net.step()
            assert all(t > net.current_tick for t in net.pending_pulses)


class TestRefractoryCounter:
    def test_phase_is_not_stored(self):
        names = {f.name for f in dataclasses.fields(NeuronState)}
        assert names == {"membrane_potential", "refractory_remaining"}

    def test_phase_follows_counter_on_random_run(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(10):
            neurons, synapses, injections = random_topology(rng)
            net = build_package_net(neurons, synapses)
            by_tick = {}
            for (dt, nid, amp) in injections:
                by_tick.setdefault(dt, []).append((nid, amp))
            for t in range(1, 301):
                for nid, amp in by_tick.get(t, ()):
                    net.inject_pulse(nid, amp)
                fired = {ev.neuron for ev in net.step()}
                for i, state in enumerate(net.states):
                    refractory = state.refractory_remaining > 0
                    assert (state.phase is NeuronPhase.REFRACTORY) == refractory
                    if i in fired:
                        assert state.refractory_remaining == net.params[i].refractory_duration
                    seen.add(refractory)
        assert seen == {True, False}


def build_package_net(neurons, synapses):
    net = Network()
    for p in neurons:
        net.create_neuron(NeuronParams(
            resting_potential=p["rest"], firing_threshold=p["threshold"],
            refractory_potential=p["refr_pot"], refractory_duration=p["refr_ticks"],
            decay_time_constant=p["tau"]))
    for (pre, post, weight, sign, delay) in synapses:
        net.connect(pre, post, weight,
                    Sign.EXCITATORY if sign > 0 else Sign.INHIBITORY, delay)
    return net


def run_package_net(net, injections, ticks):
    by_tick = {}
    for (dt, nid, amp) in injections:
        by_tick.setdefault(dt, []).append((nid, amp))
    spikes = []
    for t in range(1, ticks + 1):
        for nid, amp in by_tick.get(t, ()):
            sign = Sign.EXCITATORY if amp >= 0 else Sign.INHIBITORY
            net.inject_pulse(nid, abs(amp), sign)
        spikes.extend((ev.neuron, ev.tick) for ev in net.step())
    return spikes


class TestOracleEquivalence:
    def test_three_neuron_chain_1000_ticks(self):
        neurons = [dict(rest=0.0, threshold=1.0, refr_pot=-1.0, refr_ticks=2, tau=5.0)
                   for _ in range(3)]
        synapses = [(0, 1, 1.2, 1, 1), (1, 2, 1.2, 1, 2), (2, 0, 1.2, 1, 3)]
        injections = [(t, 0, 2.0) for t in range(1, 1001, 37)]
        expected = simulate(neurons, synapses, injections, 1000)
        net = build_package_net(neurons, synapses)
        got = run_package_net(net, injections, 1000)
        assert got == expected
        assert len(got) > 50  # the drive actually produced activity

    def test_random_networks_match_reference(self):
        rng = random.Random(20240811)
        for _ in range(25):
            neurons, synapses, injections = random_topology(rng)
            expected = simulate(neurons, synapses, injections, 1000)
            net = build_package_net(neurons, synapses)
            got = run_package_net(net, injections, 1000)
            assert got == expected


class TestDeterminismAndRelabeling:
    def test_identical_networks_identical_trains(self):
        neurons = [dict(rest=0.0, threshold=1.0, refr_pot=-1.0, refr_ticks=1, tau=7.0)
                   for _ in range(4)]
        synapses = [(0, 1, 1.1, 1, 1), (1, 2, 1.1, 1, 2), (2, 3, 1.1, 1, 1),
                    (3, 0, 1.1, -1, 2)]
        injections = [(t, 0, 1.5) for t in range(1, 500, 11)]
        runs = []
        for _ in range(2):
            net = build_package_net(neurons, synapses)
            runs.append(run_package_net(net, injections, 500))
        assert runs[0] == runs[1]

    def test_spike_trains_invariant_under_relabeling(self):
        rng = random.Random(7)
        for _ in range(10):
            neurons, synapses, injections = random_topology(rng)
            n = len(neurons)
            perm = list(range(n))
            rng.shuffle(perm)
            base = run_package_net(build_package_net(neurons, synapses),
                                   injections, 400)
            neurons2 = [None] * n
            for i, p in enumerate(neurons):
                neurons2[perm[i]] = p
            synapses2 = [(perm[a], perm[b], w, s, d) for (a, b, w, s, d) in synapses]
            injections2 = [(t, perm[i], a) for (t, i, a) in injections]
            relabeled = run_package_net(build_package_net(neurons2, synapses2),
                                        injections2, 400)
            assert sorted((perm[i], t) for (i, t) in base) == sorted(relabeled)
