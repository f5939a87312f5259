"""The ant's neural controller.

Wires the full circuit on top of the spiking core: three olfactory
receptors feeding afferents, a nociceptor and a reward sensor with fixed
reflex pathways onto the two motoneurons, a two-neuron pacemaker loop
that keeps the ant walking, and the two pheromone neurons (one driven by
reward contact, one integrating pacemaker pulses as an energy-consumption
counter that reward inhibits). The afferent-to-motoneuron synapses are
the only plastic ones; everything else is a fixed reflex.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .plasticity import StdpConfig, on_post_spike, on_pre_spike
from .snn import Network, NeuronParams, SpikeEvent, ValidationError, check_ticks
from .world import Color

MOTOR_FORWARD = "forward"
MOTOR_ROTATE = "rotate"

SMELLS = (Color.WHITE, Color.RED, Color.GREEN)

# Relative excess of the energy counter's weight over the exact
# (threshold - rest) / geometric sum, so that rounding cannot keep the
# last pulse below threshold.
_COUNTER_MARGIN = 1e-9
# The most pulses the counter may integrate; undecaying ones cross the margin near 1e9.
_MAX_PULSE_COUNT = 10**6


@dataclass(frozen=True)
class CircuitConfig:
    brain_steps_per_world_tick: int = 10
    pacemaker_period: int = 10
    reflex_weight: float = 2.0
    drive_weight: float = 1.2
    sense_amplitude: float = 2.0
    plastic_init_fraction: float = 0.1
    np_pulse_count: int = 20
    np_tau: float = 100.0
    np_inhibit_weight: float = 2.0
    # A long nociceptor dead time makes standing pain fire on alternate
    # world ticks, so the rotate reflex and the forward drive interleave
    # and the ant can actually walk off a harmful patch.
    nociceptor_refractory: int = 15
    membrane_tau: float = 5.0
    resting_potential: float = 0.0
    firing_threshold: float = 1.0
    refractory_potential: float = -1.0
    refractory_ticks: int = 2
    # Derived in __post_init__, so dataclasses.replace derives them again:
    # the base cell, the nociceptor (own dead time), the energy counter (own
    # membrane time constant), and the pacemaker->counter weight with which
    # exactly np_pulse_count pulses, decaying in between, lift the counter
    # from rest to threshold.
    base_params: NeuronParams = field(init=False)
    nociceptor_params: NeuronParams = field(init=False)
    counter_params: NeuronParams = field(init=False)
    counter_weight: float = field(init=False)

    def __post_init__(self):
        # Each message names this config's own field, never a field of
        # NeuronParams, so that a config file error can name its key.
        for name in ("reflex_weight", "drive_weight", "sense_amplitude", "np_inhibit_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and non-negative")
        for name in ("membrane_tau", "np_tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        for name in ("brain_steps_per_world_tick", "refractory_ticks", "nociceptor_refractory"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1 tick")
        for name in ("brain_steps_per_world_tick", "refractory_ticks", "nociceptor_refractory",
                     "pacemaker_period"):
            check_ticks(name, getattr(self, name))
        if self.pacemaker_period < 2:
            raise ValidationError("pacemaker_period must be at least 2 ticks")
        if self.pacemaker_period <= self.refractory_ticks:
            raise ValidationError(
                "pacemaker_period must exceed the refractory time refractory_ticks")
        if not 0.0 <= self.plastic_init_fraction < 1.0:
            raise ValidationError("plastic_init_fraction must lie in [0, 1)")
        if self.np_pulse_count < 1:
            raise ValidationError("np_pulse_count must be at least 1")
        # What is left to NeuronParams is the three potentials, finite
        # and in order, whose field names match this config's.
        base = NeuronParams(
            resting_potential=self.resting_potential,
            firing_threshold=self.firing_threshold,
            refractory_potential=self.refractory_potential,
            refractory_duration=self.refractory_ticks,
            decay_time_constant=self.membrane_tau,
        )
        counter = replace(base, decay_time_constant=self.np_tau)
        per_period = counter._decay_per_tick ** self.pacemaker_period
        # The weight reaches threshold on the last pulse only while that
        # pulse adds more than the weight's margin; past that, the counter
        # fires one pulse early. The pulses shrink as their sum, added left
        # to right, grows, so the first count that fails bounds every larger
        # one, and a count out of reach fails within that many terms.
        geometric = 0.0
        for reached in range(min(self.np_pulse_count, _MAX_PULSE_COUNT)):
            pulse = per_period ** reached
            if pulse <= _COUNTER_MARGIN * geometric:
                raise ValidationError(
                    f"np_pulse_count must be at most {reached} with this np_tau and "
                    "pacemaker_period: a later pulse adds less than the counter "
                    "weight's margin, so the counter would fire early")
            geometric += pulse
        if self.np_pulse_count > _MAX_PULSE_COUNT:
            raise ValidationError(f"np_pulse_count must be at most {_MAX_PULSE_COUNT}")
        weight = ((self.firing_threshold - self.resting_potential) / geometric
                  * (1.0 + _COUNTER_MARGIN))
        if not weight < math.inf:
            raise ValidationError("firing_threshold - resting_potential is too large: "
                                  "the energy counter's weight would overflow")
        object.__setattr__(self, "base_params", base)
        object.__setattr__(self, "nociceptor_params",
                           replace(base, refractory_duration=self.nociceptor_refractory))
        object.__setattr__(self, "counter_params", counter)
        object.__setattr__(self, "counter_weight", weight)


@dataclass(frozen=True)
class StimulusFrame:
    """What one world tick presents to the senses.

    `code` numbers the 16 possible frames: the smell's place in
    (None,) + SMELLS, then pain, then reward, from the high bit down.
    `STIMULI[code]` is the frame itself.
    """
    smell_ahead: Optional[Color] = None
    pain_contact: bool = False
    reward_contact: bool = False
    # Derived in __post_init__; equal frames have equal codes.
    code: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.smell_ahead is not None and self.smell_ahead not in SMELLS:
            raise ValidationError("smell_ahead must be a smell "
                                  f"({', '.join(c.value for c in SMELLS)}), "
                                  f"not {self.smell_ahead!r}")
        smell = 0 if self.smell_ahead is None else SMELLS.index(self.smell_ahead) + 1
        object.__setattr__(self, "code", smell << 2 | bool(self.pain_contact) << 1
                           | bool(self.reward_contact))


# Every stimulus frame, indexed by its code.
STIMULI = tuple(StimulusFrame(smell, pain, reward) for smell in (None,) + SMELLS
                for pain in (False, True) for reward in (False, True))


@dataclass(frozen=True)
class ActuatorFrame:
    move_forward: bool = False
    rotate: bool = False
    emit_positive_pheromone: bool = False
    emit_negative_pheromone: bool = False


@dataclass
class BrainLayout:
    olfactory_receptors: dict[Color, int]
    afferents: dict[Color, int]
    nociceptor: int
    reward_sensor: int
    motor_forward: int
    motor_rotate: int
    pacemaker_a: int
    pacemaker_b: int
    kickstart: int
    pheromone_positive: int
    pheromone_negative: int
    # (smell, motor role) -> synapse id; the only plastic synapses.
    plastic_synapses: dict[tuple[Color, str], int] = field(default_factory=dict)


class AntBrain:
    """One network plus its layout, with optional online plasticity.

    A brain owns its network exclusively. While learning is off, a run
    may hold the brain in a `Tabled`, which steps it by lookup and brings
    the network up to date when it leaves.
    """

    def __init__(self, circuit_cfg: CircuitConfig = CircuitConfig(),
                 stdp_cfg: StdpConfig = StdpConfig(),
                 learning: bool = False, kickstart: bool = True):
        self.circuit_cfg = cfg = circuit_cfg
        self.stdp_cfg = stdp_cfg
        self.learning = learning
        self.net = net = Network()
        base = cfg.base_params
        # Neuron ids follow the order of the arguments.
        self.layout = layout = BrainLayout(
            olfactory_receptors={smell: net.create_neuron(base) for smell in SMELLS},
            afferents={smell: net.create_neuron(base) for smell in SMELLS},
            nociceptor=net.create_neuron(cfg.nociceptor_params),
            reward_sensor=net.create_neuron(base),
            motor_forward=net.create_neuron(base),
            motor_rotate=net.create_neuron(base),
            pacemaker_a=net.create_neuron(base),
            pacemaker_b=net.create_neuron(base),
            kickstart=net.create_neuron(base),
            pheromone_positive=net.create_neuron(base),
            pheromone_negative=net.create_neuron(cfg.counter_params),
        )

        w_fix = cfg.reflex_weight
        # Each receptor drives exactly one afferent.
        for smell in SMELLS:
            net.connect(layout.olfactory_receptors[smell], layout.afferents[smell], w_fix, 1)

        # Conditionable pathways, initialized plastic_init_fraction of the
        # way from w_min to w_max (at the defaults too weak to move
        # anything), indexed by post and by pre neuron for the STDP
        # bookkeeping.
        self._plastic_in: dict[int, list[int]] = {}
        self._plastic_out: dict[int, list[int]] = {}
        w_init = stdp_cfg.w_min + cfg.plastic_init_fraction * (stdp_cfg.w_max - stdp_cfg.w_min)
        for smell in SMELLS:
            pre = layout.afferents[smell]
            for motor, post in ((MOTOR_FORWARD, layout.motor_forward),
                                (MOTOR_ROTATE, layout.motor_rotate)):
                sid = net.connect(pre, post, w_init, 1, plastic=True)
                layout.plastic_synapses[(smell, motor)] = sid
                self._plastic_in.setdefault(post, []).append(sid)
                self._plastic_out.setdefault(pre, []).append(sid)

        half = cfg.pacemaker_period // 2
        for pre, post, weight, delay in (
                # Unconditioned reflexes.
                (layout.nociceptor, layout.motor_rotate, w_fix, 1),
                (layout.reward_sensor, layout.motor_forward, w_fix, 1),
                (layout.reward_sensor, layout.pheromone_positive, w_fix, 1),
                # Pacemaker loop; the two delays sum to the configured period.
                (layout.pacemaker_a, layout.pacemaker_b, w_fix, half),
                (layout.pacemaker_b, layout.pacemaker_a, w_fix, cfg.pacemaker_period - half),
                (layout.kickstart, layout.pacemaker_a, w_fix, 1),
                (layout.pacemaker_a, layout.motor_forward, cfg.drive_weight, 1),
                # Energy-consumption counter, which reward inhibits.
                (layout.pacemaker_a, layout.pheromone_negative, cfg.counter_weight, 1),
                (layout.reward_sensor, layout.pheromone_negative, -cfg.np_inhibit_weight, 1)):
            net.connect(pre, post, weight, delay)

        # Recent firing ticks per plastic post neuron and, per plastic
        # synapse, the arrival ticks its post membrane actually integrated.
        # Created on first use: a brain that never learns holds none.
        self._post_ticks: dict[int, deque[int]] = defaultdict(deque)
        self._arrival_ticks: dict[int, deque[int]] = defaultdict(deque)
        # delivery tick -> plastic synapses whose pulse lands then
        self._arrivals: dict[int, list[int]] = {}
        if kickstart:
            net.inject_pulse(layout.kickstart, cfg.sense_amplitude)

    def copy(self) -> AntBrain:
        """A brain in this brain's state, without wiring another: its own
        network (`Network.copy`) and STDP records. The layout, the plastic
        synapse indexes and the configs are never written after wiring,
        so the copy shares them."""
        new = AntBrain.__new__(AntBrain)
        new.circuit_cfg, new.stdp_cfg = self.circuit_cfg, self.stdp_cfg
        new.learning = self.learning
        new.net = self.net.copy()
        new.layout, new._plastic_in, new._plastic_out = (
            self.layout, self._plastic_in, self._plastic_out)
        new._post_ticks = defaultdict(deque, {n: deque(ticks)
                                              for n, ticks in self._post_ticks.items()})
        new._arrival_ticks = defaultdict(deque, {sid: deque(ticks)
                                                 for sid, ticks in self._arrival_ticks.items()})
        new._arrivals = {t: sids.copy() for t, sids in self._arrivals.items()}
        return new

    def sense(self, frame: StimulusFrame):
        """Inject suprathreshold pulses for everything the frame reports."""
        amplitude = self.circuit_cfg.sense_amplitude
        if frame.smell_ahead is not None:
            self.net.inject_pulse(self.layout.olfactory_receptors[frame.smell_ahead], amplitude)
        if frame.pain_contact:
            self.net.inject_pulse(self.layout.nociceptor, amplitude)
        if frame.reward_contact:
            self.net.inject_pulse(self.layout.reward_sensor, amplitude)

    def step(self) -> list[SpikeEvent]:
        """One brain tick, with STDP bookkeeping when learning is on.

        Every (arrival, post) pair is fed to the window exactly once:
        potentiation when the post spike happens, depression when a
        later pulse arrives. Two refinements follow from the membrane
        semantics: a pulse arriving during the postsynaptic refractory
        period is neglected entirely (the membrane never saw it), and a
        pulse arriving on the firing tick counts as causal, because the
        stepper integrates pulses before testing the threshold.
        """
        if not self.learning:
            return self.net.step()
        net = self.net
        # Decided before the step: a post that is refractory now discards
        # whatever lands on it this tick.
        accepted = [sid for sid in self._arrivals.pop(net.current_tick + 1, ())
                    if not net.states[net.synapses[sid].post].refractory_remaining]
        events = net.step()
        t = net.current_tick
        stdp = self.stdp_cfg
        for sid in accepted:
            syn = net.synapses[sid]
            on_pre_spike(syn, self._post_ticks[syn.post], t, stdp)
            self._record(self._arrival_ticks[sid], t)
        for ev in events:
            for sid in self._plastic_in.get(ev.neuron, ()):
                on_post_spike(net.synapses[sid], self._arrival_ticks[sid], t, stdp)
            if ev.neuron in self._plastic_in:
                self._record(self._post_ticks[ev.neuron], t)
            for sid in self._plastic_out.get(ev.neuron, ()):
                syn = net.synapses[sid]
                self._arrivals.setdefault(t + syn.delay, []).append(sid)
        return events

    def _record(self, ticks: deque[int], t: int):
        """Append tick `t`, dropping ticks the window can no longer reach."""
        ticks.append(t)
        while ticks[0] < t - self.stdp_cfg.window_cutoff:
            ticks.popleft()

    def step_ticks(self, n: int) -> list[SpikeEvent]:
        return [ev for _ in range(n) for ev in self.step()]

    def actuate(self, events: Iterable[SpikeEvent]) -> ActuatorFrame:
        """Fold spike events into motor/pheromone commands.

        When forward and rotate both fired, rotate wins: avoidance
        dominates locomotion.
        """
        layout = self.layout
        fired = {ev.neuron for ev in events}
        rotate = layout.motor_rotate in fired
        return ActuatorFrame(
            move_forward=layout.motor_forward in fired and not rotate,
            rotate=rotate,
            emit_positive_pheromone=layout.pheromone_positive in fired,
            emit_negative_pheromone=layout.pheromone_negative in fired,
        )

    def world_tick(self, frame: StimulusFrame) -> ActuatorFrame:
        """Sense `frame`, run the config's `brain_steps_per_world_tick`
        brain ticks and actuate."""
        self.sense(frame)
        return self.actuate(self.step_ticks(self.circuit_cfg.brain_steps_per_world_tick))

    # -- trained-weight interchange --------------------------------------

    def weights(self) -> dict[tuple[Color, str], float]:
        return {key: self.net.synapses[sid].weight
                for key, sid in self.layout.plastic_synapses.items()}

    def set_weights(self, mapping: dict[tuple[Color, str], float]):
        for key, value in mapping.items():
            sid = self.layout.plastic_synapses[key]
            if not self.stdp_cfg.w_min <= value <= self.stdp_cfg.w_max:
                raise ValidationError(
                    f"weight for {key[0].value}->{key[1]} outside [w_min, w_max]")
            self.net.synapses[sid].weight = value


# -- flat text weight files ------------------------------------------------

def format_weights(mapping: dict[tuple[Color, str], float]) -> str:
    keys = sorted(mapping, key=lambda k: (k[0].value, k[1]))
    return "\n".join(f"{smell.value} {motor} {mapping[(smell, motor)]!r}"
                     for smell, motor in keys) + "\n"


def parse_weights(text: str) -> dict[tuple[Color, str], float]:
    mapping: dict[tuple[Color, str], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"weight file line {lineno}: expected 'smell motor value'")
        smell_name, motor, raw = parts
        try:
            smell = Color(smell_name)
        except ValueError:
            raise ValidationError(f"weight file line {lineno}: unknown smell '{smell_name}'")
        if smell not in SMELLS:
            raise ValidationError(f"weight file line {lineno}: '{smell_name}' is not a smell")
        if motor not in (MOTOR_FORWARD, MOTOR_ROTATE):
            raise ValidationError(f"weight file line {lineno}: unknown motor '{motor}'")
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"weight file line {lineno}: bad number '{raw}'")
        if (smell, motor) in mapping:
            raise ValidationError(
                f"weight file line {lineno}: duplicate entry for {smell_name}->{motor}")
        mapping[(smell, motor)] = value
    missing = [f"{s.value}->{m}" for s in SMELLS for m in (MOTOR_FORWARD, MOTOR_ROTATE)
               if (s, m) not in mapping]
    if missing:
        raise ValidationError("weight file missing entries: " + ", ".join(missing))
    return mapping


def trained_reference_weights(stdp: StdpConfig = StdpConfig()) -> dict[tuple[Color, str], float]:
    """The idealized post-training weight set.

    Harm-colored smells drive rotation at full strength, the food smell
    drives forward motion, and every cross pathway sits at the floor.
    """
    w = {(s, m): stdp.w_min for s in SMELLS for m in (MOTOR_FORWARD, MOTOR_ROTATE)}
    w[(Color.WHITE, MOTOR_ROTATE)] = stdp.w_max
    w[(Color.RED, MOTOR_ROTATE)] = stdp.w_max
    w[(Color.GREEN, MOTOR_FORWARD)] = stdp.w_max
    return w
