"""Discrete-time spiking network core.

Neurons are two-state finite-state machines (open / absolute-refractory)
holding a single membrane potential that decays exponentially toward a
resting value. Synapses carry a non-negative weight, an excitatory or
inhibitory sign, and an integer transmission delay of at least one tick,
so a spike can never influence the tick it was emitted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when neuron/synapse parameters violate an invariant."""


class NeuronPhase(Enum):
    OPEN = "open"
    REFRACTORY = "absolute_refractory"


class Sign(Enum):
    EXCITATORY = 1
    INHIBITORY = -1


class SpikeEvent(NamedTuple):
    neuron: int
    tick: int


@dataclass(frozen=True)
class NeuronParams:
    """Static cell parameters shared by a neuron for its whole life."""

    resting_potential: float = 0.0
    firing_threshold: float = 1.0
    refractory_potential: float = -1.0
    refractory_duration: int = 2
    decay_time_constant: float = 5.0

    def __post_init__(self):
        if not self.firing_threshold > self.resting_potential:
            raise ValidationError("firing_threshold must exceed resting_potential")
        if not self.refractory_potential <= self.resting_potential:
            raise ValidationError("refractory_potential must not exceed resting_potential")
        if not self.decay_time_constant > 0:
            raise ValidationError("decay_time_constant must be positive")
        if self.refractory_duration < 1:
            raise ValidationError("refractory_duration must be at least 1 tick")
        # Per-tick decay factor, cached because step() applies it every tick.
        object.__setattr__(self, "_decay_per_tick", math.exp(-1.0 / self.decay_time_constant))


@dataclass
class NeuronState:
    membrane_potential: float
    # Ticks of dead time left; the neuron is refractory while this is positive.
    refractory_remaining: int = 0

    @property
    def phase(self) -> NeuronPhase:
        return NeuronPhase.REFRACTORY if self.refractory_remaining else NeuronPhase.OPEN


@dataclass
class Synapse:
    pre: int
    post: int
    weight: float
    sign: Sign
    delay: int
    plastic: bool = False


def decay(u: float, params: NeuronParams, elapsed: int) -> float:
    """Membrane potential after `elapsed` ticks with no input."""
    if elapsed < 0:
        raise ValidationError("elapsed must be non-negative")
    rest = params.resting_potential
    return rest + (u - rest) * math.exp(-elapsed / params.decay_time_constant)


class Network:
    """An isolated collection of neurons, synapses and in-flight pulses.

    Stepping is single-threaded per network; distinct networks share
    nothing and may be advanced in parallel.
    """

    def __init__(self):
        self.params: list[NeuronParams] = []
        self.states: list[NeuronState] = []
        self.synapses: list[Synapse] = []
        self.current_tick: int = 0
        # delivery tick -> list of (post neuron, signed amplitude)
        self.pending_pulses: dict[int, list[tuple[int, float]]] = {}
        self._outgoing: list[list[Synapse]] = []

    def create_neuron(self, params: NeuronParams) -> int:
        """Add a neuron at rest in the open phase; returns its id."""
        self.params.append(params)
        self.states.append(NeuronState(membrane_potential=params.resting_potential))
        self._outgoing.append([])
        return len(self.params) - 1

    def connect(self, pre: int, post: int, weight: float, sign: Sign,
                delay: int, plastic: bool = False) -> int:
        """Append a synapse; returns its id. No membrane is touched."""
        self._check_id(pre)
        self._check_id(post)
        if delay < 1:
            raise ValidationError("delay must be >= 1")
        if weight < 0:
            raise ValidationError("weight must be non-negative")
        syn = Synapse(pre=pre, post=post, weight=weight, sign=sign,
                      delay=delay, plastic=plastic)
        self.synapses.append(syn)
        self._outgoing[pre].append(syn)
        return len(self.synapses) - 1

    def inject_pulse(self, neuron: int, amplitude: float, sign: Sign = Sign.EXCITATORY):
        """Schedule an external pulse for delivery on the next tick.

        Models an intracellular electrode: the pulse bypasses every
        synapse and lands directly on the target's membrane.
        """
        self._check_id(neuron)
        signed = amplitude if sign is Sign.EXCITATORY else -amplitude
        self.pending_pulses.setdefault(self.current_tick + 1, []).append((neuron, signed))

    def step(self) -> list[SpikeEvent]:
        """Advance the whole network by one tick.

        Open neurons decay once, integrate the pulses due this tick and
        spike when the threshold is reached; refractory neurons discard
        all arriving pulses and count down. Every threshold test reads
        only pre-step state plus pulses scheduled on earlier ticks, so
        the ascending-id processing order cannot change the outcome.
        """
        self.current_tick += 1
        t = self.current_tick
        due = self.pending_pulses.pop(t, None)
        incoming: dict[int, float] = {}
        if due:
            for post, amp in due:
                incoming[post] = incoming.get(post, 0.0) + amp
        events: list[SpikeEvent] = []
        for i, state in enumerate(self.states):
            p = self.params[i]
            if state.refractory_remaining:
                # Arriving pulses are neglected while refractory.
                state.refractory_remaining -= 1
                if state.refractory_remaining == 0:
                    state.membrane_potential = p.resting_potential
                continue
            u = p.resting_potential + (
                (state.membrane_potential - p.resting_potential) * p._decay_per_tick)
            pulse = incoming.get(i)
            if pulse is not None:
                u += pulse
            if u >= p.firing_threshold:
                events.append(SpikeEvent(i, t))
                state.membrane_potential = p.refractory_potential
                state.refractory_remaining = p.refractory_duration
                for syn in self._outgoing[i]:
                    amp = -syn.weight if syn.sign is Sign.INHIBITORY else syn.weight
                    self.pending_pulses.setdefault(t + syn.delay, []).append((syn.post, amp))
            else:
                state.membrane_potential = u
        return events

    def _check_id(self, neuron: int):
        if not 0 <= neuron < len(self.params):
            raise ValidationError(f"unknown neuron {neuron}")
