"""Discrete-time spiking network core.

Neurons are two-state finite-state machines (open / absolute-refractory)
holding a single membrane potential that decays exponentially toward a
resting value. Synapses carry a finite signed weight, negative meaning
inhibitory, and an integer transmission delay of at least one tick, so a
spike can never influence the tick it was emitted on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when neuron/synapse parameters violate an invariant."""


# One neuron cell's record in a state key: its potential as float bits,
# so that -0.0 and 0.0 differ, then its dead-time counter. A pulse in
# flight adds its target to the same two fields.
CELL = struct.Struct("dq")
_PULSE = struct.Struct(CELL.format + "q")


def check_ticks(name: str, ticks: int):
    """Reject a tick count past a signed 64-bit field, such as a dead time
    or delay that a `CELL` cannot hold."""
    if ticks > 2 ** 63 - 1:
        raise ValidationError(f"{name} must be at most 2**63 - 1 ticks")


class NeuronPhase(Enum):
    OPEN = "open"
    REFRACTORY = "absolute_refractory"


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
        for name in ("resting_potential", "firing_threshold", "refractory_potential"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not self.firing_threshold > self.resting_potential:
            raise ValidationError("firing_threshold must exceed resting_potential")
        if not self.refractory_potential <= self.resting_potential:
            raise ValidationError("refractory_potential must not exceed resting_potential")
        if not self.decay_time_constant > 0:
            raise ValidationError("decay_time_constant must be positive")
        if self.refractory_duration < 1:
            raise ValidationError("refractory_duration must be at least 1 tick")
        check_ticks("refractory_duration", self.refractory_duration)
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
    delay: int
    plastic: bool = False


def decay(u: float, params: NeuronParams, elapsed: int) -> float:
    """Membrane potential after `elapsed` ticks with no input."""
    if elapsed < 0:
        raise ValidationError("elapsed must be non-negative")
    rest = params.resting_potential
    return rest + (u - rest) * math.exp(-elapsed / params.decay_time_constant)


def run_cell(u: float, remaining: int, params: NeuronParams,
             pulses) -> tuple[float, int, bool]:
    """One neuron through `len(pulses)` ticks, given the pulse sum due
    on each tick (None where none is due): its final potential and
    refractory counter, and whether it fired.

    The arithmetic is `Network.step`'s, in the same order, so the result
    is bit-identical to stepping a neuron that feeds no other neuron.
    """
    rest = params.resting_potential
    per_tick = params._decay_per_tick
    fired = False
    for pulse in pulses:
        if remaining:
            remaining -= 1
            if not remaining:
                u = rest
            continue
        u = rest + (u - rest) * per_tick
        if pulse is not None:
            u += pulse
        if u >= params.firing_threshold:
            fired = True
            u = params.refractory_potential
            remaining = params.refractory_duration
    return u, remaining, fired


class Network:
    """An isolated collection of neurons, synapses and in-flight pulses.

    Stepping is single-threaded per network; distinct networks share
    nothing and may be advanced in parallel. `state_key` and
    `load_state` move the dynamic state of some neurons, plus every
    pulse in flight, out of a network and into another.
    """

    def __init__(self):
        self.params: list[NeuronParams] = []
        self.states: list[NeuronState] = []
        self.synapses: list[Synapse] = []
        self.current_tick: int = 0
        # delivery tick -> list of (post neuron, signed amplitude)
        self.pending_pulses: dict[int, list[tuple[int, float]]] = {}
        # post neuron -> summed pulse the last step delivered to it
        self.incoming: dict[int, float] = {}
        self._outgoing: list[list[Synapse]] = []

    def create_neuron(self, params: NeuronParams) -> int:
        """Add a neuron at rest in the open phase; returns its id."""
        self.params.append(params)
        self.states.append(NeuronState(membrane_potential=params.resting_potential))
        self._outgoing.append([])
        return len(self.params) - 1

    def connect(self, pre: int, post: int, weight: float, delay: int,
                plastic: bool = False) -> int:
        """Append a synapse; returns its id. No membrane is touched. A
        negative `weight` is inhibitory; a plastic one may not be, since
        STDP clamps it into the non-negative [w_min, w_max]."""
        self._check_id(pre)
        self._check_id(post)
        if delay < 1:
            raise ValidationError("delay must be >= 1")
        check_ticks("delay", delay)
        if not -math.inf < weight < math.inf:
            raise ValidationError("weight must be finite")
        if plastic and weight < 0:
            raise ValidationError("a plastic weight must be non-negative")
        syn = Synapse(pre=pre, post=post, weight=weight, delay=delay, plastic=plastic)
        self.synapses.append(syn)
        self._outgoing[pre].append(syn)
        return len(self.synapses) - 1

    def copy(self) -> Network:
        """A network in this one's state that shares nothing mutable with
        it: fresh cells, synapses and pulse lists. The `NeuronParams` are
        frozen and shared, and every check `create_neuron` and `connect`
        made still holds, so none is made again."""
        new = Network.__new__(Network)
        new.params = self.params.copy()
        new.states = [NeuronState(s.membrane_potential, s.refractory_remaining)
                      for s in self.states]
        new.synapses = [Synapse(s.pre, s.post, s.weight, s.delay, s.plastic)
                        for s in self.synapses]
        new.current_tick = self.current_tick
        new.pending_pulses = {t: pulses.copy() for t, pulses in self.pending_pulses.items()}
        new.incoming = self.incoming.copy()
        new._outgoing = outgoing = [[] for _ in self.states]
        for syn in new.synapses:
            outgoing[syn.pre].append(syn)
        return new

    def inject_pulse(self, neuron: int, amplitude: float):
        """Schedule an external pulse for delivery on the next tick; a
        negative `amplitude` is inhibitory.

        Models an intracellular electrode: the pulse bypasses every
        synapse and lands directly on the target's membrane.
        """
        self._check_id(neuron)
        if not -math.inf < amplitude < math.inf:
            raise ValidationError("pulse amplitude must be finite")
        self.pending_pulses.setdefault(self.current_tick + 1, []).append((neuron, amplitude))

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
        incoming = self.incoming = {}
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
                    self.pending_pulses.setdefault(t + syn.delay, []).append(
                        (syn.post, syn.weight))
            else:
                state.membrane_potential = u
        return events

    def state_key(self, neurons) -> bytes:
        """The state of `neurons` (ids) and of every pending pulse, as one
        record: equal keys give equal futures.

        Each neuron is a `CELL`; then each pulse is its amplitude bits,
        its delivery tick relative to `current_tick` and its target.
        Pulses are listed by delivery tick and, within one tick, in
        append order, because `step` sums them in that order.
        """
        t = self.current_tick
        states = self.states
        key = b"".join([CELL.pack(states[i].membrane_potential, states[i].refractory_remaining)
                        for i in neurons])
        for tick in sorted(self.pending_pulses):
            for post, amp in self.pending_pulses[tick]:
                key += _PULSE.pack(amp, tick - t, post)
        return key

    def load_state(self, key: bytes, neurons):
        """Make `neurons` and the pending pulses the state `key` holds
        (see `state_key`), relative to this network's own `current_tick`.
        Other neurons are left as they are."""
        cells = CELL.size * len(neurons)
        for i, (u, remaining) in zip(neurons, CELL.iter_unpack(key[:cells])):
            state = self.states[i]
            state.membrane_potential = u
            state.refractory_remaining = remaining
        t = self.current_tick
        pending: dict[int, list[tuple[int, float]]] = {}
        for amp, delay, post in _PULSE.iter_unpack(key[cells:]):
            pending.setdefault(t + delay, []).append((post, amp))
        self.pending_pulses = pending

    def _check_id(self, neuron: int):
        if not 0 <= neuron < len(self.params):
            raise ValidationError(f"unknown neuron {neuron}")
