"""Transition tables: non-learning brains stepped by lookup.

While learning is off, a brain is a fixed machine. What it does in one
world tick depends only on its network state and on which of 16
stimulus frames it senses (smell ahead: none, white, red or green;
pain; reward). A run therefore keeps one table per plastic-weight set,
computes each (state, frame) transition once and looks it up after
that, the way Hashlife memoises cellular-automaton blocks (Gosper 1984,
Physica D 10:75). A lookup is exact by construction. Tables belong to
one run and are never shared between runs.

The four actuator neurons (both motors, both pheromone neurons) feed no
other neuron, so the rest of the network, the core, runs the same
whatever they hold, and the table keys on the core alone. The energy
counter is an actuator that integrates pacemaker pulses over hundreds
of world ticks and seldom returns to an earlier potential; in the key
it would make a new state of most world ticks. Instead each transition
records the pulse sum every actuator receives on each brain tick, and
a brain in a table carries its actuator cells beside its core state id
and runs them through those sums (`snn.run_cell`).
"""

from __future__ import annotations

from array import array
from typing import Optional

from .circuit import SMELLS, ActuatorFrame, AntBrain, StimulusFrame
from .snn import SpikeEvent, run_cell

# Core states one table may hold. A brain whose next state is new while
# its table is full leaves the table and is stepped, so outputs never
# depend on this bound.
MAX_TABLE_STATES = 4096

# Smell ahead, as the two high bits of a 4-bit stimulus code whose low
# bits are pain and reward.
_SMELL_CODES = (None,) + SMELLS


class TransitionTable:
    """World-tick transitions shared by the non-learning brains of one
    run that have the same plastic weights.

    Core keys (`Network.state_key` of every neuron but the actuators)
    are interned as int ids. `_slots[id][stimulus code]` holds the
    transition, or None while unknown: the next core state id and, per
    actuator, its params, the pulse sum due on each brain tick, and the
    (potential, counter, fired) it ends with when it starts open at rest.
    A new transition is computed once, by a scratch brain that loads the
    core state and the actuator cells of the brain that met it and runs
    the real `sense`, `step` and `actuate`.
    """

    def __init__(self, brain: AntBrain, steps: int):
        self.steps = steps
        scratch = self._scratch = AntBrain(brain.circuit_cfg, brain.stdp_cfg, kickstart=False)
        scratch.set_weights(brain.weights())
        layout = scratch.layout
        net = scratch.net
        self.actuators = (layout.motor_forward, layout.motor_rotate,
                          layout.pheromone_positive, layout.pheromone_negative)
        self.core = [n for n in range(len(net.states)) if n not in self.actuators]
        self._index = {n: j for j, n in enumerate(self.actuators)}
        self._params = [net.params[n] for n in self.actuators]
        # The actuator frame for each set of fired actuators (bit j for
        # actuator j), folded by the real `actuate`.
        self._frames = tuple(scratch.actuate([SpikeEvent(n, 0) for j, n in
                                              enumerate(self.actuators) if mask >> j & 1])
                             for mask in range(16))
        self._ids: dict[tuple[bytes, tuple[int, ...]], int] = {}
        self._keys: list[tuple[bytes, tuple[int, ...]]] = []
        self._slots: list[list[Optional[tuple]]] = []

    def __len__(self) -> int:
        """Core states held."""
        return len(self._keys)

    def _intern(self, key) -> Optional[int]:
        """Id of the core state `key`; a new id while there is room, else None."""
        found = self._ids.get(key)
        if found is None and len(self._keys) < MAX_TABLE_STATES:
            found = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._slots.append([None] * 16)
        return found

    def enter(self, brain: AntBrain):
        """Move `brain`'s state into this table, unless its core state is
        new and the table is full. Learning must stay off until
        `leave`."""
        net = brain.net
        found = self._intern(net.state_key(self.core))
        if found is not None:
            brain.table, brain.core_id = self, found
            brain.cells = [(net.states[n].membrane_potential,
                            net.states[n].refractory_remaining, False)
                           for n in self.actuators]

    def leave(self, brain: AntBrain):
        """Load the state `brain` holds in this table back into its network."""
        self._load(brain.net, brain.core_id, brain.cells)
        brain.table = None

    def _load(self, net, core_id: int, cells):
        net.load_state(self._keys[core_id], self.core)
        for n, (u, remaining, _) in zip(self.actuators, cells):
            net.states[n].membrane_potential = u
            net.states[n].refractory_remaining = remaining

    def advance(self, brain: AntBrain, frame: StimulusFrame) -> Optional[ActuatorFrame]:
        """One world tick of `brain` under `frame`: its actuator frame, or
        None, with the brain untouched, when the transition is new and
        the table is full."""
        code = (_SMELL_CODES.index(frame.smell_ahead) << 2
                | frame.pain_contact << 1 | frame.reward_contact)
        slot = self._slots[brain.core_id][code]
        if slot is None:
            if len(self._keys) >= MAX_TABLE_STATES:
                return None
            act = self._compute(brain, frame, code)
        else:
            brain.core_id, plans = slot
            cells = brain.cells
            fired = 0
            for j, (params, pulses, at_rest) in enumerate(plans):
                u, remaining, _ = cells[j]
                # From rest, the first decay gives the same bits for 0.0
                # and -0.0, so `==` suffices to reuse the outcome from rest.
                if remaining or u != params.resting_potential:
                    cell = cells[j] = run_cell(u, remaining, params, pulses)
                else:
                    cell = cells[j] = at_rest
                if cell[2]:
                    fired |= 1 << j
            act = self._frames[fired]
        brain.net.current_tick += self.steps
        return act

    def _compute(self, brain: AntBrain, frame: StimulusFrame, code: int) -> ActuatorFrame:
        """Step the scratch brain through a new transition, record it and
        move `brain` along it."""
        scratch = self._scratch
        net = scratch.net
        self._load(net, brain.core_id, brain.cells)
        scratch.sense(frame)
        due: list[list[Optional[float]]] = [[] for _ in self.actuators]
        events: list[SpikeEvent] = []
        for _ in range(self.steps):
            # Summed as `Network.step` sums them: from 0.0, in append order.
            sums: list[Optional[float]] = [None] * len(self.actuators)
            for post, amp in net.pending_pulses.get(net.current_tick + 1, ()):
                j = self._index.get(post)
                if j is not None:
                    sums[j] = (0.0 if sums[j] is None else sums[j]) + amp
            for pulses, pulse in zip(due, sums):
                pulses.append(pulse)
            events.extend(scratch.step())
        # Room for one more state was checked by the caller.
        next_id = self._intern(net.state_key(self.core))
        self._slots[brain.core_id][code] = next_id, tuple(
            (params, tuple(pulses),
             run_cell(params.resting_potential, 0, params, pulses))
            for params, pulses in zip(self._params, due))
        fired = {ev.neuron for ev in events}
        brain.core_id = next_id
        brain.cells = [(net.states[n].membrane_potential,
                        net.states[n].refractory_remaining, n in fired)
                       for n in self.actuators]
        return scratch.actuate(events)


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain, steps: int):
    """Move `brain` into the table for its plastic weights in `tables`
    (made there when missing), which advances `steps` brain ticks per
    world tick. Learning must stay off until `brain.leave_table()`."""
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        table = tables[weights] = TransitionTable(brain, steps)
    table.enter(brain)
