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
records the pulse sum every actuator receives on each brain tick, and a
brain in a table runs the actuators of its own network through those
sums (`snn.run_cell`), so they stay current after every world tick.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .circuit import SMELLS, ActuatorFrame, AntBrain, StimulusFrame
from .snn import SpikeEvent, run_cell

# Core states one table may hold. A brain whose transition is new while
# its table is full leaves the table and is stepped, so outputs never
# depend on this bound.
MAX_TABLE_STATES = 4096

# Smell ahead, as the two high bits of a 4-bit stimulus code whose low
# bits are pain and reward.
_SMELL_CODES = (None,) + SMELLS


class TransitionTable:
    """World-tick transitions shared by the non-learning brains of one
    run that have the same plastic weights; `share_table` picks them.
    A transition spans the brain's own `brain_steps_per_world_tick`,
    the same record a stepped brain reads.

    `_rows` maps each core key (`Network.state_key` of every neuron but
    the actuators) to its row: the key and 16 slots, one per stimulus
    code. A slot holds the transition, or None while unknown: the next
    row and, per actuator, its neuron id, the pulse sum due on each
    brain tick, and the (potential, counter, fired) it ends with when it
    starts open at rest. A new transition is computed once, by the real
    `sense`, `step` and `actuate` of the brain that meets it.
    """

    def __init__(self, brain: AntBrain):
        layout = brain.layout
        self.actuators = (layout.motor_forward, layout.motor_rotate,
                          layout.pheromone_positive, layout.pheromone_negative)
        self.core = [n for n in range(len(brain.net.states)) if n not in self.actuators]
        # The actuator frame for each set of fired actuators (bit j for
        # actuator j), folded by the real `actuate`.
        self._frames = tuple(brain.actuate([SpikeEvent(n, 0) for j, n in
                                            enumerate(self.actuators) if mask >> j & 1])
                             for mask in range(16))
        self._rows: dict[tuple[bytes, tuple[int, ...]], tuple] = {}

    def __len__(self) -> int:
        """Core states held."""
        return len(self._rows)

    def _row(self, key) -> Optional[tuple]:
        """The row of core state `key`; a new row while there is room, else None."""
        row = self._rows.get(key)
        if row is None and len(self._rows) < MAX_TABLE_STATES:
            row = self._rows[key] = (key, [None] * 16)
        return row

    def leave(self, brain: AntBrain):
        """Load `brain`'s core state back into its network."""
        brain.net.load_state(brain.row[0], self.core)
        brain.table = brain.row = None

    def advance(self, brain: AntBrain, frame: StimulusFrame) -> Optional[ActuatorFrame]:
        """One world tick of `brain` under `frame`: its actuator frame, or
        None, with the brain untouched, when the transition is new and
        the table is full."""
        code = (_SMELL_CODES.index(frame.smell_ahead) << 2
                | frame.pain_contact << 1 | frame.reward_contact)
        slots = brain.row[1]
        slot = slots[code]
        if slot is None:
            if len(self._rows) >= MAX_TABLE_STATES:
                return None
            return self._compute(brain, frame, slots, code)
        brain.row, plans = slot
        net = brain.net
        states, params_of = net.states, net.params
        fired = 0
        for j, (n, pulses, at_rest) in enumerate(plans):
            state = states[n]
            params = params_of[n]
            # From rest, the first decay gives the same bits for 0.0
            # and -0.0, so `==` suffices to reuse the outcome from rest.
            if state.refractory_remaining or state.membrane_potential != params.resting_potential:
                state.membrane_potential, state.refractory_remaining, spiked = run_cell(
                    state.membrane_potential, state.refractory_remaining, params, pulses)
            else:
                state.membrane_potential, state.refractory_remaining, spiked = at_rest
            if spiked:
                fired |= 1 << j
        net.current_tick += brain.circuit_cfg.brain_steps_per_world_tick
        return self._frames[fired]

    def _compute(self, brain: AntBrain, frame: StimulusFrame, slots, code: int) -> ActuatorFrame:
        """Step `brain` itself through a new transition and record it."""
        net = brain.net
        net.load_state(brain.row[0], self.core)
        brain.sense(frame)
        due: list[list[Optional[float]]] = [[] for _ in self.actuators]
        events: list[SpikeEvent] = []
        for _ in range(brain.circuit_cfg.brain_steps_per_world_tick):
            events.extend(brain.step())
            for pulses, n in zip(due, self.actuators):
                pulses.append(net.incoming.get(n))
        # Room for one more state was checked by the caller.
        row = self._row(net.state_key(self.core))
        slots[code] = row, tuple(
            (n, tuple(pulses), run_cell(net.params[n].resting_potential, 0, net.params[n], pulses))
            for n, pulses in zip(self.actuators, due))
        brain.row = row
        return brain.actuate(events)


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain):
    """Move `brain` into the table for its plastic weights in `tables`
    (made there when missing), unless it is learning, or its core state
    is new and that table is full. Learning must stay off until
    `brain.leave_table()`."""
    if brain.learning:
        return
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        table = tables[weights] = TransitionTable(brain)
    row = table._row(brain.net.state_key(table.core))
    if row is not None:
        brain.table, brain.row = table, row
