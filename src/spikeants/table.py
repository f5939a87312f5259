"""Transition tables: non-learning brains stepped by lookup.

While learning is off, a brain is a fixed machine. What it does in one
world tick depends only on its network state and on the stimulus frame
it senses (`circuit.STIMULI`, numbered by `StimulusFrame.code`). A run
therefore keeps one table per plastic-weight set, computes each
(state, frame) transition once and looks it up after that, the way
Hashlife memoises cellular-automaton blocks (Gosper 1984, Physica D
10:75). A lookup is exact by construction. Tables belong to one run and
are never shared between runs.

The actuator neurons (both motors, both pheromone neurons) feed no
other neuron, so the rest of the network, the core, runs the same
whatever they hold. The table therefore interns two kinds of state
apart: core states, whose key is every core neuron and every pulse in
flight, and actuator states, the (potential, dead-time counter) of
every actuator. A tabled brain holds one id of each, and a world tick
is one lookup keyed by (core id, stimulus code, actuator id). The
energy counter integrates pacemaker pulses over hundreds of world
ticks, so it adds actuator states but no core states. A core state
under one stimulus code is a slot; each slot records the pulse sum
every actuator receives on each brain tick, so a new (slot, actuator
state) move runs only the actuators (`snn.run_cell`), and a new slot
steps the brain's own network once.
"""

from __future__ import annotations

import struct
from array import array
from typing import Optional

from .circuit import ActuatorFrame, AntBrain, StimulusFrame
from .snn import SpikeEvent, run_cell

# States of each kind, core and actuator, one table may hold. A brain
# whose transition needs a new state of a full kind leaves the table and
# is stepped, so outputs never depend on this bound.
MAX_TABLE_STATES = 4096


def _intern(ids: dict, keys: list, key) -> Optional[int]:
    """The id of `key`, which `keys[id]` holds; a new id while there is
    room, else None."""
    i = ids.get(key)
    if i is None and len(keys) < MAX_TABLE_STATES:
        i = ids[key] = len(keys)
        keys.append(key)
    return i


class TransitionTable:
    """World-tick transitions shared by the non-learning brains of one
    run that have the same plastic weights; `share_table` picks them.
    A transition spans the brain's own `brain_steps_per_world_tick`,
    the same record a stepped brain reads.

    A tabled brain holds `row`, the id of its core state, and `act_id`,
    the id of its actuator state; `leave` loads both into its network.
    `_slots[row, code]` holds the next row of that core state under a
    stimulus code and the pulse sum due to each actuator on each brain
    tick. `_moves[row, code, act_id]` holds the next row, the next
    actuator state and the actuator frame. A new slot is computed once,
    by the real `sense` and `step` of the brain that meets it, and a new
    move by `run_cell`.
    """

    def __init__(self, brain: AntBrain):
        layout = brain.layout
        self.actuators = (layout.motor_forward, layout.motor_rotate,
                          layout.pheromone_positive, layout.pheromone_negative)
        self.core = [n for n in range(len(brain.net.states)) if n not in self.actuators]
        self.params = [brain.net.params[n] for n in self.actuators]
        self.steps = brain.circuit_cfg.brain_steps_per_world_tick
        n = len(self.actuators)
        # An actuator state, its key and its record at once: the
        # potentials as float bits, so that -0.0 and 0.0 differ, then the
        # dead-time counters.
        self._record = struct.Struct(f"{n}d{n}q")
        # The actuator frame for each set of fired actuators (bit j for
        # actuator j), folded by the real `actuate`.
        self._frames = tuple(brain.actuate([SpikeEvent(a, 0) for j, a in
                                            enumerate(self.actuators) if mask >> j & 1])
                             for mask in range(1 << n))
        # Core and actuator states: id by key, and key by id.
        self._row_ids: dict[tuple[bytes, tuple[int, ...]], int] = {}
        self._rows: list[tuple[bytes, tuple[int, ...]]] = []
        self._act_ids: dict[bytes, int] = {}
        self._acts: list[bytes] = []
        self._slots: dict[tuple[int, int], tuple] = {}
        self._moves: dict[tuple[int, int, int], tuple[int, int, ActuatorFrame]] = {}

    def _actuator_state(self, act_id: int):
        """The potentials and the counters of actuator state `act_id`."""
        state = self._record.unpack(self._acts[act_id])
        n = len(self.actuators)
        return state[:n], state[n:]

    def leave(self, brain: AntBrain):
        """Load `brain`'s core and actuator states back into its network."""
        net = brain.net
        net.load_state(self._rows[brain.row], self.core)
        for n, u, remaining in zip(self.actuators, *self._actuator_state(brain.act_id)):
            net.states[n].membrane_potential = u
            net.states[n].refractory_remaining = remaining
        brain.table = brain.row = brain.act_id = None

    def advance(self, brain: AntBrain, frame: StimulusFrame) -> Optional[ActuatorFrame]:
        """One world tick of `brain` under `frame`: its actuator frame, or
        None, with the brain's ids and clock unchanged, when the
        transition needs a new state and the table is full."""
        move = self._moves.get((brain.row, frame.code, brain.act_id))
        if move is None:
            move = self._learn(brain, frame)
            if move is None:
                return None
        brain.row, brain.act_id, act = move
        brain.net.current_tick += self.steps
        return act

    def _learn(self, brain: AntBrain, frame: StimulusFrame) -> Optional[tuple]:
        """Compute and record the move of `brain` under `frame`, and its
        slot when that is new."""
        slot = brain.row, frame.code
        if slot not in self._slots:
            net = brain.net
            net.load_state(self._rows[brain.row], self.core)
            brain.sense(frame)
            due: list[list[Optional[float]]] = [[] for _ in self.actuators]
            for _ in range(self.steps):
                brain.step()
                for pulses, n in zip(due, self.actuators):
                    pulses.append(net.incoming.get(n))
            row = _intern(self._row_ids, self._rows, net.state_key(self.core))
            # The network only computed the slot: the clock goes back, and
            # the brain's state stays its two ids until `leave` loads them.
            net.current_tick -= self.steps
            if row is None:
                return None
            self._slots[slot] = row, tuple(map(tuple, due))
        row, due = self._slots[slot]
        potentials, counters, fired = [], [], 0
        for j, (u, remaining, params, pulses) in enumerate(
                zip(*self._actuator_state(brain.act_id), self.params, due)):
            u, remaining, spiked = run_cell(u, remaining, params, pulses)
            potentials.append(u)
            counters.append(remaining)
            fired |= spiked << j
        act_id = _intern(self._act_ids, self._acts, self._record.pack(*potentials, *counters))
        if act_id is None:
            return None
        move = self._moves[slot + (brain.act_id,)] = row, act_id, self._frames[fired]
        return move


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain):
    """Move `brain` into the table for its plastic weights in `tables`
    (made there when missing), unless it is learning, or its state is
    new and that table is full. Learning must stay off until
    `brain.leave_table()`."""
    if brain.learning:
        return
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        table = tables[weights] = TransitionTable(brain)
    states = [brain.net.states[n] for n in table.actuators]
    row = _intern(table._row_ids, table._rows, brain.net.state_key(table.core))
    act_id = _intern(table._act_ids, table._acts, table._record.pack(
        *[state.membrane_potential for state in states],
        *[state.refractory_remaining for state in states]))
    if row is not None and act_id is not None:
        brain.table, brain.row, brain.act_id = table, row, act_id
