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
steps the brain's own network once. The actuators do not feed each
other either, and only the energy counter, the last of them, keeps
drifting, so an actuator state is the other three cells' keys plus the
counter cell's key. Under a slot the moves of each part are run once
and looked up after that: a new move, most often a new counter
potential, runs the counter alone.
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
# One actuator cell's state and its key at once: the potential as float
# bits, so that -0.0 and 0.0 differ, then the dead-time counter.
_CELL = struct.Struct("dq")


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
    stimulus code, the pulse sum due to each actuator on each brain
    tick, and the moves under the slot of the first three actuators'
    cell keys and of the counter's cell key: the next key, and the
    part's bits in the actuator frame. `_moves[row, code, act_id]` holds
    the next row, the next actuator state and the actuator frame. A new
    slot is computed once, by the real `sense` and `step` of the brain
    that meets it, and a new part move by `run_cell`.
    """

    def __init__(self, brain: AntBrain):
        layout = brain.layout
        self.actuators = (layout.motor_forward, layout.motor_rotate,
                          layout.pheromone_positive, layout.pheromone_negative)
        self.core = [n for n in range(len(brain.net.states)) if n not in self.actuators]
        self.params = [brain.net.params[n] for n in self.actuators]
        self.steps = brain.circuit_cfg.brain_steps_per_world_tick
        # The actuator frame for each set of fired actuators (bit j for
        # actuator j), folded by the real `actuate`.
        self._frames = tuple(brain.actuate([SpikeEvent(a, 0) for j, a in
                                            enumerate(self.actuators) if mask >> j & 1])
                             for mask in range(1 << len(self.actuators)))
        # Core and actuator states: id by key, and key by id. An actuator
        # state's key is (the first three cell keys, the counter's).
        self._row_ids: dict[tuple[bytes, tuple[int, ...]], int] = {}
        self._rows: list[tuple[bytes, tuple[int, ...]]] = []
        self._act_ids: dict[tuple[tuple[bytes, ...], bytes], int] = {}
        self._acts: list[tuple[tuple[bytes, ...], bytes]] = []
        self._slots: dict[tuple[int, int], tuple] = {}
        self._moves: dict[tuple[int, int, int], tuple[int, int, ActuatorFrame]] = {}

    def leave(self, brain: AntBrain):
        """Load `brain`'s core and actuator states back into its network."""
        net = brain.net
        net.load_state(self._rows[brain.row], self.core)
        rest, counter = self._acts[brain.act_id]
        for n, cell in zip(self.actuators, rest + (counter,)):
            state = net.states[n]
            state.membrane_potential, state.refractory_remaining = _CELL.unpack(cell)
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
        entry = self._slots.get(slot)
        if entry is None:
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
            entry = self._slots[slot] = row, tuple(map(tuple, due)), {}, {}
        row, due, rest_moves, counter_moves = entry
        rest, counter = self._acts[brain.act_id]
        step = rest_moves.get(rest)
        if step is None:
            cells, fired = [], 0
            for j, cell in enumerate(rest):
                u, remaining, spiked = run_cell(*_CELL.unpack(cell), self.params[j], due[j])
                cells.append(_CELL.pack(u, remaining))
                fired |= spiked << j
            step = rest_moves[rest] = tuple(cells), fired
        count = counter_moves.get(counter)
        if count is None:
            u, remaining, spiked = run_cell(*_CELL.unpack(counter), self.params[-1], due[-1])
            count = counter_moves[counter] = _CELL.pack(u, remaining), spiked << len(rest)
        act_id = _intern(self._act_ids, self._acts, (step[0], count[0]))
        if act_id is None:
            return None
        move = self._moves[slot + (brain.act_id,)] = (row, act_id,
                                                      self._frames[step[1] | count[1]])
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
    row = _intern(table._row_ids, table._rows, brain.net.state_key(table.core))
    states = brain.net.states
    *rest, counter = [_CELL.pack(states[n].membrane_potential, states[n].refractory_remaining)
                      for n in table.actuators]
    act_id = _intern(table._act_ids, table._acts, (tuple(rest), counter))
    if row is not None and act_id is not None:
        brain.table, brain.row, brain.act_id = table, row, act_id
