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
whatever they hold. The table interns core states only, keyed by every
core neuron and every pulse in flight. A tabled brain holds the id of
its core state and its actuators' cells as values, and a world tick is
one lookup keyed by (core id, stimulus code, cells). A core state under
one stimulus code is a slot: a new slot steps the brain's own network
once and records the pulse sum each actuator receives on each brain
tick, so a new move under it only runs actuator cells (`snn.run_cell`).
The actuators do not feed each other either, and only the energy
counter, the last of them, keeps drifting: it integrates pacemaker
pulses over hundreds of world ticks, so it adds moves but no core
states. Each slot therefore memoises the moves of the other three cells,
and a new move most often runs the counter alone. The moves and these
memos are caches, emptied when full, because a miss never steps a
network: only a new core state on a full table sends a brain back to
stepping.
"""

from __future__ import annotations

import struct
from array import array
from typing import Optional

from .circuit import ActuatorFrame, AntBrain, StimulusFrame
from .snn import SpikeEvent, run_cell

# Core states one table may intern, and entries each of its caches may
# hold. A brain that meets a new core state on a full table leaves it and
# is stepped; a full cache is emptied. Outputs never depend on this bound.
MAX_TABLE_STATES = 4096
# One actuator cell's state and its key at once: the potential as float
# bits, so that -0.0 and 0.0 differ, then the dead-time counter.
_CELL = struct.Struct("dq")


def _cache(memo: dict, key, value):
    """Record `value` under `key` in `memo`, emptied first when full."""
    if len(memo) >= MAX_TABLE_STATES:
        memo.clear()
    memo[key] = value
    return value


class TransitionTable:
    """World-tick transitions shared by the non-learning brains of one
    run that have the same plastic weights; `share_table` picks them.
    A transition spans the brain's own `brain_steps_per_world_tick`,
    the same record a stepped brain reads.

    A tabled brain holds `row`, the id of its core state, and `acts`,
    its four actuators' `_CELL` records in one `bytes`; `leave` loads
    both into its network. `_slots[row, code]` holds the next row of
    that core state under a stimulus code, the pulse sum due to each
    actuator on each brain tick, and a memo from the first three
    actuators' cells to their next cells and their bits in the actuator
    frame. `_moves[row, code, acts]` holds the next row, the next
    `acts` and the actuator frame. A new slot is computed once, by the
    real `sense` and `step` of the brain that meets it, and a new move
    by `run_cell`.
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
        # Core states: id by key, and key by id.
        self._row_ids: dict[tuple[bytes, tuple[int, ...]], int] = {}
        self._rows: list[tuple[bytes, tuple[int, ...]]] = []
        self._slots: dict[tuple[int, int], tuple] = {}
        self._moves: dict[tuple[int, int, bytes], tuple[int, bytes, ActuatorFrame]] = {}

    def _row(self, key: tuple[bytes, tuple[int, ...]]) -> Optional[int]:
        """The id of core state `key`; a new id while there is room, else
        None."""
        i = self._row_ids.get(key)
        if i is None and len(self._rows) < MAX_TABLE_STATES:
            i = self._row_ids[key] = len(self._rows)
            self._rows.append(key)
        return i

    def leave(self, brain: AntBrain):
        """Load `brain`'s core state and actuator cells into its network."""
        net = brain.net
        net.load_state(self._rows[brain.row], self.core)
        for n, cell in zip(self.actuators, _CELL.iter_unpack(brain.acts)):
            state = net.states[n]
            state.membrane_potential, state.refractory_remaining = cell
        brain.table = brain.row = brain.acts = None

    def advance(self, brain: AntBrain, frame: StimulusFrame) -> Optional[ActuatorFrame]:
        """One world tick of `brain` under `frame`: its actuator frame, or
        None, with the brain's state and clock unchanged, when the
        transition needs a new core state and the table is full.
        `agents.step_ant` makes a hit inline and calls this on a miss."""
        move = self._moves.get((brain.row, frame.code, brain.acts))
        if move is None:
            move = self._learn(brain, frame)
            if move is None:
                return None
        brain.row, brain.acts, act = move
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
            row = self._row(net.state_key(self.core))
            # The network only computed the slot: the clock goes back, and
            # the brain's state stays in `row` and `acts` until `leave`.
            net.current_tick -= self.steps
            if row is None:
                return None
            entry = self._slots[slot] = row, tuple(map(tuple, due)), {}
        row, due, rest_moves = entry
        acts = brain.acts
        rest = acts[:-_CELL.size]
        step = rest_moves.get(rest)
        if step is None:
            cells, fired = b"", 0
            for j, cell in enumerate(_CELL.iter_unpack(rest)):
                u, remaining, spiked = run_cell(*cell, self.params[j], due[j])
                cells += _CELL.pack(u, remaining)
                fired |= spiked << j
            step = _cache(rest_moves, rest, (cells, fired))
        u, remaining, spiked = run_cell(*_CELL.unpack(acts[-_CELL.size:]), self.params[-1], due[-1])
        return _cache(self._moves, slot + (acts,),
                      (row, step[0] + _CELL.pack(u, remaining),
                       self._frames[step[1] | spiked << len(due) - 1]))


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
        states = brain.net.states
        brain.table, brain.row = table, row
        brain.acts = b"".join(_CELL.pack(states[n].membrane_potential,
                                         states[n].refractory_remaining)
                              for n in table.actuators)
