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
whatever they hold. A tabled brain holds its core state, the key of
every core neuron and every pulse in flight (`Network.state_key`), and
its actuators' cells as values, and a world tick is one lookup keyed by
(core state, stimulus code, cells). A core state under one stimulus
code is a slot: a new slot steps the brain's own network once and
records the pulse sum each actuator receives on each brain tick, so a
new move under it only runs actuator cells (`snn.run_cell`).
The actuators do not feed each other either, and only the energy
counter, the last of them, keeps drifting: it integrates pacemaker
pulses over hundreds of world ticks, so it adds moves but no core
states. Each slot therefore memoises the moves of the other three cells,
and a new move most often runs the counter alone. A table holds nothing
but caches, each emptied when full: a miss costs at most one stepped
world tick, and a brain stays in its table until `leave`.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .circuit import ActuatorFrame, AntBrain, StimulusFrame
from .snn import CELL, SpikeEvent, run_cell

# Entries each cache of a table may hold; a full cache is emptied.
# Outputs never depend on this bound.
MAX_TABLE_STATES = 4096


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

    A tabled brain holds `row`, the key of its core state, and `acts`,
    its four actuators' `CELL` records in one `bytes`; `leave` loads
    both into its network. `_slots[row, code]` holds the next row of
    that core state under a stimulus code, the pulse sum due to each
    actuator on each brain tick, and a memo from the first three
    actuators' cells to their next cells and their bits in the actuator
    frame. `_moves[row, code, acts]` holds the next row, the next
    `acts` and the actuator frame. A new slot is computed once, by the
    real `sense` and `step` of the brain that meets it, and a new move
    by `run_cell`. `_rows` keeps one object per core state, so that a
    hit compares rows by identity rather than byte by byte.
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
        self._rows: dict[bytes, bytes] = {}
        self._slots: dict[tuple[bytes, int], tuple] = {}
        self._moves: dict[tuple[bytes, int, bytes], tuple[bytes, bytes, ActuatorFrame]] = {}

    def _row(self, brain: AntBrain) -> bytes:
        """The core state of `brain`'s network, as the table's own copy."""
        key = brain.net.state_key(self.core)
        row = self._rows.get(key)
        return _cache(self._rows, key, key) if row is None else row

    def leave(self, brain: AntBrain):
        """Load `brain`'s actuator cells and core state into its network.
        `acts` lists no pulses in flight, so it goes first: `row` then
        loads them."""
        brain.net.load_state(brain.acts, self.actuators)
        brain.net.load_state(brain.row, self.core)
        brain.table = brain.row = brain.acts = None

    def advance(self, brain: AntBrain, frame: StimulusFrame) -> ActuatorFrame:
        """One world tick of `brain` under `frame`: its actuator frame.
        `agents.step_ant` makes a hit inline and calls this on a miss."""
        move = self._moves.get((brain.row, frame.code, brain.acts)) or self._learn(brain, frame)
        brain.row, brain.acts, act = move
        brain.net.current_tick += self.steps
        return act

    def _learn(self, brain: AntBrain, frame: StimulusFrame) -> tuple:
        """Compute and record the move of `brain` under `frame`, and its
        slot when that is new."""
        slot = brain.row, frame.code
        entry = self._slots.get(slot)
        if entry is None:
            net = brain.net
            net.load_state(brain.row, self.core)
            brain.sense(frame)
            due: list[list[Optional[float]]] = [[] for _ in self.actuators]
            for _ in range(self.steps):
                brain.step()
                for pulses, n in zip(due, self.actuators):
                    pulses.append(net.incoming.get(n))
            row = self._row(brain)
            # The network only computed the slot: the clock goes back, and
            # the brain's state stays in `row` and `acts` until `leave`.
            net.current_tick -= self.steps
            entry = _cache(self._slots, slot, (row, tuple(map(tuple, due)), {}))
        row, due, rest_moves = entry
        acts = brain.acts
        rest = acts[:-CELL.size]
        step = rest_moves.get(rest)
        if step is None:
            cells, fired = b"", 0
            for j, cell in enumerate(CELL.iter_unpack(rest)):
                u, remaining, spiked = run_cell(*cell, self.params[j], due[j])
                cells += CELL.pack(u, remaining)
                fired |= spiked << j
            step = _cache(rest_moves, rest, (cells, fired))
        u, remaining, spiked = run_cell(*CELL.unpack(acts[-CELL.size:]), self.params[-1], due[-1])
        return _cache(self._moves, slot + (acts,),
                      (row, step[0] + CELL.pack(u, remaining),
                       self._frames[step[1] | spiked << len(due) - 1]))


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain):
    """Move `brain` into the table for its plastic weights in `tables`
    (made there when missing), unless it is learning. Learning must stay
    off until `brain.leave_table()`."""
    if brain.learning:
        return
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        table = tables[weights] = TransitionTable(brain)
    states = brain.net.states
    brain.table, brain.row = table, table._row(brain)
    brain.acts = b"".join(CELL.pack(states[n].membrane_potential, states[n].refractory_remaining)
                          for n in table.actuators)
