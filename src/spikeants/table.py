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
world tick, and a brain stays in its table until its `Tabled` leaves.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .circuit import STIMULI, ActuatorFrame, AntBrain
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

    `_slots[row, code]` holds the next row of a core state under a
    stimulus code, the pulse sum due to each actuator on each brain
    tick, and a memo from the first three actuators' cells to their
    next cells and their bits in the actuator frame. `_moves[row, code,
    acts]` holds the next row, the next `acts` and the actuator frame
    (see `Tabled`). A new slot is computed once, by the real `sense` and
    `step` of the brain that meets it, and a new move by `run_cell`.
    `_rows` keeps one object per core state, so that a hit compares rows
    by identity rather than byte by byte.
    """

    def __init__(self, brain: AntBrain):
        layout = brain.layout
        self.actuators = (layout.motor_forward, layout.motor_rotate,
                          layout.pheromone_positive, layout.pheromone_negative)
        self.core = [n for n in range(len(brain.net.states)) if n not in self.actuators]
        self.order = [*self.actuators, *self.core]
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

    def _row(self, key: bytes) -> bytes:
        """The table's own copy of `key`, a core state."""
        row = self._rows.get(key)
        return _cache(self._rows, key, key) if row is None else row

    def _learn(self, tabled: Tabled, code: int) -> tuple:
        """Compute and record the move of `tabled` under stimulus `code`,
        and its slot when that is new."""
        slot = tabled.row, code
        entry = self._slots.get(slot)
        if entry is None:
            brain = tabled.brain
            net = brain.net
            net.load_state(tabled.row, self.core)
            brain.sense(STIMULI[code])
            due: list[list[Optional[float]]] = [[] for _ in self.actuators]
            for _ in range(self.steps):
                brain.step()
                for pulses, n in zip(due, self.actuators):
                    pulses.append(net.incoming.get(n))
            row = self._row(net.state_key(self.core))
            # The network only computed the slot: the clock goes back, and
            # the brain's state stays in `tabled` until `leave`.
            net.current_tick -= self.steps
            entry = _cache(self._slots, slot, (row, tuple(map(tuple, due)), {}))
        row, due, rest_moves = entry
        acts = tabled.acts
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


class Tabled:
    """A brain in a transition table: `acts + row` is its network's
    `state_key` over the table's `order`, its four actuators' `CELL`s
    then its core state. `ticks` counts its world ticks. Until `leave`,
    its network is scratch space for `_learn`."""

    __slots__ = ("table", "brain", "row", "acts", "ticks")

    def __init__(self, table: TransitionTable, brain: AntBrain):
        self.table, self.brain, self.ticks = table, brain, 0
        key, cells = brain.net.state_key(table.order), CELL.size * len(table.actuators)
        self.acts, self.row = key[:cells], table._row(key[cells:])

    def advance(self, code: int) -> ActuatorFrame:
        """One world tick under stimulus `code`: the brain's actuator frame."""
        self.ticks += 1
        self.row, self.acts, act = (self.table._moves.get((self.row, code, self.acts))
                                    or self.table._learn(self, code))
        return act

    def leave(self):
        """Bring the brain's network up to date: advance its clock, then
        load `acts + row` over the table's `order` in one call."""
        table, net = self.table, self.brain.net
        net.current_tick += self.ticks * table.steps
        net.load_state(self.acts + self.row, table.order)


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain) -> Optional[Tabled]:
    """`brain` held in the table of `tables` for its plastic weights (made
    when missing), or None while it learns. It must not learn until `leave`."""
    if brain.learning:
        return None
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        table = tables[weights] = TransitionTable(brain)
    return Tabled(table, brain)
