"""Transition tables: non-learning brains stepped by lookup.

While learning is off, a brain is a fixed machine, so a run keeps one
table per plastic-weight set and computes each world-tick transition
once, as Hashlife does, in canonical nodes whose successors are direct
references (Gosper 1984, Physica D 10:75). A brain's state is its core
state (`Network.state_key` of every neuron but the four actuators, which
feed no neuron, and of every pulse in flight) and its actuators' cells,
one interned node per pair. A tabled brain stands on a node, and a world
tick follows the node's edge for the stimulus code; its own network is
left alone until it leaves. A core state under one code is a slot: a new
slot steps the table's own copy of a brain once and records the pulses
due to each actuator, so a new edge only runs actuator cells
(`snn.run_cell`), mostly the drifting energy counter's alone. A table
holds only caches, each emptied when full.

A table's transitions depend on nothing but its key: `repr` of the
circuit config and the plastic weights' bytes. The `repr` covers every
field a brain is wired and stepped with (`sense_amplitude` and
`brain_steps_per_world_tick` included, and the derived `NeuronParams`)
and, unlike the config's `==`, tells -0.0 from 0.0. So tables outlive
their run in one flat store by that key. A run takes out each kept
table a brain asks for (`share_table`) and, when it ends, puts all its
tables in as the store, cutting those they replace (`keep_tables`).
Only a later run in one process gains, and only on the weights a run
before it used: the second arm of `compare` and repeated runs of one
config, such as a benchmark's.
"""

from __future__ import annotations

import threading
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


class _Node:
    """A core state `row` and actuator cells `acts`: `edges[code]` is the
    next node and actuator frame under stimulus `code`, or None."""

    __slots__ = ("row", "acts", "edges")

    def __init__(self, row: bytes, acts: bytes):
        self.row, self.acts, self.edges = row, acts, [None] * len(STIMULI)


class TransitionTable:
    """The world-tick transitions of non-learning brains with the same
    circuit config and plastic weights, kept from run to run.
    `_slots[row, code]` holds a core state's next row, the pulse sum due
    to each actuator on each brain tick, and a memo from the first three
    actuators' cells to their next cells and frame bits.
    `_nodes[row, acts]` is a brain state's node. `_scratch`, a copy of
    the first brain shared, steps each new slot."""

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
        self._scratch = brain.copy()
        self._slots: dict[tuple[bytes, int], tuple] = {}
        self._nodes: dict[tuple[bytes, bytes], _Node] = {}

    def _node(self, row: bytes, acts: bytes) -> _Node:
        """The node of core state `row` and cells `acts`."""
        node = self._nodes.get((row, acts))
        if node is None:
            if len(self._nodes) >= MAX_TABLE_STATES:
                self.cut()
            node = self._nodes[row, acts] = _Node(row, acts)
        return node

    def cut(self):
        """Empty the node index, cutting the edges, whose cycles reference
        counting alone never frees; a brain on a cut node relearns them."""
        for node in self._nodes.values():
            node.edges = [None] * len(STIMULI)
        self._nodes.clear()

    def _learn(self, node: _Node, code: int) -> tuple[_Node, ActuatorFrame]:
        """Compute the move from `node` under stimulus `code`, and its slot
        when new, as the node's edge. A new slot loads `node.row` into the
        table's own brain and steps it, on that brain's own clock."""
        slot = node.row, code
        entry = self._slots.get(slot)
        if entry is None:
            brain = self._scratch
            net = brain.net
            net.load_state(node.row, self.core)
            brain.sense(STIMULI[code])
            due: list[list[Optional[float]]] = [[] for _ in self.actuators]
            for _ in range(self.steps):
                brain.step()
                for pulses, n in zip(due, self.actuators):
                    pulses.append(net.incoming.get(n))
            entry = _cache(self._slots, slot,
                           (net.state_key(self.core), tuple(map(tuple, due)), {}))
        row, due, rest_moves = entry
        acts = node.acts
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
        node.edges[code] = edge = (self._node(row, step[0] + CELL.pack(u, remaining)),
                                   self._frames[step[1] | spiked << len(due) - 1])
        return edge


class Tabled:
    """A brain in a transition table, on the node whose `acts + row` is
    the `state_key` over the table's `order` its network would have. The
    network, clock included, is left as it was on joining until `leave`."""

    __slots__ = ("table", "brain", "node")

    def __init__(self, table: TransitionTable, brain: AntBrain):
        self.table, self.brain = table, brain
        key, cells = brain.net.state_key(table.order), CELL.size * len(table.actuators)
        self.node = table._node(key[cells:], key[:cells])

    def advance(self, code: int) -> ActuatorFrame:
        """One world tick under stimulus `code`: the brain's actuator frame."""
        self.node, act = self.node.edges[code] or self.table._learn(self.node, code)
        return act

    def leave(self, ticks: int):
        """Bring the brain's network, clock included, up to date after
        `ticks` world ticks in the table."""
        table, net, node = self.table, self.brain.net, self.node
        net.current_tick += ticks * table.steps
        net.load_state(node.acts + node.row, table.order)


# The tables kept from run to run, by `repr` of the circuit config and
# plastic weights' bytes. `_store_lock` makes each take and each swap
# one step, so no two runs ever hold one table.
_kept: dict[tuple[str, bytes], TransitionTable] = {}
_store_lock = threading.Lock()


def share_table(tables: dict[bytes, TransitionTable], brain: AntBrain) -> Optional[Tabled]:
    """`brain` held in the table of `tables` for its plastic weights, or
    None while it learns. A missing table is taken from the kept ones, or
    made. It must not learn until `leave`. Every brain shared into one
    `tables` must have the same circuit config."""
    if brain.learning:
        return None
    weights = array("d", brain.weights().values()).tobytes()
    table = tables.get(weights)
    if table is None:
        with _store_lock:
            table = _kept.pop((repr(brain.circuit_cfg), weights), None)
        if table is None:
            table = TransitionTable(brain)
        tables[weights] = table
    return Tabled(table, brain)


def keep_tables(tables: dict[bytes, TransitionTable]):
    """Keep `tables`, a run's by plastic weights, for the next run in
    place of the kept ones, which are cut. A run that tabled nothing
    leaves the kept ones as they are."""
    global _kept
    if not tables:
        return
    kept = {(repr(table._scratch.circuit_cfg), weights): table
            for weights, table in tables.items()}
    with _store_lock:
        _kept, replaced = kept, _kept
    for table in replaced.values():
        table.cut()
