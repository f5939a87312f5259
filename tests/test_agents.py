from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import grid_of, kinds_of
from spikeants.agents import (
    CLOCKWISE,
    Ant,
    AntConfig,
    Heading,
    SimPhase,
    perceive,
    step_ant,
)
from spikeants.circuit import (
    STIMULI,
    ActuatorFrame,
    AntBrain,
    StimulusFrame,
    trained_reference_weights,
)
from spikeants.table import Tabled, share_table
from spikeants.world import Color, Grid, PatchKind, PheromoneField

CFG = AntConfig()


def walled_kinds(w=12, h=12, cells=()):
    """(h, w) kinds ringed by walls, with each (x, y, kind) of `cells`
    set inside and empty ground elsewhere."""
    kinds = np.full((h, w), PatchKind.WALL)
    kinds[1:-1, 1:-1] = PatchKind.EMPTY
    for x, y, kind in cells:
        kinds[y, x] = kind
    return kinds


def walled_grid(w=12, h=12, cells=(), food=1):
    return grid_of(walled_kinds(w, h, cells), food)


class ScriptedBrain:
    """Stand-in brain replaying a fixed actuator sequence; `sensed` keeps
    the stimulus frames it was given."""

    def __init__(self, frames=()):
        self.frames = list(frames)
        self.i = 0
        self.learning = False
        self.sensed = []

    def world_tick(self, frame):
        self.sensed.append(frame)
        if self.i < len(self.frames):
            frame = self.frames[self.i]
        else:
            frame = ActuatorFrame()
        self.i += 1
        return frame


def scripted_ant(position, heading, frames, **kw):
    return Ant(position=position, heading=heading, brain=ScriptedBrain(frames), **kw)


class TestPerceive:
    def test_facing_wall_smells_white(self):
        g = walled_grid()
        ant = scripted_ant((10, 5), Heading.EAST, [])
        frame = perceive(g, ant)
        assert frame.smell_ahead is Color.WHITE
        assert not frame.pain_contact and not frame.reward_contact

    def test_standing_on_food_rewards_and_smells_front(self):
        g = walled_grid(cells=[(5, 5, PatchKind.FOOD), (6, 5, PatchKind.HARM)], food=3)
        ant = scripted_ant((5, 5), Heading.EAST, [])
        frame = perceive(g, ant)
        assert frame.reward_contact
        assert frame.smell_ahead is Color.RED

    def test_surrounded_by_black_is_empty_frame(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST, [])
        frame = perceive(g, ant)
        assert frame.smell_ahead is None
        assert not frame.pain_contact and not frame.reward_contact

    def test_standing_on_negative_mark_hurts(self):
        g = walled_grid()
        g.deposit(5, 5, PheromoneField.NEGATIVE, 1.0)
        ant = scripted_ant((5, 5), Heading.NORTH, [])
        assert perceive(g, ant).pain_contact

    def test_positive_mark_ahead_smells_green(self):
        g = walled_grid()
        g.deposit(6, 5, PheromoneField.POSITIVE, 1.0)
        ant = scripted_ant((5, 5), Heading.EAST, [])
        assert perceive(g, ant).smell_ahead is Color.GREEN


    @settings(max_examples=50)
    @given(st.data())
    def test_the_prebuilt_frame_follows_the_color_rule(self, data):
        """On random grids, every pose gets the prebuilt frame equal to
        the one the color rule gives cell by cell."""
        eps = 0.05
        w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        g = grid_of(data.draw(kinds_of(w, h)), clear_threshold=eps)
        levels = st.sampled_from([0.0, eps, 1.0])
        for y in range(h):
            for x in range(w):
                # Exact on a fresh cell; a wall takes no deposit.
                g.deposit(x, y, PheromoneField.NEGATIVE, data.draw(levels))
                g.deposit(x, y, PheromoneField.POSITIVE, data.draw(levels))
        for y in range(h):
            for x in range(w):
                for heading in Heading:
                    ant = scripted_ant((x, y), heading, [],
                                       pain_pending=data.draw(st.booleans()))
                    dx, dy = heading.vector
                    smell = None
                    if 0 <= x + dx < w and 0 <= y + dy < h:
                        smell = g.effective_color_at(x + dx, y + dy)
                    want = StimulusFrame(
                        smell_ahead=None if smell is Color.BLACK else smell,
                        pain_contact=(g.effective_color_at(x, y) in (Color.WHITE, Color.RED)
                                      or ant.pain_pending),
                        reward_contact=g.kind[y, x] == PatchKind.FOOD)
                    frame = perceive(g, ant)
                    assert frame == want
                    assert frame is STIMULI[want.code]


class TestMovementRules:
    def test_move_advances_one_cell(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.NORTH, [ActuatorFrame(move_forward=True)])
        step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert ant.position == (5, 4) and ant.heading is Heading.NORTH

    def test_rotation_steps_heading_right(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.NORTH, [ActuatorFrame(rotate=True)] * 4)
        seen = []
        for _ in range(4):
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            seen.append(ant.heading)
        assert seen == [Heading.EAST, Heading.SOUTH, Heading.WEST, Heading.NORTH]
        assert ant.position == (5, 5)

    @pytest.mark.parametrize("heading", list(Heading))
    def test_turns_come_back_to_the_start(self, heading):
        """Under either rotate_direction, each rotate frame turns the ant
        in place one step along CLOCKWISE, forward for "right" and back
        for "left", so four face it the way it started."""
        start = CLOCKWISE.index(heading)
        for direction, step in (("right", 1), ("left", -1)):
            g, cfg = walled_grid(), AntConfig(rotate_direction=direction)
            ant = scripted_ant((5, 5), heading, [ActuatorFrame(rotate=True)] * 4)
            for turn in range(1, 5):
                step_ant(g, [ant], cfg, SimPhase.FORAGING)
                assert ant.heading is CLOCKWISE[(start + step * turn) % 4]
                assert ant.position == (5, 5)
            assert ant.heading is heading

    def test_left_rotation_configurable(self):
        g = walled_grid()
        cfg = AntConfig(rotate_direction="left")
        ant = scripted_ant((5, 5), Heading.NORTH, [ActuatorFrame(rotate=True)])
        step_ant(g, [ant], cfg, SimPhase.FORAGING)
        assert ant.heading is Heading.WEST

    def test_wall_blocks_and_registers_collision(self):
        g = walled_grid()
        ant = scripted_ant((10, 5), Heading.EAST, [ActuatorFrame(move_forward=True)])
        assert step_ant(g, [ant], CFG, SimPhase.FORAGING) == (0, False, False)
        assert ant.position == (10, 5)
        assert ant.pain_pending
        _, pain, _ = step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert pain  # the collision reaches the senses one tick later

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=80),
           st.sampled_from(list(Heading)))
    @settings(max_examples=50, deadline=None)
    def test_never_on_a_wall_cell(self, moves, heading):
        g = walled_grid(9, 9, [(4, 4, PatchKind.WALL), (2, 6, PatchKind.WALL)])
        frames = [ActuatorFrame(move_forward=m, rotate=r) for m, r in moves]
        ant = scripted_ant((6, 6), heading, frames)
        for _ in moves:
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            x, y = ant.position
            assert g.kind[y, x] != PatchKind.WALL

    def test_never_on_wall_with_real_brains(self):
        g = walled_grid(9, 9)
        ant = Ant(position=(4, 4), heading=Heading.WEST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        for _ in range(300):
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            x, y = ant.position
            assert g.kind[y, x] != PatchKind.WALL


class TestDepositPolicy:
    def test_counter_spike_routes_one_negative_deposit(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST,
                           [ActuatorFrame(emit_negative_pheromone=True)])
        step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert ant.positive_deposit_remaining == 0
        assert g.negative[5, 5] == CFG.deposit_amount_negative
        assert np.count_nonzero(g.negative) == 1 and not g.positive.any()

    def test_countdown_emits_exactly_t_pos_deposits(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST, [], positive_deposit_remaining=5)
        laid = []
        for _ in range(10):
            before = g.positive[5, 5]
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            laid.append(g.positive[5, 5] > before)
        assert laid == [True] * 5 + [False] * 5
        assert ant.positive_deposit_remaining == 0
        assert g.positive[5, 5] == 5 * CFG.deposit_amount_positive
        assert np.count_nonzero(g.positive) == 1 and not g.negative.any()

    @pytest.mark.parametrize("phase, deposits", [(SimPhase.FORAGING, True),
                                                 (SimPhase.TRAINING, False)])
    def test_training_lays_no_pheromone(self, phase, deposits):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST,
                           [ActuatorFrame(emit_negative_pheromone=True)],
                           positive_deposit_remaining=3)
        step_ant(g, [ant], CFG, phase, pheromone_enabled=True)
        assert (g.positive.any(), g.negative.any()) == (deposits, deposits)
        assert ant.positive_deposit_remaining == 2

    def test_no_events_no_deposits(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST, [ActuatorFrame()])
        step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert ant.positive_deposit_remaining == 0
        assert not g.positive.any() and not g.negative.any()


class TestEmbodiedBehaviour:
    def test_untrained_ant_advances_one_cell_per_pacemaker_period(self):
        g = walled_grid()
        ant = Ant(position=(2, 5), heading=Heading.EAST, brain=AntBrain())
        positions = [ant.position]
        for _ in range(5):
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            positions.append(ant.position)
        assert positions == [(2, 5), (3, 5), (4, 5), (5, 5), (6, 5), (7, 5)]

    def test_trained_ant_turns_before_red_cell(self):
        g = walled_grid(cells=[(5, 5, PatchKind.HARM)])
        ant = Ant(position=(4, 5), heading=Heading.EAST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert ant.heading is Heading.SOUTH
        assert ant.position == (4, 5)

    def test_food_contact_eats_and_deposits_on_following_cells(self):
        g = walled_grid(cells=[(6, 5, PatchKind.FOOD)], food=50)
        cfg = AntConfig(positive_deposit_ticks=5)
        ant = Ant(position=(4, 5), heading=Heading.EAST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        eaten = 0
        deposits = []
        for tick in range(9):
            laid = g.positive.sum()
            eaten += step_ant(g, [ant], cfg, SimPhase.FORAGING)[0]
            if g.positive.sum() > laid:
                deposits.append(tick)
        assert eaten == 1
        assert g.food[5, 6] == 49
        assert len(deposits) == 5
        assert deposits == list(range(deposits[0], deposits[0] + 5))

    def test_collision_conditioning_loop_escapes_walls(self):
        # Untrained ant heading at a wall: collide, feel pain, reflex-turn,
        # and keep moving. It must not wedge in place forever.
        g = walled_grid()
        ant = Ant(position=(9, 5), heading=Heading.EAST, brain=AntBrain())
        visited = set()
        for _ in range(60):
            step_ant(g, [ant], CFG, SimPhase.FORAGING)
            visited.add(ant.position)
        assert len(visited) > 5


class TestTrainingReposition:
    def test_boundary_reset_restores_pose(self):
        g = Grid(9, 9)  # open training arena, no walls
        ant = scripted_ant((1, 4), Heading.WEST,
                           [ActuatorFrame(move_forward=True)] * 3,
                           initial_position=(4, 4), initial_heading=Heading.SOUTH)
        _, _, reset = step_ant(g, [ant], CFG, SimPhase.TRAINING)
        assert reset
        assert ant.position == (4, 4)
        assert ant.heading is Heading.SOUTH

    def test_open_edge_counts_as_boundary_in_training(self):
        g = Grid(9, 9)
        ant = scripted_ant((4, 4), Heading.NORTH,
                           [ActuatorFrame(move_forward=True)] * 6,
                           initial_position=(4, 4), initial_heading=Heading.NORTH)
        resets = 0
        for _ in range(6):
            resets += step_ant(g, [ant], CFG, SimPhase.TRAINING)[2]
        assert resets >= 1
        assert ant.position[1] >= 1

    def test_no_reset_outside_training(self):
        g = Grid(9, 9)
        ant = scripted_ant((1, 4), Heading.WEST, [ActuatorFrame(move_forward=True)])
        _, _, reset = step_ant(g, [ant], CFG, SimPhase.FORAGING)
        assert not reset
        assert ant.position == (0, 4)

    def test_reposition_preserves_brain_state(self):
        # Two real-brain ants see identical stimuli; one gets repositioned.
        g = Grid(11, 11)
        boundary_ant = Ant(position=(0, 5), heading=Heading.WEST,
                           brain=AntBrain(), initial_position=(5, 5),
                           initial_heading=Heading.WEST)
        control_ant = Ant(position=(5, 5), heading=Heading.WEST,
                          brain=AntBrain(), initial_position=(5, 5),
                          initial_heading=Heading.WEST)
        _, _, reset = step_ant(g, [boundary_ant], CFG, SimPhase.TRAINING)
        step_ant(g, [control_ant], CFG, SimPhase.FORAGING)
        assert reset
        assert boundary_ant.position == (5, 5)
        b = [s.membrane_potential for s in boundary_ant.brain.net.states]
        c = [s.membrane_potential for s in control_ant.brain.net.states]
        assert b == c
        assert boundary_ant.brain.weights() == control_ant.brain.weights()


class TestAntTickCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_counts_match_the_world(self, data):
        """On a small arena ringed by walls and harm cells, one scripted
        ant-tick returns what the world shows: the food the grid lost, the
        pain sensed at the pose before the step, and a reset exactly when
        a training ant's pose snapped back to its spawn. Pheromone grows
        only at the ant's final cell, only while foraging with pheromone on."""
        w, h = data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6))
        x, y = data.draw(st.tuples(st.integers(1, w - 2), st.integers(1, h - 2)))
        kinds, food = np.empty((h, w), dtype=np.int64), np.empty((h, w), dtype=np.int64)
        for cy in range(h):
            for cx in range(w):
                on_boundary = cx in (0, w - 1) or cy in (0, h - 1)
                kinds[cy, cx] = data.draw(st.sampled_from(
                    [PatchKind.WALL, PatchKind.HARM] if on_boundary else list(PatchKind)))
                food[cy, cx] = data.draw(st.integers(1, 3))
        if kinds[y, x] == PatchKind.WALL:
            kinds[y, x] = PatchKind.EMPTY
        g = grid_of(kinds, food)
        levels = st.sampled_from([0.0, g.clear_threshold, 1.0])
        for cy in range(h):
            for cx in range(w):
                g.deposit(cx, cy, PheromoneField.NEGATIVE, data.draw(levels))
                g.deposit(cx, cy, PheromoneField.POSITIVE, data.draw(levels))
        heading = data.draw(st.sampled_from(list(Heading)))
        # Facing the other way, the spawn pose is none a step can reach.
        spawn = (data.draw(st.tuples(st.integers(1, w - 2), st.integers(1, h - 2))),
                 CLOCKWISE[(CLOCKWISE.index(heading) + 2) % 4])
        act = ActuatorFrame(*(data.draw(st.booleans()) for _ in range(4)))
        countdown = data.draw(st.integers(0, 3))
        ant = scripted_ant((x, y), heading, [act], initial_position=spawn[0],
                           initial_heading=spawn[1], positive_deposit_remaining=countdown,
                           pain_pending=data.draw(st.booleans()))
        cfg = AntConfig(rotate_direction=data.draw(st.sampled_from(["right", "left"])))
        phase = data.draw(st.sampled_from(list(SimPhase)))
        pheromone = data.draw(st.booleans())

        food, pos, neg = g.food.sum(), g.positive.copy(), g.negative.copy()
        sensed = perceive(g, ant).pain_contact
        ate, pain, reset = step_ant(g, [ant], cfg, phase, pheromone)

        assert ate == food - g.food.sum()
        assert pain == sensed
        training = phase is SimPhase.TRAINING
        assert reset == (training and (ant.position, ant.heading) == spawn)
        if reset:
            assert ant.pain_pending  # every boundary cell here is harmful
        fx, fy = ant.position
        laying = pheromone and not training
        for field, before, lays in ((g.positive, pos, countdown > 0 or ate),
                                    (g.negative, neg, act.emit_negative_pheromone)):
            grown = field > before
            assert grown[fy, fx] == (laying and bool(lays))
            grown[fy, fx] = False
            assert not grown.any() and (field >= before).all()


def tabled_reference_ant(position, heading, tables, **kw):
    """An ant whose brain carries the reference weights in a table of
    `tables`, so its world ticks are lookups once a move is known."""
    brain = AntBrain()
    brain.set_weights(trained_reference_weights())
    tabled = share_table(tables, brain)
    assert tabled is not None
    return Ant(position=position, heading=heading, brain=brain, tabled=tabled, **kw)


def tick_state(g, ants, advances):
    """What one world tick may change: the grid's food, fields, sense
    bytes and counts, and each ant's pose, pending pain, countdown and
    brain (its `Tabled` state and count of `advances`, or the frames a
    scripted brain sensed)."""
    return (g.food.tolist(), g.positive.tolist(), g.negative.tolist(), bytes(g.sense),
            g.marked_cell_counts(), g.total_food(),
            [(a.position, a.heading, a.pain_pending, a.positive_deposit_remaining,
              (a.tabled.node.row, a.tabled.node.acts, advances[a.tabled],
               a.brain.net.current_tick)
              if a.tabled is not None else (a.brain.i, a.brain.sensed))
             for a in ants])


class TestOneTickOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_list_steps_like_its_ants_one_at_a_time(self, data):
        """One call over a list of ants leaves the same world, ants and
        summed counts as one call per ant in list order, and each
        scripted ant senses what `perceive` gives just before its turn."""
        w, h = data.draw(st.integers(4, 7)), data.draw(st.integers(4, 7))
        interior = st.tuples(st.integers(1, w - 2), st.integers(1, h - 2))
        levels = st.sampled_from([0.0, Grid(1, 1).clear_threshold, 1.0])
        cells = [(x, y, kind, data.draw(st.integers(1, 2)) if kind is PatchKind.FOOD else 0,
                  data.draw(levels), data.draw(levels))
                 for y in range(1, h - 1) for x in range(1, w - 1)
                 for kind in [data.draw(st.sampled_from(list(PatchKind)))]]
        acts = st.builds(ActuatorFrame, *[st.booleans()] * 4)
        ant_specs = data.draw(st.lists(
            st.tuples(interior, st.sampled_from(list(Heading)),
                      st.none() | st.lists(acts, max_size=4),
                      st.booleans(), st.integers(0, 3)),
            min_size=2, max_size=6))
        cfg = AntConfig(rotate_direction=data.draw(st.sampled_from(["right", "left"])))
        phase = data.draw(st.sampled_from(list(SimPhase)))
        pheromone = data.draw(st.booleans())
        ticks = data.draw(st.integers(1, 4))

        kinds = walled_kinds(w, h, [(x, y, kind) for x, y, kind, *_ in cells])
        food = np.zeros((h, w), dtype=np.int64)
        for x, y, _, units, *_ in cells:
            food[y, x] = units
        for (x, y), *_ in ant_specs:
            if kinds[y, x] == PatchKind.WALL:
                kinds[y, x] = PatchKind.EMPTY

        def build():
            g = grid_of(kinds, food)
            for x, y, _, _, negative, positive in cells:
                g.deposit(x, y, PheromoneField.NEGATIVE, negative)
                g.deposit(x, y, PheromoneField.POSITIVE, positive)
            tables = {}
            ants = []
            for (x, y), heading, script, pain, countdown in ant_specs:
                kw = dict(pain_pending=pain, positive_deposit_remaining=countdown)
                ants.append(tabled_reference_ant((x, y), heading, tables, **kw)
                            if script is None else scripted_ant((x, y), heading, script, **kw))
            return g, ants

        advances = Counter()
        original_advance = Tabled.advance

        def counted_advance(tabled, code):
            advances[tabled] += 1
            return original_advance(tabled, code)

        (g, ants), (g1, ants1) = build(), build()
        for _ in range(ticks):
            with mock.patch.object(Tabled, "advance", counted_advance):
                got = step_ant(g, ants, cfg, phase, pheromone)
                want = [0, 0, 0]
                for ant in ants1:
                    frame = perceive(g1, ant)
                    counts = step_ant(g1, [ant], cfg, phase, pheromone)
                    want = [a + b for a, b in zip(want, counts)]
                    if isinstance(ant.brain, ScriptedBrain):
                        assert ant.brain.sensed[-1] is frame
            assert list(got) == want
            assert tick_state(g, ants, advances) == tick_state(g1, ants1, advances)

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_first_ant_on_a_last_unit_eats_it(self, first):
        """Two ants on one unit of food both emit positive pheromone:
        only the first in list order eats, and only it counts down."""
        g = walled_grid(cells=[(5, 5, PatchKind.FOOD)])
        pair = [scripted_ant((5, 5), Heading.EAST,
                             [ActuatorFrame(emit_positive_pheromone=True)])
                for _ in range(2)]
        order = pair if first == 0 else pair[::-1]
        assert step_ant(g, order, CFG, SimPhase.FORAGING) == (1, 0, 0)
        assert g.total_food() == 0
        eater, other = order
        assert eater.brain.sensed[0].reward_contact
        assert not other.brain.sensed[0].reward_contact
        assert eater.positive_deposit_remaining == CFG.positive_deposit_ticks - 1
        assert other.positive_deposit_remaining == 0
        assert g.positive[5, 5] == CFG.deposit_amount_positive

    @pytest.mark.parametrize("depositor_first, smell", [(True, Color.RED), (False, None)])
    def test_a_later_ant_smells_an_earlier_ants_mark(self, depositor_first, smell):
        """An ant's negative deposit turns the cell ahead of the next ant
        in the list red, and that ant smells red on the same tick."""
        g = walled_grid()
        depositor = scripted_ant((5, 5), Heading.NORTH,
                                 [ActuatorFrame(emit_negative_pheromone=True)])
        smeller = scripted_ant((4, 5), Heading.EAST, [])
        order = [depositor, smeller] if depositor_first else [smeller, depositor]
        step_ant(g, order, CFG, SimPhase.FORAGING)
        assert smeller.brain.sensed[0].smell_ahead is smell
        assert g.effective_color_at(5, 5) is Color.RED
