import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeants.agents import (
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
from spikeants.world import Color, Grid, PatchKind, PheromoneField

CFG = AntConfig()


def walled_grid(w=12, h=12):
    g = Grid(w, h)
    for x in range(w):
        g.set_kind(x, 0, PatchKind.WALL)
        g.set_kind(x, h - 1, PatchKind.WALL)
    for y in range(h):
        g.set_kind(0, y, PatchKind.WALL)
        g.set_kind(w - 1, y, PatchKind.WALL)
    return g


class ScriptedBrain:
    """Stand-in brain replaying a fixed actuator sequence."""

    def __init__(self, frames=()):
        self.frames = list(frames)
        self.i = 0
        self.learning = False

    def world_tick(self, frame):
        if self.i < len(self.frames):
            frame = self.frames[self.i]
        else:
            frame = ActuatorFrame()
        self.i += 1
        return frame


def scripted_ant(position, heading, frames, **kw):
    return Ant(id=0, position=position, heading=heading,
               brain=ScriptedBrain(frames), **kw)


class TestPerceive:
    def test_facing_wall_smells_white(self):
        g = walled_grid()
        ant = scripted_ant((10, 5), Heading.EAST, [])
        frame = perceive(g, ant)
        assert frame.smell_ahead is Color.WHITE
        assert not frame.pain_contact and not frame.reward_contact

    def test_standing_on_food_rewards_and_smells_front(self):
        g = walled_grid()
        g.set_kind(5, 5, PatchKind.FOOD, 3)
        g.set_kind(6, 5, PatchKind.HARM)
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
        g = Grid(w, h, clear_threshold=eps)
        levels = st.sampled_from([0.0, eps, 1.0])
        for y in range(h):
            for x in range(w):
                g.kind[y, x] = data.draw(st.sampled_from(list(PatchKind)))
                g.negative[y, x] = data.draw(levels)
                g.positive[y, x] = data.draw(levels)
        for y in range(h):
            for x in range(w):
                for heading in Heading:
                    ant = scripted_ant((x, y), heading, [],
                                       pain_pending=data.draw(st.booleans()))
                    dx, dy = heading.vector
                    smell = None
                    if g.in_bounds(x + dx, y + dy):
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
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert ev.moved and ant.position == (5, 4)

    def test_rotation_steps_heading_right(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.NORTH, [ActuatorFrame(rotate=True)] * 4)
        seen = []
        for _ in range(4):
            step_ant(g, ant, CFG, SimPhase.FORAGING)
            seen.append(ant.heading)
        assert seen == [Heading.EAST, Heading.SOUTH, Heading.WEST, Heading.NORTH]
        assert ant.position == (5, 5)

    def test_left_rotation_configurable(self):
        g = walled_grid()
        cfg = AntConfig(rotate_direction="left")
        ant = scripted_ant((5, 5), Heading.NORTH, [ActuatorFrame(rotate=True)])
        step_ant(g, ant, cfg, SimPhase.FORAGING)
        assert ant.heading is Heading.WEST

    def test_wall_blocks_and_registers_collision(self):
        g = walled_grid()
        ant = scripted_ant((10, 5), Heading.EAST, [ActuatorFrame(move_forward=True)])
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert ev.blocked and not ev.moved
        assert ant.position == (10, 5)
        assert ant.pain_pending
        ev2 = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert ev2.pain  # the collision reaches the senses one tick later

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=80),
           st.sampled_from(list(Heading)))
    @settings(max_examples=50, deadline=None)
    def test_never_on_a_wall_cell(self, moves, heading):
        g = walled_grid(9, 9)
        g.set_kind(4, 4, PatchKind.WALL)
        g.set_kind(2, 6, PatchKind.WALL)
        frames = [ActuatorFrame(move_forward=m, rotate=r) for m, r in moves]
        ant = scripted_ant((6, 6), heading, frames)
        for _ in moves:
            step_ant(g, ant, CFG, SimPhase.FORAGING)
            x, y = ant.position
            assert g.kind[y, x] != PatchKind.WALL

    def test_never_on_wall_with_real_brains(self):
        g = walled_grid(9, 9)
        ant = Ant(id=0, position=(4, 4), heading=Heading.WEST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        for _ in range(300):
            step_ant(g, ant, CFG, SimPhase.FORAGING)
            x, y = ant.position
            assert g.kind[y, x] != PatchKind.WALL


class TestDepositPolicy:
    def test_counter_spike_routes_one_negative_deposit(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST,
                           [ActuatorFrame(emit_negative_pheromone=True)])
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert (ev.deposited_positive, ev.deposited_negative) == (False, True)
        assert ant.positive_deposit_remaining == 0
        assert g.negative[5, 5] == CFG.deposit_amount_negative
        assert np.count_nonzero(g.negative) == 1 and not g.positive.any()

    def test_countdown_emits_exactly_t_pos_deposits(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST, [], positive_deposit_remaining=5)
        emitted = sum(step_ant(g, ant, CFG, SimPhase.FORAGING).deposited_positive
                      for _ in range(10))
        assert emitted == 5 and ant.positive_deposit_remaining == 0
        assert g.positive[5, 5] == 5 * CFG.deposit_amount_positive
        assert np.count_nonzero(g.positive) == 1 and not g.negative.any()

    @pytest.mark.parametrize("phase, deposits", [(SimPhase.FORAGING, True),
                                                 (SimPhase.TRAINING, False)])
    def test_training_lays_no_pheromone(self, phase, deposits):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST,
                           [ActuatorFrame(emit_negative_pheromone=True)],
                           positive_deposit_remaining=3)
        ev = step_ant(g, ant, CFG, phase, pheromone_enabled=True)
        assert (ev.deposited_positive, ev.deposited_negative) == (deposits, deposits)
        assert (g.positive.any(), g.negative.any()) == (deposits, deposits)
        assert ant.positive_deposit_remaining == 2

    def test_no_events_no_deposits(self):
        g = walled_grid()
        ant = scripted_ant((5, 5), Heading.EAST, [ActuatorFrame()])
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert not ev.deposited_positive and not ev.deposited_negative
        assert ant.positive_deposit_remaining == 0
        assert not g.positive.any() and not g.negative.any()


class TestEmbodiedBehaviour:
    def test_untrained_ant_advances_one_cell_per_pacemaker_period(self):
        g = walled_grid()
        ant = Ant(id=0, position=(2, 5), heading=Heading.EAST, brain=AntBrain())
        positions = [ant.position]
        for _ in range(5):
            step_ant(g, ant, CFG, SimPhase.FORAGING)
            positions.append(ant.position)
        assert positions == [(2, 5), (3, 5), (4, 5), (5, 5), (6, 5), (7, 5)]

    def test_trained_ant_turns_before_red_cell(self):
        g = walled_grid()
        g.set_kind(5, 5, PatchKind.HARM)
        ant = Ant(id=0, position=(4, 5), heading=Heading.EAST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert ev.rotated and not ev.moved
        assert ant.position == (4, 5)

    def test_food_contact_eats_and_deposits_on_following_cells(self):
        g = walled_grid()
        g.set_kind(6, 5, PatchKind.FOOD, 50)
        cfg = AntConfig(positive_deposit_ticks=5)
        ant = Ant(id=0, position=(4, 5), heading=Heading.EAST, brain=AntBrain())
        ant.brain.set_weights(trained_reference_weights())
        eaten = 0
        deposits = []
        for tick in range(9):
            ev = step_ant(g, ant, cfg, SimPhase.FORAGING)
            eaten += ev.ate
            if ev.deposited_positive:
                deposits.append(tick)
        assert eaten == 1
        assert g.food[5, 6] == 49
        assert len(deposits) == 5
        assert deposits == list(range(deposits[0], deposits[0] + 5))

    def test_collision_conditioning_loop_escapes_walls(self):
        # Untrained ant heading at a wall: collide, feel pain, reflex-turn,
        # and keep moving. It must not wedge in place forever.
        g = walled_grid()
        ant = Ant(id=0, position=(9, 5), heading=Heading.EAST, brain=AntBrain())
        visited = set()
        for _ in range(60):
            step_ant(g, ant, CFG, SimPhase.FORAGING)
            visited.add(ant.position)
        assert len(visited) > 5


class TestTrainingReposition:
    def test_boundary_reset_restores_pose(self):
        g = Grid(9, 9)  # open training arena, no walls
        ant = scripted_ant((1, 4), Heading.WEST,
                           [ActuatorFrame(move_forward=True)] * 3,
                           initial_position=(4, 4), initial_heading=Heading.SOUTH)
        ev = step_ant(g, ant, CFG, SimPhase.TRAINING)
        assert ev.boundary_reset
        assert ant.position == (4, 4)
        assert ant.heading is Heading.SOUTH

    def test_open_edge_counts_as_boundary_in_training(self):
        g = Grid(9, 9)
        ant = scripted_ant((4, 4), Heading.NORTH,
                           [ActuatorFrame(move_forward=True)] * 6,
                           initial_position=(4, 4), initial_heading=Heading.NORTH)
        resets = 0
        for _ in range(6):
            ev = step_ant(g, ant, CFG, SimPhase.TRAINING)
            resets += ev.boundary_reset
        assert resets >= 1
        assert ant.position[1] >= 1

    def test_no_reset_outside_training(self):
        g = Grid(9, 9)
        ant = scripted_ant((1, 4), Heading.WEST, [ActuatorFrame(move_forward=True)])
        ev = step_ant(g, ant, CFG, SimPhase.FORAGING)
        assert not ev.boundary_reset
        assert ant.position == (0, 4)

    def test_reposition_preserves_brain_state(self):
        # Two real-brain ants see identical stimuli; one gets repositioned.
        g = Grid(11, 11)
        boundary_ant = Ant(id=0, position=(0, 5), heading=Heading.WEST,
                           brain=AntBrain(), initial_position=(5, 5),
                           initial_heading=Heading.WEST)
        control_ant = Ant(id=1, position=(5, 5), heading=Heading.WEST,
                          brain=AntBrain(), initial_position=(5, 5),
                          initial_heading=Heading.WEST)
        ev = step_ant(g, boundary_ant, CFG, SimPhase.TRAINING)
        step_ant(g, control_ant, CFG, SimPhase.FORAGING)
        assert ev.boundary_reset
        assert boundary_ant.position == (5, 5)
        b = [s.membrane_potential for s in boundary_ant.brain.net.states]
        c = [s.membrane_potential for s in control_ant.brain.net.states]
        assert b == c
        assert boundary_ant.brain.weights() == control_ant.brain.weights()
