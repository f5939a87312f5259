import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeants.plasticity import (
    PlasticityError,
    StdpConfig,
    on_post_spike,
    on_pre_spike,
    stdp_window,
)
from spikeants.snn import Synapse

CFG = StdpConfig(a_plus=0.1, a_minus=0.1, tau_plus=10.0, tau_minus=10.0,
                 w_min=0.0, w_max=1.0)


def plastic(weight=0.5):
    return Synapse(pre=0, post=1, weight=weight, delay=1, plastic=True)


class TestWindow:
    def test_zero_gap_is_minus_a_minus(self):
        assert stdp_window(0.0, CFG) == -CFG.a_minus

    def test_causal_branch_closed_form(self):
        # delta = -tau_plus with unit amplitude -> exp(-1)
        cfg = StdpConfig(a_plus=1.0, a_minus=0.1, tau_plus=10.0, tau_minus=10.0)
        assert stdp_window(-10.0, cfg) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_tails_vanish(self):
        assert abs(stdp_window(1e6, CFG)) < 1e-300
        assert abs(stdp_window(-1e6, CFG)) < 1e-300

    @given(st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_bounded_by_amplitudes(self, dt):
        assert abs(stdp_window(dt, CFG)) <= max(CFG.a_plus, CFG.a_minus)

    @given(st.floats(min_value=1e-9, max_value=5.0))
    def test_right_continuous_at_zero(self, eps):
        # |W(eps) + A_minus| <= A_minus * (1 - exp(-eps/tau)) <= A_minus * eps/tau
        gap = abs(stdp_window(eps, CFG) + CFG.a_minus)
        assert gap <= CFG.a_minus * eps / CFG.tau_minus + 1e-12

    def test_closed_form_grid(self):
        cfg = StdpConfig(a_plus=0.08, a_minus=0.05, tau_plus=20.0, tau_minus=15.0)
        for k in range(-200, 201):
            dt = k * 0.5
            if dt < 0:
                expected = cfg.a_plus * math.exp(dt / cfg.tau_plus)
            else:
                expected = -cfg.a_minus * math.exp(-dt / cfg.tau_minus)
            assert stdp_window(dt, cfg) == pytest.approx(expected, rel=1e-12)


class TestConfig:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            StdpConfig(a_plus=0.0)
        with pytest.raises(ValueError):
            StdpConfig(tau_minus=-1.0)

    def test_bounds_ordered(self):
        with pytest.raises(ValueError):
            StdpConfig(w_min=1.0, w_max=0.5)

    def test_default_cutoff_is_five_tau(self):
        cfg = StdpConfig(tau_plus=10.0, tau_minus=30.0)
        assert cfg.window_cutoff == 150

    def test_replace_derives_cutoff_again(self):
        assert replace(StdpConfig(), tau_minus=30).window_cutoff == 150

    def test_cutoff_is_not_an_argument(self):
        with pytest.raises(TypeError):
            StdpConfig(window_cutoff=100)


class TestOnPostSpike:
    def test_empty_history_unchanged(self):
        assert on_post_spike(plastic(0.5), [], 100, CFG) == 0.5

    def test_single_causal_pairing_closed_form(self):
        # Pre arrival 2 ticks before post: 0.5 + 0.1 * exp(-0.2)
        expected = 0.5 + 0.1 * math.exp(-0.2)
        assert on_post_spike(plastic(0.5), [98], 100, CFG) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.58187, abs=5e-6)

    def test_same_tick_arrival_counts_as_causal(self):
        assert on_post_spike(plastic(0.5), [100], 100, CFG) == pytest.approx(
            0.5 + CFG.a_plus, rel=1e-12)

    def test_clamped_at_w_max(self):
        arrivals = range(1, 91, 3)
        assert on_post_spike(plastic(0.999), arrivals, 91, CFG) == CFG.w_max

    def test_non_plastic_rejected(self):
        syn = Synapse(0, 1, 0.5, 1, plastic=False)
        with pytest.raises(PlasticityError):
            on_post_spike(syn, [], 10, CFG)

    def test_out_of_window_ignored(self):
        # Arrival 11, post at 90: gap 79 > cutoff 50.
        assert on_post_spike(plastic(0.5), [11], 90, CFG) == 0.5


class TestOnPreSpike:
    def test_no_recent_posts_unchanged(self):
        assert on_pre_spike(plastic(0.5), [], 50, CFG) == 0.5

    def test_single_acausal_pairing_closed_form(self):
        # Pre arrives 3 ticks after post: 0.5 - 0.1 * exp(-0.3)
        expected = 0.5 - 0.1 * math.exp(-0.3)
        assert on_pre_spike(plastic(0.5), [47], 50, CFG) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.42592, abs=5e-6)

    def test_clamped_at_w_min(self):
        assert on_pre_spike(plastic(0.01), [49], 50, CFG) == 0.0

    def test_simultaneous_pair_left_to_on_post(self):
        assert on_pre_spike(plastic(0.5), [50], 50, CFG) == 0.5


class TestConvergence:
    def test_consistent_causal_pairing_saturates_high(self):
        # Pre always arrives a few ticks before post: weight walks to w_max.
        syn = plastic(0.1)
        arrivals, posts = [], []
        t = 0
        for _ in range(500):
            arrivals.append(t + 1)
            on_pre_spike(syn, posts, t + 1, CFG)
            on_post_spike(syn, arrivals, t + 3, CFG)
            posts.append(t + 3)
            t += 60
        assert syn.weight == CFG.w_max

    def test_consistent_acausal_pairing_saturates_low(self):
        syn = plastic(0.9)
        posts = []
        t = 0
        for _ in range(500):
            posts.append(t)              # post fires first
            on_pre_spike(syn, posts, t + 3, CFG)
            t += 60
        assert syn.weight == CFG.w_min

    @given(st.lists(st.tuples(st.sampled_from(["pre", "post"]),
                              st.integers(min_value=1, max_value=5)),
                    min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_weights_never_leave_bounds(self, sequence):
        syn = plastic(0.5)
        arrivals, posts = [], []
        t = 0
        for kind, gap in sequence:
            t += gap
            if kind == "pre":
                arrivals.append(t)
                on_pre_spike(syn, posts, t, CFG)
            else:
                posts.append(t)
                on_post_spike(syn, arrivals, t, CFG)
            assert CFG.w_min <= syn.weight <= CFG.w_max
