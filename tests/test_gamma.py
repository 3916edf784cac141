"""Tests for the two-size candidate list and the search kernels over it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gamma_first_covering
from fprivacy import gamma
from fprivacy.core import ConfigError, PrivacySpec, histogram, value_slots
from fprivacy.gamma import GammaList, build_gamma, loss_prefix
from fprivacy.validate import BucketSetting, constraint_report


def gamma_instance(rng, max_n=200, max_m=10, max_size=12):
    """Random histogram, privacy spec and size pair for region testing."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(m, max_n + 1))
    weights = rng.dirichlet(np.full(m, rng.uniform(0.4, 2.0)))
    counts = rng.multinomial(max(n - m, 0), weights) + 1
    scale = rng.uniform(0.5, 3.0)  # < 1 produces infeasible values on purpose
    thresholds = np.minimum(1.0, np.maximum(counts / counts.sum() * scale,
                                            0.02))
    p = PrivacySpec(thresholds)
    s1 = int(rng.integers(1, max_size))
    s2 = int(rng.integers(s1 + 1, max_size + 1))
    return counts, p, s1, s2


def scan_valid_positions(g, h, p, limit):
    """Oracle: positions in the prefix whose pair passes the full validator."""
    keep = []
    for pos in range(limit):
        b1, b2 = g.pair_at(pos)
        setting = BucketSetting.of((g.size1, b1), (g.size2, b2))
        if constraint_report(h, p, setting):
            keep.append(pos)
    return keep


def kernel_args(g, h, p):
    """The slot and count arguments first_valid_scan takes after g and kp."""
    return value_slots(p, g.size1), value_slots(p, g.size2), h


def fill_limits(g, h, p):
    """Both sizes' (fill limit, probes) from gamma.fill_limit."""
    return tuple(gamma.fill_limit(size, value_slots(p, size), h)
                 for size in (g.size1, g.size2))


def pos_args(g, h, p):
    """The arguments first_valid_pos takes after g and kp: both sizes'
    fill limits, then kernel_args."""
    (lim1, _), (lim2, _) = fill_limits(g, h, p)
    return (lim1, lim2, *kernel_args(g, h, p))


def fill_positions(g, h, p, kp):
    """Positions in [0, kp] whose pair lies within both fill limits."""
    (lim1, _), (lim2, _) = fill_limits(g, h, p)
    return [pos for pos in range(kp + 1)
            if g.pair_at(pos)[0] <= lim1 and g.pair_at(pos)[1] <= lim2]


def pc_bounds(g, h, p, kp, value):
    """pc_bounds of one value, as length-1 arrays."""
    u1, u2, o = kernel_args(g, h, p)
    one = slice(value, value + 1)
    return gamma.pc_bounds(g, kp, u1[one], u2[one], o[one])


def region_positions(g, h, p, kp):
    """Positions in [0, kp] inside the fill limits and every value's
    allocation interval."""
    lo, hi = gamma.pc_bounds(g, kp, *kernel_args(g, h, p))
    return [pos for pos in fill_positions(g, h, p, kp) if lo <= pos <= hi]


class TestGammaList:
    def test_golden_list_28(self):
        g = build_gamma(28, 2, 4)
        assert g is not None
        assert g.pairs() == [(14, 0), (12, 1), (10, 2), (8, 3),
                             (6, 4), (4, 5), (2, 6), (0, 7)]
        assert (g.step1, g.step2) == (2, 1)
        assert g.last_index == 7
        assert len(g) == 8
        assert g.n == 28

    def test_no_covering_exists(self):
        assert build_gamma(7, 2, 4) is None

    def test_example_pair_present(self):
        g = build_gamma(50, 4, 14)
        assert g is not None
        assert g.pairs() == [(9, 1), (2, 3)]
        assert (9, 1) in g.pairs()

    def test_pair_at(self):
        g = build_gamma(28, 2, 4)
        assert g.pair_at(3) == (8, 3)
        assert g.pair_at(0) == (14, 0)
        with pytest.raises(IndexError):
            g.pair_at(8)
        with pytest.raises(IndexError):
            g.pair_at(-1)

    def test_large_size_may_exceed_table(self):
        assert build_gamma(3, 2, 5) is None
        g = build_gamma(5, 2, 5)
        assert g is not None and g.pairs() == [(0, 1)]

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            build_gamma(0, 2, 4)
        with pytest.raises(ConfigError):
            build_gamma(10, 4, 4)
        with pytest.raises(ConfigError):
            build_gamma(10, 0, 4)

    def test_exactly_seven_integer_fields(self):
        import dataclasses

        fields = dataclasses.fields(GammaList)
        assert len(fields) == 7
        g = build_gamma(28, 2, 4)
        for f in fields:
            assert isinstance(getattr(g, f.name), int)

    @given(n=st.integers(1, 400), s1=st.integers(1, 15), span=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_pairs_complete_and_exact(self, n, s1, span):
        s2 = s1 + span
        g = build_gamma(n, s1, s2)
        expected = [(b1, b2) for b2 in range(n // s2 + 1)
                    if (n - s2 * b2) % s1 == 0
                    for b1 in [(n - s2 * b2) // s1]]
        expected.sort(key=lambda pair: -pair[0])
        if g is None:
            assert expected == []
        else:
            assert g.pairs() == expected
            for b1, b2 in g.pairs():
                assert b1 >= 0 and b2 >= 0
                assert s1 * b1 + s2 * b2 == n

    @given(n=st.integers(1, 400), s1=st.integers(1, 40), span=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_first_covering_matches_scan(self, n, s1, span):
        g = build_gamma(n, s1, s1 + span)
        got = None if g is None else (g.b1_first, g.b2_first)
        assert got == gamma_first_covering(n, s1, s1 + span)

    @given(n=st.integers(2, 400), s1=st.integers(1, 12), span=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_loss_strictly_increasing(self, n, s1, span):
        g = build_gamma(n, s1, s1 + span)
        if g is None or len(g) < 2:
            return
        losses = [g.loss_at(i) for i in range(len(g))]
        assert all(a < b for a, b in zip(losses, losses[1:]))


class TestLossPrefix:
    def test_unbounded_keeps_everything(self):
        g = build_gamma(28, 2, 4)
        assert loss_prefix(g, math.inf) == 8

    def test_example_cutoff(self):
        g = build_gamma(28, 2, 4)
        # pair (10,2) has loss 28; strict comparison drops it and later pairs
        assert g.loss_at(2) == 28
        assert loss_prefix(g, 28) == 2

    def test_nothing_below_first_loss(self):
        g = build_gamma(28, 2, 4)
        assert g.loss_at(0) == 14
        assert loss_prefix(g, 14) == 0
        assert loss_prefix(g, 3) == 0

    @given(n=st.integers(2, 300), s1=st.integers(1, 10), span=st.integers(1, 8),
           best=st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_scan(self, n, s1, span, best):
        g = build_gamma(n, s1, s1 + span)
        if g is None:
            return
        expected = sum(1 for i in range(len(g)) if g.loss_at(i) < best)
        # losses increase, so the count is also the prefix length
        assert loss_prefix(g, best) == expected


class TestRegions:
    def test_example_pair_inside_fc_region(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        g = build_gamma(50, 4, 14)
        assert 0 in fill_positions(g, h, walkthrough_spec, g.last_index)
        (lim1, _), (lim2, _) = fill_limits(g, h, walkthrough_spec)
        assert g.pair_at(0) == (9, 1) and 9 <= lim1 and 1 <= lim2

    def test_example_pair_inside_every_pc_region(self, walkthrough_table,
                                                 walkthrough_spec):
        h = histogram(walkthrough_table)
        g = build_gamma(50, 4, 14)
        for value in range(len(h)):
            lo, hi = pc_bounds(g, h, walkthrough_spec, g.last_index, value)
            assert lo <= 0 <= hi

    def test_slack_everywhere_gives_full_region(self):
        h = np.array([2, 3, 3])
        p = PrivacySpec(np.array([1.0, 1.0, 1.0]))
        g = build_gamma(8, 2, 4)
        kp = g.last_index
        assert fill_positions(g, h, p, kp) == list(range(kp + 1))
        for value in range(3):
            assert pc_bounds(g, h, p, kp, value) == (0, kp)

    def test_empty_prefix_gives_empty_region(self):
        h = np.array([2, 3, 3])
        p = PrivacySpec(np.array([1.0, 1.0, 1.0]))
        g = build_gamma(8, 2, 4)
        # a loss bound of 0 leaves no position for the kernels to search
        assert loss_prefix(g, best_loss=0) == 0
        # a one-position prefix confines every kernel to position 0
        assert fill_positions(g, h, p, 0) == [0]
        assert gamma.first_valid_pos(g, 0, *pos_args(g, h, p))[0] == 0
        assert gamma.first_valid_scan(g, 0, *kernel_args(g, h, p))[0] == 0

    def test_pc_region_matches_brute_scan(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(300):
            h, p, s1, s2 = gamma_instance(rng)
            g = build_gamma(int(h.sum()), s1, s2)
            if g is None:
                continue
            u1 = value_slots(p, s1)
            u2 = value_slots(p, s2)
            value = int(rng.integers(0, len(h)))
            lo, hi = pc_bounds(g, h, p, g.last_index, value)
            o = int(h[value])
            expected = [pos for pos in range(len(g))
                        if min(int(u1[value]) * g.pair_at(pos)[0], o)
                        + min(int(u2[value]) * g.pair_at(pos)[1], o) >= o]
            assert [pos for pos in range(len(g))
                    if lo <= pos <= hi] == expected
            checked += 1
        assert checked > 200

    def test_valid_region_matches_validator_scan(self):
        rng = np.random.default_rng(62)
        checked = nonempty = 0
        for _ in range(250):
            h, p, s1, s2 = gamma_instance(rng)
            g = build_gamma(int(h.sum()), s1, s2)
            if g is None:
                continue
            best = math.inf if rng.random() < 0.5 else float(rng.integers(0, 4000))
            prefix = loss_prefix(g, best)
            expected = scan_valid_positions(g, h, p, prefix)
            if prefix > 0:
                assert region_positions(g, h, p, prefix - 1) == expected
                pos, _ = gamma.first_valid_pos(g, prefix - 1,
                                               *pos_args(g, h, p))
                assert pos == (expected[0] if expected else -1)
            else:
                assert expected == []
            checked += 1
            nonempty += bool(expected)
        assert checked > 150 and nonempty > 40

    def test_first_position_is_best_valid_pair(self):
        rng = np.random.default_rng(63)
        seen = 0
        for _ in range(200):
            h, p, s1, s2 = gamma_instance(rng, max_n=120)
            g = build_gamma(int(h.sum()), s1, s2)
            if g is None:
                continue
            pos, _ = gamma.first_valid_pos(g, g.last_index, *pos_args(g, h, p))
            expected = scan_valid_positions(g, h, p, len(g))
            if expected:
                assert pos == expected[0]
                seen += 1
            else:
                assert pos == -1
        assert seen > 30

    def test_infeasible_privacy_empty_everywhere(self):
        h = np.array([30, 10, 10])
        # first value's threshold sits below its frequency: never satisfiable
        p = PrivacySpec(np.array([0.3, 1.0, 1.0]))
        for s1, s2 in [(1, 2), (2, 3), (2, 5), (4, 7), (5, 10)]:
            g = build_gamma(50, s1, s2)
            if g is not None:
                assert region_positions(g, h, p, g.last_index) == []
                pos, _ = gamma.first_valid_pos(g, g.last_index,
                                               *pos_args(g, h, p))
                assert pos == -1

    def test_fused_kernel_agrees_with_region(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            h, p, s1, s2 = gamma_instance(rng)
            g = build_gamma(int(h.sum()), s1, s2)
            if g is None:
                continue
            region = region_positions(g, h, p, g.last_index)
            pos, _ = gamma.first_valid_pos(g, g.last_index, *pos_args(g, h, p))
            scan_pos, _ = gamma.first_valid_scan(g, g.last_index,
                                                 *kernel_args(g, h, p))
            if not region:
                assert pos == -1 and scan_pos == -1
            else:
                assert pos == region[0] == scan_pos

    def test_probe_count_logarithmic(self):
        rng = np.random.default_rng(65)
        for _ in range(150):
            h, p, s1, s2 = gamma_instance(rng, max_n=200)
            g = build_gamma(int(h.sum()), s1, s2)
            if g is None:
                continue
            _, probes = gamma.first_valid_pos(g, g.last_index, *pos_args(g, h, p))
            probes += sum(fill_probes for _, fill_probes in fill_limits(g, h, p))
            bound = (3 * len(h) + 2) * (math.ceil(math.log2(len(g))) + 4)
            assert probes <= bound

    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
           scale=st.floats(0.3, 3.0), floor=st.floats(0.01, 0.5),
           s1=st.integers(1, 11), span=st.integers(1, 10),
           cut=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_first_valid_pos_agrees_with_scans(self, counts, scale, floor,
                                               s1, span, cut):
        if sum(counts) == 0:
            counts[0] = 1
        h = np.array(counts)
        p = PrivacySpec(np.minimum(1.0, np.maximum(h / h.sum() * scale,
                                                   floor)))
        g = build_gamma(int(h.sum()), s1, s1 + span)
        if g is None:
            return
        kp = int(cut * g.last_index)
        pos, _ = gamma.first_valid_pos(g, kp, *pos_args(g, h, p))
        scan_pos, _ = gamma.first_valid_scan(g, kp, *kernel_args(g, h, p))
        valid = scan_valid_positions(g, h, p, kp + 1)
        assert pos == scan_pos == (valid[0] if valid else -1)

    @given(counts=st.lists(st.integers(0, 12), min_size=1, max_size=4),
           slots=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 12)),
                          min_size=4, max_size=4),
           s1=st.integers(1, 8), span=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_first_valid_pos_agrees_with_scan_on_any_slots(self, counts, slots,
                                                           s1, span):
        """Slots drawn freely, not from thresholds, so that either size's
        fill limit can be the binding constraint."""
        o = np.array(counts, dtype=np.int64)
        if o.sum() == 0:
            return
        g = build_gamma(int(o.sum()), s1, s1 + span)
        if g is None:
            return
        u1 = np.array([a for a, _ in slots[:len(o)]], dtype=np.int64)
        u2 = np.array([b for _, b in slots[:len(o)]], dtype=np.int64)
        lim1, _ = gamma.fill_limit(g.size1, u1, o)
        lim2, _ = gamma.fill_limit(g.size2, u2, o)
        pos, _ = gamma.first_valid_pos(g, g.last_index, lim1, lim2, u1, u2, o)
        scan_pos, _ = gamma.first_valid_scan(g, g.last_index, u1, u2, o)
        assert pos == scan_pos

    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
           slots=st.lists(st.integers(0, 12), min_size=8, max_size=8),
           size=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_fill_limit_matches_brute_scan(self, counts, slots, size):
        o = np.array(counts, dtype=np.int64)
        u = np.array(slots[:len(counts)], dtype=np.int64)
        top = int(o.sum()) // size + 1
        passing = [b for b in range(top + 1)
                   if gamma._fill_ok(b, size, u, o)]
        limit, _ = gamma.fill_limit(size, u, o)
        assert limit == max(passing)
        assert passing == list(range(limit + 1))

    @given(count=st.integers(0, 60), u1=st.integers(0, 12),
           u2=st.integers(0, 12), s1=st.integers(1, 11),
           span=st.integers(1, 10), n=st.integers(1, 300),
           cut=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_pc_bounds_single_value_matches_brute_scan(self, count, u1, u2,
                                                       s1, span, n, cut):
        g = build_gamma(n, s1, s1 + span)
        if g is None:
            return
        kp = int(cut * g.last_index)
        lo, hi = gamma.pc_bounds(
            g, kp, np.array([u1], dtype=np.int64),
            np.array([u2], dtype=np.int64), np.array([count], dtype=np.int64))
        expected = [pos for pos in range(kp + 1)
                    if min(u1 * g.pair_at(pos)[0], count)
                    + min(u2 * g.pair_at(pos)[1], count) >= count]
        assert [pos for pos in range(kp + 1) if lo <= pos <= hi] == expected
