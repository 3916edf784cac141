"""Tests for the bucket-setting searches and the equal-size baseline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assignment_complies, enumerate_settings_recursive,
                      full_search_probes, random_instance, table_from_counts,
                      tight_value_instance)

from fprivacy.core import (
    BudgetExceededError,
    ConfigError,
    InfeasiblePrivacyError,
    PrivacySpec,
    histogram,
    linear_privacy_spec,
)
from fprivacy.metrics import gen_synthetic
from fprivacy.optimize import (
    PRUNING_MODES,
    SearchConfig,
    _enumerate_settings,
    anatomy_setting,
    brute_force_optimal,
    multi_size_bucketing,
    two_size_bucketing,
)
from fprivacy.publish import release
from fprivacy.validate import (
    BucketSetting,
    build_assignment,
    constraint_report,
    flow_feasibility_oracle,
)


def walkthrough_instance():
    h = np.array([1] * 8 + [6] * 4 + [9] * 2)
    return h, linear_privacy_spec(h, theta=2.0, intercept=0.05)


class TestSearchConfig:
    def test_derived_minimum(self):
        _, p = walkthrough_instance()
        cfg = SearchConfig.for_spec(p)
        # least constrained threshold is 0.41, so sizes below 3 are pointless
        assert cfg.min_size == 3
        assert cfg.max_size == 50

    @given(counts=st.lists(st.integers(1, 12), min_size=2, max_size=6),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_lowering_the_minimum_changes_no_search(self, counts, data):
        """Below the derived minimum a bucket admits no copy of any value,
        so a lower minimum only adds groups of count 0."""
        h = np.array(counts)
        slack = data.draw(st.lists(st.floats(1.0, 3.0), min_size=len(counts),
                                   max_size=len(counts)))
        p = PrivacySpec(np.clip(h / h.sum() * slack, 0.1, 0.6))
        derived = SearchConfig.for_spec(p, max_size=20)
        want = two_size_bucketing(h, p, derived)
        for lower in range(1, derived.min_size):
            got = two_size_bucketing(h, p, SearchConfig(lower, 20))
            assert (got is None) == (want is None)
            if got is not None:
                assert got.loss == want.loss
                assert all(g.count == 0 for g in got.setting
                           if g.size < derived.min_size)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            SearchConfig(3, 3)
        with pytest.raises(ConfigError):
            SearchConfig(0, 5)


class TestTwoSize:
    def test_walkthrough_optimum(self):
        h, p = walkthrough_instance()
        cfg = SearchConfig.for_spec(p, max_size=14)
        res = two_size_bucketing(h, p, cfg)
        assert res is not None
        assert res.loss == 250
        assert tuple((g.size, g.count) for g in res.setting) == ((4, 9), (14, 1))
        assert constraint_report(h, p, res.setting)
        assert flow_feasibility_oracle(h, p, res.setting)

    def test_walkthrough_needs_a_size_hosting_rare_values(self):
        h, p = walkthrough_instance()
        # thresholds 0.09 admit a rare value only in buckets of 12 or more
        assert two_size_bucketing(h, p, SearchConfig(3, 11)) is None

    def test_trivial_thresholds_allow_singletons(self):
        h = np.array([3, 4, 5])
        p = PrivacySpec(np.ones(3))
        res = two_size_bucketing(h, p, SearchConfig(1, 2))
        assert res is not None and res.loss == 0
        assert tuple(g.size for g in res.setting if g.count) == (1,)

    def test_infeasible_privacy_returns_none(self):
        h = np.array([1, 1])
        p = PrivacySpec(np.array([0.2, 0.2]))
        for mode in PRUNING_MODES:
            assert two_size_bucketing(h, p, SearchConfig(1, 10), pruning=mode) is None

    def test_unknown_pruning_mode(self):
        h, p = walkthrough_instance()
        with pytest.raises(ConfigError):
            two_size_bucketing(h, p, SearchConfig(3, 14), pruning="fast")

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        cfg = SearchConfig(1, 10)
        solved = 0
        for _ in range(220):
            h, p = random_instance(rng)
            res = two_size_bucketing(h, p, cfg)
            ref = brute_force_optimal(h, p, cfg, max_q=2)
            assert (res is None) == (ref is None)
            if res is not None:
                assert res.loss == ref.loss
                assert constraint_report(h, p, res.setting)
                assert flow_feasibility_oracle(h, p, res.setting)
                solved += 1
        assert solved > 60

    def test_pruning_modes_agree(self):
        """Every mode finds the same loss; "full" and "loss" walk the same
        pairs to the same setting."""
        rng = np.random.default_rng(77)
        cfg = SearchConfig(1, 10)
        for _ in range(120):
            h, p = random_instance(rng)
            found = {mode: two_size_bucketing(h, p, cfg, pruning=mode)
                     for mode in PRUNING_MODES}
            assert len({None if res is None else res.loss
                        for res in found.values()}) == 1
            full, loss = found["full"], found["loss"]
            if full is not None:
                assert full.setting == loss.setting
                assert full.trace == loss.trace

    @given(counts=st.lists(st.integers(0, 15), min_size=1, max_size=7),
           scale=st.floats(0.5, 3.0), floor=st.floats(0.02, 0.6),
           lo=st.integers(1, 6), span=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_block_walk_replays_the_pair_walk(self, counts, scale, floor,
                                              lo, span):
        """"full" gives "loss"'s setting and trace on random histograms and
        size ranges, and the probes a pair-by-pair replay counts."""
        if sum(counts) == 0:
            counts[0] = 1
        h = np.array(counts, dtype=np.int64)
        p = PrivacySpec(np.minimum(1.0, np.maximum(h / h.sum() * scale,
                                                   floor)))
        cfg = SearchConfig(lo, lo + span)
        full = two_size_bucketing(h, p, cfg, pruning="full")
        loss = two_size_bucketing(h, p, cfg, pruning="loss")
        assert (full is None) == (loss is None)
        if full is not None:
            assert (full.setting, full.trace) == (loss.setting, loss.trace)
            assert full.cond_evals == full_search_probes(h, p, loss.trace)

    def test_full_pruning_needs_fewer_evaluations_on_long_lists(self):
        from fprivacy.gamma import build_gamma

        cfg = SearchConfig(2, 12)
        for seed in (11, 12, 13):
            h, p = tight_value_instance(seed)
            lengths = [len(g) for s1 in range(2, 12) for s2 in range(s1 + 1, 13)
                       if (g := build_gamma(int(h.sum()), s1, s2)) is not None]
            assert max(lengths) >= 50
            full = two_size_bucketing(h, p, cfg, pruning="full")
            none = two_size_bucketing(h, p, cfg, pruning="none")
            assert full is not None and none is not None
            assert full.loss == none.loss
            assert full.cond_evals < none.cond_evals

    def test_trace_best_loss_never_increases(self):
        h, p = walkthrough_instance()
        res = two_size_bucketing(h, p, SearchConfig(3, 14))
        seen = [entry[2] for entry in res.trace if entry[2] != float("inf")]
        assert seen == sorted(seen, reverse=True)

    def test_sizes_beyond_the_record_count_are_not_walked(self):
        h, p = walkthrough_instance()
        capped = SearchConfig.for_spec(p, max_size=int(h.sum()) + 1)
        huge = SearchConfig.for_spec(p, max_size=10**9)
        for mode in PRUNING_MODES:
            want = two_size_bucketing(h, p, capped, pruning=mode)
            got = two_size_bucketing(h, p, huge, pruning=mode)
            assert (got.setting, got.loss) == (want.setting, want.loss)
            assert got.cond_evals == want.cond_evals
            assert len(got.trace) == len(want.trace)
        table = table_from_counts(h)
        leaves = multi_size_bucketing(table, None, p, huge)
        assert [(rows.tolist(), group) for rows, group in leaves] == \
            [(rows.tolist(), group) for rows, group
             in multi_size_bucketing(table, None, p, capped)]

    def test_walk_stops_where_no_larger_size_can_win(self):
        """Sizes far above the optimum cost time only up to the first s1
        whose per-record loss bound reaches the incumbent."""
        table = gen_synthetic(50000, 500, 0, [8, 8], seed=1)
        h = histogram(table)
        p = linear_privacy_spec(h, theta=2.0, intercept=0.04)
        want = two_size_bucketing(h, p, SearchConfig.for_spec(p, max_size=50))
        got = two_size_bucketing(h, p, SearchConfig.for_spec(p, max_size=1000))
        assert (got.setting, got.loss) == (want.setting, 1_055_432)
        assert len(got.trace) < 2000

    def test_full_search_pinned_on_synthetic_table(self):
        """Setting, loss, probe count and trace length of one benchmark-sized
        search, so that a change to the search's probes shows."""
        h = histogram(gen_synthetic(50_000, 500, 0.9, [8, 8], 1))
        p = linear_privacy_spec(h, theta=2.0, intercept=0.04)
        res = two_size_bucketing(h, p, SearchConfig.for_spec(p),
                                 pruning="full")
        assert res.setting == BucketSetting.of((17, 950), (25, 1354))
        assert res.loss == 1_023_104
        assert res.cond_evals == 8_031
        assert len(res.trace) == 611

    def test_full_search_pinned_past_the_default_size_range(self):
        """The same search up to size 1,000: many blocks per row, and rows
        that need the fill limit of nearly every size."""
        h = histogram(gen_synthetic(50_000, 500, 0.9, [8, 8], 1))
        p = linear_privacy_spec(h, theta=2.0, intercept=0.04)
        res = two_size_bucketing(h, p, SearchConfig.for_spec(p, max_size=1000))
        assert res.setting == BucketSetting.of((17, 950), (25, 1354))
        assert res.cond_evals == 14_994
        assert len(res.trace) == 16_048

    def test_block_walk_holds_one_block_at_a_time(self):
        """At max_size 10**9 the 2,000-record walk reaches size 2,001.  The
        slots of every size (2,001 x 1,000 int64, 16 MB) or one int64 array
        over every size pair (16 MB) would pass the bound; the walk holds a
        block, the per-size fill limits and the trace."""
        h = histogram(gen_synthetic(2000, 1000, 0.9, [8, 8], 1))
        p = linear_privacy_spec(h, theta=2.0, intercept=0.04)
        cfg = SearchConfig.for_spec(p, max_size=10**9)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            res = two_size_bucketing(h, p, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.setting == BucketSetting.of((24, 50), (25, 32))
        assert len(res.trace) == 13_113
        assert peak - before < 8 * 2**20

    def test_empty_histogram_rejected(self):
        h = np.zeros(2, dtype=np.int64)
        with pytest.raises(ConfigError):
            two_size_bucketing(h, PrivacySpec(np.ones(2)), SearchConfig(1, 5))


class TestMultiSize:
    def test_walkthrough_refinement(self):
        table = table_from_counts([1] * 8 + [6] * 4 + [9] * 2)
        h = histogram(table)
        p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
        cfg = SearchConfig.for_spec(p, max_size=14)
        leaves = multi_size_bucketing(table, None, p, cfg)
        all_rows = np.sort(np.concatenate([rows for rows, _ in leaves]))
        assert np.array_equal(all_rows, np.arange(50))
        for rows, group in leaves:
            assert group.count > 0
            assert group.capacity == len(rows)
            assert constraint_report(histogram(table, rows), p,
                                     BucketSetting.of((group.size, group.count)))
        total = sum(group.loss for _, group in leaves)
        assert total <= 250  # never worse than the two-size optimum
        assert total < 49 ** 2  # strictly better than the single root bucket

    def test_composed_assignment_satisfies_thresholds(self):
        table = table_from_counts([1] * 8 + [6] * 4 + [9] * 2)
        h = histogram(table)
        p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
        cfg = SearchConfig.for_spec(p, max_size=14)
        leaves = multi_size_bucketing(table, None, p, cfg)
        assert assignment_complies(table, build_assignment(table, leaves), p)

    def test_returns_input_when_no_refinement_helps(self):
        table = table_from_counts([1, 1])
        p = PrivacySpec(np.ones(2))
        leaves = multi_size_bucketing(table, None, p, SearchConfig(2, 3))
        assert len(leaves) == 1
        rows, group = leaves[0]
        assert np.array_equal(rows, np.arange(2))
        assert (group.size, group.count) == (2, 1)

    def test_loss_chain_on_random_instances(self):
        rng = np.random.default_rng(4096)
        cfg = SearchConfig(1, 10)
        compared = 0
        for _ in range(70):
            counts, p = random_instance(rng, max_n=50, max_m=6)
            table = table_from_counts(counts)
            two = two_size_bucketing(counts, p, cfg)
            if two is None:
                continue
            leaves = multi_size_bucketing(table, None, p, cfg)
            total = sum(group.loss for _, group in leaves)
            assert total <= two.loss <= (len(table) - 1) ** 2
            assert assignment_complies(table, build_assignment(table, leaves), p)
            compared += 1
        assert compared > 20

    def test_deterministic(self):
        table = table_from_counts([2, 5, 7, 11])
        h = histogram(table)
        p = linear_privacy_spec(h, theta=4.0, intercept=0.05)
        cfg = SearchConfig.for_spec(p, max_size=12)
        first = multi_size_bucketing(table, None, p, cfg)
        second = multi_size_bucketing(table, None, p, cfg)
        assert len(first) == len(second)
        for (r1, g1), (r2, g2) in zip(first, second):
            assert np.array_equal(r1, r2) and g1 == g2

    def test_no_two_size_setting_refuses_the_table(self):
        # at 0.2 a bucket holds at most a fifth of its rows of a value, but
        # 112 of the 200 records share one value: no bucketing exists
        table = gen_synthetic(200, 5, 1.5, [3], seed=1)
        spec = PrivacySpec(np.full(5, 0.2))
        with pytest.raises(InfeasiblePrivacyError,
                           match="no valid two-size bucketing"):
            release(table, spec, SearchConfig(5, 20), mode="multi")

    def test_capacity_mismatch_rejected(self):
        from fprivacy.validate import BucketGroup

        table = table_from_counts([3, 3])
        p = PrivacySpec(np.ones(2))
        with pytest.raises(ConfigError):
            multi_size_bucketing(table, BucketGroup(size=5, count=1), p,
                                 SearchConfig(1, 4))


class TestBruteForce:
    def test_single_size_matches_direct_scan(self):
        rng = np.random.default_rng(99)
        cfg = SearchConfig(1, 10)
        agreed = 0
        for _ in range(60):
            h, p = random_instance(rng, max_n=40, max_m=5)
            res = brute_force_optimal(h, p, cfg, max_q=1)
            best = None
            for size in range(cfg.min_size, cfg.max_size + 1):
                count, rest = divmod(int(h.sum()), size)
                if rest:
                    continue
                if constraint_report(h, p, BucketSetting.of((size, count))):
                    loss = count * (size - 1) ** 2
                    if best is None or loss < best:
                        best = loss
            if res is None:
                assert best is None
            else:
                assert res.loss == best
                agreed += 1
        assert agreed > 20

    def test_three_sizes_can_only_help(self):
        rng = np.random.default_rng(31337)
        cfg = SearchConfig(1, 8)
        for _ in range(25):
            h, p = random_instance(rng, max_n=30, max_m=4)
            two = brute_force_optimal(h, p, cfg, max_q=2)
            three = brute_force_optimal(h, p, cfg, max_q=3)
            if two is not None:
                assert three is not None and three.loss <= two.loss

    def test_forced_configuration_reports_infeasible(self):
        h = np.array([5] * 10 + [20])
        p = PrivacySpec(np.array([0.18] * 10 + [1.0]))
        setting = BucketSetting.of((4, 5), (5, 4), (6, 5))
        assert not flow_feasibility_oracle(h, p, setting)

    def test_forced_configuration_can_succeed(self):
        h, p = walkthrough_instance()
        assert flow_feasibility_oracle(h, p, BucketSetting.of((4, 9), (14, 1)))

    def test_budget_refusal(self):
        h = np.full(8, 10, dtype=np.int64)
        p = PrivacySpec(np.ones(8))
        with pytest.raises(BudgetExceededError):
            brute_force_optimal(h, p, SearchConfig(1, 10), max_q=3, budget=10)

    def test_budget_counts_prefixes_only(self):
        # 1 empty prefix + sum over sizes 1..50 of 3000 // size one-group
        # prefixes; completing a prefix costs no step
        found = _enumerate_settings(3000, SearchConfig(1, 50), 2, 13_481)
        assert len(found) == 39_789
        with pytest.raises(BudgetExceededError):
            _enumerate_settings(3000, SearchConfig(1, 50), 2, 13_480)

    @given(n=st.integers(1, 90), lo=st.integers(1, 6), span=st.integers(1, 40),
           max_q=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_enumeration_matches_recursion(self, n, lo, span, max_q):
        assert (_enumerate_settings(n, SearchConfig(lo, lo + span), max_q,
                                    10_000_000)
                == enumerate_settings_recursive(n, lo, lo + span, max_q))

    def test_bad_max_q(self):
        h, p = walkthrough_instance()
        with pytest.raises(ConfigError):
            brute_force_optimal(h, p, SearchConfig(3, 14), max_q=0)


class TestAnatomyBaseline:
    def test_exact_division(self):
        assert anatomy_setting(28, 4).loss == 63

    def test_mixed_sizes(self):
        assert anatomy_setting(10, 3).loss == 17
        assert anatomy_setting(10, 3) == BucketSetting.of((3, 2), (4, 1))

    def test_singletons_cost_nothing(self):
        assert anatomy_setting(17, 1).loss == 0

    def test_errors(self):
        with pytest.raises(ConfigError):
            anatomy_setting(3, 4)  # table smaller than one bucket
        with pytest.raises(ConfigError):
            anatomy_setting(5, 3)  # 5 = 3a + 4b has no solution
        with pytest.raises(ConfigError):
            anatomy_setting(10, 0)
