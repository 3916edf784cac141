"""Tests for the bucket-setting searches and the equal-size baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (enumerate_settings_recursive, random_instance,
                      table_from_counts)

from fprivacy.core import (
    BudgetExceededError,
    ConfigError,
    PrivacySpec,
    SaHistogram,
    histogram,
    linear_privacy_spec,
)
from fprivacy.optimize import (
    PRUNING_MODES,
    SearchConfig,
    _enumerate_settings,
    anatomy_baseline_loss,
    anatomy_setting,
    brute_force_optimal,
    multi_size_bucketing,
    two_size_bucketing,
)
from fprivacy.validate import (
    BucketSetting,
    assignment_satisfies,
    build_assignment,
    flow_feasibility_oracle,
    validate_one_size,
    validate_two_size,
)


def hist(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return SaHistogram(counts=counts, total=int(counts.sum()))


def walkthrough_instance():
    h = hist([1] * 8 + [6] * 4 + [9] * 2)
    return h, linear_privacy_spec(h, theta=2.0, intercept=0.05)


def tight_value_instance(seed, m=30, n=4000, tight=150):
    """One value hostable only by the largest size; all lists are long."""
    rng = np.random.default_rng(seed)
    rest = rng.multinomial(n - tight - (m - 1), np.ones(m - 1) / (m - 1)) + 1
    counts = np.concatenate([rest, [tight]]).astype(np.int64)
    thresholds = np.ones(m)
    thresholds[-1] = 1.0 / 12.0 + 0.001
    return hist(counts), PrivacySpec(thresholds)


class TestSearchConfig:
    def test_derived_minimum(self):
        _, p = walkthrough_instance()
        cfg = SearchConfig.for_spec(p)
        # least constrained threshold is 0.41, so sizes below 3 are pointless
        assert cfg.min_size == 3
        assert cfg.max_size == 50

    def test_override_downward_only(self):
        _, p = walkthrough_instance()
        assert SearchConfig.for_spec(p, min_size=1).min_size == 1
        assert SearchConfig.for_spec(p, min_size=3).min_size == 3
        with pytest.raises(ConfigError):
            SearchConfig.for_spec(p, min_size=4)
        with pytest.raises(ConfigError):
            SearchConfig.for_spec(p, min_size=0)

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
        assert validate_two_size(h, p, res.setting)
        assert flow_feasibility_oracle(h, p, res.setting)

    def test_walkthrough_needs_a_size_hosting_rare_values(self):
        h, p = walkthrough_instance()
        # thresholds 0.09 admit a rare value only in buckets of 12 or more
        assert two_size_bucketing(h, p, SearchConfig(3, 11)) is None

    def test_trivial_thresholds_allow_singletons(self):
        h = hist([3, 4, 5])
        p = PrivacySpec(np.ones(3))
        res = two_size_bucketing(h, p, SearchConfig(1, 2))
        assert res is not None and res.loss == 0
        assert res.setting.normalized().sizes == (1,)

    def test_infeasible_privacy_returns_none(self):
        h = hist([1, 1])
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
            counts, p = random_instance(rng)
            h = hist(counts)
            res = two_size_bucketing(h, p, cfg)
            ref = brute_force_optimal(h, p, cfg, max_q=2)
            assert (res is None) == (ref is None)
            if res is not None:
                assert res.loss == ref.loss
                assert validate_two_size(h, p, res.setting)
                assert flow_feasibility_oracle(h, p, res.setting)
                solved += 1
        assert solved > 60

    def test_pruning_modes_agree(self):
        rng = np.random.default_rng(77)
        cfg = SearchConfig(1, 10)
        for _ in range(120):
            counts, p = random_instance(rng)
            h = hist(counts)
            losses = set()
            for mode in PRUNING_MODES:
                res = two_size_bucketing(h, p, cfg, pruning=mode)
                losses.add(None if res is None else res.loss)
            assert len(losses) == 1

    def test_full_pruning_needs_fewer_evaluations_on_long_lists(self):
        from fprivacy.gamma import build_gamma

        cfg = SearchConfig(2, 12)
        for seed in (11, 12, 13):
            h, p = tight_value_instance(seed)
            lengths = [len(g) for s1 in range(2, 12) for s2 in range(s1 + 1, 13)
                       if (g := build_gamma(h.total, s1, s2)) is not None]
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
        capped = SearchConfig.for_spec(p, max_size=h.total + 1)
        huge = SearchConfig.for_spec(p, max_size=10**9)
        for mode in PRUNING_MODES:
            want = two_size_bucketing(h, p, capped, pruning=mode)
            got = two_size_bucketing(h, p, huge, pruning=mode)
            assert (got.setting, got.loss) == (want.setting, want.loss)
            assert got.cond_evals == want.cond_evals
            assert len(got.trace) == len(want.trace)
        table = table_from_counts(h.counts)
        leaves = multi_size_bucketing(table, None, p, huge)
        assert [(rows.tolist(), group) for rows, group in leaves] == \
            [(rows.tolist(), group) for rows, group
             in multi_size_bucketing(table, None, p, capped)]

    def test_empty_histogram_rejected(self):
        h = SaHistogram(counts=np.zeros(2, dtype=np.int64), total=0)
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
            assert validate_one_size(histogram(table, rows), p,
                                     group.size, group.count)
        total = sum(group.loss for _, group in leaves)
        assert total <= 250  # never worse than the two-size optimum
        assert total < 49 ** 2  # strictly better than the single root bucket

    def test_composed_assignment_satisfies_thresholds(self):
        table = table_from_counts([1] * 8 + [6] * 4 + [9] * 2)
        h = histogram(table)
        p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
        cfg = SearchConfig.for_spec(p, max_size=14)
        leaves = multi_size_bucketing(table, None, p, cfg)
        assignment = build_assignment(table, leaves)
        assert assignment_satisfies(assignment, p)

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
            h = hist(counts)
            two = two_size_bucketing(h, p, cfg)
            if two is None:
                continue
            leaves = multi_size_bucketing(table, None, p, cfg)
            total = sum(group.loss for _, group in leaves)
            assert total <= two.loss <= (h.total - 1) ** 2
            assignment = build_assignment(table, leaves)
            assert assignment_satisfies(assignment, p)
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
            counts, p = random_instance(rng, max_n=40, max_m=5)
            h = hist(counts)
            res = brute_force_optimal(h, p, cfg, max_q=1)
            best = None
            for size in range(cfg.min_size, cfg.max_size + 1):
                if h.total % size:
                    continue
                count = h.total // size
                if validate_one_size(h, p, size, count):
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
            counts, p = random_instance(rng, max_n=30, max_m=4)
            h = hist(counts)
            two = brute_force_optimal(h, p, cfg, max_q=2)
            three = brute_force_optimal(h, p, cfg, max_q=3)
            if two is not None:
                assert three is not None and three.loss <= two.loss

    def test_forced_configuration_reports_infeasible(self):
        counts = [5] * 10 + [20]
        thresholds = [0.18] * 10 + [1.0]
        h = hist(counts)
        p = PrivacySpec(np.asarray(thresholds))
        setting = BucketSetting.of((4, 5), (5, 4), (6, 5))
        res = brute_force_optimal(h, p, SearchConfig(4, 6), max_q=3,
                                  candidates=[setting])
        assert res is None

    def test_forced_configuration_can_succeed(self):
        h, p = walkthrough_instance()
        setting = BucketSetting.of((4, 9), (14, 1))
        res = brute_force_optimal(h, p, SearchConfig(4, 14), candidates=[setting])
        assert res is not None and res.setting == setting

    def test_candidate_capacity_mismatch(self):
        h, p = walkthrough_instance()
        with pytest.raises(ConfigError):
            brute_force_optimal(h, p, SearchConfig(4, 14),
                                candidates=[BucketSetting.of((4, 9), (14, 2))])

    def test_budget_refusal(self):
        counts = np.full(8, 10, dtype=np.int64)
        h = hist(counts)
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
        assert anatomy_baseline_loss(28, 4) == 63

    def test_mixed_sizes(self):
        assert anatomy_baseline_loss(10, 3) == 17
        assert anatomy_setting(10, 3) == BucketSetting.of((3, 2), (4, 1))

    def test_singletons_cost_nothing(self):
        assert anatomy_baseline_loss(17, 1) == 0

    def test_errors(self):
        with pytest.raises(ConfigError):
            anatomy_baseline_loss(3, 4)  # table smaller than one bucket
        with pytest.raises(ConfigError):
            anatomy_baseline_loss(5, 3)  # 5 = 3a + 4b has no solution
        with pytest.raises(ConfigError):
            anatomy_baseline_loss(10, 0)
