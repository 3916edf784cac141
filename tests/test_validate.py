import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from fprivacy.core import ConfigError, MicrodataTable, PrivacySpec, histogram
from fprivacy.metrics import gen_synthetic
from fprivacy.validate import (
    MAX_CUT_GROUPS,
    BucketGroup,
    BucketSetting,
    allocation_bounds,
    build_assignment,
    constraint_report,
    flow_feasibility_oracle,
    partition_records,
    round_robin_assign,
)
from conftest import (assignment_complies, eager_value_counts,
                      max_flow_feasible, partition_by_masks, random_instance,
                      table_from_counts)


# The three-group instance where the naive constraint check is fooled:
# ten values of 5 records that only fit one per size-6 bucket, one value of 20
# records with no restriction, groups (4,5),(5,4),(6,5) of capacities 20/20/30.
THREE_SIZE_COUNTS = [5] * 10 + [20]
THREE_SIZE_THRESHOLDS = [0.18] * 10 + [1.0]
THREE_SIZE_SETTING = BucketSetting.of((4, 5), (5, 4), (6, 5))


class TestSettingTypes:
    def test_capacity_and_loss(self):
        s = BucketSetting.of((4, 9), (14, 1))
        assert s.capacity == 50
        assert s.loss == 9 * 9 + 1 * 169 == 250

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigError):
            BucketSetting.of((4, 2), (4, 3))
        with pytest.raises(ConfigError):
            BucketSetting.of((5, 2), (3, 1))

    def test_zero_count_groups_allowed_and_normalized(self):
        s = BucketSetting.of((2, 0), (3, 4))
        assert s.capacity == 12
        assert tuple(g.size for g in s if g.count) == (3,)

    def test_group_validation(self):
        with pytest.raises(ConfigError):
            BucketGroup(size=0, count=1)
        with pytest.raises(ConfigError):
            BucketGroup(size=3, count=-1)


class TestRoundRobin:
    def test_single_bucket_collects_everything(self):
        codes = np.array([0, 1, 1, 2, 2, 2], dtype=np.int32)
        a = round_robin_assign(codes, bucket_count=1)
        assert a.dtype == np.int32 and a.tolist() == [0] * 6
        assert eager_value_counts(a, codes, 1, 3)[0].tolist() == [1, 2, 3]

    def test_balance_seven_into_three(self):
        # 7 records of one value over 3 buckets: counts 3/2/2 in some rotation
        codes = np.zeros(9, dtype=np.int32)
        codes[7:] = 1  # pad to fill buckets exactly
        a = round_robin_assign(codes, bucket_count=3)
        per_bucket = sorted(eager_value_counts(a, codes, 3, 2)[:, 0].tolist())
        assert per_bucket == [2, 2, 3]

    def test_walkthrough_t2_single_bucket(self):
        # one record of each of 14 values into one bucket of size 14
        codes = np.arange(14, dtype=np.int32)
        a = round_robin_assign(codes, bucket_count=1)
        assert a.tolist() == [0] * 14
        assert eager_value_counts(a, codes, 1, 14)[0].tolist() == [1] * 14

    def test_every_bucket_exactly_full(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            b = int(rng.integers(1, 6))
            size = int(rng.integers(1, 7))
            codes = rng.integers(0, 4, size=b * size).astype(np.int32)
            counts = eager_value_counts(
                round_robin_assign(codes, bucket_count=b), codes, b, 4)
            assert np.all(counts.sum(axis=1) == size)
            # per-value spread differs by at most one across buckets
            for v in range(4):
                col = counts[:, v]
                assert col.max() - col.min() <= 1

    def test_capacity_mismatch(self):
        with pytest.raises(ConfigError):
            round_robin_assign(np.zeros(7, dtype=np.int32), bucket_count=3)


def one_size_valid(h, p, size, count):
    """Validity of ``count`` buckets of ``size``: for one group CC and PC
    together imply FC, so the report is exact."""
    return constraint_report(h, p, BucketSetting.of((size, count))).valid


class TestOneSize:
    def test_walkthrough_t1_after_moves(self):
        # five each of four mid values, eight each of two heavy values
        counts = [0] * 8 + [5] * 4 + [8] * 2
        p = PrivacySpec(np.array([0.09] * 8 + [0.29] * 4 + [0.41] * 2))
        assert one_size_valid(np.array(counts), p, size=4, count=9)

    def test_all_one_thresholds(self):
        p = PrivacySpec(np.ones(3))
        assert one_size_valid(np.array([4, 5, 3]), p, size=3, count=4)

    def test_slot_shortfall_fails(self):
        # value 0 offers floor(0.2*5)*5 = 5 slots total, short of its 10 records
        p = PrivacySpec(np.array([0.2, 1.0]))
        assert not one_size_valid(np.array([10, 15]), p, size=5, count=5)

    def test_capacity_precondition(self):
        rep = constraint_report(np.array([4]), PrivacySpec(np.ones(1)),
                                BucketSetting.of((3, 2)))
        assert not rep.cc_ok and not rep.valid

    def test_agrees_with_rra_simulation(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            counts, p = random_instance(rng, max_n=36, max_m=5)
            n = int(counts.sum())
            t = table_from_counts(counts)
            for size in range(1, 13):
                if n % size:
                    continue
                b = n // size
                a = round_robin_assign(t.sa_codes, bucket_count=b)
                simulated = assignment_complies(t, a, p)
                predicted = one_size_valid(counts, p, size=size, count=b)
                # the closed form promises existence; round-robin achieves it
                assert predicted == simulated
                checked += 1
        assert checked > 100


class TestAllocationBounds:
    def test_walkthrough_group1(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        b = allocation_bounds(h, walkthrough_spec, BucketSetting.of((4, 9), (14, 1)))
        assert b[:8, 0].tolist() == [0] * 8
        assert b[8:12, 0].tolist() == [6] * 4
        assert b[12:, 0].tolist() == [9] * 2

    def test_walkthrough_group2(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        b = allocation_bounds(h, walkthrough_spec, BucketSetting.of((4, 9), (14, 1)))
        assert b[:8, 1].tolist() == [1] * 8
        assert b[8:12, 1].tolist() == [4] * 4
        assert b[12:, 1].tolist() == [5] * 2

    def test_zero_count_group(self):
        h = np.array([3, 3])
        p = PrivacySpec(np.ones(2))
        b = allocation_bounds(h, p, BucketSetting.of((2, 3), (5, 0)))
        assert np.all(b[:, 1] == 0)


class TestTwoSize:
    def test_walkthrough_valid(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        rep = constraint_report(h, walkthrough_spec, BucketSetting.of((4, 9), (14, 1)))
        assert rep.valid and bool(rep)

    def test_cc_diagnostic(self):
        h = np.array([6, 6])
        p = PrivacySpec(np.ones(2))
        rep = constraint_report(h, p, BucketSetting.of((2, 2), (3, 1)))
        assert not rep.valid
        assert rep.failed() == ["CC"]

    def test_pc_diagnostic(self):
        # value 0 cannot be hosted anywhere often enough
        h = np.array([10, 2])
        p = PrivacySpec(np.array([0.25, 1.0]))
        rep = constraint_report(h, p, BucketSetting.of((2, 3), (3, 2)))
        assert not rep.pc_ok and 0 in rep.pc_failed_values

    def test_agrees_with_flow_oracle(self):
        rng = np.random.default_rng(23)
        agreements = 0
        for _ in range(300):
            counts, p = random_instance(rng, max_n=24, max_m=6)
            n = int(counts.sum())
            s1 = int(rng.integers(1, 5))
            s2 = int(rng.integers(s1 + 1, s1 + 5))
            # random split of n into the two groups where possible
            for b2 in range(n // s2 + 1):
                if (n - s2 * b2) % s1 == 0:
                    b1 = (n - s2 * b2) // s1
                    setting = BucketSetting.of((s1, b1), (s2, b2))
                    assert bool(constraint_report(counts, p, setting)) == \
                        flow_feasibility_oracle(counts, p, setting)
                    agreements += 1
        assert agreements > 200


class TestPartition:
    def test_walkthrough_moves_exactly_six(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        setting = BucketSetting.of((4, 9), (14, 1))
        bounds = allocation_bounds(h, walkthrough_spec, setting)
        rows1, rows2 = partition_records(walkthrough_table, bounds, setting)
        assert len(rows1) == 36 and len(rows2) == 14
        c1 = np.bincount(walkthrough_table.sa_codes[rows1], minlength=14)
        c2 = np.bincount(walkthrough_table.sa_codes[rows2], minlength=14)
        # seed was 42 records (0/6/9 per value), so exactly 6 moved out,
        # one from each value that had slack in the big bucket
        assert c1.tolist() == [0] * 8 + [5] * 4 + [8] * 2
        assert c2.tolist() == [1] * 8 + [1] * 4 + [1] * 2

    def test_walkthrough_composed_assignment_valid(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        setting = BucketSetting.of((4, 9), (14, 1))
        bounds = allocation_bounds(h, walkthrough_spec, setting)
        rows1, rows2 = partition_records(walkthrough_table, bounds, setting)
        a = build_assignment(walkthrough_table,
                             [(rows1, setting.groups[0]), (rows2, setting.groups[1])])
        assert assignment_complies(walkthrough_table, a, walkthrough_spec)
        assert np.bincount(a).tolist() == [4] * 9 + [14]

    def test_empty_second_group(self):
        t = table_from_counts([2, 2])
        h = histogram(t)
        p = PrivacySpec(np.ones(2))
        setting = BucketSetting.of((2, 2), (3, 0))
        bounds = allocation_bounds(h, p, setting)
        rows1, rows2 = partition_records(t, bounds, setting)
        assert len(rows1) == 4 and len(rows2) == 0

    def test_invalid_setting_rejected(self):
        t = table_from_counts([10])
        h = histogram(t)
        p = PrivacySpec(np.array([0.2]))
        setting = BucketSetting.of((2, 2), (3, 2))
        bounds = allocation_bounds(h, p, setting)
        with pytest.raises(ConfigError):
            partition_records(t, bounds, setting)

    def test_random_partitions_compose_validly(self):
        rng = np.random.default_rng(41)
        built = 0
        for _ in range(350):
            counts, p = random_instance(rng, max_n=40, max_m=6)
            n = int(counts.sum())
            s1 = int(rng.integers(1, 5))
            s2 = int(rng.integers(s1 + 1, s1 + 6))
            for b2 in range(n // s2 + 1):
                if (n - s2 * b2) % s1:
                    continue
                b1 = (n - s2 * b2) // s1
                setting = BucketSetting.of((s1, b1), (s2, b2))
                if not constraint_report(counts, p, setting):
                    continue
                t = table_from_counts(counts)
                bounds = allocation_bounds(counts, p, setting)
                rows1, rows2 = partition_records(t, bounds, setting)
                assert len(rows1) == setting.groups[0].capacity
                assert len(rows2) == setting.groups[1].capacity
                parts = [(rows1, setting.groups[0]), (rows2, setting.groups[1])]
                a = build_assignment(t, [pt for pt in parts if pt[1].count > 0])
                assert assignment_complies(t, a, p)
                built += 1
                break
        assert built > 60


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_matches_boolean_mask_reference(data):
    m = data.draw(st.integers(1, 6))
    codes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=40))
    n = len(codes)
    table = MicrodataTable.from_codes(
        np.zeros((n, 1)), np.array(codes), ["q"], "sa", [["q0"]],
        [f"s{v}" for v in range(m)])
    if data.draw(st.booleans()):
        rows = None
    else:
        order = data.draw(st.permutations(range(n)))
        rows = np.array(order[:data.draw(st.integers(1, n))], dtype=np.int64)
    h = histogram(table, rows)
    n = int(h.sum())
    # thresholds a little above each value's frequency, so that most
    # drawn tables admit some two-size setting
    slack = np.array(data.draw(st.lists(st.floats(1.0, 3.0), min_size=m,
                                        max_size=m)))
    p = PrivacySpec(np.minimum(1.0, h / n * slack + 0.05))
    s1 = data.draw(st.integers(1, 4))
    s2 = data.draw(st.integers(s1 + 1, s1 + 5))
    candidates = [BucketSetting.of((s1, (n - s2 * b2) // s1), (s2, b2))
                 for b2 in range(n // s2 + 1)
                 if (n - s2 * b2) % s1 == 0]
    valid = [s for s in candidates if constraint_report(h, p, s)]
    event("valid setting" if valid else "no valid setting")
    setting = data.draw(st.sampled_from(valid or candidates or
                                        [BucketSetting.of((s1, 1), (s2, 1))]))
    bounds = allocation_bounds(h, p, setting)

    def outcome(partition):
        try:
            return [part.tolist() for part in partition(table, bounds, setting, rows)]
        except ConfigError as exc:
            return str(exc)

    assert outcome(partition_records) == outcome(partition_by_masks)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_closed_form_partition_matches_drain(data):
    """Random counts (zeros included), per-group caps and bucket counts,
    row subsets in any order: the closed-form partition returns the drain
    loop's rows, or raises its ConfigError text.  Capacities are off by up
    to a bucket either way, so invalid settings and stalls are drawn too."""
    counts = data.draw(st.lists(st.integers(0, 16), min_size=1, max_size=8))
    assume(sum(counts) > 0)
    table = table_from_counts(counts)
    rows = None
    if data.draw(st.booleans()):
        order = data.draw(st.permutations(range(len(table))))
        rows = np.array(order[:data.draw(st.integers(0, len(table)))],
                        dtype=np.int64)
    h = histogram(table, rows)
    n = int(h.sum())
    s1 = data.draw(st.integers(1, 3))
    s2 = data.draw(st.integers(s1 + 1, s1 + 6))
    b2 = data.draw(st.integers(0, n // s2 + 1))
    b1 = max(0, (n - s2 * b2) // s1
             + data.draw(st.sampled_from([0, 0, 0, -1, 1])))
    setting = BucketSetting.of((s1, b1), (s2, b2))
    # caps near each value's count, so that many drawn settings are valid
    upper = np.maximum(0, np.array(counts)[:, None] + np.array(data.draw(
        st.lists(st.lists(st.integers(-4, 3), min_size=2, max_size=2),
                 min_size=len(counts), max_size=len(counts)))))
    bounds = np.minimum(upper, h[:, None])

    def outcome(partition):
        try:
            return [part.tolist() for part in partition(table, bounds, setting, rows)]
        except ConfigError as exc:
            return str(exc)

    expected = outcome(partition_by_masks)
    event(expected if isinstance(expected, str) else "partitioned")
    assert outcome(partition_records) == expected


class TestFlowOracle:
    def test_walkthrough_feasible(self, walkthrough_table, walkthrough_spec):
        h = histogram(walkthrough_table)
        assert flow_feasibility_oracle(h, walkthrough_spec,
                                       BucketSetting.of((4, 9), (14, 1)))

    def test_three_size_gap(self):
        """Extended constraints pass but no assignment exists."""
        h = np.array(THREE_SIZE_COUNTS)
        p = PrivacySpec(np.array(THREE_SIZE_THRESHOLDS))
        rep = constraint_report(h, p, THREE_SIZE_SETTING)
        assert rep.valid, rep.failed()
        assert not flow_feasibility_oracle(h, p, THREE_SIZE_SETTING)

    def test_single_full_bucket(self):
        h = np.array([3, 5])
        p = PrivacySpec(np.ones(2))
        assert flow_feasibility_oracle(h, p, BucketSetting.of((8, 1)))

    def test_capacity_mismatch_is_infeasible(self):
        h = np.array([4])
        p = PrivacySpec(np.ones(1))
        assert not flow_feasibility_oracle(h, p, BucketSetting.of((3, 1)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cut_test_matches_max_flow(data):
    """Zero-count values and groups, capacity mismatches, one to four groups:
    the subset-cut test agrees with max flow, and with constraint_report
    whenever at most two groups are nonempty."""
    counts = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    p = PrivacySpec(np.array(data.draw(st.lists(
        st.integers(2, 20).map(lambda k: k / 20),
        min_size=len(counts), max_size=len(counts)))))
    sizes = data.draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)
                      .map(sorted))
    group_counts = data.draw(st.lists(st.integers(0, 4), min_size=len(sizes),
                                      max_size=len(sizes)))
    setting = BucketSetting.of(*zip(sizes, group_counts))
    if data.draw(st.booleans()):  # match: grow group 0, then pad one value
        shortfall = sum(counts) - setting.capacity
        if shortfall > 0:
            group_counts[0] += -(-shortfall // sizes[0])
            setting = BucketSetting.of(*zip(sizes, group_counts))
        counts[data.draw(st.integers(0, len(counts) - 1))] += \
            setting.capacity - sum(counts)
    h = np.array(counts)
    feasible = flow_feasibility_oracle(h, p, setting)
    event("feasible" if feasible else "capacity mismatch"
          if setting.capacity != h.sum() else "infeasible")
    assert feasible == max_flow_feasible(h, p, setting)
    if sum(g.count > 0 for g in setting) <= 2:
        assert feasible == bool(constraint_report(h, p, setting))


@pytest.mark.parametrize("extra", [0, 1])
def test_cut_test_group_limit(extra):
    """The limit itself is accepted; one group more raises before its
    (m, 2^q) cut matrix, 13 MB here, is built."""
    q = MAX_CUT_GROUPS + extra
    setting = BucketSetting.of(*((s, 1) for s in range(1, q + 1)))
    h = np.array([1] * setting.capacity + [0] * (200 - setting.capacity))
    p = PrivacySpec(np.ones(len(h)))
    if not extra:
        assert flow_feasibility_oracle(h, p, setting)
        return
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=str(MAX_CUT_GROUPS)):
            flow_feasibility_oracle(h, p, setting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_three_size_constraint_numbers():
    """Pin the constructed regression instance to its intended allocations."""
    h = np.array(THREE_SIZE_COUNTS)
    p = PrivacySpec(np.array(THREE_SIZE_THRESHOLDS))
    bounds = allocation_bounds(h, p, THREE_SIZE_SETTING)
    # small values: no slots in sizes 4 and 5, one slot per size-6 bucket
    assert bounds[:10, 0].tolist() == [0] * 10
    assert bounds[:10, 1].tolist() == [0] * 10
    assert bounds[:10, 2].tolist() == [5] * 10
    # unconstrained value: capped by group capacities
    assert bounds[10].tolist() == [20, 20, 20]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_build_assignment_fills_buckets_in_rotation(data):
    """Random parts, zero-count groups and rows in any order included: bucket
    ids run 0..B-1 part-major, each bucket holds exactly its group's size,
    and inside a part each value's per-bucket counts differ by at most one."""
    m = data.draw(st.integers(1, 6), label="m")
    groups = [BucketGroup(size, count) for size, count in data.draw(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)),
                 min_size=1, max_size=4), label="groups")]
    n = sum(g.capacity for g in groups)
    assume(n > 0)
    sa_codes = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                           max_size=n), label="codes"),
                        dtype=np.int32)
    order = np.array(data.draw(st.permutations(range(n)), label="order"),
                     dtype=np.int64)
    table = MicrodataTable.from_codes(
        np.zeros((n, 1), dtype=np.int32), sa_codes, qi_names=["q"],
        sa_name="sa", qi_domains=[["z"]], sa_domain=[f"v{x}" for x in range(m)])
    parts = list(zip(np.split(order, np.cumsum([g.capacity for g in groups])[:-1]),
                     groups))
    bucket_of = build_assignment(table, parts)
    assert bucket_of.dtype == np.int32
    sizes = [g.size for g in groups for _ in range(g.count)]
    assert np.bincount(bucket_of, minlength=len(sizes)).tolist() == sizes
    first = 0
    for rows, group in parts:
        ids = bucket_of[rows] - first
        assert ids.min(initial=0) >= 0 and ids.max(initial=-1) < group.count
        counts = eager_value_counts(ids, sa_codes[rows], group.count, m)
        if group.count:
            assert np.all(counts.max(axis=0) - counts.min(axis=0) <= 1)
        first += group.count


@pytest.mark.parametrize("parts, message", [
    ([([0, 1], BucketGroup(2, 1)), ([2, 3], BucketGroup(2, 0))],
     "records assigned to an empty group"),
    ([([0, 1, 2], BucketGroup(2, 2))], "expects 4 records, got 3"),
    ([([0, 1], BucketGroup(2, 1))], "parts do not cover the table"),
])
def test_build_assignment_refusals(parts, message):
    table = table_from_counts([2, 2])
    with pytest.raises(ConfigError, match=message):
        build_assignment(table, [(np.array(rows), g) for rows, g in parts])


def test_build_assignment_allocates_no_bucket_value_matrix():
    """20k records of 500 values in 900 buckets: a (buckets × values) int64
    matrix alone would take 3.6 MB."""
    table = gen_synthetic(20_000, 500, 0, [8, 8], seed=1)
    rows = np.arange(len(table), dtype=np.int64)
    parts = [(rows[:10_000], BucketGroup(20, 500)),
             (rows[10_000:], BucketGroup(25, 400))]
    tracemalloc.start()
    try:
        a = build_assignment(table, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.max() == 899
    assert peak < 2 << 20
