"""Tests for loss/MSE accounting, query workloads and synthetic tables."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clinic_table, pair_buckets
from fprivacy.core import (ConfigError, MicrodataTable, histogram,
                           linear_privacy_spec)
from fprivacy import metrics
from fprivacy.metrics import (CountQuery, answer_estimated, answer_true,
                              estimated_count_cube, gen_queries,
                              gen_synthetic, loss_of, mse_of, relative_error,
                              true_count_cube, write_xy_dat)
from fprivacy.optimize import SearchConfig
from fprivacy.publish import (PublishedTables, bucket_pairs, inject_fakes,
                              publish, release)
from fprivacy.validate import BucketGroup, BucketSetting, build_assignment


def clinic_publication(tmp_path, seed=0):
    table = clinic_table(tmp_path)
    return table, publish(table, pair_buckets(table), seed=seed)


def walkthrough_publication(table, spec, seed=0):
    return release(table, spec, SearchConfig.for_spec(spec), seed=seed)


def qi_code(table, attr, label):
    return table.qi_domains[attr].index(label)


def sa_code(table, label):
    return table.sa_domain.index(label)


class TestLoss:

    def test_walkthrough_golden(self):
        setting = BucketSetting.of((4, 9), (14, 1))
        assert loss_of(setting) == 250

    def test_single_bucket(self):
        assert loss_of([50]) == 49 ** 2

    def test_singletons_are_free(self):
        assert loss_of([1] * 17) == 0

    def test_accepts_groups(self):
        groups = [BucketGroup(size=4, count=9), BucketGroup(size=14, count=1)]
        assert loss_of(groups) == 250

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12),
           st.lists(st.integers(1, 30), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_disjoint_unions(self, a, b):
        assert loss_of(a) + loss_of(b) == loss_of(a + b)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigError):
            loss_of([3, 0, 2])


class TestMse:

    def test_walkthrough_golden(self):
        setting = BucketSetting.of((4, 9), (14, 1))
        assert mse_of(setting, 50) == pytest.approx(250 / 49)

    def test_zero_under_two_records(self):
        assert mse_of([1], 1) == 0.0
        assert mse_of([], 0) == 0.0

    def test_rejects_coverage_mismatch(self):
        with pytest.raises(ConfigError):
            mse_of([5, 5], 11)

    @given(st.lists(st.integers(1, 15), min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, sizes):
        n = sum(sizes)
        value = mse_of(sizes, n)
        assert 0 <= value <= n - 1
        # extremes are attained by all-singletons and one giant bucket
        assert mse_of([1] * n, n) == 0
        assert mse_of([n], n) == n - 1


class TestGenQueries:

    DOMAINS = ([tuple(f"g{i}" for i in range(6)),
                tuple(f"z{i}" for i in range(20))],
               tuple(f"d{i}" for i in range(15)))

    def test_pool_size(self):
        qi_doms, sa_dom = self.DOMAINS
        pool = gen_queries(qi_doms, sa_dom, 5000, 0.1, seed=4)
        assert len(pool) == 5000

    def test_deterministic(self):
        qi_doms, sa_dom = self.DOMAINS
        a = gen_queries(qi_doms, sa_dom, 200, 0.1, seed=4)
        b = gen_queries(qi_doms, sa_dom, 200, 0.1, seed=4)
        c = gen_queries(qi_doms, sa_dom, 200, 0.1, seed=5)
        assert a == b
        assert a != c

    def test_dimensionality_range(self):
        qi_doms, sa_dom = self.DOMAINS
        pool = gen_queries(qi_doms, sa_dom, 400, 0.2, seed=1)
        dims = {len(q.qi_predicates) for q in pool}
        assert dims == {1, 2}

    def test_predicate_widths_follow_selectivity(self):
        qi_doms, sa_dom = self.DOMAINS
        sel = 0.07
        for query in gen_queries(qi_doms, sa_dom, 300, sel, seed=2):
            frac = sel ** (1.0 / (len(query.qi_predicates) + 1))
            for attr, values in query.qi_predicates:
                dom = len(qi_doms[attr])
                assert len(values) == min(dom, math.ceil(frac * dom))
                assert len(set(values)) == len(values)
                assert all(0 <= v < dom for v in values)
            want = min(len(sa_dom), math.ceil(frac * len(sa_dom)))
            assert len(query.sa_values) == want

    def test_full_selectivity_admits_everything(self, tmp_path):
        table = clinic_table(tmp_path)
        pool = gen_queries(table.qi_domains, table.sa_domain, 50, 1.0, seed=3)
        for query in pool:
            for attr, values in query.qi_predicates:
                assert len(values) == len(table.qi_domains[attr])
            assert len(query.sa_values) == len(table.sa_domain)
            assert answer_true(table, query) == len(table)

    def test_rejects_bad_arguments(self):
        qi_doms, sa_dom = self.DOMAINS
        with pytest.raises(ConfigError):
            gen_queries(qi_doms, sa_dom, 10, 0.0, seed=0)
        with pytest.raises(ConfigError):
            gen_queries(qi_doms, sa_dom, 10, 1.5, seed=0)
        with pytest.raises(ConfigError):
            gen_queries(qi_doms, sa_dom, 0, 0.5, seed=0)
        with pytest.raises(ConfigError):
            gen_queries([], sa_dom, 10, 0.5, seed=0)

    def test_empty_predicates_rejected(self):
        with pytest.raises(ConfigError):
            CountQuery(qi_predicates=((0, ()),), sa_values=(1,))
        with pytest.raises(ConfigError):
            CountQuery(qi_predicates=(), sa_values=())


class TestAnswers:

    def hiv_query(self, table):
        return CountQuery(
            qi_predicates=(
                (0, (qi_code(table, 0, "F"),)),
                (1, (qi_code(table, 1, "61234"), qi_code(table, 1, "61434"))),
            ),
            sa_values=(sa_code(table, "HIV"),))

    def test_clinic_estimate_golden(self, tmp_path):
        # the second bucket holds both F records but only one HIV row,
        # so the estimate spreads 2 QI matches over half the bucket
        table, pt = clinic_publication(tmp_path)
        query = self.hiv_query(table)
        assert answer_true(table, query) == 1
        assert answer_estimated(pt, query) == pytest.approx(1.0)

    def test_clinic_no_match(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        query = CountQuery(
            qi_predicates=(
                (0, (qi_code(table, 0, "M"),)),
                (1, (qi_code(table, 1, "61234"), qi_code(table, 1, "61434"))),
            ),
            sa_values=(sa_code(table, "HIV"),))
        assert answer_true(table, query) == 0
        assert answer_estimated(pt, query) == 0.0

    def test_single_zipcode_spreads_over_bucket(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        query = CountQuery(
            qi_predicates=((1, (qi_code(table, 1, "61234"),)),),
            sa_values=(sa_code(table, "Cancer"),))
        assert answer_true(table, query) == 1
        assert answer_estimated(pt, query) == pytest.approx(0.5)

    def test_sa_trivial_is_exact_without_fakes(self, walkthrough_table,
                                               walkthrough_spec):
        pt = walkthrough_publication(walkthrough_table, walkthrough_spec)
        rng = np.random.default_rng(8)
        full_sa = tuple(range(len(walkthrough_table.sa_domain)))
        for _ in range(25):
            width = int(rng.integers(1, 4))
            values = tuple(sorted(
                int(v) for v in rng.choice(3, size=width, replace=False)))
            query = CountQuery(qi_predicates=((0, values),),
                               sa_values=full_sa)
            act = answer_true(walkthrough_table, query)
            assert answer_estimated(pt, query) == pytest.approx(act)

    def test_fakes_dilute_nontrivial_estimates(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        noisy = inject_fakes(pt, sigma=1, seed=3)
        query = self.hiv_query(table)
        # one fake joins the two real rows, so the HIV share drops to 1/3
        assert answer_estimated(noisy, query) == pytest.approx(2 / 3)
        trivial = CountQuery(
            qi_predicates=query.qi_predicates,
            sa_values=tuple(range(len(table.sa_domain))))
        assert answer_estimated(noisy, trivial) == pytest.approx(2.0)

    def test_cube_of_overflowing_qi_domains_matches_scan(self):
        # 10^4-value domains on five attributes: their product overflows
        # int64, so cells are found by comparing whole rows
        rng = np.random.default_rng(6)
        qi_codes = rng.choice([0, 9999], size=(200, 5)).astype(np.int32)
        table = MicrodataTable.from_codes(
            qi_codes, rng.integers(0, 2, 200, dtype=np.int32),
            qi_names=[f"q{j}" for j in range(5)], sa_name="sa",
            qi_domains=[[f"z{k}" for k in range(10_000)]] * 5,
            sa_domain=["a", "b"])
        index = true_count_cube(table)
        assert index is not None
        for attr, code in ((0, 0), (2, 9999), (4, 5)):
            query = CountQuery(qi_predicates=((attr, (code,)),),
                               sa_values=(1,))
            assert answer_true(table, query, index=index) == \
                answer_true(table, query)

    def test_cube_join_across_chunks_matches_scan(self, monkeypatch):
        # 7-pair chunks split buckets between bincount calls; a QIT
        # triple's pairs stay in one call
        table = gen_synthetic(3000, 20, 0.0, [4, 4], seed=2)
        spec = linear_privacy_spec(histogram(table), theta=8, intercept=0.02)
        pt = walkthrough_publication(table, spec, seed=1)
        pt = inject_fakes(pt, sigma=1, seed=1)
        monkeypatch.setattr(metrics, "_JOIN_CHUNK", 7)
        index = estimated_count_cube(pt)
        assert index is not None
        for query in gen_queries(table.qi_domains, table.sa_domain, 50, 0.1,
                                 seed=4):
            assert answer_estimated(pt, query, index=index) == pytest.approx(
                answer_estimated(pt, query), rel=1e-12, abs=1e-12)


    def test_one_buckets_pairs_span_two_chunks(self, monkeypatch):
        # bucket 1 holds cells a and b, three records each, over values
        # x, y, z: its QIT triples make 3 pairs each, and 3-pair chunks
        # join them in two bincount calls
        table = MicrodataTable.from_codes(
            np.array([[0], [0], [0], [1], [1], [1], [0], [1]], np.int32),
            np.array([0, 1, 2, 0, 1, 2, 0, 1], np.int32), qi_names=["q"],
            sa_name="sa", qi_domains=[["a", "b"]], sa_domain=["x", "y", "z"])
        pt = publish(table, build_assignment(table, [
            (np.arange(6), BucketGroup(size=6, count=1)),
            (np.arange(6, 8), BucketGroup(size=2, count=1))]))
        joined = []

        def pairs(bids, bounds, chunk):
            for lo, hi, per, rows in bucket_pairs(bids, bounds, chunk):
                joined.append(bids[lo:hi].tolist())
                yield lo, hi, per, rows

        monkeypatch.setattr(metrics, "bucket_pairs", pairs)
        monkeypatch.setattr(metrics, "_JOIN_CHUNK", 3)
        index = estimated_count_cube(pt)
        assert joined == [[1], [1], [2], [2]]
        # bucket 1 gives each cell 3 * 2/6 of every value; bucket 2's
        # records (a, x) and (b, y) give each cell 1/2 of x and of y
        assert index.counts.tolist() == [[1.5, 1.5, 1.0], [1.5, 1.5, 1.0]]
        for cell, value in itertools.product(range(2), range(3)):
            query = CountQuery(qi_predicates=((0, (cell,)),),
                               sa_values=(value,))
            assert answer_estimated(pt, query, index=index) == \
                answer_estimated(pt, query)


def relabel_buckets(pt, perm):
    """Return an equivalent publication with bucket ids permuted by perm
    (a permutation of 0..bucket_count-1 applied to zero-based ids)."""
    mapping = np.asarray(perm, dtype=np.int32) + 1
    qit_bids = mapping[pt.qit_bids - 1]
    st_bids = mapping[pt.st_bids - 1]
    order = np.argsort(st_bids, kind="stable")
    fakes = np.empty_like(pt.fakes)
    fakes[mapping - 1] = pt.fakes
    return dataclasses.replace(
        pt, qit_bids=qit_bids, st_codes=pt.st_codes[order], fakes=fakes)


class TestRelativeError:

    def test_zero_error_pool(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        query = TestAnswers().hiv_query(table)
        report = relative_error([query], table, pt)
        assert report.re_mean == pytest.approx(0.0)
        assert report.query_count == 1
        assert report.per_query == ((1, pytest.approx(1.0)),)
        assert report.loss == 2  # two buckets of 2
        assert report.mse == pytest.approx(2 / 3)

    def test_point_one_golden(self):
        # one bucket of 120: 100 (A,x), 8 (B,x), 12 (B,y); the A-and-x
        # query has act 100 and est 100 * 108/120 = 90, so RE is 0.10
        rows = [("A",)] * 100 + [("B",)] * 20
        sa = ["x"] * 108 + ["y"] * 12
        table = MicrodataTable.from_rows(rows, sa, ["g"], "s")
        parts = [(np.arange(120), BucketGroup(size=120, count=1))]
        pt = publish(table, build_assignment(table, parts), seed=0)
        query = CountQuery(qi_predicates=((0, (qi_code(table, 0, "A"),)),),
                           sa_values=(sa_code(table, "x"),))
        assert answer_true(table, query) == 100
        assert answer_estimated(pt, query) == pytest.approx(90.0)
        report = relative_error([query], table, pt)
        assert report.re_mean == pytest.approx(0.10)

    def test_mixed_pool_mean(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        exact = TestAnswers().hiv_query(table)
        half = CountQuery(
            qi_predicates=((1, (qi_code(table, 1, "61234"),)),),
            sa_values=(sa_code(table, "Cancer"),))
        report = relative_error([exact, half], table, pt)
        assert report.re_mean == pytest.approx(0.25)
        assert len(report.per_query) == 2

    def test_zero_act_queries_excluded(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        impossible = CountQuery(
            qi_predicates=((0, (qi_code(table, 0, "M"),)),),
            sa_values=(sa_code(table, "HIV"),))
        good = TestAnswers().hiv_query(table)
        report = relative_error([impossible, good], table, pt)
        assert report.query_count == 2
        assert len(report.per_query) == 1
        assert report.re_mean == pytest.approx(0.0)

    def test_all_zero_pool_rejected(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        impossible = CountQuery(
            qi_predicates=((0, (qi_code(table, 0, "M"),)),),
            sa_values=(sa_code(table, "HIV"),))
        with pytest.raises(ConfigError):
            relative_error([impossible], table, pt)

    def test_invariant_under_bucket_relabeling(self, walkthrough_table,
                                               walkthrough_spec):
        pt = walkthrough_publication(walkthrough_table, walkthrough_spec)
        perm = np.random.default_rng(11).permutation(pt.bucket_count)
        shuffled = relabel_buckets(pt, perm)
        pool = gen_queries(walkthrough_table.qi_domains,
                           walkthrough_table.sa_domain, 120, 0.4, seed=6)
        before = relative_error(pool, walkthrough_table, pt)
        after = relative_error(pool, walkthrough_table, shuffled)
        assert before.re_mean == pytest.approx(after.re_mean)
        assert before.loss == after.loss
        for (a0, e0), (a1, e1) in zip(before.per_query, after.per_query):
            assert a0 == a1
            assert e0 == pytest.approx(e1)

    def test_report_to_dict(self, tmp_path):
        table, pt = clinic_publication(tmp_path)
        report = relative_error([TestAnswers().hiv_query(table)], table, pt)
        payload = report.to_dict()
        assert payload["loss"] == 2
        assert payload["query_count"] == 1
        assert payload["answered_queries"] == 1
        assert 0 <= payload["re_mean"] <= 1

    def test_realistic_workload_stays_accurate(self):
        table = gen_synthetic(2000, 20, 0.8, [12, 12, 12], seed=3)
        spec = linear_privacy_spec(histogram(table), theta=8, intercept=0.02)
        pt = walkthrough_publication(table, spec, seed=5)
        pool = gen_queries(table.qi_domains, table.sa_domain, 300, 0.05,
                           seed=7)
        report = relative_error(pool, table, pt)
        assert 0 <= report.re_mean < 0.25


class TestGenSynthetic:

    def test_every_value_present(self):
        for seed in range(4):
            table = gen_synthetic(500, 40, 1.5, [6], seed=seed)
            counts = histogram(table)
            assert counts.min() >= 1
            assert counts.sum() == 500

    def test_zero_exponent_is_near_uniform(self):
        table = gen_synthetic(20_000, 50, 0.0, [10], seed=5)
        freqs = histogram(table) / len(table)
        assert freqs.min() >= 0.7 / 50
        assert freqs.max() <= 1.3 / 50

    def test_rare_end_frequency_target(self):
        # tuned exponent puts the rarest value near 0.18% of the table
        table = gen_synthetic(100_000, 50, 1.35, [10, 10], seed=1)
        freqs = histogram(table) / len(table)
        assert 0.0012 <= freqs.min() <= 0.0025

    def test_common_end_frequency_target(self):
        # tuned exponent puts the most common value near 7.5%
        table = gen_synthetic(100_000, 50, 0.48, [10, 10], seed=1)
        freqs = histogram(table) / len(table)
        assert 0.065 <= freqs.max() <= 0.085

    def test_skew_grows_with_exponent(self):
        tops = []
        for exponent in (0.0, 0.5, 1.0):
            table = gen_synthetic(30_000, 30, exponent, [8], seed=2)
            tops.append(histogram(table).max())
        assert tops[0] < tops[1] < tops[2]

    def test_reproducible_and_domain_shapes(self):
        a = gen_synthetic(5000, 20, 0.8, [5, 7], seed=9)
        b = gen_synthetic(5000, 20, 0.8, [5, 7], seed=9)
        assert np.array_equal(a.sa_codes, b.sa_codes)
        assert np.array_equal(a.qi_codes, b.qi_codes)
        assert len(a.qi_domains) == 2
        assert len(a.qi_domains[0]) == 5
        assert len(a.qi_domains[1]) == 7
        assert a.qi_codes[:, 0].max() < 5
        assert a.qi_codes[:, 1].max() < 7
        assert len(a.sa_domain) == 20

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            gen_synthetic(5, 10, 1.0, [4], seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(100, 10, -0.5, [4], seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(100, 10, 1.0, [], seed=0)


class TestWriteXyDat:

    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.dat"
        write_xy_dat(path, [2, 4, 8], [0.5, 0.25, 0.125], comment="theta mse")
        lines = path.read_text().splitlines()
        assert lines[0] == "# theta mse"
        parsed = [tuple(float(tok) for tok in line.split())
                  for line in lines[1:]]
        assert parsed == [(2.0, 0.5), (4.0, 0.25), (8.0, 0.125)]

    def test_rejects_length_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            write_xy_dat(tmp_path / "bad.dat", [1, 2], [3])
