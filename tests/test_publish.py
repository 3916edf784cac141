"""Tests for table publishing, fake injection and the exclusion attacks."""

import csv
import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SEEDS, dense_negative_associations,
                      spawn_published_st_codes, table_from_counts)

from fprivacy import _streams, core
from fprivacy.core import (
    ConfigError,
    InfeasiblePrivacyError,
    IngestionError,
    histogram,
    ingest_csv,
    linear_privacy_spec,
)
from fprivacy.metrics import gen_synthetic
from fprivacy.optimize import SearchConfig, multi_size_bucketing, two_size_bucketing
from fprivacy.publish import (
    NegAssociationModel,
    PublishedTables,
    check_published_privacy,
    corruption_attack_sim,
    inject_fakes,
    learn_negative_associations,
    publish,
    published_max_ratios,
    read_published,
    release,
    write_published,
)
from fprivacy.validate import (
    Assignment,
    BucketGroup,
    allocation_bounds,
    build_assignment,
    partition_records,
    round_robin_assign,
)

TABLE1 = (
    "Gender,Zipcode,Disease\n"
    "M,54321,Brain Tumor\n"
    "M,54322,Indigestion\n"
    "F,61234,Cancer\n"
    "F,61434,HIV\n"
)


def clinic_table(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(TABLE1)
    return ingest_csv(path, "Disease")


def pair_buckets(table):
    parts = [(np.array([0, 1]), BucketGroup(size=2, count=1)),
             (np.array([2, 3]), BucketGroup(size=2, count=1))]
    return build_assignment(table, parts)


def st_labels_by_bucket(pt):
    return {bid: Counter(pt.sa_domain[c] for c in pt.st_slice(bid))
            for bid in range(1, pt.bucket_count + 1)}


def walkthrough_publication(seed=0):
    table = table_from_counts([1] * 8 + [6] * 4 + [9] * 2,
                              labels=[f"x{i:02d}" for i in range(1, 15)])
    h = histogram(table)
    p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
    res = two_size_bucketing(h, p, SearchConfig.for_spec(p, max_size=14))
    bounds = allocation_bounds(h, p, res.setting)
    rows1, rows2 = partition_records(table, bounds, res.setting)
    parts = list(zip((rows1, rows2), res.setting))
    assignment = build_assignment(table, parts)
    return table, p, publish(table, assignment, seed=seed)


class TestRelease:
    def test_two_mode_matches_the_step_functions(self):
        table, p, expected = walkthrough_publication(seed=3)
        pt = release(table, p, SearchConfig.for_spec(p, max_size=14), seed=3)
        for field in ("qi_codes", "qit_bids", "st_bids", "st_codes"):
            assert np.array_equal(getattr(pt, field), getattr(expected, field))

    def test_refusals(self):
        table, p, _ = walkthrough_publication()
        with pytest.raises(InfeasiblePrivacyError, match="no valid two-size"):
            release(table, p, SearchConfig.for_spec(p, max_size=11))
        with pytest.raises(ConfigError, match="unknown release mode"):
            release(table, p, SearchConfig.for_spec(p, max_size=14),
                    mode="three")


class TestPublish:
    def test_clinic_golden(self, tmp_path):
        table = clinic_table(tmp_path)
        pt = publish(table, pair_buckets(table), seed=3)
        rows = [tuple(pt.qi_domains[j][c] for j, c in enumerate(row))
                for row in pt.qi_codes]
        assert rows == [("M", "54321"), ("M", "54322"),
                        ("F", "61234"), ("F", "61434")]
        assert list(pt.qit_bids) == [1, 1, 2, 2]
        by_bucket = st_labels_by_bucket(pt)
        assert by_bucket[1] == Counter({"Brain Tumor": 1, "Indigestion": 1})
        assert by_bucket[2] == Counter({"Cancer": 1, "HIV": 1})
        assert len(pt.st_bids) == 4 and pt.sigma == 0

    def test_st_length_matches_table_without_fakes(self):
        _, _, pt = walkthrough_publication()
        assert len(pt.st_bids) == 50
        assert pt.bucket_count == 10

    def test_published_ratios_respect_thresholds(self):
        table, p, pt = walkthrough_publication()
        thresholds = {table.sa_domain[i]: float(p.thresholds[i])
                      for i in range(len(table.sa_domain))}
        assert check_published_privacy(pt, thresholds)

    def test_recheck_from_files(self, tmp_path):
        table, p, pt = walkthrough_publication()
        write_published(pt, tmp_path / "out")
        loaded = read_published(tmp_path / "out")
        thresholds = {table.sa_domain[i]: float(p.thresholds[i])
                      for i in range(len(table.sa_domain))}
        assert check_published_privacy(loaded, thresholds)
        # and a violated threshold is caught
        tight = dict(thresholds)
        worst_label = max(published_max_ratios(loaded).items(),
                          key=lambda kv: kv[1])[0]
        tight[worst_label] = 0.01
        assert not check_published_privacy(loaded, tight)

    def test_round_trip_preserves_buckets(self, tmp_path):
        table, _, pt = walkthrough_publication(seed=9)
        pt = inject_fakes(pt, sigma=0)
        write_published(pt, tmp_path / "pub")
        loaded = read_published(tmp_path / "pub")
        assert loaded.qi_names == pt.qi_names
        assert loaded.sa_name == pt.sa_name
        assert list(loaded.qit_bids) == list(pt.qit_bids)
        assert st_labels_by_bucket(loaded) == st_labels_by_bucket(pt)

    def test_seeded_output_is_byte_identical(self, tmp_path):
        table, _, _ = walkthrough_publication()
        h = histogram(table)
        assignment = round_robin_assign(table.sa_codes, h.m, 10)
        for d in ("a", "b"):
            pt = publish(table, assignment, seed=123)
            pt = inject_fakes(pt, sigma=1, seed=77)
            write_published(pt, tmp_path / d)
        for name in ("qit.csv", "st.csv", "fakes_audit.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_large_bucket_among_small_ones(self):
        """A bucket far longer than the rest is shuffled in a block of its
        own, so words are not drawn ahead for the small buckets' lanes; a
        shared block of 1,024 lanes would take about 120 MB of them."""
        sizes = np.array([10] * 1023 + [20000])
        table = table_from_counts([1] * sizes.sum())
        bucket_of = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        assignment = Assignment(bucket_of=bucket_of, bucket_sizes=sizes,
                                sa_codes=table.sa_codes, m=table.sa_domain_size)
        tracemalloc.start()
        try:
            pt = publish(table, assignment, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert pt.st_codes.tolist() == spawn_published_st_codes(
            table.sa_codes, bucket_of, len(sizes), 5).tolist()

    def test_empty_bucket_refused(self, tmp_path):
        table = table_from_counts([1, 1, 1])
        pt = publish(table, Assignment(
            bucket_of=np.array([0, 0, 1]), bucket_sizes=np.array([2, 1, 0]),
            sa_codes=table.sa_codes, m=3))
        with pytest.raises(ConfigError, match="^bucket 3 holds no record"):
            write_published(pt, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_benchmark_shaped_files_skip_the_csv_module(self, tmp_path,
                                                         monkeypatch):
        """csv.writer output of plain labels is split without csv.reader."""
        table = gen_synthetic(3000, 50, 0.0, [8, 8], seed=1)
        path = tmp_path / "input.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*table.qi_names, table.sa_name])
            writer.writerows(
                [*record.qi, record.sa]
                for record in map(table.record, range(len(table))))
        spec = linear_privacy_spec(histogram(table), theta=2.0, intercept=0.04)
        pt = release(table, spec, SearchConfig.for_spec(spec, max_size=50),
                     sigma=2)
        write_published(pt, tmp_path / "release")

        def refuse(*args):
            raise AssertionError("quote-free text went through csv.reader")

        monkeypatch.setattr(core, "read_columns", refuse)
        got = ingest_csv(path, "sa")
        assert (got.qi_domains, got.sa_domain) == \
            (table.qi_domains, table.sa_domain)
        assert np.array_equal(got.qi_codes, table.qi_codes)
        assert np.array_equal(got.sa_codes, table.sa_codes)
        back = read_published(tmp_path / "release")
        assert (back.sigma, back.bucket_count) == (2, pt.bucket_count)
        assert st_labels_by_bucket(back) == st_labels_by_bucket(pt)

    def test_read_errors(self, tmp_path):
        with pytest.raises(IngestionError):
            read_published(tmp_path / "nowhere")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "qit.csv").write_text("attr,BID\nv,notanumber\n")
        (bad / "st.csv").write_text("BID,sa\n1,v\n")
        with pytest.raises(IngestionError):
            read_published(bad)
        # a truncated st.csv no longer covers its bucket's records
        (bad / "qit.csv").write_text("attr,BID\nv,1\nw,1\n")
        with pytest.raises(IngestionError):
            read_published(bad)
        # rows of the wrong width, blank lines included, name file and record
        for qit, st, where in [
                ("attr,BID\nv,1\n\nw,1\n", "BID,sa\n1,v\n1,w\n", "qit.csv:3"),
                ("\nattr,BID\nv,1\n", "BID,sa\n1,v\n", "qit.csv:2"),
                ("attr,BID\nv,x,1\n", "BID,sa\n1,v\n", "qit.csv:2"),
                ("attr,BID\nv,1\n", "BID,sa\n\n1,v\n", "st.csv:2")]:
            (bad / "qit.csv").write_text(qit)
            (bad / "st.csv").write_text(st)
            with pytest.raises(IngestionError, match=f"{where}: expected"):
                read_published(bad)


class TestBucketGenerators:
    """The per-bucket streams are numpy's spawned PCG64 streams, and
    _streams draws from them what Generator.shuffle and Generator.choice do.

    NEP 19 keeps SeedSequence and PCG64 stable, but not Generator's shuffle
    and choice algorithms; if numpy ever changes either, these tests fail
    rather than the published bytes changing silently.
    """

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(0, 3000))
    # 4, 5 and 6 32-bit words: the pool's hash constant steps 4 times more
    # per word past the fourth
    @example(2**128 - 1, 3)
    @example(2**128, 3)
    @example(2**160, 3)
    def test_states_and_draws_match_spawn(self, seed, count):
        children = np.random.SeedSequence(seed).spawn(count)
        keys = np.arange(count)
        states = zip(*(x.tolist() for x in _streams.spawn_states(seed, keys)))
        for child, (s_hi, s_lo, i_hi, i_lo) in zip(children, states,
                                                   strict=True):
            assert np.random.PCG64(child).state["state"] == {
                "state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
        if not count:
            return
        population = np.arange(40, dtype=np.int32)
        shuffled = np.tile(population, count)
        _streams.Streams(seed, keys).shuffle(shuffled, keys * 40,
                                             np.full(count, 40))
        picks = _streams.Streams(seed, keys).choice(np.full(count, 40), 3)
        for b, child in enumerate(children):
            want = population.copy()
            np.random.default_rng(child).shuffle(want)
            assert shuffled[40 * b:40 * b + 40].tolist() == want.tolist()
            reference = np.random.default_rng(child)
            assert picks[b].tolist() == reference.choice(
                population, size=3, replace=False).tolist()

    @settings(max_examples=20, deadline=None)
    @given(SEEDS, st.lists(st.integers(1, 3000), min_size=1, max_size=4))
    def test_words_carry_over_between_batches(self, seed, batches):
        """Words generated in several batches, some over the steps one pass
        takes, continue one PCG64 stream, low half of each output first."""
        streams = _streams.Streams(seed, np.arange(2))
        for count in itertools.accumulate(batches):
            held = len(streams._words)
            streams._reserve(count)
            assert streams._have >= count
            # a buffer that grows at least doubles, so it is copied a few
            # times only
            grown = len(streams._words)
            assert grown == held or grown >= 2 * held
        words = streams._words[:sum(batches)].T
        for lane, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
            raw = np.random.PCG64(child).random_raw(len(words[lane]) // 2 + 1)
            halves = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).ravel()
            assert words[lane].tolist() == halves[:len(words[lane])].tolist()

    @pytest.mark.parametrize("few", [0, 10**9])
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_shuffle_matches_generator_at_mask_edges(self, few, seed):
        """Lengths 0-2, and lengths on and next to powers of two, where
        the rejection mask widens; all lanes in numpy rounds, or each
        alone in Python."""
        lengths = np.array([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33,
                            64, 65, 127, 128, 129, 256, 257, 1025])
        starts = np.cumsum(lengths) - lengths
        data = np.arange(lengths.sum())
        with mock.patch.object(_streams, "_FEW", few):
            _streams.Streams(seed, np.arange(len(lengths))).shuffle(
                data, starts, lengths)
        children = np.random.SeedSequence(seed).spawn(len(lengths))
        for start, length, child in zip(starts, lengths, children):
            want = np.arange(start, start + length)
            np.random.default_rng(child).shuffle(want)
            assert data[start:start + length].tolist() == want.tolist()

    def test_shuffle_hands_lanes_to_randomstate_after_any_word(self):
        """Lanes handed to RandomState.shuffle after an odd and after an
        even number of words, as the rounds leave them for every _FEW up to
        the lane count; then one lane of 100,000 rows and 20 of 10,000."""
        mixed = np.array([2, 3, 5, 8, 13, 21, 34, 55, 89, 144] * 4)
        words = []
        restate = _streams.Streams._restate

        def spy(streams, lane, count):
            words.append(count)
            restate(streams, lane, count)

        cases = [(mixed, few) for few in range(41)]
        cases += [(np.array([100_000]), _streams._FEW),
                  (np.full(20, 10_000), _streams._FEW)]
        for seed, (lengths, few) in enumerate(cases):
            starts = np.cumsum(lengths) - lengths
            data = np.arange(lengths.sum())
            with mock.patch.object(_streams, "_FEW", few), \
                    mock.patch.object(_streams.Streams, "_restate", spy):
                _streams.Streams(seed, np.arange(len(lengths))).shuffle(
                    data, starts, lengths)
            children = np.random.SeedSequence(seed).spawn(len(lengths))
            for start, length, child in zip(starts, lengths, children):
                want = np.arange(start, start + length)
                np.random.default_rng(child).shuffle(want)
                assert data[start:start + length].tolist() == want.tolist()
        assert {count % 2 for count in words} == {0, 1}

    @pytest.mark.parametrize("few, entries, words",
                             [(0, 1, 1), (10**9, 1 << 21, 1 << 18)])
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, case=st.sampled_from([
        ((1, 5), 0),
        # Floyd's algorithm with frequent repeats; a pool of exactly size
        # makes its first draw from 0..0, which reads no word
        ((1, 2, 3, 4, 5), 1), ((3, 4, 5, 6, 8), 3), ((6, 7, 9, 40), 6),
        # 10,000 and 10,001 on both sides of the tail-shuffle rule
        ((9999, 10000, 10001), 200), ((10000, 10001), 201),
        ((10001, 12000, 20000), 401), ((12000,), 300)]))
    def test_choice_matches_generator(self, few, entries, words, seed, case):
        """choice, with every lane in a part of its own and its draws made
        and its words generated a few at a time, or all at once; then a
        shuffle from where choice left each stream."""
        pops, size = case
        lanes = np.arange(len(pops))
        streams = _streams.Streams(seed, lanes)
        with mock.patch.object(_streams, "_POOL_ENTRIES", entries), \
                mock.patch.object(_streams, "_ENTRIES", words):
            picks = streams.choice(np.array(pops), size)
        after = np.tile(np.arange(7), len(pops))
        with mock.patch.object(_streams, "_FEW", few):
            streams.shuffle(after, lanes * 7, np.full(len(pops), 7))
        children = np.random.SeedSequence(seed).spawn(len(pops))
        for lane, (pop, child) in enumerate(zip(pops, children)):
            reference = np.random.default_rng(child)
            assert picks[lane].tolist() == reference.choice(
                pop, size=size, replace=False).tolist()
            want = np.arange(7)
            reference.shuffle(want)
            assert after[7 * lane:7 * lane + 7].tolist() == want.tolist()

    # one lane of the 64 makes a draw that Lemire's rule redraws (about one
    # draw in 2**32 / pool does): in Floyd's algorithm, and in the tail
    # shuffle
    @pytest.mark.parametrize("seed, pop, size", [(19, 9999, 199),
                                                 (61, 12000, 300)])
    def test_choice_redraws_like_generator(self, seed, pop, size):
        lanes = np.arange(64)
        streams = _streams.Streams(seed, lanes)
        with mock.patch.object(_streams.Streams, "_lemire", autospec=True,
                               side_effect=_streams.Streams._lemire) as lemire:
            picks = streams.choice(np.full(64, pop), size)
        # one pass for all lanes, and one more for the lane with a redraw
        assert lemire.call_count == 2
        assert len(lemire.call_args.args[1]) == 1
        after = np.tile(np.arange(7), 64)
        streams.shuffle(after, lanes * 7, np.full(64, 7))
        children = np.random.SeedSequence(seed).spawn(64)
        for lane, child in enumerate(children):
            reference = np.random.default_rng(child)
            assert picks[lane].tolist() == reference.choice(
                pop, size=size, replace=False).tolist()
            want = np.arange(7)
            reference.shuffle(want)
            assert after[7 * lane:7 * lane + 7].tolist() == want.tolist()

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError):
            _streams.Streams(-1, np.arange(1))


class TestInjectFakes:
    def test_sigma_zero_is_identity(self, tmp_path):
        table = clinic_table(tmp_path)
        pt = publish(table, pair_buckets(table), seed=1)
        assert inject_fakes(pt, 0) is pt

    def test_fake_invariants(self):
        table = table_from_counts([1] * 12)
        assignment = round_robin_assign(table.sa_codes, 12, 4)
        pt = publish(table, assignment, seed=4)
        padded = inject_fakes(pt, sigma=2, seed=5)
        assert padded.sigma == 2
        for bid in range(1, 5):
            real = Counter(int(c) for c in pt.st_slice(bid))
            full = Counter(int(c) for c in padded.st_slice(bid))
            assert sum(full.values()) == sum(real.values()) + 2
            assert set(full) <= set(range(12))
            assert max(full.values()) == 1  # distinct within the bucket
            extras = full - real
            assert sorted(extras) == padded.fakes[bid - 1].tolist()
            assert not set(extras) & set(real)

    def test_wide_domain_memory_stays_small(self):
        """A bucket's pool is kept as its sorted exclusions, so memory does
        not grow with buckets x domain; a (5,000 x 20,000) mask alone would
        take 95 MB."""
        m = 20000
        table = table_from_counts([1] * m)
        pt = publish(table, round_robin_assign(table.sa_codes, m, 5000),
                     seed=1)
        caps = dict.fromkeys(table.sa_domain, 1.0)
        tracemalloc.start()
        try:
            padded = inject_fakes(pt, sigma=2, seed=1, thresholds=caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert padded.fakes.shape == (5000, 2)

    def test_duplicate_values_refused(self):
        table = table_from_counts([2, 1, 1])
        assignment = round_robin_assign(table.sa_codes, 3, 1)
        pt = publish(table, assignment, seed=0)
        with pytest.raises(ConfigError, match="bucket 1"):
            inject_fakes(pt, sigma=1)

    def test_infeasible_distinctness_names_bucket(self):
        table = table_from_counts([1, 1, 1])
        assignment = round_robin_assign(table.sa_codes, 3, 1)
        pt = publish(table, assignment, seed=0)
        with pytest.raises(ConfigError, match="bucket 1"):
            inject_fakes(pt, sigma=1)  # domain exhausted: 3 values, all real

    def test_double_injection_rejected(self):
        table = table_from_counts([1] * 6)
        assignment = round_robin_assign(table.sa_codes, 6, 2)
        pt = inject_fakes(publish(table, assignment), sigma=1)
        with pytest.raises(ConfigError):
            inject_fakes(pt, sigma=1)

    def tight_cap_publication(self):
        """One bucket of three distinct values; domain leaves five spares."""
        table = table_from_counts([1, 1, 1] + [0] * 5)
        assignment = round_robin_assign(table.sa_codes, 8, 1)
        return table, publish(table, assignment, seed=2)

    def test_thresholds_steer_fakes_away_from_tight_caps(self):
        table, pt = self.tight_cap_publication()
        # a fake lands at weight 1/(3+1); values capped below that are barred
        caps = {label: 1.0 for label in table.sa_domain}
        for tight in ("s003", "s004", "s005"):
            caps[tight] = 0.2
        seen = set()
        for seed in range(20):
            padded = inject_fakes(pt, sigma=1, seed=seed, thresholds=caps)
            seen.update(padded.fakes[0].tolist())
            assert check_published_privacy(padded, caps)
        assert seen == {6, 7}

    def test_thresholds_can_exhaust_candidates(self):
        table, pt = self.tight_cap_publication()
        caps = {label: 0.2 for label in table.sa_domain}
        for real in ("s000", "s001", "s002"):
            caps[real] = 1.0
        with pytest.raises(ConfigError, match="bucket 1 has only 0"):
            inject_fakes(pt, sigma=1, thresholds=caps)

    def test_thresholds_must_cover_domain(self):
        table, pt = self.tight_cap_publication()
        caps = {label: 1.0 for label in table.sa_domain[:-1]}
        with pytest.raises(ConfigError, match="s007"):
            inject_fakes(pt, sigma=1, thresholds=caps)

    def large_bucket_caps(self, spare_cap):
        """One bucket of 1999 distinct values; the one spare value, s1999,
        gets spare_cap and every real value 1.0."""
        table = table_from_counts([1] * 1999 + [0],
                                  labels=[f"s{i:04d}" for i in range(2000)])
        pt = publish(table, round_robin_assign(table.sa_codes, 2000, 1), seed=3)
        caps = {label: 1.0 for label in table.sa_domain}
        caps["s1999"] = spare_cap
        return pt, caps

    def test_fake_filter_refuses_what_the_recheck_rejects(self):
        # (1 - 1.5e-9)/2000 * 2000 + 1e-9 floors to 0: the recheck admits no
        # copy of s1999 in the padded 2000-row bucket, so it is no fake
        pt, caps = self.large_bucket_caps((1 - 1.5e-9) / 2000)
        with pytest.raises(ConfigError,
                           match="bucket 1 has only 0 admissible fake values"):
            inject_fakes(pt, sigma=1, thresholds=caps)

    def test_fake_filter_admits_what_the_recheck_accepts(self):
        pt, caps = self.large_bucket_caps((1 - 0.5e-9) / 2000)
        padded = inject_fakes(pt, sigma=1, thresholds=caps)
        assert padded.fakes.tolist() == [[1999]]
        assert check_published_privacy(padded, caps)


class TestNegativeAssociations:
    def build_split_table(self):
        # qi value q0 only ever shares buckets with SA codes 0/1; q1 with 2/3
        sa = np.array([0, 1, 0, 1, 2, 3, 2, 3], dtype=np.int32)
        qi = np.array([[0], [0], [0], [0], [1], [1], [1], [1]], dtype=np.int32)
        from fprivacy.core import MicrodataTable

        table = MicrodataTable.from_codes(
            qi, sa, qi_names=["region"], sa_name="sa",
            qi_domains=[["q0", "q1"]], sa_domain=["a", "b", "c", "d"])
        parts = [(np.arange(0, 4), BucketGroup(size=2, count=2)),
                 (np.arange(4, 8), BucketGroup(size=2, count=2))]
        return table, build_assignment(table, parts)

    def test_zero_cooccurrence_flagged(self):
        table, assignment = self.build_split_table()
        pt = publish(table, assignment, seed=6)
        model = learn_negative_associations(pt, threshold=0.5)
        assert {(0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1)} <= model.flagged
        assert (0, 0, 0) not in model.flagged

    def test_independent_data_unflagged(self):
        rng = np.random.default_rng(12)
        n, m = 400, 4
        counts = np.full(m, n // m)
        table = table_from_counts(counts)
        perm = rng.permutation(n)
        # random buckets of 4 over a shuffled table: co-occurrence is dense
        parts = [(perm[i:i + 4], BucketGroup(size=4, count=1))
                 for i in range(0, n, 4)]
        pt = publish(table, build_assignment(table, parts), seed=8)
        model = learn_negative_associations(pt, threshold=0.1)
        assert len(model.flagged) == 0

    def test_model_steers_fakes(self):
        # six SA values; codes 4/5 never share a bucket with q0, codes 0/1
        # never with q1, codes 2/3 co-occur with both
        sa = np.array([0, 1, 2, 3, 4, 5, 2, 3], dtype=np.int32)
        qi = np.array([[0], [0], [0], [0], [1], [1], [1], [1]], dtype=np.int32)
        from fprivacy.core import MicrodataTable

        table = MicrodataTable.from_codes(
            qi, sa, qi_names=["region"], sa_name="sa",
            qi_domains=[["q0", "q1"]],
            sa_domain=["a", "b", "c", "d", "e", "f"])
        parts = [(np.arange(0, 4), BucketGroup(size=2, count=2)),
                 (np.arange(4, 8), BucketGroup(size=2, count=2))]
        pt = publish(table, build_assignment(table, parts), seed=6)
        model = learn_negative_associations(pt, threshold=0.5)
        assert {(0, 0, 4), (0, 1, 0)} <= model.flagged
        padded = inject_fakes(pt, sigma=1, seed=2, model=model)
        for bid in range(1, padded.bucket_count + 1):
            rows = np.flatnonzero(padded.qit_bids == bid)
            qi_values = {int(z) for z in padded.qi_codes[rows, 0]}
            for fake in padded.fakes[bid - 1].tolist():
                for z in qi_values:
                    assert (0, z, fake) not in model.flagged

    def test_bad_threshold(self):
        table, assignment = self.build_split_table()
        pt = publish(table, assignment, seed=6)
        with pytest.raises(ConfigError):
            learn_negative_associations(pt, threshold=0.0)

    def test_memory_does_not_grow_with_buckets_times_domain(self):
        """Co-occurrences are counted over the (bucket, value) pairs the
        release holds; dense (2,000 x 5,000) presence matrices and their
        int64 copies took 87 MB here."""
        table = gen_synthetic(50000, 5000, 0.0, [8, 8], seed=0)
        spec = linear_privacy_spec(histogram(table), theta=2.0,
                                   intercept=0.04)
        pt = release(table, spec, SearchConfig.for_spec(spec, max_size=50))
        assert (pt.bucket_count, pt.m) == (2000, 5000)
        tracemalloc.start()
        try:
            model = learn_negative_associations(pt, threshold=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert model.flagged
        assert model.flagged == dense_negative_associations(pt, 1.0)


def test_keys_past_int32_round_trip(tmp_path):
    """st_value_counts holds int32 arrays, but every key built from them is
    int64: with 45,000 buckets and m = 50,000, bucket id * m passes 2**31,
    where an int32 key wraps and read_published refuses the fakes."""
    B, m = 45_000, 50_000
    # bucket b holds codes 2b, 2b + 1 and the fake 2b + 2, all mod m, and
    # QI value (b // 7) % 2 for both its records
    codes = (np.arange(3 * B) - np.repeat(np.arange(B), 3)) % m
    st_codes = codes.astype(np.int32)
    fakes = st_codes[2::3, None].copy()
    qi = (np.arange(B) // 7 % 2).astype(np.int32)
    pt = PublishedTables(
        qi_names=("q",), sa_name="sa", qi_codes=np.repeat(qi, 2)[:, None],
        qit_bids=np.repeat(np.arange(1, B + 1, dtype=np.int32), 2),
        st_codes=st_codes, qi_domains=(("q0", "q1"),),
        sa_domain=tuple(f"v{x:05d}" for x in range(m)), fakes=fakes)
    write_published(pt, tmp_path)
    back = read_published(tmp_path)
    assert np.array_equal(back.fakes, fakes)
    bids, codes, counts, sizes = back.st_value_counts
    assert {a.dtype for a in (bids, codes, counts, sizes)} == {np.dtype(np.int32)}
    keys = np.multiply(bids, m, dtype=np.int64) + codes
    assert keys[-1] > 2**31
    assert np.array_equal(keys, np.sort(
        np.repeat(np.arange(1, B + 1), 3) * m + st_codes))
    assert (counts == 1).all() and (sizes == 3).all()
    assert check_published_privacy(back, dict.fromkeys(back.sa_domain, 0.34))
    assert set(published_max_ratios(back).values()) == {1 / 3}
    observed = np.zeros((2, m), dtype=np.int64)
    np.add.at(observed, (np.repeat(qi, 3), st_codes), 1)
    expected = np.outer(np.bincount(qi), np.bincount(st_codes)) / B
    assert learn_negative_associations(back, 1.0).flagged == {
        (0, int(z), int(x)) for z, x in zip(*np.nonzero(observed < expected))}


class TestCorruption:
    def five_distinct_bucket(self, sigma):
        table = table_from_counts([1] * 5 + [0] * 3)
        assignment = round_robin_assign(table.sa_codes, 8, 1)
        pt = publish(table, assignment, seed=10)
        if sigma:
            pt = inject_fakes(pt, sigma=sigma, seed=11)
        return pt

    def test_single_exclusion_plain(self):
        pt = self.five_distinct_bucket(sigma=0)
        report = corruption_attack_sim(pt, {0: 0})
        bucket = report.bucket(1)
        assert bucket.remaining_real == 4
        assert bucket.real_certainty == 1.0
        assert all(p == pytest.approx(1 / 4) for _, p in bucket.value_probs)
        assert report.max_record_prob == pytest.approx(1 / 4)

    def test_fake_padding_limits_certainty(self):
        pt = self.five_distinct_bucket(sigma=2)
        report = corruption_attack_sim(pt, {i: i for i in range(4)})
        bucket = report.bucket(1)
        assert bucket.remaining_real == 1
        assert bucket.real_certainty == pytest.approx(1 / 3)
        assert all(p == pytest.approx(1 / 3) for _, p in bucket.value_probs)
        # independent enumeration over fake placements among the 3 survivors
        survivors = [code for code, _ in bucket.value_probs]
        placements = list(itertools.combinations(survivors, 2))
        assert len(placements) == math.comb(3, 2)
        for value in survivors:
            real_fraction = sum(value not in fakes for fakes in placements)
            assert real_fraction / len(placements) == pytest.approx(
                bucket.real_certainty)

    def test_no_corruption_matches_baseline(self):
        table = table_from_counts([2, 1, 1])
        assignment = round_robin_assign(table.sa_codes, 3, 1)
        pt = publish(table, assignment, seed=1)
        report = corruption_attack_sim(pt, {})
        bucket = report.bucket(1)
        probs = dict(bucket.value_probs)
        assert probs[0] == pytest.approx(2 / 4)
        assert probs[1] == pytest.approx(1 / 4)
        assert report.max_record_prob == pytest.approx(1 / 2)

    def test_wrong_claimed_value_rejected(self):
        pt = self.five_distinct_bucket(sigma=0)
        with pytest.raises(ConfigError):
            corruption_attack_sim(pt, {0: 7})

    def test_exhausted_bucket_excluded_from_max(self):
        table = table_from_counts([1, 1, 1, 1])
        parts = [(np.array([0, 1]), BucketGroup(size=2, count=1)),
                 (np.array([2, 3]), BucketGroup(size=2, count=1))]
        pt = publish(table, build_assignment(table, parts), seed=2)
        report = corruption_attack_sim(pt, {0: 0, 1: 1})
        assert report.bucket(1).remaining_real == 0
        assert report.max_record_prob == pytest.approx(1 / 2)


class TestMultiSizePipeline:
    def test_multi_size_leaves_publish_cleanly(self):
        table = table_from_counts([1] * 8 + [6] * 4 + [9] * 2,
                                  labels=[f"x{i:02d}" for i in range(1, 15)])
        h = histogram(table)
        p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
        leaves = multi_size_bucketing(table, None, p,
                                      SearchConfig.for_spec(p, max_size=14))
        pt = publish(table, build_assignment(table, leaves), seed=3)
        thresholds = {table.sa_domain[i]: float(p.thresholds[i])
                      for i in range(len(table.sa_domain))}
        assert check_published_privacy(pt, thresholds)
