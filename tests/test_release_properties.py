"""Property tests of the release path against per-bucket Counter references.

Random small tables are split into random buckets, published, optionally
padded with fakes, and every bucket-level computation (the derived ST
layout, max ratios, the privacy recheck, fake injection and its refusals,
true and estimated query answers) is compared with a plain loop over the
rows written here.  Tables of labels that CSV must quote are written and
read back, through the release files and through ingestion.  The whole
release sequence, in both modes, must refuse or publish within the
thresholds and the size range.
"""

import csv
import io
import json
import re
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (SEEDS, dense_negative_associations,
                      read_audit_per_entry, read_table_csv_module,
                      spawn_injected_fakes, spawn_published_st_codes,
                      write_published_csv_writer)

from fprivacy import _streams
from fprivacy import publish as publish_module
from fprivacy.cli import _align_published
from fprivacy.core import (ConfigError, InfeasiblePrivacyError,
                           IngestionError, MicrodataTable, PrivacySpec,
                           ingest_csv, read_columns, read_table,
                           smallest_admitting_size, split_plain, value_slots)
from fprivacy.metrics import (CountQuery, answer_estimated, answer_true,
                              estimated_count_cube, true_count_cube)
from fprivacy.optimize import SearchConfig
from fprivacy.publish import (PublishedTables, _parse_bids, _read_audit,
                              bucket_pairs, check_published_privacy, inject_fakes,
                              learn_negative_associations, publish,
                              published_max_ratios, read_published, release,
                              write_published)

# thresholds on and next to the k/s boundaries of small buckets, plus a
# spread of arbitrary ones
THRESHOLDS = st.one_of(
    st.sampled_from([1.0, 0.5, 1 / 3, 0.3333333333, 0.25, 2 / 3, 0.4, 0.2]),
    st.floats(0.05, 1.0))

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def releases(draw):
    """(table, published pair, thresholds by label) of a random bucketing."""
    m = draw(st.integers(1, 8))
    qi_sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    n = draw(st.integers(1, 30))
    column = lambda size: st.lists(st.integers(0, size - 1),  # noqa: E731
                                   min_size=n, max_size=n)
    sa_codes = np.array(draw(column(m)), dtype=np.int32)
    qi_codes = np.array([draw(column(size)) for size in qi_sizes],
                        dtype=np.int32).T.reshape(n, len(qi_sizes))
    buckets = draw(st.integers(1, n))
    bucket_of = np.array(draw(column(buckets)), dtype=np.int32)
    table = MicrodataTable.from_codes(
        qi_codes, sa_codes,
        qi_names=[f"q{j}" for j in range(len(qi_sizes))], sa_name="sa",
        qi_domains=[[f"z{k}" for k in range(size)] for size in qi_sizes],
        sa_domain=[f"v{x}" for x in range(m)])
    pt = publish(table, bucket_of, draw(st.integers(0, 2**32 - 1)))
    thresholds = {label: draw(THRESHOLDS) for label in table.sa_domain}
    return table, pt, thresholds


def st_counters(pt):
    """Bucket id -> Counter of its ST codes, fakes included."""
    by_bucket = defaultdict(Counter)
    for bid, code in zip(pt.st_bids.tolist(), pt.st_codes.tolist()):
        by_bucket[bid][code] += 1
    return by_bucket


def qi_rows(pt):
    """Bucket id -> list of its records' QI code tuples."""
    rows = defaultdict(list)
    for bid, row in zip(pt.qit_bids.tolist(), pt.qi_codes.tolist()):
        rows[bid].append(tuple(row))
    return rows


def expected_fake_failure(pt, sigma, caps=None, flagged=frozenset()):
    """The message inject_fakes must raise, or None when every bucket can
    take sigma fakes."""
    counters, rows = st_counters(pt), qi_rows(pt)
    for bid in range(1, pt.bucket_count + 1):
        real = counters[bid]
        size = sum(real.values())
        if any(count > 1 for count in real.values()):
            return f"bucket {bid} holds duplicate sensitive values"
        admissible = [
            x for x in range(pt.m)
            if x not in real
            and (caps is None or 1 <= caps[x] * (size + sigma) + 1e-9)
            and not any((j, z, x) in flagged
                        for row in rows[bid] for j, z in enumerate(row))]
        if len(admissible) < sigma:
            return (f"bucket {bid} has only {len(admissible)} admissible "
                    f"fake values but sigma={sigma}")
    return None


def padded_or_refused(pt, sigma, seed, caps, flagged=frozenset()):
    """inject_fakes, checked against the reference; None when refused."""
    expected = expected_fake_failure(pt, sigma, caps, flagged)
    thresholds = {label: caps[x] for x, label in enumerate(pt.sa_domain)}
    if expected is not None:
        with pytest.raises(ConfigError, match=expected):
            inject_fakes(pt, sigma, seed=seed, flagged=flagged,
                         thresholds=thresholds)
        return None
    padded = inject_fakes(pt, sigma, seed=seed, flagged=flagged,
                          thresholds=thresholds)
    before, after, rows = st_counters(pt), st_counters(padded), qi_rows(pt)
    for bid in range(1, pt.bucket_count + 1):
        fakes = padded.fakes[bid - 1].tolist()
        assert len(set(fakes)) == sigma
        assert after[bid] == before[bid] + Counter(fakes)
        for x in fakes:
            assert x not in before[bid]
            assert 1 <= caps[x] * sum(after[bid].values()) + 1e-9
            assert not any((j, z, x) in flagged
                           for row in rows[bid] for j, z in enumerate(row))
    return padded


@st.composite
def releases_with_fakes(draw):
    """Like releases, padded with 0-2 fakes per bucket when admissible."""
    table, pt, thresholds = draw(releases())
    sigma = draw(st.integers(0, 2))
    if sigma:
        caps = [thresholds[label] for label in pt.sa_domain]
        padded = padded_or_refused(pt, sigma, draw(st.integers(0, 99)), caps)
        if padded is not None:
            pt = padded
    return table, pt, thresholds


@st.composite
def queries(draw, table):
    attrs = draw(st.sets(st.integers(0, len(table.qi_domains) - 1)))
    predicates = tuple(
        (attr, tuple(sorted(draw(st.sets(
            st.integers(0, len(table.qi_domains[attr]) - 1), min_size=1)))))
        for attr in sorted(attrs))
    sa_values = draw(st.sets(st.integers(0, len(table.sa_domain) - 1),
                             min_size=1))
    return CountQuery(qi_predicates=predicates,
                      sa_values=tuple(sorted(sa_values)))


@SETTINGS
@given(releases_with_fakes())
def test_max_ratios_and_recheck_match_reference(release):
    _, pt, thresholds = release
    worst, within = {}, True
    for counter in st_counters(pt).values():
        size = sum(counter.values())
        for code, count in counter.items():
            label = pt.sa_domain[code]
            worst[label] = max(worst.get(label, 0.0), count / size)
            within &= count <= thresholds[label] * size + 1e-9
    assert published_max_ratios(pt) == worst
    assert check_published_privacy(pt, thresholds) is within


@SETTINGS
@given(st.data())
def test_answers_match_reference(data):
    table, pt, _ = data.draw(releases_with_fakes())
    query = data.draw(queries(table))
    admitted = dict(query.qi_predicates)

    def matches(row):
        return all(row[attr] in values for attr, values in admitted.items())

    act = sum(1 for row, sa in zip(table.qi_codes.tolist(),
                                   table.sa_codes.tolist())
              if matches(row) and sa in query.sa_values)
    assert answer_true(table, query) == act
    counters = st_counters(pt)
    est = sum(sum(map(matches, rows))
              * sum(counters[bid][x] for x in query.sa_values)
              / sum(counters[bid].values())
              for bid, rows in qi_rows(pt).items())
    assert answer_estimated(pt, query) == pytest.approx(est, rel=1e-12,
                                                        abs=1e-12)


def reference_answers(table, pt, query):
    """(true count, within-bucket uniformity estimate) of query, by a loop
    over the rows and the per-bucket Counters."""
    admitted = dict(query.qi_predicates)

    def matches(row):
        return all(row[attr] in values for attr, values in admitted.items())

    act = sum(1 for row, sa in zip(table.qi_codes.tolist(),
                                   table.sa_codes.tolist())
              if matches(row) and sa in query.sa_values)
    counters = st_counters(pt)
    est = sum(sum(map(matches, rows))
              * sum(counters[bid][x] for x in query.sa_values)
              / sum(counters[bid].values())
              for bid, rows in qi_rows(pt).items())
    return act, est


@st.composite
def indexed_cases(draw):
    """(table, release, queries): buckets of distinct SA values padded with
    0-2 fakes, QI codes drawn from a prefix of each domain, so that some
    values and cells occur nowhere; when a code of the first QI attribute
    does, one query admits only such codes."""
    m = draw(st.integers(3, 8))
    buckets = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                     max_size=m - 2, unique=True),
                            min_size=1, max_size=8))
    sa_codes = np.array([x for bucket in buckets for x in bucket],
                        dtype=np.int32)
    qi_sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    qi_codes = np.array(
        [draw(st.lists(st.integers(0, draw(st.integers(0, size - 1))),
                       min_size=len(sa_codes), max_size=len(sa_codes)))
         for size in qi_sizes], dtype=np.int32).T
    table = MicrodataTable.from_codes(
        qi_codes, sa_codes, qi_names=[f"q{j}" for j in range(len(qi_sizes))],
        sa_name="sa",
        qi_domains=[[f"z{k}" for k in range(size)] for size in qi_sizes],
        sa_domain=[f"v{x}" for x in range(m)])
    bucket_of = np.repeat(np.arange(len(buckets), dtype=np.int32),
                          [len(bucket) for bucket in buckets])
    pt = publish(table, bucket_of, draw(st.integers(0, 99)))
    pt = inject_fakes(pt, draw(st.integers(0, 2)),
                      seed=draw(st.integers(0, 99)))
    pool = draw(st.lists(queries(table), min_size=1, max_size=4))
    unused = sorted(set(range(qi_sizes[0])) - set(qi_codes[:, 0].tolist()))
    if unused:
        pool.append(CountQuery(qi_predicates=((0, tuple(unused)),),
                               sa_values=(0,)))
    return table, pt, pool


@SETTINGS
@given(indexed_cases())
def test_indexed_answers_match_reference(case):
    table, pt, pool = case
    true_index = true_count_cube(table)
    estimated_index = estimated_count_cube(pt)
    # a cube is built exactly when cells x values fit in the rows
    cells = len({tuple(row) for row in table.qi_codes.tolist()})
    assert (true_index is None) == (cells * table.sa_domain_size > len(table))
    assert (estimated_index is None) == (cells * pt.m > len(pt))
    event(f"sigma={pt.sigma}, " + ("scan" if true_index is None else "cube"))
    for query in pool:
        act, est = reference_answers(table, pt, query)
        event("ST lacks an admitted value" if any(
            x not in pt.st_codes for x in query.sa_values) else "ST has all")
        event("no cell admitted" if not any(
            all(row[a] in v for a, v in query.qi_predicates)
            for row in table.qi_codes.tolist()) else "some cell admitted")
        assert answer_true(table, query, index=true_index) == act
        assert answer_estimated(pt, query, index=estimated_index) == \
            pytest.approx(est, rel=1e-12, abs=1e-12)


@SETTINGS
@given(st.one_of(releases_with_fakes(), indexed_cases()))
def test_derived_layout_matches_reference(release):
    table, pt, _ = release
    B, sigma = pt.bucket_count, pt.sigma
    qit_counts = Counter(pt.qit_bids.tolist())
    assert pt.bucket_sizes.tolist() == [qit_counts[b] for b in range(1, B + 1)]
    # ST bucket ids as they were stored before being derived: the QIT ids
    # in stable sorted order, then sigma more rows per bucket
    ranked = pt.qit_bids[np.argsort(pt.qit_bids, kind="stable")].tolist()
    st_bids = [bid for bid in range(1, B + 1)
               for _ in range(ranked.count(bid) + sigma)]
    assert pt.st_bids.tolist() == st_bids
    assert pt.st_bounds.tolist() == np.searchsorted(
        st_bids, np.arange(1, B + 2)).tolist()
    pairs = Counter(zip(st_bids, pt.st_codes.tolist()))
    bids, codes, counts, sizes = (a.tolist() for a in pt.st_value_counts)
    assert list(zip(bids, codes, counts, sizes)) == [
        (b, x, count, qit_counts[b] + sigma)
        for (b, x), count in sorted(pairs.items())]
    event(f"sigma={sigma}, " + ("round trip" if pt.bucket_sizes.all()
                                 else "empty bucket"))
    if not pt.bucket_sizes.all():
        # the read-back bucket count would stop at the last QIT bucket
        empty = pt.bucket_sizes.tolist().index(0) + 1
        with tempfile.TemporaryDirectory() as out, pytest.raises(
                ConfigError, match=f"^bucket {empty} holds no record"):
            write_published(pt, out)
        return
    with tempfile.TemporaryDirectory() as out:
        write_published(pt, out)
        back = _align_published(read_published(out), table)
    assert np.array_equal(back.fakes, pt.fakes)
    assert st_counters(back) == st_counters(pt)


@SETTINGS
@given(st.data())
def test_model_steered_fakes_avoid_flagged_values(data):
    _, pt, thresholds = data.draw(releases())
    triples = st.tuples(
        st.integers(0, len(pt.qi_domains) - 1),
        st.integers(0, max(len(d) for d in pt.qi_domains) - 1),
        st.integers(0, pt.m - 1))
    flagged = frozenset(data.draw(st.lists(triples, max_size=12)))
    caps = [thresholds[label] for label in pt.sa_domain]
    padded_or_refused(pt, data.draw(st.integers(1, 2)),
                      data.draw(st.integers(0, 99)), caps, flagged)


@SETTINGS
@given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.data())
def test_bucket_pairs_cover_every_pair_in_whole_entries(rows_per_bucket,
                                                        data):
    bounds = np.concatenate(([0], np.cumsum(rows_per_bucket)))
    bids = np.array(data.draw(st.lists(
        st.integers(1, len(rows_per_bucket)), max_size=12)), dtype=np.int64)
    chunk = data.draw(st.integers(1, 10))
    expected = [(k, row) for k, b in enumerate(bids.tolist())
                for row in range(bounds[b - 1], bounds[b])]
    got, next_lo = [], 0
    for lo, hi, per, rows in bucket_pairs(bids, bounds, chunk):
        assert lo == next_lo < hi
        assert len(rows) <= chunk or hi == lo + 1
        got += zip(np.repeat(np.arange(lo, hi), per).tolist(), rows.tolist())
        next_lo = hi
    assert next_lo == len(bids)
    assert got == expected


@SETTINGS
@given(releases_with_fakes(), st.one_of(THRESHOLDS, st.floats(0.01, 1.0)),
       st.integers(1, 8))
def test_negative_associations_match_dense_reference(release, threshold,
                                                     chunk):
    _, pt, _ = release
    # small chunks split the join between bincount calls
    pairs = lambda *args: bucket_pairs(*args, chunk=chunk)  # noqa: E731
    with mock.patch.object(publish_module, "bucket_pairs", pairs):
        flagged = learn_negative_associations(pt, threshold)
    assert flagged == dense_negative_associations(pt, threshold)


def near_fractions(max_size):
    """Thresholds on and within 1e-9 of k/s for 1 <= k <= s <= max_size,
    among them the guard's own edge (k - 1e-9)/s."""
    def near(s, k):
        return st.one_of(st.just(k / s), st.just((k - 1e-9) / s),
                         st.floats(k / s - 1e-9, min(1.0, k / s + 1e-9)))
    return st.integers(1, max_size).flatmap(
        lambda s: st.integers(1, s).flatmap(lambda k: near(s, k)))


@SETTINGS
@given(st.lists(near_fractions(2500), min_size=1, max_size=6))
def test_smallest_admitting_size_matches_scan(thresholds):
    spec = PrivacySpec(np.array(thresholds))
    expected, size = [0] * spec.m, 0
    while not all(expected):
        size += 1
        for x, slots in enumerate(value_slots(spec, size).tolist()):
            if slots >= 1 and not expected[x]:
                expected[x] = size
    assert smallest_admitting_size(spec.thresholds).tolist() == expected


@st.composite
def distinct_releases(draw):
    """(published pair, thresholds by label) of buckets of distinct values,
    every real value within its threshold, thresholds near k/s."""
    m = draw(st.integers(2, 12))
    buckets = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                     max_size=m - 1, unique=True),
                            min_size=1, max_size=4))
    sa_codes = np.array([x for bucket in buckets for x in bucket],
                        dtype=np.int32)
    n = len(sa_codes)
    qi_codes = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                      max_size=n)), dtype=np.int32)[:, None]
    table = MicrodataTable.from_codes(
        qi_codes, sa_codes, qi_names=["q0"], sa_name="sa",
        qi_domains=[["z0", "z1", "z2"]], sa_domain=[f"v{x}" for x in range(m)])
    bucket_of = np.repeat(np.arange(len(buckets), dtype=np.int32),
                          [len(bucket) for bucket in buckets])
    pt = publish(table, bucket_of, draw(st.integers(0, 99)))
    smallest_home = {x: min(len(b) for b in buckets if x in b)
                     for x in set(sa_codes.tolist())}
    thresholds = {
        f"v{x}": draw(near_fractions(m + 2).filter(
            lambda t, s=smallest_home.get(x, 1): 1 <= t * s + 1e-9))
        for x in range(m)}
    return pt, thresholds


@SETTINGS
@given(distinct_releases(), st.integers(1, 2), st.integers(0, 99))
def test_padded_release_passes_recheck_after_round_trip(release, sigma,
                                                        seed):
    pt, thresholds = release
    assert check_published_privacy(pt, thresholds)
    try:
        padded = inject_fakes(pt, sigma, seed=seed, thresholds=thresholds)
    except ConfigError as refused:
        assert "admissible fake values" in str(refused)
        return
    with tempfile.TemporaryDirectory() as out:
        write_published(padded, out)
        back = read_published(out)
    assert back.sigma == sigma
    assert check_published_privacy(back, thresholds)


# separators, quotes and line breaks that CSV must quote, the empty string,
# non-ASCII text, and arbitrary short strings
LABELS = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r\n", ' "a,b"\r\n', "naïve",
                     "日本語"]),
    st.text(max_size=5))


@st.composite
def label_tables(draw, labels=LABELS):
    """(QI names, SA name, QI label rows, SA labels) with few distinct labels
    per column, so labels repeat across rows."""
    d = draw(st.integers(0, 2))
    names = draw(st.lists(labels, min_size=d + 1, max_size=d + 1, unique=True))
    pools = [draw(st.lists(labels, min_size=1, max_size=4, unique=True))
             for _ in range(d + 1)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                         min_size=1, max_size=20))
    return names[:-1], names[-1], [row[:-1] for row in rows], \
        [row[-1] for row in rows]


def row_labels(pt):
    """Each QIT row's QI labels and bucket id, in record order."""
    return [(tuple(domain[c] for domain, c in zip(pt.qi_domains, row)), bid)
            for row, bid in zip(pt.qi_codes.tolist(), pt.qit_bids.tolist())]


def bucket_labels(pt):
    """Bucket id -> (its ST labels in row order, its sorted fake labels)."""
    return {bid: ([pt.sa_domain[c] for c in pt.st_slice(bid)],
                  sorted(pt.sa_domain[c] for c in pt.fakes[bid - 1]))
            for bid in range(1, pt.bucket_count + 1)}


def published_buckets(data, labels):
    """A release of a drawn label table, every bucket non-empty, with 0-2
    fakes per bucket when they fit."""
    qi_names, sa_name, qi_rows, sa_values = data.draw(label_tables(labels))
    table = MicrodataTable.from_rows(qi_rows, sa_values, qi_names, sa_name)
    # every bucket is non-empty, as in any release the optimizer builds
    buckets = data.draw(st.integers(1, len(table)))
    bucket_of = np.array(data.draw(st.permutations(
        [i % buckets for i in range(len(table))])), dtype=np.int32)
    pt = publish(table, bucket_of, data.draw(st.integers(0, 99)))
    sigma = data.draw(st.integers(0, 2))
    if sigma:
        pt = padded_or_refused(pt, sigma, data.draw(st.integers(0, 99)),
                               [1.0] * pt.m) or pt
    return pt


@SETTINGS
@given(st.data())
def test_bucket_streams_match_spawn_reference(data):
    """publish and inject_fakes draw what numpy's spawned generators draw,
    for sigma 0 to 6, size-1 buckets, and pools cut by thresholds and by
    flagged triples."""
    m = data.draw(st.integers(1, 16))
    n = data.draw(st.integers(1, 24))
    qi_sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    # distinct codes cycled, or any codes; buckets holding a value twice
    # refuse fakes
    sa_codes = np.array(data.draw(st.permutations(np.arange(n) % m) | st.lists(
        st.integers(0, m - 1), min_size=n, max_size=n)), dtype=np.int32)
    qi_codes = np.array([data.draw(st.lists(st.integers(0, size - 1),
                                            min_size=n, max_size=n))
                         for size in qi_sizes], dtype=np.int32).T
    table = MicrodataTable.from_codes(
        qi_codes, sa_codes, qi_names=[f"q{j}" for j in range(len(qi_sizes))],
        sa_name="sa", qi_domains=[[f"z{k}" for k in range(size)]
                                  for size in qi_sizes],
        sa_domain=[f"v{x}" for x in range(m)])
    # mostly buckets of one or two records, so fakes fit
    buckets = data.draw(st.integers(max(1, n // 2), n))
    bucket_of = np.array(data.draw(st.permutations(
        [i % buckets for i in range(n)])), dtype=np.int32)
    seed = data.draw(SEEDS)
    # every lane in numpy rounds, or (so few lanes) each alone in Python
    few = mock.patch.object(_streams, "_FEW", data.draw(st.sampled_from(
        [0, _streams._FEW])))
    with few:
        pt = publish(table, bucket_of, seed)
    assert pt.st_codes.tolist() == spawn_published_st_codes(
        table.sa_codes, bucket_of, buckets, seed).tolist()

    sigma = data.draw(st.integers(0, 6))
    caps = data.draw(st.none() | st.lists(THRESHOLDS, min_size=m, max_size=m))
    flagged = data.draw(st.none() | st.frozensets(st.tuples(
        st.integers(0, 2), st.integers(-1, 4), st.integers(-1, m)),
        max_size=12)) or frozenset()
    thresholds = None if caps is None else dict(zip(pt.sa_domain, caps))
    if sigma == 0:
        assert inject_fakes(pt, 0, seed=seed, flagged=flagged,
                            thresholds=thresholds) is pt
        return
    expected = spawn_injected_fakes(pt, sigma, seed, caps, flagged)
    if expected is None:
        event("fakes refused")
        with pytest.raises(ConfigError, match="bucket"):
            inject_fakes(pt, sigma, seed=seed, flagged=flagged,
                         thresholds=thresholds)
        return
    with few:
        padded = inject_fakes(pt, sigma, seed=seed, flagged=flagged,
                              thresholds=thresholds)
    event(f"sigma {sigma}")
    st_codes, fakes = expected
    assert padded.st_codes.tolist() == st_codes.tolist()
    assert padded.fakes.tolist() == fakes.tolist()


@SETTINGS
@given(st.data())
def test_written_release_reads_back_label_for_label(data):
    pt = published_buckets(data, LABELS)
    with tempfile.TemporaryDirectory() as out:
        write_published(pt, out)
        back = read_published(out)
    assert (back.qi_names, back.sa_name, back.sigma, back.bucket_count) == \
        (pt.qi_names, pt.sa_name, pt.sigma, pt.bucket_count)
    assert row_labels(back) == row_labels(pt)
    assert bucket_labels(back) == bucket_labels(pt)


@SETTINGS
@given(label_tables(), st.integers(0, 2))
def test_ingest_of_written_labels_matches_from_rows(labels, sa_at):
    qi_names, sa_name, qi_rows, sa_values = labels
    sa_at = min(sa_at, len(qi_names))

    def with_sa(qi, sa):
        return [*qi[:sa_at], sa, *qi[sa_at:]]

    expected = MicrodataTable.from_rows(qi_rows, sa_values, qi_names, sa_name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(with_sa(qi_names, sa_name))
            writer.writerows(map(with_sa, qi_rows, sa_values))
        got = ingest_csv(path, sa_name)
    assert (got.qi_names, got.sa_name, got.qi_domains, got.sa_domain) == \
        (expected.qi_names, expected.sa_name, expected.qi_domains,
         expected.sa_domain)
    assert np.array_equal(got.qi_codes, expected.qi_codes)
    assert np.array_equal(got.sa_codes, expected.sa_codes)



def read_columns_per_cell(reader, width, path):
    """Reference reader: one append per cell into its column."""
    columns = [[] for _ in range(width)]
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise IngestionError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        for column, value in zip(columns, row):
            column.append(value)
    return columns


@SETTINGS
@given(st.data())
def test_read_columns_matches_per_cell_reference(data):
    width = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(LABELS, min_size=width, max_size=width),
                              max_size=12))
    fault = data.draw(st.sampled_from([None, "ragged", "blank"]))
    at = data.draw(st.integers(0, len(rows)))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"c{j}" for j in range(width)])
    for i, row in enumerate(rows + [None]):
        if i == at and fault == "blank":
            buf.write("\r\n")
        elif i == at and fault == "ragged":
            ragged = data.draw(st.integers(0, 5).filter(lambda w: w != width))
            writer.writerow(data.draw(st.lists(LABELS, min_size=ragged,
                                               max_size=ragged)))
        if row is not None:
            writer.writerow(row)

    def outcome(read):
        reader = csv.reader(io.StringIO(buf.getvalue(), newline=""))
        next(reader)
        try:
            return read(reader, width, "t.csv")
        except IngestionError as exc:
            return str(exc)

    got = outcome(read_columns)
    event("raised" if isinstance(got, str) else "columns")
    assert got == outcome(read_columns_per_cell)
    if fault is None:
        assert got == [[row[j] for row in rows] for j in range(width)]


# labels CSV must quote, a lone CR among them, and ones it need not
WRITTEN_LABELS = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", "a\rb", "naïve",
                     "日本語", " x "]),
    st.text(max_size=5))


@SETTINGS
@given(st.data())
def test_written_release_matches_csv_writer_bytes(data):
    pt = published_buckets(data, WRITTEN_LABELS)
    with tempfile.TemporaryDirectory() as out, \
            tempfile.TemporaryDirectory() as ref:
        write_published(pt, out)
        write_published_csv_writer(pt, ref)
        for name in ("qit.csv", "st.csv"):
            assert (Path(out) / name).read_bytes() == \
                (Path(ref) / name).read_bytes()


@SETTINGS
@given(st.data())
def test_written_audit_matches_json_dump(data):
    """fakes_audit.json holds json.dump's bytes of the audit, for labels
    JSON escapes, sigma 0, and over 9 buckets, whose ids sort as strings
    ("10" before "9")."""
    domain = data.draw(st.lists(
        st.sampled_from(['"', "\\", "a\\\"b", "\x00", "\x1f\n\t", "naïve",
                         "日本語", "\U0001f600", ""]) | st.text(max_size=4),
        min_size=1, max_size=8, unique=True))
    buckets = data.draw(st.integers(1, 25))
    sigma = data.draw(st.integers(0, len(domain)))
    fakes = np.sort([data.draw(st.permutations(range(len(domain))))[:sigma]
                     for _ in range(buckets)], axis=1).astype(np.int32)
    pt = PublishedTables(
        qi_names=("q",), sa_name="sa",
        qi_codes=np.zeros((buckets, 1), dtype=np.int32),
        qit_bids=np.arange(1, buckets + 1, dtype=np.int32),
        st_codes=np.zeros(buckets * (1 + sigma), dtype=np.int32),
        qi_domains=(("z",),), sa_domain=tuple(domain),
        fakes=fakes.reshape(buckets, sigma))
    audit = {"sigma": sigma,
             "buckets": {str(b + 1): [domain[c] for c in row]
                         for b, row in enumerate(fakes.tolist())}}
    want = io.StringIO()
    json.dump(audit, want, indent=2, sort_keys=True)
    with tempfile.TemporaryDirectory() as out:
        write_published(pt, out)
        got = (Path(out) / "fakes_audit.json").read_bytes()
    assert got == (want.getvalue() + "\n").encode()


# plain labels of up to 20 UTF-8 bytes: empty, ASCII and not, some over 8 or
# 16 bytes, some sharing an 8- or 16-byte prefix, some of 4-byte characters
PLAIN_LABELS = st.one_of(
    st.sampled_from(["", " ", "a", "abcdefgh", "abcdefgh0", "abcdefghé",
                     "abcdefghijklmnop", "abcdefghijklmnopq",
                     "abcdefghijklmnopqrst", "é", "日本語", "\uffff",
                     "\U00010000", "\U0001f600x"]),
    st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n\x00'),
            max_size=20).map(
        lambda s: s.encode()[:20].decode("utf-8", errors="ignore")))


@st.composite
def csv_texts(draw):
    """UTF-8 bytes of a header-ed CSV of plain labels, LF or CRLF line ends,
    with or without a last line end, with blank lines, ragged rows, no rows
    or no text at all; now and then a '"', NUL, lone CR or invalid byte."""
    width = draw(st.integers(1, 4))
    pool = draw(st.lists(PLAIN_LABELS, min_size=1, max_size=6, unique=True))
    rarely = st.sampled_from([False] * 9 + [True])
    row = st.lists(st.sampled_from(pool), min_size=width, max_size=width)
    lines = [draw(st.lists(PLAIN_LABELS, min_size=width, max_size=width)),
             *draw(st.lists(row, min_size=0 if draw(rarely) else 1,
                            max_size=12))]
    fault = draw(st.sampled_from([None, None, "blank", "ragged"]))
    if fault:
        count = 0 if fault == "blank" else \
            draw(st.integers(1, 5).filter(lambda w: w != width))
        lines.insert(draw(st.integers(1, len(lines))), draw(st.lists(
            st.sampled_from(pool), min_size=count, max_size=count)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    if draw(rarely):
        text = ""
    special = draw(st.sampled_from([None] * 4 + ['"', "\x00", "\r"]))
    if special:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + special + text[at:]
    data = text.encode()
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_outcome(read, path):
    """A reader's header and (dtype, codes, domain) per column, or its
    IngestionError text."""
    try:
        header, columns = read(path)
    except IngestionError as exc:
        return str(exc)
    return header, [(codes.dtype, codes.tolist(), domain)
                    for codes, domain in columns]


@SETTINGS
@given(csv_texts())
def test_read_table_matches_csv_module_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        got = read_outcome(read_table, path)
        assert got == read_outcome(read_table_csv_module, path)
    event(re.sub(r"\d+", "N", got.split(": ")[-1]) if isinstance(got, str)
          else "columns")
    try:
        plain = split_plain(data, path) is not None
    except IngestionError:
        plain = True
    text = data.decode("utf-8", errors="replace")
    if '"' in text or "\x00" in text or re.search("\r(?!\n)", text):
        assert not plain
    elif b"\xff" not in data and text.split("\n")[0].rstrip("\r"):
        event("split with numpy")
        assert plain


# ids that write_published never writes, each refused or read by int(),
# and text of digits and their ASCII neighbours '/' and ':'
MALFORMED_IDS = st.one_of(
    st.sampled_from(["01", "+1", " 1", "1_0", "-1", "", "1234567890",
                     "\u0661", "12345678:", "1234:6789", "9/"]),
    st.text("/0123456789:", max_size=11))


@st.composite
def bid_files(draw):
    """(bytes, BID column index) of a release-shaped CSV: canonical ids up
    to 999,999,999, at times with a malformed one among them."""
    ids = draw(st.lists(st.one_of(st.integers(1, 30),
                                  st.integers(1, 999_999_999)).map(str),
                        min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        ids.insert(draw(st.integers(0, len(ids))), draw(MALFORMED_IDS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    column = draw(st.sampled_from([0, -1]))
    rows = [[bid, "v"][::1 if column == 0 else -1] for bid in ["BID", *ids]]
    return "".join(",".join(row) + end for row in rows).encode(), column


def bid_outcome(path, column, id_column):
    """The ids _parse_bids gives for the BID column of read_table(path,
    id_column), or the IngestionError text."""
    try:
        return _parse_bids(*read_table(path, id_column)[1][column],
                           path).tolist()
    except IngestionError as exc:
        return str(exc)


@SETTINGS
@given(bid_files())
@example((b"BID,v\r\n999999999,v\r\n12345678:,v\r\n", 0))
@example((b"v,BID\nv,1234:6789\n", -1))
@example((b"v,BID\nv,123456789\nv,1000000000\n", -1))
def test_integer_bid_reader_matches_parse_bids(case):
    data, column = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "st.csv"
        path.write_bytes(data)
        assert bid_outcome(path, column, column) == \
            bid_outcome(path, column, None)
        canonical = read_table(path, column)[1][column][1] is None
    assert canonical == all(
        re.fullmatch("[1-9][0-9]{0,8}", line.split(",")[column])
        for line in data.decode().splitlines()[1:])
    event("integer path" if canonical else "interned")


AUDIT_DOMAIN = ("v0", "v1", "v2", "v3", "v4")


@st.composite
def audit_texts(draw):
    """(fakes_audit.json text, bucket count): sigma distinct labels per
    bucket, in a random key order, with up to four faults among a stray
    key, a missing bucket, an entry that is not a list, a label st.csv
    lacks, a repeated label in place of the last, a missing label and an
    odd sigma."""
    bucket_count = draw(st.integers(1, 5))
    sigma = draw(st.integers(0, 3))
    buckets = {str(b): draw(st.permutations(AUDIT_DOMAIN))[:sigma]
               for b in range(1, bucket_count + 1)}
    audit = {"buckets": buckets, "sigma": sigma}
    bids = st.sampled_from(sorted(buckets))
    for fault in draw(st.lists(st.integers(0, 6), max_size=4)):
        bid = draw(bids)
        if fault == 0:
            buckets[draw(st.sampled_from(["0", "01", "x", str(
                bucket_count + 1)]))] = []
        elif fault == 1:
            buckets.pop(bid, None)
        elif fault == 2:
            buckets[bid] = draw(st.sampled_from(["v0", 3, None, {}]))
        elif isinstance(buckets.get(bid), list) and fault == 3:
            buckets[bid] = [*buckets[bid], draw(st.sampled_from(
                ["zz", "", 1, None, True, ["v0"], {"v": 0}]))]
        elif isinstance(buckets.get(bid), list) and fault == 4:
            buckets[bid] = [*buckets[bid][:-1], *buckets[bid][:1]]
        elif isinstance(buckets.get(bid), list) and fault == 5:
            buckets[bid] = buckets[bid][1:]
        elif fault == 6:
            audit["sigma"] = draw(st.sampled_from([True, -1, "2", 2.0, 9]))
    order = draw(st.permutations(sorted(buckets)))
    audit["buckets"] = {bid: buckets[bid] for bid in order}
    return json.dumps(audit), bucket_count


def audit_outcome(read, path, bucket_count):
    """The fakes a reader returns, as lists, or its IngestionError text."""
    try:
        return read(path, AUDIT_DOMAIN, bucket_count).tolist()
    except IngestionError as exc:
        return str(exc)


@SETTINGS
@given(audit_texts())
def test_audit_checks_match_per_entry_reference(case):
    text, bucket_count = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fakes_audit.json"
        path.write_text(text)
        got = audit_outcome(_read_audit, path, bucket_count)
        assert got == audit_outcome(read_audit_per_entry, path,
                                    bucket_count)
    event(re.sub(r"\d+|'[^']*'|\[.*\]|\{.*\}|/\S+", "N",
                 got.split(": ", 1)[-1]) if isinstance(got, str) else "fakes")


@st.composite
def release_inputs(draw):
    """(table, spec, cfg) of a small table, random thresholds and sizes."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 60))
    sa_codes = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    table = MicrodataTable.from_codes(
        np.zeros((n, 1), dtype=np.int32), np.array(sa_codes, dtype=np.int32),
        qi_names=["q0"], sa_name="sa", qi_domains=[["z0"]],
        sa_domain=[f"v{x}" for x in range(m)])
    spec = PrivacySpec(np.array([draw(THRESHOLDS) for _ in range(m)]))
    max_size = draw(st.integers(2, 12))
    return table, spec, SearchConfig(draw(st.integers(1, max_size - 1)),
                                     max_size)


@SETTINGS
@given(release_inputs(), st.integers(0, 2))
def test_release_refuses_or_stays_within_bounds(inputs, sigma):
    table, spec, cfg = inputs
    thresholds = dict(zip(table.sa_domain, spec.thresholds.tolist()))
    refused = {}
    for mode in ("two", "multi"):
        try:
            pt = release(table, spec, cfg, mode, sigma, seed=1)
        except InfeasiblePrivacyError:
            refused[mode] = True
            continue
        except ConfigError as exc:
            assert sigma > 0 and re.match(
                r"bucket \d+ (holds duplicate|has only)", str(exc))
            refused[mode] = True
            continue
        refused[mode] = False
        assert check_published_privacy(pt, thresholds)
        sizes = pt.bucket_sizes
        assert cfg.min_size <= sizes.min() and sizes.max() <= cfg.max_size
    event(f"refused {sorted(m for m in refused if refused[m])}")
    if sigma == 0:
        assert refused["two"] == refused["multi"]
