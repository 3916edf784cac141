"""Property tests of the release path against per-bucket Counter references.

Random small tables are split into random buckets, published, optionally
padded with fakes, and every bucket-level computation (max ratios, the
privacy recheck, fake injection and its refusals, true and estimated query
answers) is compared with a plain loop over the rows written here.  Tables
of labels that CSV must quote are written and read back, through the release
files and through ingestion.
"""

import csv
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprivacy.core import ConfigError, MicrodataTable, ingest_csv
from fprivacy.metrics import CountQuery, answer_estimated, answer_true
from fprivacy.publish import (NegAssociationModel, check_published_privacy,
                              inject_fakes, publish, published_max_ratios,
                              read_published, write_published)
from fprivacy.validate import Assignment

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
    pt = publish_buckets(table, bucket_of, buckets,
                         draw(st.integers(0, 2**32 - 1)))
    thresholds = {label: draw(THRESHOLDS) for label in table.sa_domain}
    return table, pt, thresholds


def publish_buckets(table, bucket_of, buckets, seed):
    """publish of the assignment that puts record i in bucket_of[i]."""
    value_counts = np.zeros((buckets, table.sa_domain_size), dtype=np.int64)
    np.add.at(value_counts, (bucket_of, table.sa_codes), 1)
    assignment = Assignment(
        bucket_of=bucket_of,
        bucket_sizes=np.bincount(bucket_of, minlength=buckets),
        value_counts=value_counts)
    return publish(table, assignment, seed=seed)


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
            and (caps is None or caps[x] + 1e-12 >= 1.0 / (size + sigma))
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
    model = NegAssociationModel(threshold=1.0, flagged=flagged)
    if expected is not None:
        with pytest.raises(ConfigError, match=expected):
            inject_fakes(pt, sigma, seed=seed, model=model,
                         thresholds=thresholds)
        return None
    padded = inject_fakes(pt, sigma, seed=seed, model=model,
                          thresholds=thresholds)
    before, after, rows = st_counters(pt), st_counters(padded), qi_rows(pt)
    for bid in range(1, pt.bucket_count + 1):
        fakes = padded.fake_map[bid - 1]
        assert len(set(fakes)) == sigma
        assert after[bid] == before[bid] + Counter(fakes)
        for x in fakes:
            assert x not in before[bid]
            assert caps[x] + 1e-12 >= 1.0 / (sum(after[bid].values()))
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


# separators, quotes and line breaks that CSV must quote, the empty string,
# non-ASCII text, and arbitrary short strings
LABELS = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r\n", ' "a,b"\r\n', "naïve",
                     "日本語"]),
    st.text(max_size=5))


@st.composite
def label_tables(draw):
    """(QI names, SA name, QI label rows, SA labels) with few distinct labels
    per column, so labels repeat across rows."""
    d = draw(st.integers(0, 2))
    names = draw(st.lists(LABELS, min_size=d + 1, max_size=d + 1, unique=True))
    pools = [draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
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
                  sorted(pt.sa_domain[c] for c in pt.fake_map[bid - 1]))
            for bid in range(1, pt.bucket_count + 1)}


@SETTINGS
@given(st.data())
def test_written_release_reads_back_label_for_label(data):
    qi_names, sa_name, qi_rows, sa_values = data.draw(label_tables())
    table = MicrodataTable.from_rows(qi_rows, sa_values, qi_names, sa_name)
    # every bucket is non-empty, as in any release the optimizer builds
    buckets = data.draw(st.integers(1, len(table)))
    bucket_of = np.array(data.draw(st.permutations(
        [i % buckets for i in range(len(table))])), dtype=np.int32)
    pt = publish_buckets(table, bucket_of, buckets, data.draw(st.integers(0, 99)))
    sigma = data.draw(st.integers(0, 2))
    if sigma:
        pt = padded_or_refused(pt, sigma, data.draw(st.integers(0, 99)),
                               [1.0] * pt.m) or pt
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

