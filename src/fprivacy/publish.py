"""Emit anonymized table pairs and harden them against exclusion attacks.

A bucketized release is two tables: one mapping each record's QI values to a
bucket id, one holding the bucket's sensitive values in scrambled order.  This
module builds that pair (``release`` runs the whole sequence), writes and
reads it, optionally pads every bucket with fake sensitive values so an
adversary who can exclude known records still faces ambiguity, learns which
(QI value, SA value) pairs are conspicuously absent (an exclusion channel of
its own), and simulates the corruption attack.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (ConfigError, IngestionError, MicrodataTable, PrivacySpec,
                   code_matrix, read_table, smallest_admitting_size,
                   stable_order, threshold_slots)

# optimize, validate and _streams are imported where they run:
# read_published and the evaluate command load this module but never
# search, assign or draw
if TYPE_CHECKING:
    from .optimize import SearchConfig

__all__ = [
    "PublishedTables",
    "BucketInference",
    "CorruptionReport",
    "release",
    "publish",
    "inject_fakes",
    "learn_negative_associations",
    "corruption_attack_sim",
    "published_max_ratios",
    "check_published_privacy",
    "write_published",
    "read_published",
]


@dataclass(frozen=True)
class PublishedTables:
    """The released pair of tables plus the publisher's private fakes.

    Bucket ids are 1-based; qi_codes/qit_bids follow original record order.
    ST rows hold each bucket's records plus sigma fakes, buckets ascending, a
    layout derived from qit_bids and sigma; st_codes are shuffled within each
    bucket.  Arrays are treated as immutable.  Row b-1 of fakes holds bucket
    b's fake SA codes, ascending; it never leaves the publisher's side.  The
    bucket count is the row count of fakes.
    """

    qi_names: tuple[str, ...]
    sa_name: str
    qi_codes: np.ndarray   # (n, d) int32
    qit_bids: np.ndarray   # (n,) int32
    st_codes: np.ndarray   # (n + sigma*B,) int32 SA codes, grouped by bucket
    qi_domains: tuple[tuple[str, ...], ...]
    sa_domain: tuple[str, ...]
    fakes: np.ndarray      # (B, sigma) int32, rows ascending

    def __post_init__(self):
        if self.fakes.ndim != 2:
            raise ConfigError("fakes must be a (bucket, sigma) array")
        if self.bucket_count < 1:
            raise ConfigError("published tables need at least one bucket")
        if len(self.qi_codes) != len(self.qit_bids):
            raise ConfigError("QIT row arrays disagree in length")
        low, high = self.qit_bids.min(initial=1), self.qit_bids.max(initial=1)
        if not 1 <= low <= high <= self.bucket_count:
            raise ConfigError("bucket ids are 1-based, up to the bucket count")
        if len(self.st_codes) != len(self) + self.sigma * self.bucket_count:
            raise ConfigError(
                "each bucket must hold its record count plus sigma ST rows")

    def __len__(self) -> int:
        return len(self.qit_bids)

    @property
    def m(self) -> int:
        return len(self.sa_domain)

    @property
    def bucket_count(self) -> int:
        return len(self.fakes)

    @property
    def sigma(self) -> int:
        """Fake ST rows per bucket."""
        return self.fakes.shape[1]

    @cached_property
    def bucket_sizes(self) -> np.ndarray:
        """Number of records in buckets 1..bucket_count."""
        return np.bincount(self.qit_bids, minlength=self.bucket_count + 1)[1:]

    @cached_property
    def st_bounds(self) -> np.ndarray:
        """ST row offsets: bucket b's are [st_bounds[b-1], st_bounds[b])."""
        return np.concatenate(([0], np.cumsum(self.bucket_sizes + self.sigma)))

    @cached_property
    def st_bids(self) -> np.ndarray:
        """Bucket id of every ST row, ascending."""
        return np.repeat(np.arange(1, self.bucket_count + 1, dtype=np.int32),
                         self.bucket_sizes + self.sigma)

    @cached_property
    def st_value_counts(self):
        """int32 (bucket id, SA code, count, bucket ST size with fakes) of
        each (bucket, value) pair in the ST rows, ascending by bucket then
        code.  A key built from them must be int64: bucket id * m can pass
        2**31."""
        keys, counts = np.unique(self.st_bids.astype(np.int64) * self.m
                                 + self.st_codes, return_counts=True)
        bids, codes = np.divmod(keys, self.m)
        sizes = (self.bucket_sizes + self.sigma)[bids - 1]
        return tuple(a.astype(np.int32) for a in (bids, codes, counts, sizes))

    def st_slice(self, bid: int) -> np.ndarray:
        """SA codes of one bucket's ST rows (fakes included)."""
        return self.st_codes[self.st_bounds[bid - 1]:self.st_bounds[bid]]


def release(table: MicrodataTable, spec: PrivacySpec, cfg: SearchConfig,
            mode: str = "two", sigma: int = 0, seed: int = 0) -> PublishedTables:
    """Search, partition, round-robin assignment, the QIT/ST pair, then
    sigma fakes per bucket that the spec's thresholds admit.  Mode "two"
    publishes the table's two-size split, "multi" refines its groups; both
    raise InfeasiblePrivacyError when no two-size setting is valid.  A table
    with no QI column is refused: a release of it could not be evaluated."""
    from .optimize import multi_size_bucketing, two_size_parts
    from .validate import build_assignment
    if not table.qi_names:
        raise ConfigError("need at least one QI attribute")
    if mode == "two":
        parts = two_size_parts(table, spec, cfg)
    elif mode == "multi":
        parts = multi_size_bucketing(table, None, spec, cfg)
    else:
        raise ConfigError(f"unknown release mode {mode!r}")
    pt = publish(table, build_assignment(table, parts), seed=seed)
    caps = dict(zip(table.sa_domain, spec.thresholds.tolist()))
    return inject_fakes(pt, sigma, seed=seed, thresholds=caps)


def publish(table: MicrodataTable, bucket_of: np.ndarray,
            seed: int = 0) -> PublishedTables:
    """Split a table into its published pair under a record assignment.

    ``bucket_of[i]`` is record i's 0-based bucket id, as ``build_assignment``
    returns it; the release has as many buckets as the largest id + 1.
    QIT rows keep original record order.  Bucket b's ST rows are its
    records' SA codes in record order, then shuffled as
    default_rng(SeedSequence(seed).spawn(B)[b - 1]).shuffle would shuffle
    them, so output is deterministic for a seed and buckets are independent.
    The shuffles run for all buckets at once in _streams, which reproduces
    numpy 2.x's Generator.shuffle (Fisher-Yates with masked rejection draws)
    on PCG64 words until few buckets are left; RandomState.shuffle, which
    NEP 19 freezes and which makes the same draws on a PCG64, finishes
    those.  The tests check it against Generator.
    """
    n = len(table)
    if len(bucket_of) != n:
        raise ConfigError("assignment does not cover the table")
    qit_bids = np.asarray(bucket_of, dtype=np.int32) + 1
    # a stable sort keeps each bucket's values in record order before the
    # shuffle, which is what fixes the published bytes for a seed
    order = stable_order(qit_bids)
    pt = PublishedTables(
        qi_names=tuple(table.qi_names),
        sa_name=table.sa_name,
        qi_codes=table.qi_codes,
        qit_bids=qit_bids,
        st_codes=table.sa_codes[order].astype(np.int32, copy=False),
        qi_domains=tuple(tuple(d) for d in table.qi_domains),
        sa_domain=tuple(table.sa_domain),
        fakes=np.empty((int(qit_bids.max(initial=0)), 0), dtype=np.int32),
    )
    from . import _streams
    sizes = pt.bucket_sizes
    for block in _streams.lane_blocks(sizes):
        _streams.Streams(seed, block).shuffle(
            pt.st_codes, pt.st_bounds[block], sizes[block])
    return pt


def inject_fakes(pt: PublishedTables, sigma: int, seed: int = 0,
                 flagged: frozenset = frozenset(),
                 thresholds: Optional[dict[str, float]] = None,
                 ) -> PublishedTables:
    """Pad every bucket with sigma distinct fake SA values.

    Fakes are drawn uniformly without replacement from the SA domain, never
    collide with the bucket's real values, and avoid the values an adversary
    could strike out as implausible for the bucket's QI values: those that
    the flagged triples of learn_negative_associations name for them.
    Buckets holding duplicate real values are refused: the distinct-value
    analysis behind the defense does not cover them.

    thresholds (SA label -> cap) additionally restricts fakes to values whose
    cap admits one copy in the padded bucket of s+sigma rows under
    threshold_slots, the rule check_published_privacy applies.  Real values
    only get diluted by padding, but a fake copy of a tightly capped value
    could push it over its cap, so such values are never picked as fakes.

    Bucket b's stream, the one publish shuffles it with, draws its fakes as
    Generator.choice(pool, sigma, replace=False) over the ascending codes
    left to it, then shuffles its padded ST rows as Generator.shuffle;
    these draws fix the output bytes for a seed.  They run for all buckets
    at once in _streams, which reproduces numpy 2.x's choice: Floyd's
    algorithm, or the tail shuffle for a pool over 10,000 values with more
    than pool // 50 picks; a bucket whose Lemire draw is redrawn takes the
    rest of its draws in another batched pass.  The shuffle ends as
    publish's does, in RandomState.shuffle for the last few buckets.  A
    bucket's pool is kept as the sorted values it
    excludes beside one list of admitted values per bucket size, so memory
    grows with rows, buckets * sigma and domain * sizes, not with buckets *
    domain.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return pt
    if pt.sigma > 0:
        raise ConfigError("fake values are already present; start from a "
                          "plain published pair")
    B, m = pt.bucket_count, pt.m
    sizes = pt.bucket_sizes
    # (bucket, value) keys, ascending: the values each bucket holds, then
    # also those flagged for its QI values
    held = _distinct(np.multiply(pt.st_bids - 1, m, dtype=np.int64)
                     + pt.st_codes)
    duplicated = np.bincount(held // m, minlength=B) != sizes
    excluded = held if not flagged else _distinct(
        np.concatenate((held, _flagged_keys(pt, flagged))))
    least = np.zeros(m)
    if thresholds is not None:
        try:
            caps = np.array([float(thresholds[label]) for label in pt.sa_domain])
        except KeyError as missing:
            raise ConfigError(f"no threshold for SA value {missing}") from None
        # sizes + sigma could wrap int64; past 2**53 sigma admits any value
        least = smallest_admitting_size(caps) - min(sigma, 2 ** 53)
    # the values the caps admit at each distinct bucket size, and the rank
    # of each value among them
    levels, level_of = np.unique(sizes, return_inverse=True)
    admitted = levels[:, None] >= least
    rank = np.cumsum(admitted, axis=1) - admitted
    admitted_codes = np.argsort(~admitted, axis=1, kind="stable")
    bids, codes = np.divmod(excluded, m)
    keep = admitted[level_of[bids], codes]
    bids, ranks = bids[keep], rank[level_of[bids[keep]], codes[keep]]
    counts = np.bincount(bids, minlength=B)
    choices = admitted.sum(axis=1)[level_of] - counts
    failing = np.flatnonzero(duplicated | (choices < sigma))
    if len(failing):
        b = int(failing[0])
        if duplicated[b]:
            raise ConfigError(
                f"bucket {b + 1} holds duplicate sensitive values; fake "
                f"injection requires distinct values per bucket")
        raise ConfigError(
            f"bucket {b + 1} has only {choices[b]} admissible fake values "
            f"but sigma={sigma}")
    # pick k of a bucket is its k-th admitted value that it does not
    # exclude, the admitted rank k + #{excluded ranks r_i: r_i - i <= k};
    # keyed by bucket, the r_i - i ascend
    firsts = np.cumsum(counts) - counts
    skips = bids * (m + 1) + ranks - (np.arange(len(bids)) - firsts[bids])

    padded = replace(
        pt, st_codes=np.empty(len(pt.st_codes) + sigma * B, dtype=np.int32),
        fakes=np.empty((B, sigma), dtype=np.int32))
    # a bucket's real rows move down sigma rows per earlier bucket, and its
    # last sigma rows take its fakes
    padded.st_codes[np.arange(len(pt.st_codes)) + sigma * (pt.st_bids - 1)] \
        = pt.st_codes
    from . import _streams
    lengths = sizes + sigma
    for block in _streams.lane_blocks(lengths):
        streams = _streams.Streams(seed, block)
        picks = streams.choice(choices[block], sigma)
        picks += np.searchsorted(skips, block[:, None] * (m + 1) + picks,
                                 side="right") - firsts[block, None]
        fakes = admitted_codes[level_of[block, None], picks]
        padded.fakes[block] = fakes
        starts = padded.st_bounds[block]
        padded.st_codes[starts[:, None] + sizes[block, None]
                        + np.arange(sigma)] = fakes
        streams.shuffle(padded.st_codes, starts, lengths[block])
    padded.fakes.sort(axis=1)
    return padded


def _flagged_keys(pt: PublishedTables, flagged: frozenset):
    """(bucket, SA value) keys of the values flagged triples mark for a QI
    value some record of the bucket holds."""
    flagged = np.array(sorted(flagged), dtype=np.int64).reshape(-1, 3)
    keys = [np.empty(0, dtype=np.int64)]
    for j, domain in enumerate(pt.qi_domains):
        attr, z, x = flagged.T
        z, x = (v[(attr == j) & (0 <= z) & (z < len(domain)) & (0 <= x)
                  & (x < pt.m)] for v in (z, x))
        # each (bucket, QI value) pair the QIT holds, joined to the QI
        # value's flagged SA values: z ascends in the sorted triples, so
        # value v's are rows bounds[v]:bounds[v + 1] of x
        pairs = _distinct(np.multiply(pt.qit_bids - 1, len(domain),
                                      dtype=np.int64) + pt.qi_codes[:, j])
        bids, values = np.divmod(pairs, len(domain))
        bounds = np.searchsorted(z, np.arange(len(domain) + 1))
        for lo, hi, per, rows in bucket_pairs(values + 1, bounds):
            keys.append(np.repeat(bids[lo:hi], per) * pt.m + x[rows])
    return np.concatenate(keys)


def bucket_pairs(bids: np.ndarray, bounds: np.ndarray, chunk: int = 2 ** 15):
    """Pair each entry of bucket bids[k] with every row of that bucket,
    bucket b's rows being bounds[b - 1]:bounds[b] of another array.

    Yields (lo, hi, per, rows) for runs lo..hi-1 of whole entries that make
    about chunk pairs (a single entry may make more): entry k makes
    per[k - lo] pairs, and rows holds the row of each pair, entry by entry.
    np.repeat(a[lo:hi], per) lines an entry array up with rows.
    """
    pair_bounds = np.zeros(len(bids) + 1, dtype=np.int64)
    np.cumsum(np.diff(bounds)[bids - 1], out=pair_bounds[1:])
    lo = 0
    while lo < len(bids):
        hi = max(lo + 1, int(np.searchsorted(
            pair_bounds, pair_bounds[lo] + chunk, side="right")) - 1)
        per = np.diff(pair_bounds[lo:hi + 1])
        # pair pair_bounds[k] + i of entry k is row bounds[bids[k] - 1] + i
        offset = bounds[bids[lo:hi] - 1] - pair_bounds[lo:hi]
        yield lo, hi, per, np.arange(pair_bounds[lo], pair_bounds[hi]) \
            + np.repeat(offset, per)
        lo = hi


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending.  np.unique with no counts or indices
    hashes, which is about 50x slower than this sort at 200k int64 keys."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def learn_negative_associations(pt: PublishedTables,
                                threshold: float) -> frozenset:
    """Mine the published pair for QI/SA values that avoid each other:
    the flagged triples (QI attribute, QI code, SA code) whose two values
    rarely share a bucket.

    A pair's co-occurrence count is the number of buckets holding both
    values; the pair is flagged when that count falls below threshold times
    the count expected under independence.  The counts come from joining
    each (bucket, QI value) the QIT holds to the (bucket, SA value) pairs
    the ST holds, so memory grows with those pairs and the (QI domain, SA
    domain) counts, not with buckets * domain.
    """
    if not 0 < threshold <= 1:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    B, m = pt.bucket_count, pt.m
    st_bids, st_codes, _, _ = pt.st_value_counts
    st_bounds = np.searchsorted(st_bids, np.arange(1, B + 2))
    n_x = np.bincount(st_codes, minlength=m)
    flagged = set()
    for j, domain in enumerate(pt.qi_domains):
        d = len(domain)
        bids, values = np.divmod(_distinct(np.multiply(
            pt.qit_bids - 1, d, dtype=np.int64) + pt.qi_codes[:, j]), d)
        observed = np.zeros(d * m, dtype=np.int64)
        for lo, hi, per, rows in bucket_pairs(bids + 1, st_bounds):
            observed += np.bincount(np.repeat(values[lo:hi] * m, per)
                                    + st_codes[rows], minlength=d * m)
        expected = np.outer(np.bincount(values, minlength=d), n_x) / B
        hits = np.nonzero(observed.reshape(d, m) < threshold * expected)
        for z, x in zip(*hits):
            flagged.add((j, int(z), int(x)))
    return frozenset(flagged)


@dataclass(frozen=True)
class BucketInference:
    """What an adversary can conclude about one bucket after exclusions.

    value_probs maps each residual SA code to the probability that a given
    surviving record carries it; real_certainty is the probability that a
    given residual value is real rather than fake.
    """

    bid: int
    remaining_real: int
    value_probs: tuple[tuple[int, float], ...]
    real_certainty: float

    @property
    def max_prob(self) -> float:
        return max((p for _, p in self.value_probs), default=0.0)


@dataclass(frozen=True)
class CorruptionReport:
    buckets: tuple[BucketInference, ...]

    @property
    def max_record_prob(self) -> float:
        """Largest max_prob of a bucket that keeps a real record, else 0."""
        return max((b.max_prob for b in self.buckets if b.remaining_real > 0),
                   default=0.0)

    def bucket(self, bid: int) -> BucketInference:
        for b in self.buckets:
            if b.bid == bid:
                return b
        raise ConfigError(f"no bucket {bid} in the report")


def corruption_attack_sim(pt: PublishedTables,
                          corrupted: dict[int, int]) -> CorruptionReport:
    """Residual inference probabilities after excluding known records.

    corrupted maps record indices to their true SA codes.  Each bucket's
    known values are struck from its ST rows; the survivors are rated under
    within-bucket symmetry.  Fake rows (if any) stay in, which is exactly the
    ambiguity they were injected to provide.
    """
    exclusions: dict[int, list[int]] = {}
    for idx, code in corrupted.items():
        if not 0 <= idx < len(pt):
            raise ConfigError(f"corrupted record {idx} is outside the table")
        bid = int(pt.qit_bids[idx])
        exclusions.setdefault(bid, []).append(int(code))
    buckets = []
    for bid in range(1, pt.bucket_count + 1):
        values = list(pt.st_slice(bid))
        removed = exclusions.get(bid, [])
        for code in removed:
            try:
                values.remove(code)
            except ValueError:
                raise ConfigError(
                    f"record claimed to hold value code {code} but bucket "
                    f"{bid} has no unexcluded copy") from None
        remaining = len(values)
        remaining_real = remaining - pt.sigma
        probs: dict[int, float] = {}
        if remaining:
            for code in values:
                probs[int(code)] = probs.get(int(code), 0.0) + 1.0 / remaining
            certainty = remaining_real / remaining if remaining_real > 0 else 0.0
        else:
            certainty = 0.0
        buckets.append(BucketInference(
            bid=bid,
            remaining_real=max(remaining_real, 0),
            value_probs=tuple(sorted(probs.items())),
            real_certainty=certainty,
        ))
    return CorruptionReport(buckets=tuple(buckets))


def published_max_ratios(pt: PublishedTables) -> dict[str, float]:
    """Worst in-bucket frequency of every SA label across the release."""
    _, codes, counts, sizes = pt.st_value_counts
    worst = np.zeros(pt.m)
    np.maximum.at(worst, codes, counts / sizes)
    return {pt.sa_domain[code]: float(worst[code])
            for code in np.flatnonzero(worst)}


def check_published_privacy(pt: PublishedTables,
                            thresholds: dict[str, float]) -> bool:
    """Recheck the release against per-label thresholds (labels not present
    in the release pass trivially).

    A value passes a bucket when its count there is within threshold_slots of
    the bucket's ST size, the capacity the search and partitioning fill to.
    """
    _, codes, counts, sizes = pt.st_value_counts
    caps = np.ones(pt.m)
    for code in np.flatnonzero(np.bincount(codes, minlength=pt.m)):
        label = pt.sa_domain[code]
        if label not in thresholds:
            raise ConfigError(f"no threshold given for value {label!r}")
        caps[code] = thresholds[label]
    return bool(np.all(counts <= threshold_slots(caps[codes], sizes)))


def write_published(pt: PublishedTables, out_dir) -> None:
    """Write qit.csv, st.csv and the private fakes_audit.json.

    The CSV bytes are csv.writer's in its default dialect.  Each distinct QI
    label and SA label is formatted once by csv.writer, each bucket id by
    str (a decimal never needs quoting), and rows are joined from those
    texts.  Raises ConfigError when a bucket holds no record, since
    read_published could not rebuild such a release.
    """
    empty = np.flatnonzero(pt.bucket_sizes == 0)
    if len(empty):
        raise ConfigError(f"bucket {empty[0] + 1} holds no record; a release "
                          f"with an empty bucket does not read back")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    end = csv.excel.lineterminator
    bids = np.array(list(map(str, range(1, pt.bucket_count + 1))),
                    dtype=object)
    qi_columns = [_field_texts(domain)[pt.qi_codes[:, j]]
                  for j, domain in enumerate(pt.qi_domains)]
    _write_rows(out / "qit.csv", [*pt.qi_names, "BID"],
                [*qi_columns, (bids + end)[pt.qit_bids - 1]])
    _write_rows(out / "st.csv", ["BID", pt.sa_name],
                [bids[pt.st_bids - 1],
                 (_field_texts(pt.sa_domain) + end)[pt.st_codes]])
    with open(out / "fakes_audit.json", "w", encoding="utf-8") as fh:
        fh.write(_audit_text(pt))


def _audit_text(pt: PublishedTables) -> str:
    """fakes_audit.json: json.dump(audit, fh, indent=2, sort_keys=True) of
    {"buckets": {bucket id: fake labels}, "sigma": sigma}, then a newline.
    That encoder runs in pure Python, so the text is joined here from each
    label's json.dumps text, with bucket ids sorted as strings."""
    labels = np.array([json.dumps(label) for label in pt.sa_domain],
                      dtype=object)
    bids = sorted(range(1, pt.bucket_count + 1), key=str)
    rows = labels[pt.fakes[np.array(bids) - 1]].tolist()
    items = ",\n".join(
        f'    "{bid}": [\n      ' + ",\n      ".join(row) + "\n    ]"
        if row else f'    "{bid}": []' for bid, row in zip(bids, rows))
    return ('{\n  "buckets": {\n' + items + '\n  },\n  "sigma": '
            f"{pt.sigma}\n}}\n")


def _field_texts(labels) -> np.ndarray:
    """Object array of each label as csv.writer writes it as one field of a
    row: quoted when it holds a comma, quote or line break."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    texts = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a second field keeps csv.writer from quoting "" as a lone field
        writer.writerow((label, ""))
        texts.append(buf.getvalue()[:-len("," + csv.excel.lineterminator)])
    return np.array(texts, dtype=object)


def _write_rows(path, header, columns) -> None:
    """header by csv.writer, then one row per index of the columns' field
    texts, the last column's texts ending the row.  Rows are written 8192
    at a time: one write per row costs more than the join."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        rows = map(",".join, zip(*(c.tolist() for c in columns)))
        while chunk := "".join(itertools.islice(rows, 8192)):
            fh.write(chunk)


def read_published(in_dir) -> PublishedTables:
    """Rebuild a PublishedTables from a written directory.

    Both CSVs are read with read_table.  Domains are re-derived from the
    labels present, so code numbering may differ from the writer's; bucket
    contents and labels round-trip exactly.  A BID column whose fields are
    all written as write_published writes ids below 10**9 is read as
    integers; any other is interned and parsed once per distinct label, so
    of several malformed ids the first in sorted order is named.  Every id
    from 1 to the largest must label a QIT row, so the largest is checked
    against the record count before any per-bucket array is sized.
    """
    src = Path(in_dir)
    qit_path, st_path = src / "qit.csv", src / "st.csv"
    qit_header, columns = read_table(qit_path, id_column=-1)
    if qit_header[-1] != "BID":
        raise IngestionError(f"{qit_path} must end with a BID column")
    qit_bids = _parse_bids(*columns.pop(), qit_path)
    qi_codes, qi_domains = code_matrix(columns, len(qit_bids))
    st_header, columns = read_table(st_path, id_column=0)
    if len(st_header) != 2 or st_header[0] != "BID":
        raise IngestionError(f"{st_path} must have columns BID,<SA>")
    st_codes, sa_domain = columns.pop()
    st_bids = _parse_bids(*columns.pop(), st_path)
    order = np.argsort(st_bids, kind="stable")
    bucket_count = int(qit_bids.max())
    if not 1 <= bucket_count <= len(qit_bids):
        raise IngestionError(f"{qit_path}: largest bucket id {bucket_count} "
                             f"is outside 1 to {len(qit_bids)}, the record "
                             f"count")

    fakes = _read_audit(src / "fakes_audit.json", sa_domain, bucket_count)
    try:
        pt = PublishedTables(
            qi_names=tuple(qit_header[:-1]), sa_name=st_header[1],
            qi_codes=qi_codes, qit_bids=qit_bids, st_codes=st_codes[order],
            qi_domains=qi_domains, sa_domain=sa_domain, fakes=fakes)
        empty = np.flatnonzero(pt.bucket_sizes == 0)
        if len(empty):
            raise IngestionError(
                f"{qit_path}: bucket {empty[0] + 1} holds no record")
        if not np.array_equal(st_bids[order], pt.st_bids):
            raise ConfigError(
                "bucket ids are 1-based" if st_bids.min(initial=1) < 1 else
                "each bucket must hold its record count plus sigma ST rows")
        if pt.sigma:
            bids, codes, _, _ = pt.st_value_counts
            # unique keys: triples are distinct, and so are a bucket's fakes
            keys = fakes + pt.m * np.arange(1, bucket_count + 1)[:, None]
            held = np.isin(keys, np.multiply(bids, pt.m, dtype=np.int64)
                           + codes, assume_unique=True)
            if not held.all():
                b, j = np.argwhere(~held)[0]
                raise ConfigError(
                    f"fakes_audit.json: bucket {b + 1}'s fake "
                    f"{sa_domain[fakes[b, j]]!r} is not in its ST rows")
    except ConfigError as exc:
        raise IngestionError(f"{src} does not hold a consistent release: "
                             f"{exc}") from None
    return pt


def _parse_bids(codes, labels, path) -> np.ndarray:
    """int32 bucket ids of a release file's BID column as read_table gives
    it: the ids themselves when labels is None, else interned, and then
    one int() per distinct label.  A label must read as str() of its id, as
    write_published writes it, so "01", "+1", " 1" and "1_0" are refused."""
    if labels is None:
        return codes

    def parse(label: str) -> int:
        value = int(label)
        if str(value) != label:
            raise ValueError(f"{label!r} is not written as {value}")
        return value

    try:
        values = np.fromiter(map(parse, labels), np.int32, len(labels))
    except (ValueError, OverflowError) as exc:
        raise IngestionError(f"{path}: malformed bucket id: {exc}") from None
    return values[codes]


def _read_audit(path, sa_domain, bucket_count) -> np.ndarray:
    """The (bucket_count, sigma) fake SA codes of a fakes_audit.json, rows
    ascending; only ids 1..bucket_count may key it, each bucket gets sigma
    distinct values that st.csv holds, and a missing file lists no fakes.
    Of several faults the first entry in file order, then the first bucket
    by id, is named.  The labels are checked as one flat array."""
    if not path.exists():
        return np.empty((bucket_count, 0), dtype=np.int32)
    try:
        with open(path, encoding="utf-8") as fh:
            audit = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise IngestionError(f"{path} is not valid JSON: {exc}") from None
    fakes = audit.get("buckets") if isinstance(audit, dict) else None
    if not isinstance(fakes, dict):
        raise IngestionError(f"{path} has no 'buckets' map")
    sigma = audit.get("sigma", 0)
    if type(sigma) is not int or sigma < 0:  # JSON true/false are bools
        raise IngestionError(f"{path}: sigma must be a non-negative integer")
    ids = {str(b): b for b in range(1, bucket_count + 1)}
    if stray := fakes.keys() - ids.keys():
        raise IngestionError(f"{path}: {min(stray)!r} is not a bucket id "
                             f"from 1 to {bucket_count}")
    lookup = {label: i for i, label in enumerate(sa_domain)}
    entries = list(fakes.values())
    listed = np.fromiter(map(isinstance, entries, itertools.repeat(list)),
                         bool, len(entries))
    lists = list(itertools.compress(entries, listed))
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    labels = list(itertools.chain.from_iterable(lists))
    codes = np.fromiter((lookup.get(label, -1) if isinstance(label, str)
                         else -1 for label in labels), np.int64, len(labels))
    unknown = np.flatnonzero(codes < 0)
    # the first entry that is not a list or names a value st.csv lacks
    bad = [*np.flatnonzero(~listed)[:1].tolist(), *np.repeat(
        np.flatnonzero(listed), lengths)[unknown[:1]].tolist()]
    if bad:
        first = min(bad)
        bid = list(fakes)[first]
        if not listed[first]:
            raise IngestionError(f"{path}: bucket {bid} fakes are not a list")
        raise IngestionError(
            f"{path}: bucket {bid} names fake value {labels[unknown[0]]!r}, "
            f"which {path.with_name('st.csv')} does not hold")
    m = len(sa_domain)
    bids = np.fromiter(map(ids.get, fakes), np.int64, len(fakes))
    count = np.zeros(bucket_count + 1, dtype=np.int64)
    count[bids] = lengths
    # (bucket, value) keys, ascending: a repeated key is a repeated fake
    keys = np.sort(np.repeat(bids * m, lengths) + codes)
    failing = count != sigma
    failing[keys[1:][keys[1:] == keys[:-1]] // m] = True
    failing[0] = False
    if failing.any():
        b = int(failing.argmax())
        raise IngestionError(f"{path}: bucket {b} lists {count[b]} "
                             f"fakes, not {sigma} distinct values")
    return (keys % m).astype(np.int32).reshape(bucket_count, sigma)
