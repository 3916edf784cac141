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
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (ConfigError, IngestionError, InfeasiblePrivacyError,
                   MicrodataTable, PrivacySpec, code_matrix, histogram,
                   read_table, smallest_admitting_size, threshold_slots)
from .optimize import SearchConfig, multi_size_bucketing, two_size_bucketing
from .validate import (Assignment, allocation_bounds, build_assignment,
                       partition_records)

__all__ = [
    "PublishedTables",
    "NegAssociationModel",
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
    b's fake SA codes, ascending; it never leaves the publisher's side.
    """

    qi_names: tuple[str, ...]
    sa_name: str
    qi_codes: np.ndarray   # (n, d) int32
    qit_bids: np.ndarray   # (n,) int32
    st_codes: np.ndarray   # (n + sigma*B,) int32 SA codes, grouped by bucket
    qi_domains: tuple[tuple[str, ...], ...]
    sa_domain: tuple[str, ...]
    bucket_count: int
    fakes: np.ndarray      # (B, sigma) int32, rows ascending

    def __post_init__(self):
        if self.bucket_count < 1:
            raise ConfigError("published tables need at least one bucket")
        if self.fakes.ndim != 2 or len(self.fakes) != self.bucket_count:
            raise ConfigError("fakes must hold one row per bucket")
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
    def sigma(self) -> int:
        """Fake ST rows per bucket."""
        return self.fakes.shape[1]

    @cached_property
    def bucket_sizes(self) -> np.ndarray:
        """Record count of buckets 1..bucket_count."""
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
        """(bucket id, SA code, count, bucket ST size with fakes) of each
        (bucket, value) pair in the ST rows, ascending by bucket then code."""
        keys, counts = np.unique(self.st_bids.astype(np.int64) * self.m
                                 + self.st_codes, return_counts=True)
        bids, codes = np.divmod(keys, self.m)
        return bids, codes, counts, (self.bucket_sizes + self.sigma)[bids - 1]

    def st_slice(self, bid: int) -> np.ndarray:
        """SA codes of one bucket's ST rows (fakes included)."""
        return self.st_codes[self.st_bounds[bid - 1]:self.st_bounds[bid]]


def release(table: MicrodataTable, spec: PrivacySpec, cfg: SearchConfig,
            mode: str = "two", sigma: int = 0, seed: int = 0) -> PublishedTables:
    """Search, partition, round-robin assignment, the QIT/ST pair, then
    sigma fakes per bucket that the spec's thresholds admit.  Mode "two"
    raises InfeasiblePrivacyError when no two-size setting is valid;
    "multi" refines groups recursively."""
    if mode == "two":
        h = histogram(table)
        found = two_size_bucketing(h, spec, cfg)
        if found is None:
            raise InfeasiblePrivacyError(
                "no valid two-size bucketing within the size bounds")
        bounds = allocation_bounds(h, spec, found.setting)
        parts = zip(partition_records(table, bounds, found.setting),
                    found.setting)
    elif mode == "multi":
        parts = multi_size_bucketing(table, None, spec, cfg)
    else:
        raise ConfigError(f"unknown release mode {mode!r}")
    pt = publish(table, build_assignment(table, parts), seed=seed)
    caps = dict(zip(table.sa_domain, spec.thresholds.tolist()))
    return inject_fakes(pt, sigma, seed=seed, thresholds=caps)


def publish(table: MicrodataTable, assignment: Assignment,
            seed: int = 0) -> PublishedTables:
    """Split a table into its published pair under a record assignment.

    QIT rows keep original record order; each bucket's ST rows are shuffled
    with a per-bucket stream derived from the seed, so output is deterministic
    and buckets are independent.  Bucket b's stream is the Generator that
    numpy's PCG64 seeded by SeedSequence(seed).spawn(B)[b - 1] gives, which
    fixes the published bytes for a seed; it is reproduced without building
    the B SeedSequence objects.
    """
    n = len(table)
    if len(assignment.bucket_of) != n:
        raise ConfigError("assignment does not cover the table")
    bucket_count = assignment.bucket_count
    qit_bids = assignment.bucket_of.astype(np.int32) + 1
    # a stable sort keeps each bucket's values in record order before the
    # shuffle, which is what fixes the published bytes for a seed
    order = np.argsort(qit_bids, kind="stable")
    pt = PublishedTables(
        qi_names=tuple(table.qi_names),
        sa_name=table.sa_name,
        qi_codes=table.qi_codes,
        qit_bids=qit_bids,
        st_codes=table.sa_codes[order].astype(np.int32, copy=False),
        qi_domains=tuple(tuple(d) for d in table.qi_domains),
        sa_domain=tuple(table.sa_domain),
        bucket_count=bucket_count,
        fakes=np.empty((bucket_count, 0), dtype=np.int32),
    )
    bounds = pt.st_bounds.tolist()
    for b, rng in enumerate(_bucket_generators(seed, bucket_count)):
        rng.shuffle(pt.st_codes[bounds[b]:bounds[b + 1]])
    return pt


def inject_fakes(pt: PublishedTables, sigma: int, seed: int = 0,
                 model: Optional["NegAssociationModel"] = None,
                 thresholds: Optional[dict[str, float]] = None,
                 ) -> PublishedTables:
    """Pad every bucket with sigma distinct fake SA values.

    Fakes are drawn uniformly without replacement from the SA domain, never
    collide with the bucket's real values, and, when an association model is
    supplied, avoid values an adversary could strike out as implausible for
    the bucket's QI values.  Buckets holding duplicate real values are
    refused: the distinct-value analysis behind the defense does not cover
    them.

    thresholds (SA label -> cap) additionally restricts fakes to values whose
    cap admits one copy in the padded bucket of s+sigma rows under
    threshold_slots, the rule check_published_privacy applies.  Real values
    only get diluted by padding, but a fake copy of a tightly capped value
    could push it over its cap, so such values are never picked as fakes.

    Bucket b draws its fakes with Generator.choice and then shuffles its
    padded ST rows, both from the stream publish uses for it: PCG64 seeded by
    numpy's SeedSequence(seed).spawn(B)[b - 1], reproduced without building
    the B SeedSequence objects.  These draws fix the output bytes for a seed.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return pt
    if pt.sigma > 0:
        raise ConfigError("fake values are already present; start from a "
                          "plain published pair")
    B = pt.bucket_count
    sizes = pt.bucket_sizes
    present = np.zeros((B, pt.m), dtype=bool)
    present[pt.st_bids - 1, pt.st_codes] = True
    duplicated = present.sum(axis=1) != sizes
    eligible = ~present
    if thresholds is not None:
        try:
            caps = np.array([float(thresholds[label]) for label in pt.sa_domain])
        except KeyError as missing:
            raise ConfigError(f"no threshold for SA value {missing}") from None
        eligible &= (sizes + sigma)[:, None] >= smallest_admitting_size(caps)
    if model is not None:
        for j, domain in enumerate(pt.qi_domains):
            flagged = np.zeros((len(domain), pt.m), dtype=bool)
            for attr, z, x in model.flagged:
                if attr == j and 0 <= z < len(domain) and 0 <= x < pt.m:
                    flagged[z, x] = True
            qi_present = np.zeros((B, len(domain)), dtype=bool)
            qi_present[pt.qit_bids - 1, pt.qi_codes[:, j]] = True
            eligible &= ~(qi_present @ flagged)
    choices = eligible.sum(axis=1)
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

    padded = replace(
        pt, st_codes=np.empty(len(pt.st_codes) + sigma * B, dtype=np.int32),
        fakes=np.empty((B, sigma), dtype=np.int32))
    # a bucket's real rows move down sigma rows per earlier bucket, and its
    # last sigma rows take its fakes
    padded.st_codes[np.arange(len(pt.st_codes)) + sigma * (pt.st_bids - 1)] \
        = pt.st_codes
    bounds = padded.st_bounds.tolist()
    # each bucket's stream draws its fakes, then shuffles real + fakes in
    # place; these calls alone fix the output bytes for a seed
    for b, rng in enumerate(_bucket_generators(seed, B)):
        fakes = rng.choice(eligible[b].nonzero()[0], size=sigma,
                           replace=False)
        merged = padded.st_codes[bounds[b]:bounds[b + 1]]
        merged[-sigma:] = fakes
        rng.shuffle(merged)
        padded.fakes[b] = fakes
    padded.fakes.sort(axis=1)
    return padded


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, as in
# numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _bucket_generators(seed: int, count: int):
    """Yield one reused Generator, set for b = 0..count-1 to the state
    default_rng(SeedSequence(seed).spawn(count)[b]) starts in.

    Child b's entropy is the seed's 32-bit words, zero-padded to the 4-word
    pool, then the spawn key b.  The seed's words are hashed into the pool
    once; the key's word is mixed in and the pool hashed into
    generate_state(4, uint64) for every b at once in uint32 numpy arithmetic.
    PCG64 then seeds from those words with two LCG steps.  NumPy keeps both
    algorithms stable (NEP 19); tests check the states against spawn.
    Finish with each yielded generator before asking for the next.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while seed or not words:
        words.append(seed & _M32)
        seed >>= 32
    words += [0] * (4 - len(words))
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the spawn key, mix() and generate_state's hash, per child
    keys = np.arange(count, dtype=np.uint32)
    lanes = []
    for dst in range(4):
        hashed = keys ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _M32
        hashed *= np.uint32(hash_a)
        hashed ^= hashed >> 16
        lane = np.uint32(_MIX_L * pool[dst] & _M32) - np.uint32(_MIX_R) * hashed
        lanes.append(lane ^ lane >> 16)
    hash_b = _INIT_B
    halves = []
    for k in range(8):
        half = lanes[k % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _M32
        half *= np.uint32(hash_b)
        half ^= half >> 16
        halves.append(half.astype(np.uint64))
    # uint64 words are little-endian pairs: seed high, seed low, inc high,
    # inc low
    state_hi, state_lo, inc_hi, inc_lo = (
        (halves[j] | halves[j + 1] << np.uint64(32)).tolist()
        for j in range(0, 8, 2))

    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s_hi, s_lo, i_hi, i_lo in zip(state_hi, state_lo, inc_hi, inc_lo):
        # PCG64's srandom: inc = 2·i + 1, state = (inc + s)·mult + inc
        inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


@dataclass(frozen=True)
class NegAssociationModel:
    """Pairs (QI attribute, QI value, SA value) that rarely share a bucket.

    A pair is flagged when its bucket-level co-occurrence count falls below
    threshold times the count expected under independence.
    """

    threshold: float
    flagged: frozenset

    def is_flagged(self, attr: int, qi_code: int, sa_code: int) -> bool:
        return (attr, qi_code, sa_code) in self.flagged

    def __len__(self) -> int:
        return len(self.flagged)


def learn_negative_associations(pt: PublishedTables,
                                threshold: float) -> NegAssociationModel:
    """Mine the published pair for QI/SA values that avoid each other."""
    if not 0 < threshold <= 1:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    B = pt.bucket_count
    sa_present = np.zeros((B, pt.m), dtype=bool)
    sa_present[pt.st_bids - 1, pt.st_codes] = True
    n_x = sa_present.sum(axis=0)
    flagged = set()
    for j, domain in enumerate(pt.qi_domains):
        qi_present = np.zeros((B, len(domain)), dtype=bool)
        qi_present[pt.qit_bids - 1, pt.qi_codes[:, j]] = True
        observed = qi_present.T.astype(np.int64) @ sa_present.astype(np.int64)
        expected = np.outer(qi_present.sum(axis=0), n_x) / B
        hits = np.nonzero(observed < threshold * expected)
        for z, x in zip(*hits):
            flagged.add((j, int(z), int(x)))
    return NegAssociationModel(threshold=threshold, flagged=frozenset(flagged))


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
    max_record_prob: float

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
    worst = 0.0
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
        inference = BucketInference(
            bid=bid,
            remaining_real=max(remaining_real, 0),
            value_probs=tuple(sorted(probs.items())),
            real_certainty=certainty,
        )
        buckets.append(inference)
        if inference.remaining_real > 0:
            worst = max(worst, inference.max_prob)
    return CorruptionReport(buckets=tuple(buckets), max_record_prob=worst)


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
    for code in np.unique(codes):
        label = pt.sa_domain[code]
        if label not in thresholds:
            raise ConfigError(f"no threshold given for value {label!r}")
        caps[code] = thresholds[label]
    return bool(np.all(counts <= threshold_slots(caps[codes], sizes)))


def write_published(pt: PublishedTables, out_dir) -> None:
    """Write qit.csv, st.csv and the private fakes_audit.json.

    The CSV bytes are csv.writer's in its default dialect.  Each distinct QI
    label, SA label and bucket id is formatted once by csv.writer, and rows
    are joined from those texts.  Raises ConfigError when a bucket holds no
    record, since read_published could not rebuild such a release.
    """
    empty = np.flatnonzero(pt.bucket_sizes == 0)
    if len(empty):
        raise ConfigError(f"bucket {empty[0] + 1} holds no record; a release "
                          f"with an empty bucket does not read back")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    end = csv.excel.lineterminator
    bids = _field_texts(range(1, pt.bucket_count + 1))
    qi_columns = [_field_texts(domain)[pt.qi_codes[:, j]]
                  for j, domain in enumerate(pt.qi_domains)]
    _write_rows(out / "qit.csv", [*pt.qi_names, "BID"],
                [*qi_columns, (bids + end)[pt.qit_bids - 1]])
    _write_rows(out / "st.csv", ["BID", pt.sa_name],
                [bids[pt.st_bids - 1],
                 (_field_texts(pt.sa_domain) + end)[pt.st_codes]])
    audit = {
        "sigma": pt.sigma,
        "buckets": {str(b + 1): [pt.sa_domain[c] for c in fakes]
                    for b, fakes in enumerate(pt.fakes.tolist())},
    }
    with open(out / "fakes_audit.json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    contents and labels round-trip exactly.  Bucket ids are parsed once per
    distinct label, so of several malformed ids the first in sorted order is
    named.
    """
    src = Path(in_dir)
    qit_path, st_path = src / "qit.csv", src / "st.csv"
    qit_header, columns = read_table(qit_path)
    if qit_header[-1] != "BID":
        raise IngestionError(f"{qit_path} must end with a BID column")
    qit_bids = _parse_bids(*columns.pop(), qit_path)
    qi_codes, qi_domains = code_matrix(columns, len(qit_bids))
    st_header, columns = read_table(st_path)
    if len(st_header) != 2 or st_header[0] != "BID":
        raise IngestionError(f"{st_path} must have columns BID,<SA>")
    st_codes, sa_domain = columns.pop()
    st_bids = _parse_bids(*columns.pop(), st_path)
    order = np.argsort(st_bids, kind="stable")
    bucket_count = int(qit_bids.max())

    fakes = _read_audit(src / "fakes_audit.json", sa_domain, bucket_count)
    try:
        pt = PublishedTables(
            qi_names=tuple(qit_header[:-1]), sa_name=st_header[1],
            qi_codes=qi_codes, qit_bids=qit_bids, st_codes=st_codes[order],
            qi_domains=qi_domains, sa_domain=sa_domain,
            bucket_count=bucket_count, fakes=fakes)
        if not np.array_equal(st_bids[order], pt.st_bids):
            raise ConfigError(
                "bucket ids are 1-based" if st_bids.min(initial=1) < 1 else
                "each bucket must hold its record count plus sigma ST rows")
        if pt.sigma:
            bids, codes, _, _ = pt.st_value_counts
            # unique keys: triples are distinct, and so are a bucket's fakes
            keys = fakes + pt.m * np.arange(1, bucket_count + 1)[:, None]
            held = np.isin(keys, bids * pt.m + codes, assume_unique=True)
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
    """int32 bucket ids of a release file's interned BID column, one int()
    per distinct label."""
    try:
        values = np.fromiter(map(int, labels), np.int32, len(labels))
    except (ValueError, OverflowError) as exc:
        raise IngestionError(f"{path}: malformed bucket id: {exc}") from None
    return values[codes]


def _read_audit(path, sa_domain, bucket_count) -> np.ndarray:
    """The (bucket_count, sigma) fake SA codes of a fakes_audit.json, rows
    ascending, checked to give every bucket sigma distinct values that
    st.csv holds; a missing file lists no fakes."""
    if not path.exists():
        return np.empty((bucket_count, 0), dtype=np.int32)
    try:
        with open(path, encoding="utf-8") as fh:
            audit = json.load(fh)
    except ValueError as exc:
        raise IngestionError(f"{path} is not valid JSON: {exc}") from None
    fakes = audit.get("buckets") if isinstance(audit, dict) else None
    if not isinstance(fakes, dict):
        raise IngestionError(f"{path} has no 'buckets' map")
    sigma = audit.get("sigma", 0)
    if not isinstance(sigma, int) or sigma < 0:
        raise IngestionError(f"{path}: sigma must be a non-negative integer")
    sa_lookup = {label: i for i, label in enumerate(sa_domain)}
    for bid, labels in fakes.items():
        if not isinstance(labels, list):
            raise IngestionError(f"{path}: bucket {bid} fakes are not a list")
        for label in labels:
            if not isinstance(label, str) or label not in sa_lookup:
                raise IngestionError(
                    f"{path}: bucket {bid} names fake value {label!r}, which "
                    f"{path.with_name('st.csv')} does not hold")
    rows = [fakes.get(str(b), []) for b in range(1, bucket_count + 1)]
    for b, labels in enumerate(rows, start=1):
        if len(labels) != sigma or len(set(labels)) != sigma:
            raise IngestionError(f"{path}: bucket {b} lists {len(labels)} "
                                 f"fakes, not {sigma} distinct values")
    codes = np.array([[sa_lookup[label] for label in labels]
                      for labels in rows], dtype=np.int32)
    return np.sort(codes.reshape(bucket_count, sigma), axis=1)
