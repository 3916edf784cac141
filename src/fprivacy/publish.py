"""Emit anonymized table pairs and harden them against exclusion attacks.

A bucketized release is two tables: one mapping each record's QI values to a
bucket id, one holding the bucket's sensitive values in scrambled order.  This
module writes and reads that pair, optionally pads every bucket with fake
sensitive values so an adversary who can exclude known records still faces
ambiguity, learns which (QI value, SA value) pairs are conspicuously absent
(an exclusion channel of its own), and simulates the corruption attack.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (FLOOR_EPS, ConfigError, IngestionError, MicrodataTable,
                   intern_labels, read_columns)
from .validate import Assignment

__all__ = [
    "PublishedTables",
    "NegAssociationModel",
    "BucketInference",
    "CorruptionReport",
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
    """The released pair of tables plus the publisher's private fake map.

    Bucket ids are 1-based.  qi_codes/qit_bids follow original record order;
    st_bids ascend and st_codes are shuffled within each bucket.  The arrays
    are treated as immutable.  fake_map holds, per bucket, the injected fake
    SA codes; it never leaves the publisher's side.
    """

    qi_names: tuple[str, ...]
    sa_name: str
    qi_codes: np.ndarray   # (n, d) int32
    qit_bids: np.ndarray   # (n,) int32
    st_bids: np.ndarray    # (n + sigma*B,) int32, ascending
    st_codes: np.ndarray   # same length as st_bids, int32 SA codes
    qi_domains: tuple[tuple[str, ...], ...]
    sa_domain: tuple[str, ...]
    bucket_count: int
    sigma: int = 0
    fake_map: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.bucket_count < 1:
            raise ConfigError("published tables need at least one bucket")
        if len(self.qi_codes) != len(self.qit_bids):
            raise ConfigError("QIT row arrays disagree in length")
        if len(self.st_bids) != len(self.st_codes):
            raise ConfigError("ST row arrays disagree in length")
        if np.any(np.diff(self.st_bids) < 0):
            raise ConfigError("ST rows must be grouped by ascending bucket id")
        if (self.qit_bids.max(initial=1) > self.bucket_count
                or self.st_bids.max(initial=1) > self.bucket_count):
            raise ConfigError("bucket id exceeds the bucket count")
        qit_per = np.bincount(self.qit_bids, minlength=self.bucket_count + 1)
        st_per = np.bincount(self.st_bids, minlength=self.bucket_count + 1)
        if qit_per[0] or st_per[0]:
            raise ConfigError("bucket ids are 1-based")
        if np.any(qit_per[1:] + self.sigma != st_per[1:]):
            raise ConfigError(
                "each bucket must hold its record count plus sigma ST rows")
        if len(self.fake_map) != self.bucket_count:
            raise ConfigError("fake map must cover every bucket")

    def __len__(self) -> int:
        return len(self.qit_bids)

    @property
    def m(self) -> int:
        return len(self.sa_domain)

    def st_slice(self, bid: int) -> np.ndarray:
        """SA codes of one bucket's ST rows (fakes included)."""
        lo = np.searchsorted(self.st_bids, bid, side="left")
        hi = np.searchsorted(self.st_bids, bid, side="right")
        return self.st_codes[lo:hi]

    def qit_rows_of(self, bid: int) -> np.ndarray:
        """Record indices assigned to one bucket."""
        return np.nonzero(self.qit_bids == bid)[0]


def _bucket_bounds(sorted_bids: np.ndarray, bucket_count: int) -> np.ndarray:
    """Row offsets of buckets 1..bucket_count in ascending bucket ids: bucket
    b's rows are [bounds[b-1], bounds[b])."""
    return np.searchsorted(sorted_bids, np.arange(1, bucket_count + 2))


def publish(table: MicrodataTable, assignment: Assignment,
            seed: int = 0) -> PublishedTables:
    """Split a table into its published pair under a record assignment.

    QIT rows keep original record order; each bucket's ST rows are shuffled
    with a per-bucket stream derived from the seed, so output is deterministic
    and buckets are independent.
    """
    n = len(table)
    if len(assignment.bucket_of) != n:
        raise ConfigError("assignment does not cover the table")
    bucket_count = assignment.bucket_count
    qit_bids = assignment.bucket_of.astype(np.int32) + 1
    # a stable sort keeps each bucket's values in record order before the
    # shuffle, which is what fixes the published bytes for a seed
    order = np.argsort(qit_bids, kind="stable")
    st_bids = qit_bids[order]
    st_codes = table.sa_codes[order].astype(np.int32)
    bounds = _bucket_bounds(st_bids, bucket_count)
    streams = np.random.SeedSequence(seed).spawn(bucket_count)
    for b in range(bucket_count):
        np.random.default_rng(streams[b]).shuffle(
            st_codes[bounds[b]:bounds[b + 1]])
    return PublishedTables(
        qi_names=tuple(table.qi_names),
        sa_name=table.sa_name,
        qi_codes=table.qi_codes.copy(),
        qit_bids=qit_bids,
        st_bids=st_bids,
        st_codes=st_codes,
        qi_domains=tuple(tuple(d) for d in table.qi_domains),
        sa_domain=tuple(table.sa_domain),
        bucket_count=bucket_count,
        sigma=0,
        fake_map=tuple(() for _ in range(bucket_count)),
    )


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
    in-bucket weight 1/(s+sigma) stays under their own cap.  Real values only
    get diluted by padding, but a fake copy of a tightly capped value would
    raise its inference probability above the cap in that bucket, so such
    values are never picked as fakes when the caps are supplied.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return pt
    if pt.sigma > 0:
        raise ConfigError("fake values are already present; start from a "
                          "plain published pair")
    B = pt.bucket_count
    bounds = _bucket_bounds(pt.st_bids, B)
    sizes = np.diff(bounds)
    present = np.zeros((B, pt.m), dtype=bool)
    present[pt.st_bids - 1, pt.st_codes] = True
    duplicated = present.sum(axis=1) != sizes
    eligible = ~present
    if thresholds is not None:
        try:
            caps = np.array([float(thresholds[label]) for label in pt.sa_domain])
        except KeyError as missing:
            raise ConfigError(f"no threshold for SA value {missing}") from None
        fake_weight = 1.0 / (sizes + sigma)
        eligible &= caps[None, :] + 1e-12 >= fake_weight[:, None]
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

    # each bucket's stream draws its fakes, then shuffles real + fakes in
    # place; these calls alone fix the output bytes for a seed
    new_bounds = bounds + sigma * np.arange(B + 1)
    new_codes = np.empty(new_bounds[-1], dtype=np.int32)
    streams = np.random.SeedSequence(seed).spawn(B)
    fake_map = []
    for b in range(B):
        rng = np.random.default_rng(streams[b])
        fakes = rng.choice(np.flatnonzero(eligible[b]).astype(np.int32),
                           size=sigma, replace=False)
        merged = new_codes[new_bounds[b]:new_bounds[b + 1]]
        merged[:sizes[b]] = pt.st_codes[bounds[b]:bounds[b + 1]]
        merged[sizes[b]:] = fakes
        rng.shuffle(merged)
        fake_map.append(tuple(sorted(fakes.tolist())))
    return replace(
        pt,
        st_bids=np.repeat(np.arange(1, B + 1, dtype=np.int32), sizes + sigma),
        st_codes=new_codes,
        sigma=sigma,
        fake_map=tuple(fake_map),
    )


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


def _bucket_value_counts(pt: PublishedTables):
    """(SA code, count, bucket ST size) of every (bucket, value) pair present
    in the ST rows; sizes include fakes."""
    keys, counts = np.unique(pt.st_bids.astype(np.int64) * pt.m + pt.st_codes,
                             return_counts=True)
    bids, codes = np.divmod(keys, pt.m)
    sizes = np.bincount(pt.st_bids, minlength=pt.bucket_count + 1)[bids]
    return codes, counts, sizes


def published_max_ratios(pt: PublishedTables) -> dict[str, float]:
    """Worst in-bucket frequency of every SA label across the release."""
    codes, counts, sizes = _bucket_value_counts(pt)
    worst = np.zeros(pt.m)
    np.maximum.at(worst, codes, counts / sizes)
    return {pt.sa_domain[code]: float(worst[code])
            for code in np.flatnonzero(worst)}


def check_published_privacy(pt: PublishedTables,
                            thresholds: dict[str, float]) -> bool:
    """Recheck the release against per-label thresholds (labels not present
    in the release pass trivially).

    A value passes a bucket when its count there is within value_slots of the
    bucket's ST size, floor(threshold * size) under the same epsilon guard,
    which is the capacity the search and partitioning fill to.
    """
    codes, counts, sizes = _bucket_value_counts(pt)
    caps = np.ones(pt.m)
    for code in np.unique(codes):
        label = pt.sa_domain[code]
        if label not in thresholds:
            raise ConfigError(f"no threshold given for value {label!r}")
        caps[code] = thresholds[label]
    return bool(np.all(counts <= np.floor(caps[codes] * sizes + FLOOR_EPS)))


def write_published(pt: PublishedTables, out_dir) -> None:
    """Write qit.csv, st.csv and the private fakes_audit.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    qi_labels = [np.array(domain, dtype=object)[pt.qi_codes[:, j]].tolist()
                 for j, domain in enumerate(pt.qi_domains)]
    with open(out / "qit.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(pt.qi_names) + ["BID"])
        writer.writerows(zip(*qi_labels, pt.qit_bids.tolist()))
    with open(out / "st.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["BID", pt.sa_name])
        writer.writerows(zip(pt.st_bids.tolist(), np.array(
            pt.sa_domain, dtype=object)[pt.st_codes].tolist()))
    audit = {
        "sigma": pt.sigma,
        "buckets": {str(b + 1): [pt.sa_domain[c] for c in fakes]
                    for b, fakes in enumerate(pt.fake_map)},
    }
    with open(out / "fakes_audit.json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_published(in_dir) -> PublishedTables:
    """Rebuild a PublishedTables from a written directory.

    Domains are re-derived from the labels present, so code numbering may
    differ from the writer's; bucket contents and labels round-trip exactly.
    """
    src = Path(in_dir)
    qit_path, st_path = src / "qit.csv", src / "st.csv"
    qit_header, qi_columns = _read_table(qit_path)
    if qit_header[-1] != "BID":
        raise IngestionError(f"{qit_path} must end with a BID column")
    st_header, st_columns = _read_table(st_path)
    if len(st_header) != 2 or st_header[0] != "BID":
        raise IngestionError(f"{st_path} must have columns BID,<SA>")
    try:
        qit_bids, st_bids = (np.fromiter(map(int, column), np.int32, len(column))
                             for column in (qi_columns.pop(), st_columns[0]))
    except (ValueError, OverflowError) as exc:
        raise IngestionError(f"malformed bucket id: {exc}") from None

    qi_codes = np.empty((len(qit_bids), len(qi_columns)), dtype=np.int32)
    qi_domains = []
    for j, column in enumerate(qi_columns):
        qi_codes[:, j], domain = intern_labels(column)
        qi_domains.append(domain)
    st_codes, sa_domain = intern_labels(st_columns[1])
    sa_lookup = {label: i for i, label in enumerate(sa_domain)}

    order = np.argsort(st_bids, kind="stable")
    st_bids, st_codes = st_bids[order], st_codes[order]
    bucket_count = int(qit_bids.max())

    sigma = 0
    fake_map: tuple[tuple[int, ...], ...] = tuple(() for _ in range(bucket_count))
    audit_path = src / "fakes_audit.json"
    if audit_path.exists():
        sigma, fakes = _read_audit(audit_path, sa_lookup)
        if sigma:
            fake_map = tuple(
                tuple(sorted(sa_lookup[v] for v in fakes.get(str(b), [])))
                for b in range(1, bucket_count + 1))
    try:
        return PublishedTables(
            qi_names=tuple(qit_header[:-1]), sa_name=st_header[1],
            qi_codes=qi_codes, qit_bids=qit_bids,
            st_bids=st_bids, st_codes=st_codes,
            qi_domains=tuple(qi_domains), sa_domain=sa_domain,
            bucket_count=bucket_count, sigma=sigma, fake_map=fake_map)
    except ConfigError as exc:
        raise IngestionError(f"{src} does not hold a consistent release: "
                             f"{exc}") from None


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and columns of a published CSV with at least one data row."""
    if not path.exists():
        raise IngestionError(f"missing published file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        columns = read_columns(reader, len(header), path)
    if not columns or not columns[0]:
        raise IngestionError(f"{path} has no data rows")
    return header, columns


def _read_audit(path, sa_lookup) -> tuple[int, dict]:
    """sigma and the bucket id -> fake labels map of a fakes_audit.json,
    checked to name only SA values that st.csv holds."""
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
    for bid, labels in fakes.items():
        if not isinstance(labels, list):
            raise IngestionError(f"{path}: bucket {bid} fakes are not a list")
        for label in labels:
            if not isinstance(label, str) or label not in sa_lookup:
                raise IngestionError(
                    f"{path}: bucket {bid} names fake value {label!r}, which "
                    f"{path.with_name('st.csv')} does not hold")
    return sigma, fakes
