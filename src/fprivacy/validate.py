"""Bucket-setting validity tests, round-robin assignment, and record partitioning.

A bucket setting is a list of groups, each holding ``count`` buckets of equal
``size``.  A setting is valid when records can be distributed so that within
every bucket the share of each SA value stays at or below its threshold.

Gale's subset-cut test (``flow_feasibility_oracle``) decides validity for any
number of groups: CC (capacity = n) and, for every subset S of the groups,
cap(S) <= sum_v min(h_v, alloc_v(S)).  ``constraint_report`` checks two kinds
of cut.  A single group {j} gives FC, cap_j <= sum_v alloc_vj, as alloc_vj <=
h_v.  Under CC the full set gives n <= sum_v min(h_v, sum_j alloc_vj), that is
PC: sum_j alloc_vj >= h_v for every v.  A zero-count group adds 0 to every
cut, so with at most two nonempty groups these are all the cuts and the
report is exact; with more, it is only necessary.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    MicrodataTable,
    PrivacySpec,
    histogram,
    stable_order,
    threshold_slots,
)

# Most groups the cut test takes; its (m, 2^q) int64 sums are 16 MB at m = 500.
MAX_CUT_GROUPS = 12


@dataclass(frozen=True)
class BucketGroup:
    """``count`` buckets, each of exactly ``size`` records."""

    size: int
    count: int

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError("bucket size must be positive")
        if self.count < 0:
            raise ConfigError("bucket count must be non-negative")

    @property
    def capacity(self) -> int:
        return self.size * self.count

    @property
    def loss(self) -> int:
        return self.count * (self.size - 1) ** 2


@dataclass(frozen=True)
class BucketSetting:
    """Groups ordered by strictly increasing bucket size."""

    groups: tuple[BucketGroup, ...]

    def __post_init__(self):
        sizes = [g.size for g in self.groups]
        if sorted(set(sizes)) != sizes:
            raise ConfigError(f"group sizes must be strictly increasing, got {sizes}")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "BucketSetting":
        return cls(tuple(BucketGroup(size=s, count=b) for s, b in pairs))

    @property
    def capacity(self) -> int:
        return sum(g.capacity for g in self.groups)

    @property
    def loss(self) -> int:
        return sum(g.loss for g in self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)


def allocation_bounds(counts: np.ndarray, p: PrivacySpec,
                      setting: BucketSetting) -> np.ndarray:
    """The (m, q) int64 caps: entry [i, j] is the most records of value i
    that group j can absorb, bucket slot count times bucket count, capped
    by the value's record count."""
    groups = setting.groups
    upper = (threshold_slots(p.thresholds[:, None], [g.size for g in groups])
             .astype(np.int64) * np.array([g.count for g in groups], np.int64))
    return np.minimum(upper, counts[:, None])


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the per-group constraint check, truthy when all hold.

    pc: every value fits under its summed allocation caps.
    fc: every group can be filled to capacity from the caps.
    cc: total capacity equals the record count.
    """

    pc_failed_values: tuple[int, ...]
    fc_failed_groups: tuple[int, ...]
    cc_ok: bool

    @property
    def pc_ok(self) -> bool:
        return not self.pc_failed_values

    @property
    def fc_ok(self) -> bool:
        return not self.fc_failed_groups

    @property
    def valid(self) -> bool:
        return self.pc_ok and self.fc_ok and self.cc_ok

    def __bool__(self) -> bool:
        return self.valid

    def failed(self) -> list[str]:
        out = []
        if not self.pc_ok:
            out.append("PC")
        if not self.fc_ok:
            out.append("FC")
        if not self.cc_ok:
            out.append("CC")
        return out


def constraint_report(counts: np.ndarray, p: PrivacySpec, setting: BucketSetting) -> ValidityReport:
    """Evaluate the PC/FC/CC conditions for any number of groups.

    They are the single-group and full-set cuts of the subset-cut test, so
    exact for at most two nonempty groups and only necessary for more.
    """
    alloc = allocation_bounds(counts, p, setting)
    pc_bad = np.nonzero(alloc.sum(axis=1) < counts)[0]
    fc_bad = [j for j, g in enumerate(setting.groups)
              if int(alloc[:, j].sum()) < g.capacity]
    cc_ok = setting.capacity == int(counts.sum())
    return ValidityReport(
        pc_failed_values=tuple(int(i) for i in pc_bad),
        fc_failed_groups=tuple(fc_bad),
        cc_ok=cc_ok,
    )


def round_robin_assign(sa_codes: np.ndarray, bucket_count: int) -> np.ndarray:
    """Spread each value's records across equal buckets in rotation.

    Records are walked value by value (codes ascending, original order within
    a value); the r-th record overall goes to bucket r mod bucket_count.  The
    int32 bucket id of every record is returned.  Every bucket ends exactly
    full, and each value's per-bucket count differs by at most one across
    buckets.
    """
    n = len(sa_codes)
    if bucket_count < 1 or n % bucket_count:
        raise ConfigError(f"{n} records do not fill {bucket_count} equal buckets")
    order = stable_order(sa_codes)
    bucket_of = np.empty(n, dtype=np.int32)
    bucket_of[order] = np.arange(n, dtype=np.int32) % bucket_count
    return bucket_of


def build_assignment(table: MicrodataTable, parts) -> np.ndarray:
    """The int32 bucket id of every row, from (row_indices, BucketGroup) parts.

    Bucket ids run part-major in the order given, bucket-minor inside a part.
    Parts must cover every row exactly once.
    """
    bucket_of = np.full(len(table), -1, dtype=np.int32)
    next_id = 0
    for rows, group in parts:
        rows = np.asarray(rows)
        if group.count == 0:
            if len(rows):
                raise ConfigError("records assigned to an empty group")
            continue
        if len(rows) != group.capacity:
            raise ConfigError(
                f"group {group} expects {group.capacity} records, got {len(rows)}")
        bucket_of[rows] = round_robin_assign(table.sa_codes[rows],
                                             group.count) + next_id
        next_id += group.count
    if np.any(bucket_of < 0):
        raise ConfigError("parts do not cover the table")
    return bucket_of


def partition_records(table: MicrodataTable, bounds: np.ndarray,
                      setting: BucketSetting, rows: np.ndarray | None = None):
    """Split rows into (first-group, second-group) record sets.

    Each value offers the first group its allocation-cap prefix (earliest
    rows); the overflow drains, latest rows first, one record per value per
    round in code order until the first group fits.  Value v can give up
    movable = min(a1, a1 + a2 - h) records, so r full rounds move
    sum(min(movable, r)): a bisection finds the last full round, and the
    first values still movable give one more each.  Requires a valid
    two-group setting.
    """
    if rows is None:
        rows = np.arange(len(table), dtype=np.int64)
    rows = np.asarray(rows)
    counts = histogram(table, rows)
    g1, g2 = setting.groups
    a1 = bounds[:, 0]
    a2 = bounds[:, 1]
    if int(a1.sum()) < g1.capacity or int(a2.sum()) < g2.capacity \
            or np.any(a1 + a2 < counts) or setting.capacity != len(rows):
        raise ConfigError("partition_records called on an invalid setting")
    # sum(movable) = sum(a1) - n + sum(a2) >= need, so the drain completes
    need = int(a1.sum()) - g1.capacity
    movable = np.minimum(a1, a1 + a2 - counts)
    rounds = bisect.bisect_right(range(int(movable.max()) + 1), need,
                                 key=lambda r: np.minimum(movable, r).sum()) - 1
    keep = a1 - np.minimum(movable, rounds)
    keep[np.flatnonzero(movable > rounds)[:int(keep.sum()) - g1.capacity]] -= 1

    # one stable sort ranks each value's rows in row order
    codes = table.sa_codes[rows]
    order = stable_order(codes)
    codes, rows = codes[order], rows[order]
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[codes]
    first = rank < keep[codes]
    return np.sort(rows[first]), np.sort(rows[~first])


def flow_feasibility_oracle(counts: np.ndarray, p: PrivacySpec, setting: BucketSetting) -> bool:
    """Exact validity for any number of groups: Gale's subset-cut test.

    Max-flow/min-cut on the supply-demand graph (Gale, Pacific J. Math.
    1957): value v supplies h_v, group j demands cap_j, and v reaches j
    through alloc_vj, which round-robin achieves inside a group.  More than
    MAX_CUT_GROUPS groups raise ConfigError before any cut is built.
    """
    q = len(setting.groups)
    if q > MAX_CUT_GROUPS:
        raise ConfigError(
            f"feasibility test takes at most {MAX_CUT_GROUPS} groups, got {q}")
    if setting.capacity != int(counts.sum()):
        return False
    subsets = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1  # (2^q, q) 0/1
    supply = np.minimum(allocation_bounds(counts, p, setting) @ subsets.T,
                        counts[:, None]).sum(axis=0)
    demand = subsets @ np.array([g.capacity for g in setting.groups], np.int64)
    return bool(np.all(demand <= supply))
