"""Bucket-setting validity tests, round-robin assignment, and record partitioning.

A bucket setting is a list of groups, each holding ``count`` buckets of equal
``size``.  A setting is valid when records can be distributed so that within
every bucket the share of each SA value stays at or below its threshold.  For
one group this has an exact closed form; for two groups the per-value
allocation bounds give an exact test; for three or more groups the analogous
conditions are only necessary, so a max-flow oracle decides ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    MicrodataTable,
    PrivacySpec,
    SaHistogram,
    histogram,
    value_slots,
)


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

    def normalized(self) -> "BucketSetting":
        """Drop zero-count groups."""
        return BucketSetting(tuple(g for g in self.groups if g.count > 0))

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)


@dataclass(frozen=True)
class AllocationBounds:
    """Per-value, per-group allocation caps.

    ``upper[i, j]`` is the most records of value i that group j can absorb
    (bucket slot count times bucket count); ``alloc[i, j]`` additionally caps
    that by the value's actual record count.
    """

    upper: np.ndarray  # (m, q) int64
    alloc: np.ndarray  # (m, q) int64


def allocation_bounds(h: SaHistogram, p: PrivacySpec, setting: BucketSetting) -> AllocationBounds:
    q = len(setting.groups)
    upper = np.empty((h.m, q), dtype=np.int64)
    for j, g in enumerate(setting.groups):
        upper[:, j] = value_slots(p, g.size) * g.count
    alloc = np.minimum(upper, h.counts[:, None])
    return AllocationBounds(upper=upper, alloc=alloc)


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


def constraint_report(h: SaHistogram, p: PrivacySpec, setting: BucketSetting) -> ValidityReport:
    """Evaluate the PC/FC/CC conditions for any number of groups.

    Exact for settings of at most two groups.  For three or more groups the
    conditions are necessary but not sufficient; use flow_feasibility_oracle
    for ground truth there.
    """
    bounds = allocation_bounds(h, p, setting)
    pc_bad = np.nonzero(bounds.alloc.sum(axis=1) < h.counts)[0]
    fc_bad = [j for j, g in enumerate(setting.groups)
              if int(bounds.alloc[:, j].sum()) < g.capacity]
    cc_ok = setting.capacity == h.total
    return ValidityReport(
        pc_failed_values=tuple(int(i) for i in pc_bad),
        fc_failed_groups=tuple(fc_bad),
        cc_ok=cc_ok,
    )


def validate_two_size(h: SaHistogram, p: PrivacySpec, setting: BucketSetting) -> ValidityReport:
    """Exact validity test for a two-group setting.

    Degenerate settings with a zero-count group reduce to the one-size test,
    which the same conditions cover.
    """
    if len(setting.groups) != 2:
        raise ConfigError("validate_two_size expects exactly two groups")
    return constraint_report(h, p, setting)


def validate_one_size(h: SaHistogram, p: PrivacySpec, size: int, count: int) -> bool:
    """True iff round-robin over ``count`` buckets of ``size`` meets every threshold."""
    if size * count != h.total:
        raise ConfigError(f"{count} buckets of {size} do not hold {h.total} records")
    return bool(np.all(h.counts <= value_slots(p, size) * count))


@dataclass(frozen=True)
class Assignment:
    """A concrete record-to-bucket mapping.

    ``bucket_of[i]`` is the bucket id of row i (indices are positions in
    whatever row array the assignment was built over); ``bucket_sizes[b]`` the
    declared size of bucket b; ``value_counts[b, v]`` how many records of SA
    code v landed in bucket b.
    """

    bucket_of: np.ndarray    # (rows,) int32
    bucket_sizes: np.ndarray  # (buckets,) int64
    value_counts: np.ndarray  # (buckets, m) int64

    @property
    def bucket_count(self) -> int:
        return len(self.bucket_sizes)


def round_robin_assign(sa_codes: np.ndarray, m: int, bucket_count: int) -> Assignment:
    """Spread each value's records across equal buckets in rotation.

    Records are walked value by value (codes ascending, original order within
    a value); the r-th record overall goes to bucket r mod bucket_count.  Every
    bucket ends exactly full, and each value's per-bucket count differs by at
    most one across buckets.
    """
    n = len(sa_codes)
    if bucket_count < 1 or n % bucket_count:
        raise ConfigError(f"{n} records do not fill {bucket_count} equal buckets")
    order = np.argsort(sa_codes, kind="stable")
    bucket_of = np.empty(n, dtype=np.int32)
    bucket_of[order] = np.arange(n, dtype=np.int32) % bucket_count
    size = n // bucket_count
    value_counts = np.zeros((bucket_count, m), dtype=np.int64)
    np.add.at(value_counts, (bucket_of, sa_codes), 1)
    return Assignment(
        bucket_of=bucket_of,
        bucket_sizes=np.full(bucket_count, size, dtype=np.int64),
        value_counts=value_counts,
    )


def build_assignment(table: MicrodataTable, parts) -> Assignment:
    """Assemble a full-table assignment from (row_indices, BucketGroup) parts.

    Bucket ids run part-major in the order given, bucket-minor inside a part.
    Parts must cover every row exactly once.
    """
    n = len(table)
    bucket_of = np.full(n, -1, dtype=np.int32)
    sizes, counts_blocks = [], []
    offset = 0
    for rows, group in parts:
        rows = np.asarray(rows)
        if group.count == 0:
            if len(rows):
                raise ConfigError("records assigned to an empty group")
            continue
        if len(rows) != group.capacity:
            raise ConfigError(
                f"group {group} expects {group.capacity} records, got {len(rows)}")
        sub = round_robin_assign(table.sa_codes[rows], table.sa_domain_size, group.count)
        bucket_of[rows] = sub.bucket_of + offset
        sizes.append(sub.bucket_sizes)
        counts_blocks.append(sub.value_counts)
        offset += group.count
    if np.any(bucket_of < 0):
        raise ConfigError("parts do not cover the table")
    return Assignment(
        bucket_of=bucket_of,
        bucket_sizes=np.concatenate(sizes) if sizes else np.empty(0, dtype=np.int64),
        value_counts=np.vstack(counts_blocks) if counts_blocks else np.empty((0, table.sa_domain_size), dtype=np.int64),
    )


def assignment_satisfies(a: Assignment, p: PrivacySpec) -> bool:
    """Recheck every bucket against every threshold, in integer form."""
    limits = np.floor(np.outer(a.bucket_sizes, p.thresholds) + 1e-9).astype(np.int64)
    return bool(np.all(a.value_counts <= limits))


def partition_records(table: MicrodataTable, bounds: AllocationBounds,
                      setting: BucketSetting, rows: np.ndarray | None = None):
    """Split rows into (first-group, second-group) record sets.

    The first group is seeded with each value's allocation-cap prefix (earliest
    rows win); the overflow is then drained one record per value in ascending
    code order, cycling until the first group shrinks to its capacity.  Records
    move latest-first so the seeded prefix stays put.  Requires a valid
    two-group setting.
    """
    if rows is None:
        rows = np.arange(len(table), dtype=np.int64)
    rows = np.asarray(rows)
    h = histogram(table, rows)
    g1, g2 = setting.groups
    a1 = bounds.alloc[:, 0]
    a2 = bounds.alloc[:, 1]
    if int(a1.sum()) < g1.capacity or int(a2.sum()) < g2.capacity \
            or np.any(a1 + a2 < h.counts) or setting.capacity != h.total:
        raise ConfigError("partition_records called on an invalid setting")

    codes = table.sa_codes[rows]
    by_value = [rows[codes == v] for v in range(h.m)]
    seed = [arr[: a1[v]] for v, arr in enumerate(by_value)]
    rest = [arr[a1[v]:] for v, arr in enumerate(by_value)]
    t1_len = np.array([len(x) for x in seed])
    t2_len = np.array([len(x) for x in rest])

    need = int(t1_len.sum()) - g1.capacity
    moved = 0
    while moved < need:
        progressed = False
        for v in range(h.m):
            if moved >= need:
                break
            if t1_len[v] > 0 and t2_len[v] < a2[v]:
                t1_len[v] -= 1
                t2_len[v] += 1
                moved += 1
                progressed = True
        if not progressed:
            raise ConfigError("partition stalled; setting was not valid")

    rows1 = np.concatenate([seed[v][: t1_len[v]] for v in range(h.m)]) \
        if h.m else np.empty(0, dtype=rows.dtype)
    rows2_parts = [seed[v][t1_len[v]:] for v in range(h.m)] + rest
    rows2 = np.concatenate(rows2_parts) if rows2_parts else np.empty(0, dtype=rows.dtype)
    rows1.sort()
    rows2.sort()
    return rows1, rows2


def flow_feasibility_oracle(h: SaHistogram, p: PrivacySpec, setting: BucketSetting) -> bool:
    """Ground-truth validity via max flow, for any number of groups.

    Values feed groups through per-(value, group) capacities equal to the
    group's total slot budget for the value; a valid assignment exists iff the
    flow saturates the record count.  Within one group the per-group budget is
    exactly achievable by round-robin, so collapsing buckets into group nodes
    loses nothing.
    """
    from scipy.sparse import csgraph, csr_matrix  # kept off the import path
    if setting.capacity != h.total:
        return False
    groups = [g for g in setting.groups if g.count > 0]
    q = len(groups)
    m = h.m
    src, snk = 0, 1 + m + q
    nodes = snk + 1
    rows, cols, caps = [], [], []
    for i in range(m):
        if h.counts[i] > 0:
            rows.append(src)
            cols.append(1 + i)
            caps.append(int(h.counts[i]))
    for j, g in enumerate(groups):
        slots = value_slots(p, g.size)
        for i in range(m):
            cap = int(slots[i]) * g.count
            if cap > 0 and h.counts[i] > 0:
                rows.append(1 + i)
                cols.append(1 + m + j)
                caps.append(min(cap, int(h.counts[i])))
        rows.append(1 + m + j)
        cols.append(snk)
        caps.append(g.capacity)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(nodes, nodes))
    return int(csgraph.maximum_flow(graph, src, snk).flow_value) == h.total
