"""Utility measurement: loss/MSE, count-query workloads, synthetic data.

The published pair answers COUNT queries only statistically: a query's
estimate distributes each bucket's QI matches over the bucket's sensitive
values.  This module generates seeded query workloads with a target
selectivity, evaluates true and estimated answers, and produces skewed
synthetic tables for benchmarking when no real corpus is at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ConfigError, MicrodataTable
from .publish import PublishedTables, bucket_pairs

__all__ = [
    "CountQuery",
    "UtilityReport",
    "loss_of",
    "mse_of",
    "gen_queries",
    "CountCube",
    "true_count_cube",
    "estimated_count_cube",
    "answer_true",
    "answer_estimated",
    "relative_error",
    "gen_synthetic",
    "write_xy_dat",
]


def _bucket_sizes(buckets) -> np.ndarray:
    """int64 size of every bucket of a size array, or of an iterable of
    sizes and BucketGroups (a BucketSetting is one)."""
    if isinstance(buckets, np.ndarray):
        return buckets.astype(np.int64)
    from .validate import BucketGroup  # evaluate passes arrays only
    pairs = [(item.size, item.count) if isinstance(item, BucketGroup)
             else (int(item), 1) for item in buckets]
    sizes, counts = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.repeat(sizes, counts)


def loss_of(buckets) -> int:
    """Sum of (size-1)^2 over buckets; accepts a setting, groups, or sizes.

    Additive over disjoint unions, which is what makes the recursive searches
    comparable to the flat ones.
    """
    sizes = _bucket_sizes(buckets)
    if (sizes < 1).any():
        raise ConfigError("bucket sizes must be positive")
    return int(np.sum((sizes - 1) ** 2))


def mse_of(buckets, n: int) -> float:
    """The loss over n - 1 records, in [0, n-1]; 0.0 under 2 records."""
    sizes = _bucket_sizes(buckets)
    if (covered := int(sizes.sum())) != n:
        raise ConfigError(f"buckets cover {covered} records, expected {n}")
    return loss_of(sizes) / (n - 1) if n > 1 else 0.0


@dataclass(frozen=True)
class CountQuery:
    """Conjunctive COUNT query: per chosen QI attribute a set of admitted
    codes, plus a set of admitted SA codes."""

    qi_predicates: tuple[tuple[int, tuple[int, ...]], ...]
    sa_values: tuple[int, ...]

    def __post_init__(self):
        if not self.sa_values:
            raise ConfigError("SA predicate must admit at least one value")
        for attr, values in self.qi_predicates:
            if not values:
                raise ConfigError(f"attribute {attr} predicate is empty")


def gen_queries(qi_domains: Sequence[Sequence[str]], sa_domain: Sequence[str],
                pool_size: int, selectivity: float, seed: int = 0,
                ) -> list[CountQuery]:
    """Seeded pool of random count queries with a target selectivity.

    Each query picks its dimensionality uniformly from 1..#QI and admits
    ceil(selectivity^(1/(q_d+1)) * |dom|) values per predicate, the SA
    predicate included, so the expected match fraction under independent
    uniform data is about the requested selectivity.
    """
    if not 0 < selectivity <= 1:
        raise ConfigError(f"selectivity must be in (0, 1], got {selectivity}")
    if pool_size < 1:
        raise ConfigError(f"pool size must be positive, got {pool_size}")
    if not qi_domains:
        raise ConfigError("need at least one QI attribute")
    rng = np.random.default_rng(seed)
    d = len(qi_domains)
    pool = []
    for _ in range(pool_size):
        q_d = int(rng.integers(1, d + 1))
        attrs = sorted(rng.choice(d, size=q_d, replace=False).tolist())
        frac = selectivity ** (1.0 / (q_d + 1))
        predicates = []
        for attr in attrs:
            dom = len(qi_domains[attr])
            width = min(dom, int(np.ceil(frac * dom)))
            codes = rng.choice(dom, size=width, replace=False)
            predicates.append((attr, tuple(sorted(int(c) for c in codes))))
        sa_width = min(len(sa_domain), int(np.ceil(frac * len(sa_domain))))
        sa_codes = rng.choice(len(sa_domain), size=sa_width, replace=False)
        pool.append(CountQuery(
            qi_predicates=tuple(predicates),
            sa_values=tuple(sorted(int(c) for c in sa_codes)),
        ))
    return pool


def _admits(codes: np.ndarray, admitted: Sequence[int],
            domain_size: int) -> np.ndarray:
    """Which entries of codes are in admitted, through a boolean lookup table
    over the code domain."""
    table = np.zeros(domain_size, dtype=bool)
    table[list(admitted)] = True
    return table[codes]


# pairs of QIT and ST triples joined per bincount call in
# estimated_count_cube; larger chunks raise evaluate's peak memory and save
# no measurable time
_JOIN_CHUNK = 2 ** 15


@dataclass(frozen=True)
class CountCube:
    """Counts over (QI cell, SA value), a QI cell being a distinct QI tuple:
    counts[i, x] belongs to the rows whose QI codes are cells[i] and whose SA
    code is x."""

    cells: np.ndarray   # (u, d) distinct QI code tuples
    counts: np.ndarray  # (u, m): int64 true counts or float64 estimates


def _cube_cells(qi_codes: np.ndarray, qi_domains, m: int):
    """Distinct QI tuples of the rows, ascending, and each row's cell id, or
    None when a cells × m cube would have more entries than there are rows.

    A tuple's key is its mixed-radix code when the product of the domain
    sizes fits in int64; otherwise np.unique compares whole rows.  Keys
    from a space no larger than the row count are counted with bincount,
    and a cell's id is the number of occupied keys below its own; larger
    spaces are sorted by np.unique.
    """
    dims = [len(domain) for domain in qi_domains]
    space = math.prod(dims)
    if space > np.iinfo(np.int64).max:
        cells, cell_of = np.unique(qi_codes, axis=0, return_inverse=True)
        cell_of = cell_of.reshape(-1)
    else:
        keys = np.zeros(len(qi_codes), dtype=np.int64)
        for j, size in enumerate(dims):
            keys *= size
            keys += qi_codes[:, j]
        if space <= len(keys):
            occupied = np.flatnonzero(np.bincount(keys, minlength=space))
            ids = np.zeros(space, dtype=np.int64)
            ids[occupied] = np.arange(len(occupied))
            cell_of = ids[keys]
            cells = np.stack(np.unravel_index(occupied, dims), axis=1)
        else:
            _, first, cell_of = np.unique(keys, return_index=True,
                                          return_inverse=True)
            cells = qi_codes[first]
    if len(cells) * m > len(qi_codes):
        return None
    return cells, cell_of


def true_count_cube(table: MicrodataTable) -> Optional[CountCube]:
    """The raw table's record counts per (QI cell, SA value), or None when
    the cube would have more entries than the table has records."""
    m = table.sa_domain_size
    found = _cube_cells(table.qi_codes, table.qi_domains, m)
    if found is None:
        return None
    cells, cell_of = found
    counts = np.bincount(cell_of * m + table.sa_codes,
                         minlength=len(cells) * m)
    return CountCube(cells=cells, counts=counts.reshape(len(cells), m))


def estimated_count_cube(pt: PublishedTables) -> Optional[CountCube]:
    """Σ_b QIT_b(c) · ST_b(x) / |ST_b| per (QI cell c, SA value x), the
    within-bucket uniformity estimate of Anatomy (Xiao & Tao, VLDB 2006),
    or None when the cube would have more entries than the QIT has rows.

    QIT_b(c) counts bucket b's QIT rows in cell c and ST_b(x) its ST rows
    holding x, fakes included: the analyst cannot tell them apart.
    """
    m = pt.m
    found = _cube_cells(pt.qi_codes, pt.qi_domains, m)
    if found is None:
        return None
    cells, cell_of = found
    u = len(cells)
    # (bucket, cell, count) of the QIT and (bucket, value, count, size) of
    # the ST, both ascending by bucket
    keys = pt.qit_bids.astype(np.int64) * u
    keys += cell_of
    del found, cell_of  # row arrays are freed before the sort and the join
    keys, qi_counts = np.unique(keys, return_counts=True)
    qi_bids, qi_keys = np.divmod(keys, u)
    del keys
    qi_keys *= m  # cell c's counts start at entry c * m
    st_bids, st_codes, st_counts, st_sizes = pt.st_value_counts
    st_bounds = np.searchsorted(st_bids, np.arange(1, pt.bucket_count + 2))
    st_shares = st_counts / st_sizes
    counts = np.zeros(u * m)
    # each QIT triple pairs with every ST triple of its bucket
    for lo, hi, per, rows in bucket_pairs(qi_bids, st_bounds, _JOIN_CHUNK):
        counts += np.bincount(np.repeat(qi_keys[lo:hi], per) + st_codes[rows],
                              np.repeat(qi_counts[lo:hi], per)
                              * st_shares[rows], minlength=u * m)
    return CountCube(cells=cells, counts=counts.reshape(u, m))


def _rectangle_sum(cube: CountCube, query: CountQuery, qi_domains, m: int):
    """Sum of the cube's counts over the cells and SA values query admits."""
    cells = np.ones(len(cube.cells), dtype=bool)
    for attr, values in query.qi_predicates:
        cells &= _admits(cube.cells[:, attr], values, len(qi_domains[attr]))
    values = np.zeros(m, dtype=bool)
    values[list(query.sa_values)] = True
    return cube.counts[np.ix_(cells, values)].sum()


def answer_true(table: MicrodataTable, query: CountQuery,
                index: Optional[CountCube] = None) -> int:
    """Exact count of records matching every predicate.

    index, when given, is true_count_cube(table); without it every record
    is scanned.
    """
    if index is not None:
        return int(_rectangle_sum(index, query, table.qi_domains,
                                  table.sa_domain_size))
    mask = _admits(table.sa_codes, query.sa_values, len(table.sa_domain))
    for attr, values in query.qi_predicates:
        mask &= _admits(table.qi_codes[:, attr], values,
                        len(table.qi_domains[attr]))
    return int(mask.sum())


def answer_estimated(pt: PublishedTables, query: CountQuery,
                     index: Optional[CountCube] = None) -> float:
    """Estimate from the published pair under within-bucket uniformity.

    Each bucket contributes (matching QIT rows) * (matching ST rows) /
    (total ST rows); fake rows, when present, stay in the denominator and
    numerator alike because the analyst cannot tell them apart.  index,
    when given, is estimated_count_cube(pt); without it every QIT and ST
    row is scanned.
    """
    if index is not None:
        return float(_rectangle_sum(index, query, pt.qi_domains, pt.m))
    qi_mask = np.ones(len(pt), dtype=bool)
    for attr, values in query.qi_predicates:
        qi_mask &= _admits(pt.qi_codes[:, attr], values,
                           len(pt.qi_domains[attr]))
    qi_per_bucket = np.bincount(pt.qit_bids[qi_mask] - 1,
                                minlength=pt.bucket_count)
    st_total = np.diff(pt.st_bounds)
    sa_mask = _admits(pt.st_codes, query.sa_values, pt.m)
    st_match = np.bincount(pt.st_bids[sa_mask] - 1, minlength=pt.bucket_count)
    occupied = st_total > 0
    return float(np.sum(qi_per_bucket[occupied] * st_match[occupied]
                        / st_total[occupied]))


@dataclass(frozen=True)
class UtilityReport:
    """Loss, MSE and workload relative error of one published pair.

    per_query holds (act, est) for the queries with a nonzero true answer;
    re_mean is the mean of |act - est| / act over them.  query_count is the
    full pool size.
    """

    loss: int
    mse: float
    query_count: int
    per_query: tuple[tuple[int, float], ...]

    @property
    def re_mean(self) -> float:
        return float(np.mean([abs(act - est) / act
                              for act, est in self.per_query]))

    def to_dict(self) -> dict:
        return {
            "loss": self.loss,
            "mse": self.mse,
            "re_mean": self.re_mean,
            "query_count": self.query_count,
            "answered_queries": len(self.per_query),
        }


def relative_error(pool: Iterable[CountQuery], table: MicrodataTable,
                   pt: PublishedTables) -> UtilityReport:
    """Mean relative error of the workload, with loss/MSE of the release.

    Queries whose true answer is zero carry no defined relative error and are
    excluded from the mean.  An all-zero pool is an error.  Both answers
    come from count cubes built once here, where they fit.
    """
    pool = list(pool)
    true_index = true_count_cube(table)
    estimated_index = estimated_count_cube(pt)
    answered = []
    for query in pool:
        act = answer_true(table, query, index=true_index)
        if act == 0:
            continue
        est = answer_estimated(pt, query, index=estimated_index)
        answered.append((act, est))
    if not answered:
        raise ConfigError("every query in the pool has a zero true answer")
    sizes = pt.bucket_sizes[pt.bucket_sizes > 0]
    return UtilityReport(
        loss=loss_of(sizes),
        mse=mse_of(sizes, len(table)),
        query_count=len(pool),
        per_query=tuple(answered),
    )


def gen_synthetic(n: int, m: int, zipf_exponent: float,
                  qi_domain_sizes: Sequence[int], seed: int = 0,
                  ) -> MicrodataTable:
    """Seeded table with rank-power-law SA frequencies and uniform QIs.

    Every SA value appears at least once; exponent 0 gives near-uniform
    frequencies, larger exponents steepen the skew.
    """
    if not 1 <= m <= n:
        raise ConfigError(f"need 1 <= m <= n, got m={m}, n={n}")
    if zipf_exponent < 0:
        raise ConfigError(f"exponent must be >= 0, got {zipf_exponent}")
    if not qi_domain_sizes or any(s < 1 for s in qi_domain_sizes):
        raise ConfigError("QI domain sizes must be positive")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, m + 1, dtype=np.float64) ** zipf_exponent
    weights /= weights.sum()
    counts = rng.multinomial(n - m, weights) + 1
    sa_codes = np.repeat(np.arange(m, dtype=np.int32), counts)
    sa_codes = sa_codes[rng.permutation(n)]
    qi_codes = np.stack(
        [rng.integers(0, size, size=n, dtype=np.int32)
         for size in qi_domain_sizes], axis=1)
    qi_domains = [[f"a{j}_{k:03d}" for k in range(size)]
                  for j, size in enumerate(qi_domain_sizes)]
    sa_domain = [f"v{i:03d}" for i in range(m)]
    return MicrodataTable.from_codes(
        qi_codes, sa_codes,
        qi_names=[f"attr{j}" for j in range(len(qi_domain_sizes))],
        sa_name="sa", qi_domains=qi_domains, sa_domain=sa_domain)


def write_xy_dat(path, xs: Sequence[float], ys: Sequence[float],
                 comment: Optional[str] = None) -> None:
    """Write a two-column whitespace data file (gnuplot-friendly)."""
    if len(xs) != len(ys):
        raise ConfigError("x and y series differ in length")
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.extend(f"{x} {y}" for x, y in zip(xs, ys))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
