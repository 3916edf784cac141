"""Utility measurement: loss/MSE, count-query workloads, synthetic data.

The published pair answers COUNT queries only statistically: a query's
estimate distributes each bucket's QI matches over the bucket's sensitive
values.  This module generates seeded query workloads with a target
selectivity, evaluates true and estimated answers, and produces skewed
synthetic tables for benchmarking when no real corpus is at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ConfigError, MicrodataTable
from .publish import PublishedTables
from .validate import BucketGroup, BucketSetting

__all__ = [
    "CountQuery",
    "UtilityReport",
    "loss_of",
    "mse_of",
    "gen_queries",
    "answer_true",
    "answer_estimated",
    "relative_error",
    "gen_synthetic",
    "write_xy_dat",
]


def _bucket_sizes(buckets) -> list[int]:
    if isinstance(buckets, BucketSetting):
        return [g.size for g in buckets for _ in range(g.count)]
    sizes = []
    for item in buckets:
        if isinstance(item, BucketGroup):
            sizes.extend([item.size] * item.count)
        else:
            sizes.append(int(item))
    return sizes


def loss_of(buckets) -> int:
    """Sum of (size-1)^2 over buckets; accepts a setting, groups, or sizes.

    Additive over disjoint unions, which is what makes the recursive searches
    comparable to the flat ones.
    """
    sizes = _bucket_sizes(buckets)
    if any(s < 1 for s in sizes):
        raise ConfigError("bucket sizes must be positive")
    return sum((s - 1) ** 2 for s in sizes)


def mse_of(buckets, n: int) -> float:
    """Per-record squared-error normalization of the loss, in [0, n-1]."""
    if n < 2:
        raise ConfigError(f"MSE needs at least 2 records, got {n}")
    sizes = _bucket_sizes(buckets)
    if sum(sizes) != n:
        raise ConfigError(
            f"buckets cover {sum(sizes)} records, expected {n}")
    return loss_of(sizes) / (n - 1)


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

    @property
    def dimensionality(self) -> int:
        return len(self.qi_predicates)


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


def answer_true(table: MicrodataTable, query: CountQuery) -> int:
    """Exact count of records matching every predicate."""
    mask = _admits(table.sa_codes, query.sa_values, len(table.sa_domain))
    for attr, values in query.qi_predicates:
        mask &= _admits(table.qi_codes[:, attr], values,
                        len(table.qi_domains[attr]))
    return int(mask.sum())


def answer_estimated(pt: PublishedTables, query: CountQuery) -> float:
    """Estimate from the published pair under within-bucket uniformity.

    Each bucket contributes (matching QIT rows) * (matching ST rows) /
    (total ST rows); fake rows, when present, stay in the denominator and
    numerator alike because the analyst cannot tell them apart.
    """
    qi_mask = np.ones(len(pt), dtype=bool)
    for attr, values in query.qi_predicates:
        qi_mask &= _admits(pt.qi_codes[:, attr], values,
                           len(pt.qi_domains[attr]))
    qi_per_bucket = np.bincount(pt.qit_bids[qi_mask],
                                minlength=pt.bucket_count + 1)
    st_total = np.bincount(pt.st_bids, minlength=pt.bucket_count + 1)
    sa_mask = _admits(pt.st_codes, query.sa_values, pt.m)
    st_match = np.bincount(pt.st_bids[sa_mask], minlength=pt.bucket_count + 1)
    occupied = st_total > 0
    return float(np.sum(qi_per_bucket[occupied] * st_match[occupied]
                        / st_total[occupied]))


@dataclass(frozen=True)
class UtilityReport:
    """Loss, MSE and workload relative error of one published pair.

    per_query holds (act, est) for the queries that contributed to re_mean
    (those with a nonzero true answer); query_count is the full pool size.
    """

    loss: int
    mse: float
    re_mean: float
    query_count: int
    per_query: tuple[tuple[int, float], ...]

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
    excluded from the mean.  An all-zero pool is an error.
    """
    pool = list(pool)
    answered = []
    for query in pool:
        act = answer_true(table, query)
        if act == 0:
            continue
        est = answer_estimated(pt, query)
        answered.append((act, est))
    if not answered:
        raise ConfigError("every query in the pool has a zero true answer")
    re_mean = float(np.mean([abs(act - est) / act for act, est in answered]))
    sizes = np.bincount(pt.qit_bids)[1:]
    sizes = sizes[sizes > 0]
    loss = loss_of(sizes.tolist())
    return UtilityReport(
        loss=loss,
        mse=loss / (len(table) - 1) if len(table) > 1 else 0.0,
        re_mean=re_mean,
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
