"""Bucket-setting search: optimal two-size, recursive multi-size, baselines.

The two-size search walks size pairs in ascending order and, for each pair,
cuts the candidate list to the prefix below the incumbent loss and asks
``fprivacy.gamma``'s kernels for its first valid position.  Three pruning
modes exist so their agreement can be checked: "full" uses the loss prefix
plus the kernels' closed forms (each size's fill limit, found once per
search, and the linear allocation bounds), "loss" uses the prefix with a
linear scan, and "none" scans every list end to end.  A bucket of
size s loses (s-1)^2/s per record, which grows with s, so "full" and "loss"
stop the walk at the first s1 where n(s1-1)^2/s1 reaches the incumbent loss:
no setting of larger sizes can beat it.  "none" walks every pair.

A brute-force oracle checked by the subset-cut test (Gale 1957) and the
classic equal-size baseline round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BudgetExceededError,
    ConfigError,
    InfeasiblePrivacyError,
    MicrodataTable,
    PrivacySpec,
    histogram,
    smallest_admitting_size,
    value_slots,
)
from .gamma import (
    build_gamma,
    fill_limit,
    first_valid_pos,
    first_valid_scan,
    loss_prefix,
)
from .validate import (
    BucketGroup,
    BucketSetting,
    allocation_bounds,
    flow_feasibility_oracle,
    partition_records,
)

__all__ = [
    "PRUNING_MODES",
    "SearchConfig",
    "SearchResult",
    "two_size_bucketing",
    "two_size_parts",
    "multi_size_bucketing",
    "brute_force_optimal",
    "anatomy_setting",
]

PRUNING_MODES = ("full", "loss", "none")


@dataclass(frozen=True)
class SearchConfig:
    """Inclusive bucket-size range [min_size, max_size] for the searches."""

    min_size: int
    max_size: int

    def __post_init__(self):
        if self.min_size < 1:
            raise ConfigError(f"minimum bucket size must be >= 1, got {self.min_size}")
        if self.max_size <= self.min_size:
            raise ConfigError(
                f"maximum bucket size {self.max_size} must exceed "
                f"minimum {self.min_size}")

    @classmethod
    def for_spec(cls, spec: PrivacySpec, max_size: int = 50) -> "SearchConfig":
        """Size range from the smallest bucket size able to host the least
        constrained value up to max_size: a smaller bucket admits no copy of
        any value, so it changes no search result."""
        derived = int(smallest_admitting_size(spec.thresholds).min())
        return cls(min_size=derived, max_size=max_size)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bucket-setting search.

    loss is the setting's.  cond_evals counts the kernels' probes
    (``fprivacy.gamma`` defines one per mode).  trace records (size1,
    size2, best loss so far) per examined pair.
    """

    setting: BucketSetting
    cond_evals: int = 0
    trace: tuple = ()

    @property
    def loss(self) -> int:
        return self.setting.loss


def two_size_bucketing(counts: np.ndarray, spec: PrivacySpec, cfg: SearchConfig,
                       pruning: str = "full") -> Optional[SearchResult]:
    """Minimum-loss valid two-size setting within the size range, or None.

    Size pairs are examined smaller-first and a new optimum must be a strict
    improvement, so the first pair reaching the minimum loss wins ties.
    """
    if pruning not in PRUNING_MODES:
        raise ConfigError(f"unknown pruning mode {pruning!r}; use one of "
                          f"{', '.join(PRUNING_MODES)}")
    n = int(counts.sum())
    if n < 1:
        raise ConfigError("cannot search an empty table")
    # per size: its value slots and, in "full" mode, its fill limit
    slots_cache: dict[int, tuple[np.ndarray, Optional[int]]] = {}

    def slots(size: int) -> tuple[np.ndarray, Optional[int]]:
        nonlocal evals
        got = slots_cache.get(size)
        if got is None:
            u = value_slots(spec, size)
            limit = None
            if pruning == "full":
                limit, probes = fill_limit(size, u, counts)
                evals += probes
            got = slots_cache[size] = (u, limit)
        return got

    best_setting = None
    best_loss = math.inf
    evals = 0
    trace = []
    # a size above n + 1 takes no bucket, giving a setting that its pair with
    # n + 1 gave first, so the sizes stop there
    max_size = min(cfg.max_size, n + 1)
    for s1 in range(cfg.min_size, max_size):
        # n records in buckets of size >= s1 lose at least n(s1-1)^2/s1
        if pruning != "none" and n * (s1 - 1) ** 2 >= best_loss * s1:
            break
        for s2 in range(s1 + 1, max_size + 1):
            g = build_gamma(n, s1, s2)
            if g is None:
                continue
            if pruning == "none":
                kp = g.last_index
            else:
                prefix = loss_prefix(g, best_loss)
                if prefix == 0:
                    trace.append((s1, s2, best_loss))
                    continue
                kp = prefix - 1
            (u1, lim1), (u2, lim2) = slots(s1), slots(s2)
            if pruning == "full":
                pos, probes = first_valid_pos(g, kp, lim1, lim2, u1, u2,
                                              counts)
            else:
                pos, probes = first_valid_scan(g, kp, u1, u2, counts)
            evals += int(probes)
            if pos >= 0:
                loss = g.loss_at(int(pos))
                if loss < best_loss:
                    b1, b2 = g.pair_at(int(pos))
                    best_setting = BucketSetting.of((s1, b1), (s2, b2))
                    best_loss = loss
            trace.append((s1, s2, best_loss))
    if best_setting is None:
        return None
    return SearchResult(best_setting, evals, tuple(trace))


def two_size_parts(table: MicrodataTable, spec: PrivacySpec,
                   cfg: SearchConfig, rows: Optional[np.ndarray] = None,
                   current: Optional[BucketGroup] = None,
                   ) -> Optional[list[tuple[np.ndarray, BucketGroup]]]:
    """The optimal two-size split of a record set, as (rows, group) parts.

    Searches the histogram of rows (default: the whole table) and, when the
    setting has strictly lower loss than current, partitions the rows into
    its nonempty groups.  Returns None when it does not beat current.  With
    current=None any valid setting is taken, and a record set that has none
    raises InfeasiblePrivacyError.
    """
    counts = histogram(table, rows)
    found = two_size_bucketing(counts, spec, cfg)
    if found is None and current is None:
        raise InfeasiblePrivacyError(
            "no valid two-size bucketing within the size bounds")
    if found is None or (current is not None and found.loss >= current.loss):
        return None
    bounds = allocation_bounds(counts, spec, found.setting)
    parts = partition_records(table, bounds, found.setting, rows=rows)
    return [(part, group) for part, group in zip(parts, found.setting)
            if group.count > 0]


def multi_size_bucketing(table: MicrodataTable, current: Optional[BucketGroup],
                         spec: PrivacySpec, cfg: SearchConfig,
                         rows: Optional[np.ndarray] = None,
                         ) -> list[tuple[np.ndarray, BucketGroup]]:
    """Recursive refinement of a bucket group by two-size re-bucketing.

    The group is replaced whenever the optimal two-size setting of its record
    set has strictly lower loss; otherwise it becomes a leaf.  Pass
    current=None to start from the two-size split of the whole table, which
    raises InfeasiblePrivacyError when no valid two-size setting exists.
    Returns (row indices, group) leaves in refinement order.
    """
    rows = (np.arange(len(table), dtype=np.int64) if rows is None
            else np.asarray(rows, dtype=np.int64))
    if current is not None and current.capacity != len(rows):
        raise ConfigError(
            f"record set of {len(rows)} rows does not fill the group "
            f"capacity {current.capacity}")
    parts = two_size_parts(table, spec, cfg, rows, current)
    if parts is None:
        return [(rows, current)]
    leaves: list[tuple[np.ndarray, BucketGroup]] = []
    for sub_rows, group in parts:
        leaves.extend(multi_size_bucketing(table, group, spec, cfg, rows=sub_rows))
    return leaves


def _enumerate_settings(n: int, cfg: SearchConfig, max_q: int, budget: int):
    """All settings of <= max_q distinct sizes in range covering n exactly.

    Each visited prefix of fewer than max_q groups, the empty one too, costs
    one budget step; the last group's count is fixed by what remains, free.
    """
    found: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []
    steps = 0

    def descend(remaining: int, start: int, q_left: int):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise BudgetExceededError(
                f"enumeration exceeded the budget of {budget} steps")
        if remaining == 0:
            found.append(tuple(chosen))
            return
        for size in range(start, min(cfg.max_size, remaining) + 1):
            if q_left == 1:
                if remaining % size == 0:
                    found.append((*chosen, (size, remaining // size)))
                continue
            for count in range(1, remaining // size + 1):
                chosen.append((size, count))
                descend(remaining - size * count, size + 1, q_left - 1)
                chosen.pop()

    descend(n, cfg.min_size, max_q)
    return found


def brute_force_optimal(counts: np.ndarray, spec: PrivacySpec, cfg: SearchConfig,
                        max_q: int = 2, budget: int = 10_000_000,
                        ) -> Optional[SearchResult]:
    """Exact minimum-loss valid setting by enumeration plus the cut test.

    Settings are checked in ascending loss order by the subset-cut test
    (Gale 1957), so the first feasible one is optimal.  max_q bounds the
    number of distinct sizes.  Exceeding the step budget raises.
    """
    if max_q < 1:
        raise ConfigError(f"max_q must be >= 1, got {max_q}")
    n = int(counts.sum())
    if n < 1:
        raise ConfigError("cannot search an empty table")
    pool = [BucketSetting.of(*groups)
            for groups in _enumerate_settings(n, cfg, max_q, budget)]
    pool.sort(key=lambda s: (s.loss, s.sizes))
    for setting in pool:
        if flow_feasibility_oracle(counts, spec, setting):
            return SearchResult(setting)
    return None


def anatomy_setting(n: int, ell: int) -> BucketSetting:
    """The classic covering by sizes ell and ell+1, most ell first.

    This baseline ignores per-value thresholds entirely; it is the utility
    yardstick the searches are compared against.
    """
    if ell < 1:
        raise ConfigError(f"ell must be >= 1, got {ell}")
    if n < ell:
        raise ConfigError(f"table of {n} records cannot fill a bucket of {ell}")
    upgraded = n % ell
    plain = n // ell - upgraded
    if plain < 0:
        raise ConfigError(
            f"{n} records cannot be covered by sizes {ell} and {ell + 1}")
    return BucketSetting.of((ell, plain), (ell + 1, upgraded))
