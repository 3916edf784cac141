"""Bucket-setting search: optimal two-size, recursive multi-size, baselines.

The two-size search walks size pairs in ascending order and, for each pair,
cuts the candidate list (``fprivacy.gamma``) to the prefix below the
incumbent loss and asks ``fprivacy._kernels`` for its first valid position.
Three pruning modes exist so their agreement can be checked: "full" uses the
loss prefix plus the kernels' closed forms (each size's fill limit, found
once per search, and the linear allocation bounds), "loss" uses the prefix
with a linear scan, and "none" scans every list end to end.

A brute-force oracle checked by the subset-cut test (Gale 1957) and the
classic equal-size baseline round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .core import (
    BudgetExceededError,
    ConfigError,
    MicrodataTable,
    PrivacySpec,
    SaHistogram,
    histogram,
    smallest_admitting_size,
    value_slots,
)
from .gamma import build_gamma, loss_prefix
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
    "multi_size_bucketing",
    "brute_force_optimal",
    "anatomy_baseline_loss",
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
    def for_spec(cls, spec: PrivacySpec, max_size: int = 50,
                 min_size: Optional[int] = None) -> "SearchConfig":
        """Size range with the minimum derived from the privacy thresholds.

        The default minimum is the smallest bucket size able to host the
        least constrained value.  It may be overridden downward (smaller
        buckets can still host other values) but never upward.
        """
        derived = int(smallest_admitting_size(spec.thresholds).min())
        if min_size is None:
            min_size = derived
        elif not 1 <= min_size <= derived:
            raise ConfigError(
                f"minimum size {min_size} must lie in [1, {derived}]; the "
                f"derived bound may only be relaxed downward")
        return cls(min_size=min_size, max_size=max_size)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bucket-setting search.

    cond_evals counts the kernels' probes (``fprivacy._kernels`` defines
    one per mode).  trace records (size1, size2, best loss so far) per
    examined pair.
    """

    setting: BucketSetting
    loss: int
    cond_evals: int = 0
    trace: tuple = ()


def two_size_bucketing(h: SaHistogram, spec: PrivacySpec, cfg: SearchConfig,
                       pruning: str = "full") -> Optional[SearchResult]:
    """Minimum-loss valid two-size setting within the size range, or None.

    Size pairs are examined smaller-first and a new optimum must be a strict
    improvement, so the first pair reaching the minimum loss wins ties.
    """
    if pruning not in PRUNING_MODES:
        raise ConfigError(f"unknown pruning mode {pruning!r}; use one of "
                          f"{', '.join(PRUNING_MODES)}")
    if h.total < 1:
        raise ConfigError("cannot search an empty table")
    counts = h.counts
    # per size: its value slots and, in "full" mode, its fill limit
    slots_cache: dict[int, tuple[np.ndarray, Optional[int]]] = {}

    def slots(size: int) -> tuple[np.ndarray, Optional[int]]:
        nonlocal evals
        got = slots_cache.get(size)
        if got is None:
            u = value_slots(spec, size)
            limit = None
            if pruning == "full":
                limit, probes = _kernels.fill_limit(size, u, counts)
                evals += probes
            got = slots_cache[size] = (u, limit)
        return got

    best_setting = None
    best_loss = math.inf
    evals = 0
    trace = []
    # a size above n + 1 takes no bucket, giving a setting that its pair with
    # n + 1 gave first, so the sizes stop there
    max_size = min(cfg.max_size, h.total + 1)
    for s1 in range(cfg.min_size, max_size):
        for s2 in range(s1 + 1, max_size + 1):
            g = build_gamma(h.total, s1, s2)
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
                pos, probes = _kernels.first_valid_pos(
                    kp, g.b1_first, g.step1, g.b2_first, g.step2,
                    lim1, lim2, u1, u2, counts)
            else:
                pos, probes = _kernels.first_valid_scan(
                    kp, g.b1_first, g.step1, g.b2_first, g.step2,
                    s1, s2, u1, u2, counts)
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
    return SearchResult(best_setting, int(best_loss), evals, tuple(trace))


def multi_size_bucketing(table: MicrodataTable, current: Optional[BucketGroup],
                         spec: PrivacySpec, cfg: SearchConfig,
                         rows: Optional[np.ndarray] = None,
                         ) -> list[tuple[np.ndarray, BucketGroup]]:
    """Recursive refinement of a bucket group by two-size re-bucketing.

    The group is replaced whenever the optimal two-size setting of its record
    set has strictly lower loss; otherwise it becomes a leaf.  Pass
    current=None to start from a single group holding the whole table.
    Returns (row indices, group) leaves in refinement order.
    """
    if rows is None:
        rows = np.arange(len(table), dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
    if current is None:
        if len(rows) == 0:
            raise ConfigError("cannot bucketize an empty table")
        current = BucketGroup(size=len(rows), count=1)
    if current.capacity != len(rows):
        raise ConfigError(
            f"record set of {len(rows)} rows does not fill the group "
            f"capacity {current.capacity}")
    h = histogram(table, rows)
    found = two_size_bucketing(h, spec, cfg)
    if found is None or found.loss >= current.loss:
        return [(rows, current)]
    bounds = allocation_bounds(h, spec, found.setting)
    rows1, rows2 = partition_records(table, bounds, found.setting, rows=rows)
    leaves: list[tuple[np.ndarray, BucketGroup]] = []
    for sub_rows, group in zip((rows1, rows2), found.setting):
        if group.count == 0:
            continue
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


def brute_force_optimal(h: SaHistogram, spec: PrivacySpec, cfg: SearchConfig,
                        max_q: int = 2, budget: int = 10_000_000,
                        candidates: Optional[Iterable[BucketSetting]] = None,
                        ) -> Optional[SearchResult]:
    """Exact minimum-loss valid setting by enumeration plus the cut test.

    Settings are checked in ascending loss order by the subset-cut test
    (Gale 1957), so the first feasible one is optimal.  max_q bounds the
    number of distinct sizes.  candidates, when given, replaces enumeration
    with an explicit list (used to interrogate a forced configuration).
    Exceeding the step budget raises.
    """
    if max_q < 1:
        raise ConfigError(f"max_q must be >= 1, got {max_q}")
    if h.total < 1:
        raise ConfigError("cannot search an empty table")
    if candidates is not None:
        pool = list(candidates)
        if len(pool) > budget:
            raise BudgetExceededError(
                f"{len(pool)} candidates exceed the budget of {budget}")
        for setting in pool:
            if setting.capacity != h.total:
                raise ConfigError(
                    f"candidate capacity {setting.capacity} does not cover "
                    f"{h.total} records")
    else:
        pool = [BucketSetting.of(*groups)
                for groups in _enumerate_settings(h.total, cfg, max_q, budget)]
    pool.sort(key=lambda s: (s.loss, s.sizes))
    for setting in pool:
        if flow_feasibility_oracle(h, spec, setting):
            return SearchResult(setting, setting.loss)
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


def anatomy_baseline_loss(n: int, ell: int) -> int:
    """Loss of ``anatomy_setting(n, ell)``."""
    return anatomy_setting(n, ell).loss
