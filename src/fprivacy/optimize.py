"""Bucket-setting search: optimal two-size, recursive multi-size, baselines.

The two-size search walks size pairs in ascending order and, for each pair,
cuts the candidate list to the prefix below the incumbent loss and looks for
its first valid position.  Three pruning modes exist so their agreement can
be checked: "full" walks blocks of pairs with ``fprivacy.gamma``'s block
kernels (each size's fill limit, found once per search, and the linear
allocation bounds), and gives the setting, trace and probes of a walk one
pair at a time; "loss" walks one pair at a time, scanning each prefix; and
"none" scans every list end to end.  A bucket of size s loses (s-1)^2/s per
record, which grows with s, so "full" and "loss" stop the walk at the first
s1 where n(s1-1)^2/s1 reaches the incumbent loss: no setting of larger
sizes can beat it.  "none" walks every pair.

A brute-force oracle checked by the subset-cut test (Gale 1957) and the
classic equal-size baseline round out the module.
"""

from __future__ import annotations

import itertools
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
    threshold_slots,
    value_slots,
)
from .gamma import (
    NO_BOUND,
    build_block,
    build_gamma,
    fill_interval,
    fill_limits,
    first_valid_scan,
    loss_prefix,
    pc_bounds,
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
# cells of each table that mode "full" builds: a block's (pairs x s1)
# residues, and the (sizes or pairs x values) slots of its kernel passes
_CELLS = 1 << 15


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
    # a size above n + 1 takes no bucket, giving a setting that its pair with
    # n + 1 gave first, so the sizes stop there
    max_size = min(cfg.max_size, n + 1)
    if pruning == "full":
        return _block_walk(counts, spec, cfg.min_size, max_size)
    # "loss" and "none" walk one pair at a time: the reference "full" is
    # checked against
    slots_cache: dict[int, np.ndarray] = {}

    def slots(size: int) -> np.ndarray:
        got = slots_cache.get(size)
        if got is None:
            got = slots_cache[size] = value_slots(spec, size)
        return got

    best_setting = None
    best_loss = math.inf
    evals = 0
    trace = []
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
            pos, probes = first_valid_scan(g, kp, slots(s1), slots(s2),
                                           counts)
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


def _block_walk(counts, spec, min_size, max_size):
    """Mode "full": the walk of mode "loss" over blocks of size pairs in
    walk order, with gamma's block kernels.

    A block's lists, loss prefixes and fill intervals are computed at once
    against the incumbent at the block's start.  A pair whose fill interval
    starts past that prefix cannot win and is skipped.  The others run
    through pc_bounds in groups within one s1 row, each group against the
    incumbent so far; the s1 stop rule is checked at each row start.  A
    pair's first valid position does not depend on the incumbent, only
    whether it wins does, so the incumbent each pair meets is then rebuilt
    with np.minimum.accumulate in walk order, and the probes are counted
    from the prefix it leaves: every fill probe of a size that a pair with
    a nonzero prefix uses, and m for each such pair whose fill interval
    meets its prefix.
    """
    n, m = int(counts.sum()), len(counts)
    o, t, w = _value_kinds(counts, spec.thresholds)
    group = max(1, _CELLS // len(o))  # sizes or pairs per (group x o) pass
    # per size: fill limit (-1 until a block needs it), its probes, and
    # whether a pair with a nonzero prefix used it
    limit = np.full(max_size + 1, -1, dtype=np.int64)
    probes = np.zeros(max_size + 1, dtype=np.int64)
    used = np.zeros(max_size + 1, dtype=bool)
    best, won, evals = NO_BOUND, None, 0
    end = max_size  # rows s1 < end are walked
    walked = []  # per block: its pairs and the incumbent after each
    s1, s2 = min_size, min_size + 1
    while s1 < end:
        # until a setting is found, a block holds one row, so that the
        # setting it finds prunes the next block's lists
        block, (s1, s2) = _next_block(n, s1, s2, end, max_size,
                                      one_row=best == NO_BOUND)
        kp = block.prefix_end(best)
        live = np.flatnonzero(kp >= 0)
        part = block.take(live)
        sizes = np.concatenate((part.size1, part.size2))
        new = np.sort(sizes[limit[sizes] < 0])
        new = new[new != np.concatenate(([0], new[:-1]))]
        for at in range(0, len(new), group):
            chunk = new[at:at + group]
            limit[chunk], probes[chunk] = fill_limits(
                chunk, _slots(t, chunk), o, w)
        lo, hi = fill_interval(part, limit[part.size1], limit[part.size2])
        top = np.minimum(hi, kp[live])
        # a pair can win only if the loss where its fill interval starts
        # is below the incumbent
        start_loss = part.loss_first + lo * part.loss_step
        todo = np.flatnonzero(lo <= top)
        pos = np.full(len(block), -1)
        row_best = best
        while len(todo) and part.size1[todo[0]] < end:
            row_s1 = int(part.size1[todo[0]])
            cut = np.searchsorted(part.size1[todo], row_s1, "right")
            run, todo = todo[:min(cut, group)], todo[min(cut, group):]
            fit, fit_hi = pc_bounds(part.take(run), lo[run], top[run],
                                    _slots(t, row_s1),
                                    _slots(t, part.size2[run]), o)
            run, fit = run[fit <= fit_hi], fit[fit <= fit_hi]
            pos[live[run]] = fit
            fit_loss = part.loss_first[run] + fit * part.loss_step[run]
            if len(fit_loss) and fit_loss.min() < row_best:
                row_best = int(fit_loss.min())
                todo = todo[start_loss[todo] < row_best]
                # the s1 stop rule, for the rows after this one
                end = row_s1 + 1
                while end < max_size and n * (end - 1) ** 2 < row_best * end:
                    end += 1
        # the pairs of rows at or past the stop are not walked
        keep = int(np.searchsorted(block.size1, end))
        loss = np.where(pos >= 0, block.loss_first + pos * block.loss_step,
                        NO_BOUND)[:keep]
        after = np.minimum.accumulate(np.concatenate(([best], loss)))
        met = int(np.searchsorted(live, keep))
        kp = part.prefix_end(after[np.minimum(live, keep)])[:met]
        used[part.size1[:met][kp >= 0]] = True
        used[part.size2[:met][kp >= 0]] = True
        evals += m * int(np.count_nonzero(lo[:met] <= np.minimum(hi[:met],
                                                                  kp)))
        if after[-1] < best:
            j = int(loss.argmin())
            b1, b2 = block[j].pair_at(int(pos[j]))
            won = BucketSetting.of((int(block.size1[j]), b1),
                                   (int(block.size2[j]), b2))
            best = int(after[-1])
        walked.append((block.size1[:keep], block.size2[:keep], after[1:]))
    if won is None:
        return None
    # the incumbent changes a few times: one Python value per run of it
    incumbent = np.concatenate([after for _, _, after in walked])
    runs = np.flatnonzero(np.diff(incumbent, prepend=-1))
    values = [math.inf if v == NO_BOUND else v
              for v in incumbent[runs].tolist()]
    trace = zip(np.concatenate([s1 for s1, _, _ in walked]).tolist(),
                np.concatenate([s2 for _, s2, _ in walked]).tolist(),
                itertools.chain.from_iterable(map(
                    itertools.repeat, values,
                    np.diff(runs, append=len(incumbent)).tolist())))
    return SearchResult(won, evals + int(probes[used].sum()), tuple(trace))


def _next_block(n, s1, s2, end, max_size, one_row):
    """The block of size pairs that starts at (s1, s2) in walk order, and
    the pair after it.  It holds rows s1 < end of sizes up to max_size, as
    many pairs as keep its residue table within _CELLS cells, and ends at
    its first row's end if one_row."""
    firsts, starts, takes = [], [], []
    while s1 < end and not (one_row and firsts):
        room = max(1, _CELLS // s1) - sum(takes)
        if room <= 0:
            break
        firsts.append(s1)
        starts.append(s2)
        takes.append(min(room, max_size + 1 - s2))
        s2 += takes[-1]
        if s2 > max_size:
            s1, s2 = s1 + 1, s1 + 2
    offsets = np.cumsum([0] + takes[:-1])
    sizes2 = np.arange(sum(takes)) + np.repeat(np.subtract(starts, offsets),
                                               takes)
    return build_block(n, np.repeat(firsts, takes), sizes2), (s1, s2)


def _value_kinds(counts, thresholds):
    """The distinct (count, threshold) pairs of the values that have
    records, and how many values share each.  The searches see each pair
    once: a value without records constrains no setting, and values alike
    constrain it alike."""
    has = counts > 0
    o, t = counts[has], thresholds[has]
    order = np.lexsort((t, o))
    o, t = o[order], t[order]
    first = np.flatnonzero((np.diff(o, prepend=-1) != 0)
                           | (np.diff(t, prepend=-1.0) != 0))
    return o[first], t[first], np.diff(first, append=len(o))


def _slots(thresholds, sizes) -> np.ndarray:
    """value_slots of each size, one row per size of an array."""
    sizes = np.asarray(sizes)
    return threshold_slots(thresholds, sizes[..., None]).astype(np.int64)


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
