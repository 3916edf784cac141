"""Candidate lists of two-size settings and the kernels that search them.

For a table of n records and bucket sizes s1 < s2, every way of covering the
table exactly is a pair of bucket counts (b1, b2) with s1*b1 + s2*b2 = n.  The
non-negative solutions form an arithmetic progression, stored compactly as
:class:`GammaList`: position i holds (b1_first - i*step1, b2_first + i*step2).
Information loss is strictly increasing along the list, so a search can
restrict itself to a prefix once it holds a candidate loss
(:func:`loss_prefix`) and ask for the first valid position in that prefix.
:class:`GammaBlock` holds the lists of many size pairs as arrays
(:func:`build_block`), and the kernels work on a whole block at once.  In
the kernels ``u1`` and ``u2`` hold the per-bucket slot counts of each SA
value for the two sizes, and ``o`` the per-value record counts.

Both constraint families have closed forms:

* Fill: b buckets of one size can be filled iff b <= its fill limit, which
  :func:`fill_limits` bisects for many sizes in lock step, so a pair's fill
  interval is two integer divisions (:func:`fill_interval`).
* Allocation: for b1, b2 >= 0 a value's condition
  min(u1*b1, o) + min(u2*b2, o) >= o is exactly u1*b1 + u2*b2 >= o, linear
  in the position, so pc_bounds solves it for every value of every pair in
  a block at once.

A search counts probes: one per fill bisection step of each size, and one
per value each time a pair's allocation condition is solved.  The reference
scan, :func:`first_valid_scan`, counts one probe per constraint evaluated at
one position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

__all__ = ["GammaList", "build_gamma", "loss_prefix", "NO_BOUND",
           "GammaBlock", "build_block", "fill_limits", "fill_interval",
           "pc_bounds", "first_valid_scan"]


@dataclass(frozen=True)
class GammaList:
    """Arithmetic progression of (b1, b2) pairs covering a fixed table size.

    Position i holds the pair (b1_first - i*step1, b2_first + i*step2) for
    i in 0..last_index.  Seven integers determine the whole list; the table
    size is recoverable as ``n``.
    """

    size1: int
    size2: int
    b1_first: int
    b2_first: int
    step1: int
    step2: int
    last_index: int

    @property
    def n(self) -> int:
        return self.size1 * self.b1_first + self.size2 * self.b2_first

    def __len__(self) -> int:
        return self.last_index + 1

    def pair_at(self, i: int) -> tuple[int, int]:
        """Bucket-count pair at position i."""
        if not 0 <= i <= self.last_index:
            raise IndexError(f"position {i} outside 0..{self.last_index}")
        return self.b1_first - i * self.step1, self.b2_first + i * self.step2

    def loss_at(self, i: int) -> int:
        b1, b2 = self.pair_at(i)
        return b1 * (self.size1 - 1) ** 2 + b2 * (self.size2 - 1) ** 2

    def pairs(self) -> list[tuple[int, int]]:
        """All pairs in position order (small lists only; len == last_index+1)."""
        return [self.pair_at(i) for i in range(self.last_index + 1)]


def build_gamma(n: int, size1: int, size2: int) -> GammaList | None:
    """Enumerate all exact two-size coverings of n records, or None if none exist.

    size2 may exceed n; the list is then empty or degenerate but the call is
    still well-defined (sub-table searches rely on this).
    """
    if n < 1:
        raise ConfigError(f"table size must be positive, got {n}")
    if not 1 <= size1 < size2:
        raise ConfigError(f"need 1 <= size1 < size2, got ({size1}, {size2})")
    # with g = gcd(s1, s2), the least b2 solves (s2/g)*b2 = n/g mod s1/g
    g = math.gcd(size1, size2)
    if n % g:
        return None
    step1, step2 = size2 // g, size1 // g
    b2 = n // g * pow(step1, -1, step2) % step2
    if size2 * b2 > n:
        return None
    b1_first = (n - size2 * b2) // size1
    return GammaList(size1, size2, b1_first, b2, step1, step2,
                     b1_first // step1)


def loss_prefix(gamma: GammaList, best_loss: float) -> int:
    """Length of the prefix whose loss is strictly below best_loss.

    Loss grows by the constant step2*(size2-1)^2 - step1*(size1-1)^2 (> 0)
    per position, so the cut-off is a division, not a scan.
    """
    if best_loss == math.inf:
        return gamma.last_index + 1
    first = gamma.loss_at(0)
    best = int(best_loss)
    if best <= first:
        return 0
    diff = (gamma.step2 * (gamma.size2 - 1) ** 2
            - gamma.step1 * (gamma.size1 - 1) ** 2)
    return min(gamma.last_index, (best - first - 1) // diff) + 1


NO_BOUND = np.iinfo(np.int64).max  # the int64 loss bound above every loss


@dataclass(frozen=True)
class GammaBlock:
    """Candidate lists of many size pairs, as arrays.

    Entry j holds the seven integers of the GammaList of (size1[j],
    size2[j]).  With sizes of at most n + 1 the int64 arithmetic is exact:
    a loss of n records is then below n*(n+1), and only a one-position
    list's loss step, which is never used, can pass 2**63.
    """

    size1: np.ndarray
    size2: np.ndarray
    b1_first: np.ndarray
    b2_first: np.ndarray
    step1: np.ndarray
    step2: np.ndarray
    last_index: np.ndarray

    def __len__(self) -> int:
        return len(self.size2)

    def __getitem__(self, j: int) -> GammaList:
        return GammaList(*(int(column[j]) for column in _columns(self)))

    def take(self, idx) -> "GammaBlock":
        """The entries at idx (an index array or a slice), as a block."""
        return GammaBlock(*(column[idx] for column in _columns(self)))

    @functools.cached_property
    def loss_first(self) -> np.ndarray:
        return (self.b1_first * (self.size1 - 1) ** 2
                + self.b2_first * (self.size2 - 1) ** 2)

    @functools.cached_property
    def loss_step(self) -> np.ndarray:
        """Loss added per position (1 for a one-position list)."""
        return np.where(self.last_index > 0,
                        self.step2 * (self.size2 - 1) ** 2
                        - self.step1 * (self.size1 - 1) ** 2, 1)

    def prefix_end(self, best) -> np.ndarray:
        """Per entry, the last position whose loss is strictly below best
        (NO_BOUND for none; one bound, or one per entry), else -1: the
        block form of loss_prefix, minus one."""
        first = self.loss_first
        return np.where(first < best, np.minimum(
            self.last_index, (best - first - 1) // self.loss_step), -1)


def _columns(block: GammaBlock):
    return (block.size1, block.size2, block.b1_first, block.b2_first,
            block.step1, block.step2, block.last_index)


def build_block(n: int, sizes1, sizes2) -> GammaBlock:
    """build_gamma for every pair (sizes1[j], sizes2[j]) at once, keeping
    the pairs that cover n records.

    The least b2 with size2*b2 = n (mod size1) depends only on size2 mod
    size1 and lies below size1, so one (pairs x largest size1) table of
    residues finds every pair's b2_first.
    """
    s1 = np.asarray(sizes1, dtype=np.int64)
    s2 = np.asarray(sizes2, dtype=np.int64)
    if n < 1 or np.any(s1 < 1) or np.any(s2 <= s1):
        raise ConfigError(f"need n >= 1 and 1 <= size1 < size2 in every "
                          f"pair, got n={n}")
    hit = ((s2 % s1)[:, None] * np.arange(s1.max(initial=1)) % s1[:, None]
           == (n % s1)[:, None])
    b2 = hit.argmax(axis=1)
    keep = hit.any(axis=1) & (s2 * b2 <= n)
    s1, s2, b2 = s1[keep], s2[keep], b2[keep]
    g = np.gcd(s1, s2)
    b1 = (n - s2 * b2) // s1
    return GammaBlock(s1, s2, b1, b2, s2 // g, s1 // g, b1 // (s2 // g))


def _fill_ok(b, size, u, o):
    # Can b buckets of each size be filled to capacity, with each value
    # contributing at most min(u*b, o) records?  u holds a size's slots in
    # its last axis.
    b = np.asarray(b)
    return np.minimum(u * b[..., None], o).sum(axis=-1) >= size * b


def fill_limits(sizes, u, o, w):
    """Per size, the largest bucket count b such that b buckets of it can be
    filled; row k of u holds size k's value slots, and column i stands for
    w[i] values alike.

    The slack sum(min(u*b, o)) - size*b is concave in b and 0 at b = 0, so
    filling succeeds exactly for b in [0, limit]; above sum(o) // size it
    fails.  One bisection runs for all sizes in lock step, each size on its
    own interval.  Returns (limits, probes), probes counting each size's own
    steps.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    # w values alike contribute w * min(u*b, o) = min(w*u*b, w*o)
    u, o = u * w, o * w
    ok = np.zeros_like(sizes)
    bad = int(o.sum()) // sizes + 1
    probes = np.zeros_like(sizes)
    while (live := bad - ok > 1).any():
        # a finished size probes mid = ok, which fits and changes nothing
        mid = (ok + bad) // 2
        fits = _fill_ok(mid, sizes, u, o)
        ok = np.where(fits, mid, ok)
        bad = np.where(fits, bad, mid)
        probes += live
    return ok, probes


def fill_interval(block: GammaBlock, lim1, lim2):
    """Per entry, the positions [lo, hi] whose pair lies within both sizes'
    fill limits, b1 <= lim1 and b2 <= lim2 (one per entry); empty iff lo >
    hi, and hi may pass last_index."""
    lo = np.maximum(0, -((lim1 - block.b1_first) // block.step1))
    hi = (lim2 - block.b2_first) // block.step2
    return lo, hi


def pc_bounds(block: GammaBlock, lo, hi, u1, u2, o):
    """Per entry j, the positions in [lo[j], hi[j]] where every value's
    allocation condition u1*b1 + u2[j]*b2 >= o holds; empty iff lo > hi.
    Given the fill interval within a prefix, lo is the entry's first valid
    position there.

    Per value the condition reads pos * slope >= need: a lower bound on the
    position where the slope is positive, an upper bound where it is
    negative, all or nothing where it is zero.
    """
    slope = u2 * block.step2[:, None] - u1 * block.step1[:, None]
    need = o - u1 * block.b1_first[:, None] - u2 * block.b2_first[:, None]
    flat = slope == 0
    div = np.where(flat, 1, slope)
    lo = np.maximum(lo, (-(-need // div)).max(axis=1, where=slope > 0,
                                              initial=0))
    hi = np.minimum(hi, (need // div).min(axis=1, where=slope < 0,
                                          initial=NO_BOUND))
    return lo, np.where((flat & (need > 0)).any(axis=1), -1, hi)


def first_valid_scan(g: GammaList, kp, u1, u2, o):
    """Linear walk of positions 0..kp of g checking every constraint
    directly.  Returns (position or -1, probes).
    """
    m = o.shape[0]
    probes = 0
    for pos in range(kp + 1):
        b1, b2 = g.pair_at(pos)
        ok = True
        acc1 = 0
        acc2 = 0
        for i in range(m):
            oi = o[i]
            c1 = u1[i] * b1
            if oi < c1:
                c1 = oi
            c2 = u2[i] * b2
            if oi < c2:
                c2 = oi
            probes += 1
            if c1 + c2 < oi:
                ok = False
                break
            acc1 += c1
            acc2 += c2
        if ok:
            probes += 2
            ok = acc1 >= g.size1 * b1 and acc2 >= g.size2 * b2
            if ok:
                return pos, probes
    return -1, probes
