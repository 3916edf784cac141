"""Candidate lists of two-size settings and the kernels that search them.

For a table of n records and bucket sizes s1 < s2, every way of covering the
table exactly is a pair of bucket counts (b1, b2) with s1*b1 + s2*b2 = n.  The
non-negative solutions form an arithmetic progression, stored compactly as
:class:`GammaList`: position i holds (b1_first - i*step1, b2_first + i*step2).
Information loss is strictly increasing along the list, so a search can
restrict itself to a prefix once it holds a candidate loss
(:func:`loss_prefix`) and ask for the first valid position in that prefix.
In the kernels ``u1`` and ``u2`` hold the per-bucket slot counts of each SA
value for the two sizes, and ``o`` the per-value record counts.

Both constraint families have closed forms:

* Fill: b buckets of one size can be filled iff b <= fill_limit(size), so a
  pair's fill interval is two integer divisions.
* Allocation: for b1, b2 >= 0 a value's condition
  min(u1*b1, o) + min(u2*b2, o) >= o is exactly u1*b1 + u2*b2 >= o, linear
  in the position, so pc_bounds solves it for every value at once.

The kernels count probes: one per ``fill_limit`` bisection step, and one per
value each time a pair's allocation condition is solved.  The reference scan
counts one probe per constraint evaluated at one position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

__all__ = ["GammaList", "build_gamma", "loss_prefix", "fill_limit",
           "pc_bounds", "first_valid_pos", "first_valid_scan"]


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


def _fill_ok(b, size, u, o):
    # Can b buckets of this size be filled to capacity, with each value
    # contributing at most min(u*b, o) records?
    return int(np.minimum(u * b, o).sum()) >= size * b


def fill_limit(size, u, o):
    """Largest bucket count b such that b buckets of this size can be filled.

    The slack sum(min(u*b, o)) - size*b is concave in b and 0 at b = 0, so
    filling succeeds exactly for b in [0, limit]; above sum(o) // size it
    fails.  Returns (limit, probes).
    """
    ok, bad = 0, int(o.sum()) // size + 1
    probes = 0
    while bad - ok > 1:
        mid = (ok + bad) // 2
        probes += 1
        if _fill_ok(mid, size, u, o):
            ok = mid
        else:
            bad = mid
    return ok, probes


def pc_bounds(g: GammaList, kp, u1, u2, o):
    """Interval of positions in [0, kp] of g where every value's allocation
    condition u1*b1 + u2*b2 >= o holds; empty iff lo > hi.

    Per value the condition reads pos * slope >= need: a lower bound on the
    position where the slope is positive, an upper bound where it is
    negative, all or nothing where it is zero.
    """
    slope = u2 * g.step2 - u1 * g.step1
    need = o - u1 * g.b1_first - u2 * g.b2_first
    if np.any(need[slope == 0] > 0):
        return 1, 0
    lo, hi = 0, kp
    up = slope > 0
    if up.any():
        lo = max(lo, int((-(-need[up] // slope[up])).max()))
    down = slope < 0
    if down.any():
        hi = min(hi, int((need[down] // slope[down]).min()))
    return lo, hi


def first_valid_pos(g: GammaList, kp, lim1, lim2, u1, u2, o):
    """First position in [0, kp] of g passing every constraint, given both
    sizes' fill limits.  Returns (position or -1, probes).
    """
    lo = max(0, -((lim1 - g.b1_first) // g.step1))  # b1 <= lim1
    hi = min(kp, (lim2 - g.b2_first) // g.step2)    # b2 <= lim2
    if lo > hi:
        return -1, 0
    plo, phi = pc_bounds(g, kp, u1, u2, o)
    lo, hi = max(lo, plo), min(hi, phi)
    return (lo if lo <= hi else -1), o.shape[0]


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
