"""Candidate lists of two-size bucket settings.

For a table of n records and bucket sizes s1 < s2, every way of covering the
table exactly is a pair of bucket counts (b1, b2) with s1*b1 + s2*b2 = n.  The
non-negative solutions form an arithmetic progression, stored compactly as
:class:`GammaList`.  Information loss is strictly increasing along the list,
so a search can restrict itself to a prefix once it holds a candidate loss
(:func:`loss_prefix`); ``fprivacy._kernels`` then finds the first valid
position in that prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigError

__all__ = ["GammaList", "build_gamma", "loss_prefix"]


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
