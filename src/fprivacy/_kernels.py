"""Search kernels for the two-size setting list.

Positions index the arithmetic progression (b1_first - pos*step1,
b2_first + pos*step2) of bucket-count pairs.  All inputs are int64; ``u1`` and
``u2`` hold the per-bucket slot counts of each SA value for the two sizes, and
``o`` the per-value record counts.

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

import numpy as np


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


def pc_bounds(kp, b1f, d1, b2f, d2, u1, u2, o):
    """Interval of positions in [0, kp] where every value's allocation
    condition u1*b1 + u2*b2 >= o holds; empty iff lo > hi.

    Per value the condition reads pos * slope >= need: a lower bound on the
    position where the slope is positive, an upper bound where it is
    negative, all or nothing where it is zero.
    """
    slope = u2 * d2 - u1 * d1
    need = o - u1 * b1f - u2 * b2f
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


def first_valid_pos(kp, b1f, d1, b2f, d2, lim1, lim2, u1, u2, o):
    """First position in [0, kp] passing every constraint, given both sizes'
    fill limits.  Returns (position or -1, probes).
    """
    lo = max(0, -((lim1 - b1f) // d1))  # b1 <= lim1
    hi = min(kp, (lim2 - b2f) // d2)    # b2 <= lim2
    if lo > hi:
        return -1, 0
    plo, phi = pc_bounds(kp, b1f, d1, b2f, d2, u1, u2, o)
    lo, hi = max(lo, plo), min(hi, phi)
    return (lo if lo <= hi else -1), o.shape[0]


def first_valid_scan(kp, b1f, d1, b2f, d2, s1, s2, u1, u2, o):
    """Linear walk of positions 0..kp checking every constraint directly.

    Returns (position or -1, probes).
    """
    m = o.shape[0]
    probes = 0
    for pos in range(kp + 1):
        b1 = b1f - pos * d1
        b2 = b2f + pos * d2
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
            ok = acc1 >= s1 * b1 and acc2 >= s2 * b2
            if ok:
                return pos, probes
    return -1, probes
