"""Search kernels for the two-size setting list.

Positions index the arithmetic progression (b1_first - pos*step1,
b2_first + pos*step2) of bucket-count pairs.  All inputs are int64; ``u1`` and
``u2`` hold the per-bucket slot counts of each SA value for the two sizes, and
``o`` the per-value record counts.  Every function returns its probe count,
where one probe is one constraint evaluated at one position.
"""

from __future__ import annotations

import numpy as np


def _fill_ok(b, size, u, o):
    # Can b buckets of this size be filled to capacity, with each value
    # contributing at most min(u*b, o) records?
    return int(np.minimum(u * b, o).sum()) >= size * b


def fc_bounds(kp, b1f, d1, b2f, d2, s1, s2, u1, u2, o):
    """Interval of positions in [0, kp] passing both fill constraints.

    The small-size fill constraint holds on a suffix of positions, the
    large-size one on a prefix, so two binary searches bound the interval.
    Returns (lo, hi, probes); the interval is empty iff lo > hi.
    """
    probes = 1
    if not _fill_ok(b1f - kp * d1, s1, u1, o):
        return 1, 0, probes
    lo = 0
    probes += 1
    if not _fill_ok(b1f, s1, u1, o):
        a, b = 0, kp
        while b - a > 1:
            mid = (a + b) // 2
            probes += 1
            if _fill_ok(b1f - mid * d1, s1, u1, o):
                b = mid
            else:
                a = mid
        lo = b
    probes += 1
    if not _fill_ok(b2f, s2, u2, o):
        return 1, 0, probes
    hi = kp
    probes += 1
    if not _fill_ok(b2f + kp * d2, s2, u2, o):
        a, b = 0, kp
        while b - a > 1:
            mid = (a + b) // 2
            probes += 1
            if _fill_ok(b2f + mid * d2, s2, u2, o):
                a = mid
            else:
                b = mid
        hi = a
    return lo, hi, probes


def pc_gap(kp, b1f, d1, b2f, d2, u1i, u2i, oi):
    """Positions in [0, kp] where one value's allocation condition fails.

    The failure set is a single (possibly empty) run: the small-size cap alone
    suffices on a prefix, the large-size cap alone on a suffix, and in between
    the combined cap is linear in the position.  Returns (lo, hi, probes);
    empty iff lo > hi.
    """
    probes = 0
    if oi <= 0:
        return 1, 0, probes
    # small-size cap alone: u1i*b1 >= oi, true on a prefix
    probes += 1
    if u1i * (b1f - kp * d1) >= oi:
        return 1, 0, probes
    p1 = -1
    probes += 1
    if u1i * b1f >= oi:
        a, b = 0, kp
        while b - a > 1:
            mid = (a + b) // 2
            probes += 1
            if u1i * (b1f - mid * d1) >= oi:
                a = mid
            else:
                b = mid
        p1 = a
    # large-size cap alone: u2i*b2 >= oi, true on a suffix
    p2 = kp + 1
    probes += 1
    if u2i * (b2f + kp * d2) >= oi:
        probes += 1
        if u2i * b2f >= oi:
            p2 = 0
        else:
            a, b = 0, kp
            while b - a > 1:
                mid = (a + b) // 2
                probes += 1
                if u2i * (b2f + mid * d2) >= oi:
                    b = mid
                else:
                    a = mid
            p2 = b
    lo = p1 + 1
    hi = p2 - 1
    if lo > hi:
        return 1, 0, probes
    # in the middle both caps bind, so the condition is u1i*b1 + u2i*b2 >= oi,
    # linear in the position with slope u2i*d2 - u1i*d1
    slope = u2i * d2 - u1i * d1
    if slope >= 0:
        probes += 1
        if u1i * (b1f - lo * d1) + u2i * (b2f + lo * d2) >= oi:
            return 1, 0, probes
        probes += 1
        if u1i * (b1f - hi * d1) + u2i * (b2f + hi * d2) < oi:
            return lo, hi, probes
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            probes += 1
            if u1i * (b1f - mid * d1) + u2i * (b2f + mid * d2) >= oi:
                b = mid
            else:
                a = mid
        return lo, b - 1, probes
    else:
        probes += 1
        if u1i * (b1f - hi * d1) + u2i * (b2f + hi * d2) >= oi:
            return 1, 0, probes
        probes += 1
        if u1i * (b1f - lo * d1) + u2i * (b2f + lo * d2) < oi:
            return lo, hi, probes
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            probes += 1
            if u1i * (b1f - mid * d1) + u2i * (b2f + mid * d2) >= oi:
                a = mid
            else:
                b = mid
        return a + 1, hi, probes


def first_valid_pos(kp, b1f, d1, b2f, d2, s1, s2, u1, u2, o):
    """First position in [0, kp] passing every constraint, by region pruning.

    Returns (position or -1, probes, split_count) where split_count is how many
    values produced an interior failure run (the two-interval case).
    """
    lo, hi, probes = fc_bounds(kp, b1f, d1, b2f, d2, s1, s2, u1, u2, o)
    if lo > hi:
        return -1, probes, 0
    m = o.shape[0]
    gap_lo = np.empty(m, dtype=np.int64)
    gap_hi = np.empty(m, dtype=np.int64)
    ng = 0
    splits = 0
    for i in range(m):
        glo, ghi, pr = pc_gap(kp, b1f, d1, b2f, d2, u1[i], u2[i], o[i])
        probes += pr
        if glo <= ghi:
            if glo > 0 and ghi < kp:
                splits += 1
            gap_lo[ng] = glo
            gap_hi[ng] = ghi
            ng += 1
    cand = lo
    if ng > 0:
        order = np.argsort(gap_lo[:ng])
        for idx in range(ng):
            g = order[idx]
            if gap_lo[g] > cand:
                break
            if gap_hi[g] >= cand:
                cand = gap_hi[g] + 1
    if cand > hi:
        return -1, probes, splits
    return cand, probes, splits


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
