import math

import numpy as np
import pytest

from fprivacy.core import (ConfigError, MicrodataTable, PrivacySpec,
                           histogram, linear_privacy_spec, value_slots)


def table_from_counts(counts, qi_width=1, labels=None):
    """Table with the given per-SA-value record counts, rows value-major.

    SA labels are zero-padded so sorted interning preserves numeric order.
    """
    counts = list(counts)
    m = len(counts)
    if labels is None:
        labels = [f"s{i:03d}" for i in range(m)]
    sa_codes = np.repeat(np.arange(m, dtype=np.int32), counts)
    n = len(sa_codes)
    qi_codes = np.stack(
        [(np.arange(n, dtype=np.int32) * (j + 1)) % 3 for j in range(qi_width)],
        axis=1,
    )
    qi_domains = [["q0", "q1", "q2"] for _ in range(qi_width)]
    return MicrodataTable.from_codes(
        qi_codes, sa_codes,
        qi_names=[f"attr{j}" for j in range(qi_width)],
        sa_name="sa", qi_domains=qi_domains, sa_domain=labels,
    )


@pytest.fixture
def walkthrough_table():
    """The 50-record instance: o_i = 1 for eight values, 6 for four, 9 for two."""
    return table_from_counts([1] * 8 + [6] * 4 + [9] * 2,
                             labels=[f"x{i:02d}" for i in range(1, 15)])


@pytest.fixture
def walkthrough_spec(walkthrough_table):
    """Thresholds 2*f_i + 0.05 for the 50-record instance."""
    h = histogram(walkthrough_table)
    return linear_privacy_spec(h, theta=2.0, intercept=0.05)


def random_instance(rng, max_n=60, max_m=8):
    """Small random histogram + thresholds for oracle cross-checks."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(m, max_n + 1))
    counts = np.ones(m, dtype=np.int64)
    extra = rng.multinomial(n - m, rng.dirichlet(np.ones(m)))
    counts += extra
    freqs = counts / n
    slack = rng.uniform(0.8, 3.0, size=m)
    thresholds = np.minimum(1.0, np.maximum(freqs * slack, 0.02))
    return counts, PrivacySpec(thresholds=thresholds)


def max_flow_feasible(h, p, setting):
    """Reference validity test by scipy max flow, for any number of groups.

    Source -> value (h_v) -> group (min(slots * count, h_v)) -> sink (group
    capacity); a valid assignment exists iff the flow saturates the record
    count.  Cross-checks the package's subset-cut test.
    """
    from scipy.sparse import csgraph, csr_matrix
    if setting.capacity != h.total:
        return False
    groups = [g for g in setting.groups if g.count > 0]
    q = len(groups)
    m = h.m
    src, snk = 0, 1 + m + q
    nodes = snk + 1
    rows, cols, caps = [], [], []
    for i in range(m):
        if h.counts[i] > 0:
            rows.append(src)
            cols.append(1 + i)
            caps.append(int(h.counts[i]))
    for j, g in enumerate(groups):
        slots = value_slots(p, g.size)
        for i in range(m):
            cap = int(slots[i]) * g.count
            if cap > 0 and h.counts[i] > 0:
                rows.append(1 + i)
                cols.append(1 + m + j)
                caps.append(min(cap, int(h.counts[i])))
        rows.append(1 + m + j)
        cols.append(snk)
        caps.append(g.capacity)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(nodes, nodes))
    return int(csgraph.maximum_flow(graph, src, snk).flow_value) == h.total


def eager_value_counts(bucket_of, sa_codes, bucket_count, m):
    """Reference (bucket × value) count matrix, built eagerly with np.add.at."""
    value_counts = np.zeros((bucket_count, m), dtype=np.int64)
    np.add.at(value_counts, (bucket_of, sa_codes), 1)
    return value_counts


def gamma_first_covering(n, size1, size2):
    """Reference first covering (b1, b2) of n by sizes size1 < size2, by
    scanning b2 over one period; None when there is none."""
    step2 = math.lcm(size1, size2) // size2
    for b2 in range(step2):
        rem = n - size2 * b2
        if rem >= 0 and rem % size1 == 0:
            return rem // size1, b2
    return None


def enumerate_settings_recursive(n, min_size, max_size, max_q):
    """Reference enumeration of settings of <= max_q distinct sizes in
    [min_size, max_size] covering n, recursing into every count of every
    group, the last one included."""
    found, chosen = [], []

    def descend(remaining, start, q_left):
        if remaining == 0:
            found.append(tuple(chosen))
            return
        if q_left == 0:
            return
        for size in range(start, max_size + 1):
            if size > remaining:
                break
            for count in range(1, remaining // size + 1):
                chosen.append((size, count))
                descend(remaining - size * count, size + 1, q_left - 1)
                chosen.pop()

    descend(n, min_size, max_q)
    return found


def partition_by_masks(table, bounds, setting, rows=None):
    """Reference partition_records, moving one record at a time.

    Each value's allocation-cap prefix (one boolean scan of the rows per
    value) seeds the first group; the overflow drains one record per value
    in ascending code order, cycling until the first group shrinks to its
    capacity, latest rows first.
    """
    if rows is None:
        rows = np.arange(len(table), dtype=np.int64)
    rows = np.asarray(rows)
    h = histogram(table, rows)
    g1, g2 = setting.groups
    a1 = bounds.alloc[:, 0]
    a2 = bounds.alloc[:, 1]
    if int(a1.sum()) < g1.capacity or int(a2.sum()) < g2.capacity \
            or np.any(a1 + a2 < h.counts) or setting.capacity != h.total:
        raise ConfigError("partition_records called on an invalid setting")
    codes = table.sa_codes[rows]
    by_value = [rows[codes == v] for v in range(h.m)]
    seed = [arr[: a1[v]] for v, arr in enumerate(by_value)]
    rest = [arr[a1[v]:] for v, arr in enumerate(by_value)]
    t1_len = np.array([len(x) for x in seed])
    t2_len = np.array([len(x) for x in rest])
    need = int(t1_len.sum()) - g1.capacity
    moved = 0
    while moved < need:
        progressed = False
        for v in range(h.m):
            if moved >= need:
                break
            if t1_len[v] > 0 and t2_len[v] < a2[v]:
                t1_len[v] -= 1
                t2_len[v] += 1
                moved += 1
                progressed = True
        if not progressed:
            raise ConfigError("partition stalled; setting was not valid")
    rows1 = np.concatenate([seed[v][: t1_len[v]] for v in range(h.m)])
    rows2 = np.concatenate([seed[v][t1_len[v]:] for v in range(h.m)] + rest)
    rows1.sort()
    rows2.sort()
    return rows1, rows2
