import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from fprivacy.core import (ConfigError, IngestionError, MicrodataTable,
                           PrivacySpec, histogram, intern_labels,
                           linear_privacy_spec, open_csv, read_columns,
                           value_slots)


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


def read_table_csv_module(path):
    """Reference read_table for any CSV: csv.reader over the UTF-8 text,
    read_columns, then intern_labels of each column."""
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        columns = read_columns(reader, len(header), path)
    if not columns or not columns[0]:
        raise IngestionError(f"{path}: no data rows")
    return header, [intern_labels(column) for column in columns]


def write_published_csv_writer(pt, out_dir):
    """Reference qit.csv and st.csv of a release: csv.writer rows of each
    record's labels and each ST row's bucket id and label."""
    out = Path(out_dir)
    qi_labels = [np.array(domain, dtype=object)[pt.qi_codes[:, j]].tolist()
                 for j, domain in enumerate(pt.qi_domains)]
    with open(out / "qit.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(pt.qi_names) + ["BID"])
        writer.writerows(zip(*qi_labels, pt.qit_bids.tolist()))
    with open(out / "st.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["BID", pt.sa_name])
        writer.writerows(zip(pt.st_bids.tolist(), np.array(
            pt.sa_domain, dtype=object)[pt.st_codes].tolist()))


# random seeds of one to ten 32-bit words, and seeds on and next to the word
# boundaries
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(0, 2**300),
    st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128,
                     2**256]))


def spawn_published_st_codes(sa_codes, bucket_of, bucket_count, seed):
    """Reference ST codes of publish: each bucket's SA codes in record order,
    buckets ascending, bucket b's shuffled by
    default_rng(SeedSequence(seed).spawn(B)[b])."""
    order = np.argsort(bucket_of, kind="stable")
    st_codes = sa_codes[order].astype(np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(
        bucket_of, minlength=bucket_count))))
    streams = np.random.SeedSequence(seed).spawn(bucket_count)
    for b in range(bucket_count):
        np.random.default_rng(streams[b]).shuffle(
            st_codes[bounds[b]:bounds[b + 1]])
    return st_codes


def spawn_injected_fakes(pt, sigma, seed, caps=None, flagged=frozenset()):
    """Reference (st_codes, fakes) of inject_fakes, or None when it must
    refuse.  Bucket b's pool is the codes its ST rows lack, that caps[code]
    admits once in a bucket of its size plus sigma (floor(cap * rows + 1e-9)
    >= 1, as threshold_slots counts), and that no (QI attribute, QI value,
    code) triple in flagged names for a QI value of its records.  Its
    generator default_rng(SeedSequence(seed).spawn(B)[b]) chooses sigma of
    the pool's codes, ascending, then shuffles its ST rows followed by those
    fakes.  A bucket holding a value twice, or whose pool is under sigma,
    refuses."""
    streams = np.random.SeedSequence(seed).spawn(pt.bucket_count)
    st_codes, fakes = [], []
    for b in range(pt.bucket_count):
        rng = np.random.default_rng(streams[b])
        real = pt.st_slice(b + 1)
        if len(set(real.tolist())) != len(real):
            return None
        rows = pt.qi_codes[pt.qit_bids == b + 1].tolist()
        pool = [x for x in range(pt.m) if x not in real
                and (caps is None or caps[x] * (len(real) + sigma) + 1e-9 >= 1)
                and not any((j, z, x) in flagged
                            for row in rows for j, z in enumerate(row))]
        if len(pool) < sigma:
            return None
        drawn = rng.choice(np.array(pool, dtype=np.int32), size=sigma,
                           replace=False)
        merged = np.concatenate([real, drawn])
        rng.shuffle(merged)
        st_codes.append(merged)
        fakes.append(np.sort(drawn))
    return (np.concatenate(st_codes),
            np.array(fakes, dtype=np.int32).reshape(pt.bucket_count, sigma))


def worst_record_prob(report):
    """max_record_prob as corruption_attack_sim once accumulated it: from
    0.0, the max of each bucket's max_prob while it keeps a real record."""
    worst = 0.0
    for inference in report.buckets:
        if inference.remaining_real > 0:
            worst = max(worst, inference.max_prob)
    return worst
