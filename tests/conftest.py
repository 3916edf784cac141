import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from fprivacy.core import (ConfigError, IngestionError, MicrodataTable,
                           PrivacySpec, histogram, ingest_csv, intern_labels,
                           linear_privacy_spec, open_csv, read_columns,
                           threshold_slots, value_slots)
from fprivacy.validate import BucketGroup, build_assignment

TABLE1 = ("Gender,Zipcode,Disease\n"
          "M,54321,Brain Tumor\n"
          "M,54322,Indigestion\n"
          "F,61234,Cancer\n"
          "F,61434,HIV\n")


def clinic_table(tmp_path):
    """TABLE1, the four-record clinic table, ingested with SA Disease."""
    path = tmp_path / "clinic.csv"
    path.write_text(TABLE1)
    return ingest_csv(path, sa_column="Disease")


def pair_buckets(table):
    """Assign records 0,1 to bucket 1 and records 2,3 to bucket 2."""
    parts = [(np.array([0, 1]), BucketGroup(size=2, count=1)),
             (np.array([2, 3]), BucketGroup(size=2, count=1))]
    return build_assignment(table, parts)


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


def tight_value_instance(seed, m=30, n=4000, tight=150):
    """One value hostable only by the largest size; all position lists long."""
    rng = np.random.default_rng(seed)
    rest = rng.multinomial(n - tight - (m - 1), np.ones(m - 1) / (m - 1)) + 1
    counts = np.concatenate([rest, [tight]]).astype(np.int64)
    thresholds = np.ones(m)
    thresholds[-1] = 1.0 / 12.0 + 0.001
    return counts, PrivacySpec(thresholds=thresholds)


def max_flow_feasible(h, p, setting):
    """Reference validity test by scipy max flow, for any number of groups.

    Source -> value (h_v) -> group (min(slots * count, h_v)) -> sink (group
    capacity); a valid assignment exists iff the flow saturates the record
    count.  Cross-checks the package's subset-cut test.
    """
    from scipy.sparse import csgraph, csr_matrix
    if setting.capacity != h.sum():
        return False
    groups = [g for g in setting.groups if g.count > 0]
    q = len(groups)
    m = len(h)
    src, snk = 0, 1 + m + q
    nodes = snk + 1
    rows, cols, caps = [], [], []
    for i in range(m):
        if h[i] > 0:
            rows.append(src)
            cols.append(1 + i)
            caps.append(int(h[i]))
    for j, g in enumerate(groups):
        slots = value_slots(p, g.size)
        for i in range(m):
            cap = int(slots[i]) * g.count
            if cap > 0 and h[i] > 0:
                rows.append(1 + i)
                cols.append(1 + m + j)
                caps.append(min(cap, int(h[i])))
        rows.append(1 + m + j)
        cols.append(snk)
        caps.append(g.capacity)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(nodes, nodes))
    return int(csgraph.maximum_flow(graph, src, snk).flow_value) == h.sum()


def write_table_csv(path, table):
    """table as a header-ed CSV of its labels, SA column last."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.qi_names) + [table.sa_name])
        for row, sa in zip(table.qi_codes, table.sa_codes):
            writer.writerow([table.qi_domains[j][c] for j, c in enumerate(row)]
                            + [table.sa_domain[sa]])
    return path


def eager_value_counts(bucket_of, sa_codes, bucket_count, m):
    """Reference (bucket × value) count matrix, built eagerly with np.add.at."""
    value_counts = np.zeros((bucket_count, m), dtype=np.int64)
    np.add.at(value_counts, (bucket_of, sa_codes), 1)
    return value_counts


def assignment_complies(table, bucket_of, spec):
    """Whether every bucket of a record assignment holds each SA value at
    most its threshold_slots times."""
    sizes = np.bincount(bucket_of)
    counts = eager_value_counts(bucket_of, table.sa_codes, len(sizes),
                                table.sa_domain_size)
    return bool(np.all(counts <= threshold_slots(spec.thresholds,
                                                 sizes[:, None])))


def dense_negative_associations(pt, threshold):
    """Reference flagged set of learn_negative_associations: dense (bucket
    × QI value) and (bucket × SA value) presence matrices, whose product
    counts the buckets holding both values of each pair."""
    B = pt.bucket_count
    sa_present = np.zeros((B, pt.m), dtype=bool)
    sa_present[pt.st_bids - 1, pt.st_codes] = True
    n_x = sa_present.sum(axis=0)
    flagged = set()
    for j, domain in enumerate(pt.qi_domains):
        qi_present = np.zeros((B, len(domain)), dtype=bool)
        qi_present[pt.qit_bids - 1, pt.qi_codes[:, j]] = True
        observed = qi_present.T.astype(np.int64) @ sa_present.astype(np.int64)
        expected = np.outer(qi_present.sum(axis=0), n_x) / B
        for z, x in zip(*np.nonzero(observed < threshold * expected)):
            flagged.add((j, int(z), int(x)))
    return frozenset(flagged)


def read_audit_per_entry(path, sa_domain, bucket_count):
    """Reference _read_audit: the checks run entry by entry, then bucket by
    bucket, in Python."""
    if not path.exists():
        return np.empty((bucket_count, 0), dtype=np.int32)
    try:
        with open(path, encoding="utf-8") as fh:
            audit = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise IngestionError(f"{path} is not valid JSON: {exc}") from None
    fakes = audit.get("buckets") if isinstance(audit, dict) else None
    if not isinstance(fakes, dict):
        raise IngestionError(f"{path} has no 'buckets' map")
    sigma = audit.get("sigma", 0)
    if type(sigma) is not int or sigma < 0:
        raise IngestionError(f"{path}: sigma must be a non-negative integer")
    ids = [str(b) for b in range(1, bucket_count + 1)]
    if stray := fakes.keys() - ids:
        raise IngestionError(f"{path}: {min(stray)!r} is not a bucket id "
                             f"from 1 to {bucket_count}")
    sa_lookup = {label: i for i, label in enumerate(sa_domain)}
    for bid, labels in fakes.items():
        if not isinstance(labels, list):
            raise IngestionError(f"{path}: bucket {bid} fakes are not a list")
        for label in labels:
            if not isinstance(label, str) or label not in sa_lookup:
                raise IngestionError(
                    f"{path}: bucket {bid} names fake value {label!r}, which "
                    f"{path.with_name('st.csv')} does not hold")
    rows = [fakes.get(bid, []) for bid in ids]
    for b, labels in enumerate(rows, start=1):
        if len(labels) != sigma or len(set(labels)) != sigma:
            raise IngestionError(f"{path}: bucket {b} lists {len(labels)} "
                                 f"fakes, not {sigma} distinct values")
    codes = np.array([[sa_lookup[label] for label in labels]
                      for labels in rows], dtype=np.int32)
    return np.sort(codes.reshape(bucket_count, sigma), axis=1)


def gamma_first_covering(n, size1, size2):
    """Reference first covering (b1, b2) of n by sizes size1 < size2, by
    scanning b2 over one period; None when there is none."""
    step2 = math.lcm(size1, size2) // size2
    for b2 in range(step2):
        rem = n - size2 * b2
        if rem >= 0 and rem % size1 == 0:
            return rem // size1, b2
    return None


def fill_limit_reference(size, u, o):
    """Reference (fill limit, probes) of one size: the bisection the search
    ran one size at a time before its lock-step form, probing whether b
    buckets of the size can be filled with min(u*b, o) records per value."""
    ok, bad = 0, int(o.sum()) // size + 1
    probes = 0
    while bad - ok > 1:
        mid = (ok + bad) // 2
        probes += 1
        if int(np.minimum(u * mid, o).sum()) >= size * mid:
            ok = mid
        else:
            bad = mid
    return ok, probes


def full_search_probes(h, spec, trace):
    """Reference cond_evals of pruning mode "full", replayed pair by pair
    from a "loss" search's trace: both fill bisections of every size that a
    pair with a nonzero loss prefix uses, once per size, and one probe per
    value for each such pair whose fill interval meets its prefix."""
    from fprivacy.core import value_slots
    from fprivacy.gamma import build_gamma, loss_prefix

    n = int(h.sum())
    fill = {}
    evals = 0
    best = math.inf
    for s1, s2, after in trace:
        g = build_gamma(n, s1, s2)
        kp = loss_prefix(g, best) - 1
        if kp >= 0:
            for size in (s1, s2):
                if size not in fill:
                    fill[size] = fill_limit_reference(
                        size, value_slots(spec, size), h)
            lo = max(0, -((fill[s1][0] - g.b1_first) // g.step1))
            hi = min(kp, (fill[s2][0] - g.b2_first) // g.step2)
            evals += len(h) * (lo <= hi)
        best = after
    return evals + sum(probes for _, probes in fill.values())


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
    a1 = bounds[:, 0]
    a2 = bounds[:, 1]
    if int(a1.sum()) < g1.capacity or int(a2.sum()) < g2.capacity \
            or np.any(a1 + a2 < h) or setting.capacity != len(rows):
        raise ConfigError("partition_records called on an invalid setting")
    codes = table.sa_codes[rows]
    by_value = [rows[codes == v] for v in range(len(h))]
    seed = [arr[: a1[v]] for v, arr in enumerate(by_value)]
    rest = [arr[a1[v]:] for v, arr in enumerate(by_value)]
    t1_len = np.array([len(x) for x in seed])
    t2_len = np.array([len(x) for x in rest])
    need = int(t1_len.sum()) - g1.capacity
    moved = 0
    while moved < need:
        progressed = False
        for v in range(len(h)):
            if moved >= need:
                break
            if t1_len[v] > 0 and t2_len[v] < a2[v]:
                t1_len[v] -= 1
                t2_len[v] += 1
                moved += 1
                progressed = True
        if not progressed:
            raise ConfigError("partition stalled; setting was not valid")
    rows1 = np.concatenate([seed[v][: t1_len[v]] for v in range(len(h))])
    rows2 = np.concatenate([seed[v][t1_len[v]:] for v in range(len(h))] + rest)
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
