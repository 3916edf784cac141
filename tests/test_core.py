import collections

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fprivacy.core import (
    ConfigError,
    IngestionError,
    MicrodataTable,
    PrivacySpec,
    check_eligibility,
    ell_for_spec,
    histogram,
    ingest_csv,
    linear_privacy_spec,
    load_privacy_spec,
    stable_order,
    value_slots,
)
from fprivacy.optimize import SearchConfig
from conftest import TABLE1, table_from_counts


def test_ingest_four_row_table(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(TABLE1)
    t = ingest_csv(f, sa_column="Disease")
    assert len(t) == 4
    assert t.sa_domain_size == 4
    assert t.qi_names == ("Gender", "Zipcode")
    assert [t.qi_domains[j][c] for j, c in enumerate(t.qi_codes[3])] \
        == ["F", "61434"]
    assert t.sa_domain[t.sa_codes[3]] == "HIV"
    assert sorted(t.sa_domain) == ["Brain Tumor", "Cancer", "HIV", "Indigestion"]


def test_ingest_single_row(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b\n1,2\n")
    t = ingest_csv(f, sa_column="b")
    assert len(t) == 1
    assert t.sa_domain_size == 1


@pytest.mark.parametrize("content,sa,msg", [
    ("Gender,Disease\nM,flu\n", "Salary", "not in header"),
    ("", "b", "empty file"),
    ("a,b\n", "b", "no data rows"),
    ("a,b\n1,2,3\n", "b", "expected 2 fields"),
])
def test_ingest_errors(tmp_path, content, sa, msg):
    f = tmp_path / "bad.csv"
    f.write_text(content)
    with pytest.raises(IngestionError, match=msg):
        ingest_csv(f, sa_column=sa)


def test_ingest_missing_file():
    with pytest.raises(IngestionError):
        ingest_csv("/nonexistent/nowhere.csv", sa_column="x")


def test_histogram_walkthrough(walkthrough_table):
    h = histogram(walkthrough_table)
    assert h.dtype == np.int64
    assert h.tolist() == [1] * 8 + [6] * 4 + [9] * 2


def test_histogram_single_value():
    t = table_from_counts([7])
    h = histogram(t)
    assert h.tolist() == [7]


def test_histogram_matches_independent_recount():
    rng = np.random.default_rng(7)
    sa = [f"v{rng.integers(0, 5)}" for _ in range(30)]
    t = MicrodataTable.from_rows([["x"]] * 30, sa, ["q"], "sa")
    h = histogram(t)
    expected = collections.Counter(sa)
    for code, label in enumerate(t.sa_domain):
        assert h[code] == expected[label]
    assert h.sum() == 30


def test_histogram_subset(walkthrough_table):
    rows = np.arange(10)
    h = histogram(walkthrough_table, rows)
    assert h.sum() == 10
    assert h.tolist() == [1] * 8 + [2] + [0] * 5


@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_histogram_counts_sum_to_total(codes):
    sa = [f"v{c}" for c in codes]
    t = MicrodataTable.from_rows([["x"]] * len(sa), sa, ["q"], "sa")
    h = histogram(t)
    assert h.sum() == len(sa)


@given(st.integers(1, 2**17).flatmap(lambda top: st.lists(
    st.integers(0, top), max_size=300)))
def test_stable_order_matches_argsort(keys):
    """Keys under 2**16 are radix-sorted as uint16, larger ones as int32;
    both give np.argsort's stable order."""
    keys = np.array(keys, dtype=np.int32)
    want = np.argsort(keys, kind="stable")
    assert stable_order(keys).tolist() == want.tolist()
    # ties across the 2**16 bound
    edge = np.concatenate((keys, [2**16 - 1, 2**16, 2**16 - 1, 0]))
    assert stable_order(edge.astype(np.int32)).tolist() == np.argsort(
        edge, kind="stable").tolist()


def test_linear_spec_walkthrough_values(walkthrough_table):
    h = histogram(walkthrough_table)
    p = linear_privacy_spec(h, theta=2.0, intercept=0.05)
    np.testing.assert_allclose(p.thresholds[:8], 0.09)
    np.testing.assert_allclose(p.thresholds[8:12], 0.29)
    np.testing.assert_allclose(p.thresholds[12:], 0.41)


def test_linear_spec_trivial_and_clamp():
    h = histogram(table_from_counts([3, 3, 4]))
    p = linear_privacy_spec(h, theta=0.0, intercept=1.0)
    assert np.all(p.thresholds == 1.0)
    p2 = linear_privacy_spec(h, theta=50.0, intercept=0.5)
    assert np.all(p2.thresholds == 1.0)


def test_linear_spec_monotone_in_frequency():
    h = histogram(table_from_counts([1, 2, 5, 9, 20]))
    p = linear_privacy_spec(h, theta=3.0, intercept=0.01)
    order = np.argsort(h)
    assert np.all(np.diff(p.thresholds[order]) >= 0)


def test_linear_spec_rejects_bad_params():
    h = histogram(table_from_counts([2, 2]))
    with pytest.raises(ConfigError):
        linear_privacy_spec(h, theta=-1.0, intercept=0.1)
    with pytest.raises(ConfigError):
        linear_privacy_spec(h, theta=0.0, intercept=0.0)
    # NaN fails every comparison, so a check must ask for the range to hold
    with pytest.raises(ConfigError):
        linear_privacy_spec(h, theta=float("nan"), intercept=0.1)
    with pytest.raises(ConfigError):
        linear_privacy_spec(h, theta=1.0, intercept=float("nan"))


def test_spec_threshold_range_enforced():
    with pytest.raises(ConfigError):
        PrivacySpec(thresholds=np.array([0.5, 1.2]))
    with pytest.raises(ConfigError):
        PrivacySpec(thresholds=np.array([0.0, 0.5]))
    with pytest.raises(ConfigError):
        PrivacySpec(thresholds=np.array([0.5, np.nan]))


def test_eligibility_walkthrough(walkthrough_table, walkthrough_spec):
    h = histogram(walkthrough_table)
    assert check_eligibility(h, walkthrough_spec)


def test_eligibility_all_one():
    h = histogram(table_from_counts([4, 4, 8]))
    p = PrivacySpec(thresholds=np.ones(3))
    assert check_eligibility(h, p)


def test_eligibility_below_prior_fails():
    h = histogram(table_from_counts([2, 2, 12]))
    t = np.ones(3)
    t[2] = (12 / 16) / 2
    rep = check_eligibility(h, PrivacySpec(thresholds=t))
    assert not rep
    assert rep.violations[0][0] == 2


def test_eligibility_boundary_exact():
    # thresholds exactly equal to the frequencies are still eligible
    h = histogram(table_from_counts([1, 3]))
    p = PrivacySpec(thresholds=np.array([0.25, 0.75]))
    assert check_eligibility(h, p)


def test_ell_values():
    assert ell_for_spec(PrivacySpec(np.array([0.09, 0.29, 0.41]))) == 12
    assert ell_for_spec(PrivacySpec(np.array([1.0, 1.0]))) == 1
    assert ell_for_spec(PrivacySpec(np.array([0.5]))) == 2
    # 1/0.2 evaluates slightly above 5.0 in floats; the guard keeps it at 5
    assert ell_for_spec(PrivacySpec(np.array([0.2]))) == 5


def test_size_bounds_follow_value_slots():
    # 0.09999999995 * 10 + 1e-9 floors to 1: size 10 already admits a copy
    p = PrivacySpec(np.array([0.09999999995]))
    assert value_slots(p, 10).tolist() == [1]
    assert ell_for_spec(p) == 10
    assert SearchConfig.for_spec(p).min_size == 10


def test_value_slots_decimal_guard():
    p = PrivacySpec(np.array([0.09, 0.29, 0.41]))
    assert value_slots(p, 4).tolist() == [0, 1, 1]
    assert value_slots(p, 14).tolist() == [1, 4, 5]


def test_load_privacy_spec_roundtrip(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("sa_value,threshold\nflu,0.5\nhiv,0.05\n")
    p = load_privacy_spec(f, sa_domain=("flu", "hiv"))
    assert p.thresholds.tolist() == [0.5, 0.05]


@pytest.mark.parametrize("content,msg", [
    ("flu,0.5\n", "missing thresholds"),
    ("flu,0.5\nhiv,abc\n", "bad threshold"),
    ("flu,0.5\nhiv,0.05\nflu,0.4\n", "duplicate"),
    ("flu,0.5\nhiv,0.05\nplague,0.9\n", "unknown SA values"),
    ("flu,0.5\nhiv,1.5\n", "lie in"),
    ("flu,0.5\nhiv,nan\n", "lie in"),
    ("", "no thresholds"),
])
def test_load_privacy_spec_errors(tmp_path, content, msg):
    f = tmp_path / "p.csv"
    f.write_text(content)
    with pytest.raises(IngestionError, match=msg):
        load_privacy_spec(f, sa_domain=("flu", "hiv"))


def test_table_requires_rows():
    with pytest.raises(ConfigError):
        MicrodataTable.from_rows([], [], ["q"], "sa")
