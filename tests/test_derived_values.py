"""Values derived from the data that fixes them, not stored beside it."""

import dataclasses
import functools

import numpy as np
import pytest

from conftest import table_from_counts, worst_record_prob

from fprivacy.core import (Eligibility, PrivacySpec, check_eligibility,
                           histogram, linear_privacy_spec)
from fprivacy.metrics import (UtilityReport, gen_queries, gen_synthetic,
                              relative_error)
from fprivacy.optimize import (SearchConfig, SearchResult, brute_force_optimal,
                               two_size_bucketing)
from fprivacy.publish import (CorruptionReport, PublishedTables,
                              corruption_attack_sim, inject_fakes, publish,
                              release)
from fprivacy.validate import round_robin_assign

DERIVED = {PublishedTables: "bucket_count", SearchResult: "loss",
           Eligibility: "ok", UtilityReport: "re_mean",
           CorruptionReport: "max_record_prob"}


@pytest.fixture(scope="module")
def synthetic():
    table = gen_synthetic(4000, 300, 0.0, [4, 4], seed=3)
    spec = linear_privacy_spec(histogram(table), theta=2.0, intercept=0.04)
    return table, spec, SearchConfig.for_spec(spec)


def setting_loss(setting):
    return sum(g.count * (g.size - 1) ** 2 for g in setting)


@pytest.mark.parametrize("cls", DERIVED)
def test_derived_names_are_properties_not_fields(cls):
    name = DERIVED[cls]
    assert name not in {field.name for field in dataclasses.fields(cls)}
    assert isinstance(getattr(cls, name),
                      (property, functools.cached_property))


@pytest.mark.parametrize("mode", ["two", "multi"])
@pytest.mark.parametrize("sigma", [0, 2])
def test_release_and_report_follow_their_data(synthetic, mode, sigma):
    table, spec, cfg = synthetic
    pt = release(table, spec, cfg, mode, sigma, seed=1)
    assert pt.sigma == sigma
    assert pt.bucket_count == len(pt.fakes) == pt.qit_bids.max()
    pool = gen_queries(table.qi_domains, table.sa_domain, 100, 0.05, seed=1)
    report = relative_error(pool, table, pt)
    assert report.per_query
    errors = [abs(act - est) / act for act, est in report.per_query]
    assert report.re_mean == float(np.mean(errors))
    assert report.to_dict()["re_mean"] == report.re_mean


def test_search_loss_is_the_settings(synthetic, walkthrough_table,
                                     walkthrough_spec):
    table, spec, cfg = synthetic
    found = two_size_bucketing(histogram(table), spec, cfg)
    assert found.loss == setting_loss(found.setting)
    h = histogram(walkthrough_table)
    exact = brute_force_optimal(h, walkthrough_spec,
                                SearchConfig.for_spec(walkthrough_spec,
                                                      max_size=14))
    assert exact.loss == setting_loss(exact.setting) == 250


def test_eligibility_is_ok_without_violations(walkthrough_table,
                                              walkthrough_spec):
    h = histogram(walkthrough_table)
    tight = PrivacySpec(np.full(len(h), 0.01))
    for spec in (walkthrough_spec, tight):
        eligibility = check_eligibility(h, spec)
        assert eligibility.ok == (eligibility.violations == ())
        assert bool(eligibility) == eligibility.ok
    assert check_eligibility(h, walkthrough_spec).ok
    assert not check_eligibility(h, tight).ok


@pytest.mark.parametrize("corrupted", [{}, {0: 0}, {i: i for i in range(4)},
                                       {i: i for i in range(5)}])
def test_max_record_prob_matches_the_accumulating_loop(corrupted):
    """Criterion 9's five-record bucket padded with two fakes; excluding all
    five real records leaves no bucket to rate, hence 0.0."""
    table = table_from_counts([1] * 5 + [0] * 3)
    pt = publish(table, round_robin_assign(table.sa_codes, 1), seed=10)
    pt = inject_fakes(pt, sigma=2, seed=11)
    report = corruption_attack_sim(pt, corrupted)
    assert report.max_record_prob == worst_record_prob(report)
    if len(corrupted) == 5:
        assert report.max_record_prob == 0.0
