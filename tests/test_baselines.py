"""Reference predictors and the shared metric helper."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from groupnet.baselines import (Metrics, _average_ranks, _ccl_design,
                                _logistic_fit, baseline_avg, baseline_ccl,
                                baseline_ccn, evaluate)
from groupnet.dataio import load_dataset
from groupnet.datatypes import Dataset
from groupnet.errors import DataFormatError, UsageError

from conftest import asset


def pair_auc(scores):
    """Concordant-pair oracle: each positive/negative pair contributes 1
    when the positive outranks the negative, half on an exact tie."""
    pos = [p for p, t in scores if t == 1]
    neg = [p for p, t in scores if t == 0]
    if not pos or not neg:
        return None
    hits = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                hits += 1.0
            elif p == q:
                hits += 0.5
    return hits / (len(pos) * len(neg))


def irls_fit(x, y, iters=50):
    """Independent logistic solver: Newton steps on the full likelihood."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.zeros(design.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-design @ w))
        grad = design.T @ (y - p)
        hess = design.T @ (design * (p * (1 - p))[:, None])
        w = w + np.linalg.solve(hess, grad)
        if np.abs(grad).max() < 1e-12:
            break
    return w


@pytest.fixture(scope="module")
def hand_graph():
    return load_dataset(asset("ccn.edges.tsv"), asset("ccn.features.tsv"))


@pytest.fixture(scope="module")
def star_graph():
    return load_dataset(asset("ccl_sep.edges.tsv"),
                        asset("ccl_sep.features.tsv"))


@pytest.fixture(scope="module")
def edgeless_graph():
    return load_dataset(asset("ccl_newton.edges.tsv"),
                        asset("ccl_newton.features.tsv"))


class TestAverageRanks:
    """The NumPy ranks that evaluate uses against scipy's rankdata."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 0.9, 1.0,
                                     1e-300, 1.0 - 1e-16]),
                    min_size=1, max_size=40))
    def test_ties_match_rankdata_bitwise(self, values):
        x = np.array(values)
        got = _average_ranks(x)
        assert np.array_equal(got.view(np.int64), rankdata(x).view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1,
                    max_size=60))
    def test_arbitrary_floats_match_rankdata_bitwise(self, values):
        x = np.array(values)
        got = _average_ranks(x)
        assert np.array_equal(got.view(np.int64), rankdata(x).view(np.int64))

    def test_nan_makes_every_rank_nan(self):
        assert np.isnan(_average_ranks(np.array([0.2, np.nan, 0.1]))).all()
        assert np.isnan(rankdata([0.2, np.nan, 0.1])).all()


class TestEvaluate:
    def test_perfect_ranking(self):
        m = evaluate([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)])
        assert m.auc == 1.0 and m.accuracy == 1.0 and m.count == 4

    def test_fully_tied_scores(self):
        m = evaluate([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])
        assert m.auc == 0.5

    def test_three_point_ranking_matches_pair_count(self):
        scores = [(0.9, 1), (0.8, 0), (0.7, 1)]
        # one concordant pair of two: (0.9 vs 0.8) wins, (0.7 vs 0.8) loses
        oracle = pair_auc(scores)
        assert oracle == 0.5
        assert evaluate(scores).auc == oracle

    def test_agrees_with_pair_oracle_on_random_draws(self):
        rng = np.random.default_rng(140)
        for _ in range(25):
            n = int(rng.integers(4, 15))
            scores = [(round(float(rng.random()), 2), int(rng.integers(2)))
                      for _ in range(n)]
            oracle = pair_auc(scores)
            got = evaluate(scores).auc
            if oracle is None:
                assert got is None
            else:
                assert got == pytest.approx(oracle, abs=1e-12)

    def test_auc_ignores_monotone_rescaling(self):
        scores = [(0.9, 1), (0.3, 0), (0.6, 1), (0.2, 0), (0.6, 0)]
        squashed = [(p * p, t) for p, t in scores]
        assert evaluate(scores).auc == evaluate(squashed).auc

    def test_single_class_has_no_auc(self):
        m = evaluate([(0.9, 1), (0.3, 1)])
        assert m.auc is None
        assert np.isfinite(m.loglik)

    def test_empty_input_rejected(self):
        with pytest.raises(DataFormatError):
            evaluate([])

    def test_loglik_survives_extreme_probabilities(self):
        m = evaluate([(1.0, 0), (0.0, 1)])
        assert np.isfinite(m.loglik)
        # both terms sit at the clamp floor, up to rounding near one
        assert m.loglik == pytest.approx(2 * np.log(1e-12), abs=1e-3)

    def test_hand_metrics(self):
        m = evaluate([(0.6, 1), (0.4, 0), (0.5, 0)])
        # the 0.5 tie is called positive, so two of three are right
        assert m.accuracy == pytest.approx(2 / 3)
        assert m.loglik == pytest.approx(
            np.log(0.6) + np.log(0.6) + np.log(0.5), rel=1e-12)
        assert m.auc == 1.0

    def test_metrics_is_a_plain_record(self):
        m = Metrics(auc=0.5, loglik=-1.0, accuracy=0.5, count=2)
        assert m.count == 2


class TestBaselineAvg:
    def test_feature_fraction_on_fixture(self, hand_graph):
        # column one holds 1,1,0,0 across the other four nodes
        want = Fraction(2, 4)
        got = baseline_avg(hand_graph, ("feature", "a", 0))
        assert got == float(want)

    def test_link_fraction_on_fixture(self, hand_graph):
        # sources b,c,d; only d points at e
        want = Fraction(1, 3)
        got = baseline_avg(hand_graph, ("link", "a", "e"))
        assert got == float(want)

    def test_unobserved_column_falls_back_to_global_mean(self):
        feats = np.array([[1.0, np.nan], [np.nan, 1.0], [np.nan, 1.0]])
        data = Dataset(np.zeros((3, 3), dtype=np.uint8), feats,
                       ["a", "b", "c"])
        assert baseline_avg(data, ("feature", "a", 0)) == 1.0

    def test_no_observations_anywhere_gives_half(self):
        feats = np.full((3, 1), np.nan)
        feats[0, 0] = 1.0
        data = Dataset(np.zeros((3, 3), dtype=np.uint8), feats,
                       ["a", "b", "c"])
        assert baseline_avg(data, ("feature", "a", 0)) == 0.5

    def test_two_node_link_task_has_no_information(self):
        data = Dataset(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                       np.zeros((2, 0)), ["a", "b"])
        assert baseline_avg(data, ("link", "a", "b")) == 0.5

    def test_task_validation(self, hand_graph):
        with pytest.raises(UsageError):
            baseline_avg(hand_graph, ("feature", "a", 9))
        with pytest.raises(UsageError):
            baseline_avg(hand_graph, ("link", "a", "a"))
        with pytest.raises(UsageError):
            baseline_avg(hand_graph, ("guess", "a", 0))
        with pytest.raises(DataFormatError):
            baseline_avg(hand_graph, ("feature", "zz", 0))


class TestBaselineCcn:
    def test_fixture_posterior_by_hand(self, hand_graph):
        # Predict node a's first feature.  Training rows: b,c with bit 1
        # and d,e with bit 0, so the smoothed prior is even money.
        odds = Fraction(3, 6) / Fraction(3, 6)
        # own second feature, evidence 1: class-1 sees values 1,0 and
        # class-0 sees 1,0, a wash
        odds *= (Fraction(2, 4) / Fraction(2, 4))
        # own third feature, evidence 0: class-1 sees 0 and a missing cell,
        # class-0 sees 1,1
        odds *= (Fraction(2, 3) / Fraction(1, 4))
        # neighbor majority of the first feature, evidence 1: class-1
        # majorities are 1,1 while class-0 majorities are 0,0
        odds *= (Fraction(3, 4) / Fraction(1, 4))
        # neighbor majority of the second feature, evidence 1: every
        # training majority is 1 (two ties fall back to the marginal bit)
        odds *= (Fraction(3, 4) / Fraction(3, 4))
        # neighbor majority of the third feature, evidence 1 via tie:
        # class-1 majorities 0,0 against class-0 majorities 1,1
        odds *= (Fraction(1, 4) / Fraction(3, 4))
        assert odds == Fraction(8, 3)
        want = odds / (1 + odds)
        assert want == Fraction(8, 11)
        got = baseline_ccn(hand_graph, ("feature", "a", 0))
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_link_task_uses_source_features(self, star_graph):
        # b,c link to a and carry bit 1; d,e do not and carry bit 0.
        # Prior is even, the single feature channel multiplies by 3.
        odds = Fraction(3, 6) / Fraction(3, 6)
        odds *= (Fraction(3, 4) / Fraction(1, 4))
        want = odds / (1 + odds)
        assert want == Fraction(3, 4)
        got = baseline_ccn(star_graph, ("link", "f", "a"))
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_no_channels_returns_smoothed_prior(self):
        adj = np.zeros((4, 4), dtype=np.uint8)
        adj[1, 3] = adj[2, 3] = 1
        data = Dataset(adj, np.zeros((4, 0)), ["a", "b", "c", "d"])
        # both training sources link to d: prior odds (3/4)/(1/4)
        assert baseline_ccn(data, ("link", "a", "d")) == pytest.approx(
            0.75, abs=1e-12)


class TestBaselineCcl:
    def test_separated_training_data_is_fit_confidently(self, star_graph):
        u, t = star_graph.index_of("f"), star_graph.index_of("a")
        target_vec, x, y = _ccl_design(star_graph, "link", u, t)
        assert y.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert x.ravel().tolist() == [1.0, 1.0, 0.0, 0.0]
        w = _logistic_fit(x, y)
        z = x @ w[:-1] + w[-1]
        preds = (1.0 / (1.0 + np.exp(-z)) >= 0.5).astype(int)
        assert np.array_equal(preds, y.astype(int))
        assert baseline_ccl(star_graph, ("link", "f", "a")) > 0.9

    def test_edgeless_fixture_matches_newton_oracle(self, edgeless_graph):
        # own-second-feature channel only; the saturated one-regressor fit
        # reproduces the cell frequency 2/3 at the target's value
        x = np.array([[0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        w = irls_fit(x, y)
        oracle = float(1.0 / (1.0 + np.exp(-(w[0] + w[1]))))
        assert oracle == pytest.approx(2 / 3, abs=1e-12)
        tv, xd, yd = _ccl_design(edgeless_graph, "feature",
                                 edgeless_graph.index_of("a"), 0)
        assert xd.ravel().tolist() == x.ravel().tolist()
        assert yd.tolist() == y.tolist()
        assert tv.tolist() == [1.0]
        got = baseline_ccl(edgeless_graph, ("feature", "a", 0))
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_constant_channels_are_dropped(self):
        feats = np.array([[np.nan, 1.0, 0.0],
                          [1.0, 1.0, 1.0],
                          [0.0, 1.0, 0.0],
                          [1.0, 1.0, 1.0],
                          [0.0, 1.0, 0.0]])
        data = Dataset(np.zeros((5, 5), dtype=np.uint8), feats,
                       list("abcde"))
        tv, x, y = _ccl_design(data, "feature", 0, 0)
        # second column never varies, no edges so no neighbor channels
        assert x.shape == (4, 1)
        assert tv.tolist() == [0.0]
        assert x.ravel().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_empty_design_with_balanced_classes_gives_half(self):
        adj = np.zeros((6, 6), dtype=np.uint8)
        adj[1, 5] = adj[2, 5] = 1
        data = Dataset(adj, np.zeros((6, 0)), list("abcdef"))
        assert baseline_ccl(data, ("link", "a", "f")) == 0.5

    def test_no_training_rows_gives_half(self):
        feats = np.full((3, 1), np.nan)
        feats[0, 0] = 1.0
        data = Dataset(np.zeros((3, 3), dtype=np.uint8), feats,
                       ["a", "b", "c"])
        assert baseline_ccl(data, ("feature", "a", 0)) == 0.5


class TestAgreementAcrossBaselines:
    def test_all_three_stay_in_unit_interval(self, hand_graph):
        tasks = [("feature", "a", 0), ("feature", "c", 2),
                 ("link", "a", "e"), ("link", "e", "b")]
        for task in tasks:
            for fn in (baseline_avg, baseline_ccn, baseline_ccl):
                p = fn(hand_graph, task)
                assert 0.0 <= p <= 1.0
