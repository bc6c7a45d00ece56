"""The benchmark's output checks pass on real outputs and fail on corrupted
ones; the tracer's counts repeat and it leaves the package as it found it.

    python3 -m pytest bench/test_checks.py
"""

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import groupnet as gn  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, write_tsv  # noqa: E402

TINY = Workload("tiny", n=40, l=8, k_planted=2, mean_out_degree=None,
                holdout=True, masked_cells=3, fit_k=2, max_outer_iters=4)
TINY_SELECT = replace(WORKLOADS["selectk-wide"], name="tiny-select", n=30,
                      l=12, candidates=(1, 2), max_outer_iters=3)


def run(wl, tmp_path, seed=3):
    inp = wl.make_inputs(seed)
    write_tsv(inp, str(tmp_path))
    data = gn.load_dataset(inp.edges_path, inp.features_path)
    return data, inp, wl.run_round(gn, data, inp, seed)


@pytest.fixture(scope="module")
def holdout_run(tmp_path_factory):
    return run(TINY, tmp_path_factory.mktemp("tiny"))


@pytest.fixture(scope="module")
def select_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("select")
    return run(TINY_SELECT, path) + (str(path),)


def holdout_failures(holdout_run, mutate=None):
    data, inp, out = holdout_run
    out = copy.deepcopy(out)
    if mutate:
        mutate(out)
    return worker.check_holdout_outputs(gn, TINY, data, inp, out)


def test_real_outputs_pass(holdout_run):
    assert holdout_failures(holdout_run) == []


def test_perturbed_theta_fails_the_objective_check(holdout_run):
    def bump(out):
        out["state"].affinities.theta[0, 1, 1] *= 1.0 + 1e-6
    assert any("l_a_surrogate" in m for m in holdout_failures(holdout_run, bump))


def test_each_objective_component_is_compared(holdout_run):
    for name in ("l_phi", "l_f", "l_a_surrogate", "l1_penalty"):
        def shift(out, name=name):
            last = out["report"].objective_trace[-1]
            setattr(last, name, getattr(last, name) + 1e-3)
        assert any(name in m for m in holdout_failures(holdout_run, shift)), name


def test_theta_outside_the_clamp_fails_the_bounds_check(holdout_run):
    def clamp_break(out):
        out["state"].affinities.theta[1, 0, 0] = 1e-6
    assert any("theta leaves" in m
               for m in holdout_failures(holdout_run, clamp_break))


def test_phi_outside_the_clamp_fails_the_bounds_check():
    phi = np.full((3, 2), 0.5)
    phi[2, 1] = 1.0
    assert checks.check_bounds(phi, np.full((2, 2, 2), 0.5), 1e-4)


def test_decreasing_trace_fails():
    assert checks.check_monotone([-10.0, -9.0, -8.0]) == []
    assert checks.check_monotone([-10.0, -9.0, -9.5])


def test_swapped_link_scores_fail(holdout_run):
    def swap(out):
        s = out["links"].scores
        (a, pa), (b, pb) = s[0], s[1]
        s[0], s[1] = (a, pb), (b, pa)
    assert any("out-link" in m for m in holdout_failures(holdout_run, swap))


def test_link_loglik_is_checked(holdout_run):
    def shift(out):
        out["links"].loglik += 1e-6
    assert any("link log-likelihood" in m
               for m in holdout_failures(holdout_run, shift))


def test_corrupted_feature_probability_fails(holdout_run):
    def bump(out):
        l, p = out["features"].scores[0]
        out["features"].scores[0] = (l, p * (1.0 + 1e-9))
    assert any("probability" in m for m in holdout_failures(holdout_run, bump))


def test_feature_loglik_is_checked(holdout_run):
    def shift(out):
        out["features"].loglik -= 1e-6
    assert any("feature log-likelihood" in m
               for m in holdout_failures(holdout_run, shift))


def test_auc_matches_pairwise_count_and_gates_chance():
    rng = np.random.default_rng(0)
    phi = rng.uniform(0.05, 0.95, size=(12, 2))
    theta = rng.uniform(0.05, 0.95, size=(2, 2, 2))
    edges = np.array([(i, j) for i in range(12) for j in range(12)
                      if i != j and rng.random() < 0.3])
    p1 = checks.pair_moments(phi, theta)[0]
    valid = checks.valid_pairs(12, 5)
    adj = checks.adjacency_of(12, edges)
    pos, neg = p1[valid & adj], p1[valid & ~adj]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert checks.link_auc(phi, theta, edges, 5) == pytest.approx(
        wins / (pos.size * neg.size), rel=1e-12)
    assert checks.check_auc(0.9) == []
    assert checks.check_auc(0.5)


def test_selection_outputs_pass_and_a_corrupted_cv_score_fails(select_run):
    data, inp, out, workdir = select_run
    assert worker.check_selection_outputs(gn, TINY_SELECT, data, inp, out, 3,
                                          workdir) == []
    bad = copy.deepcopy(out)
    report = bad["select_k"]
    i = report.candidates.index(report.chosen_k)
    mean, std = report.cv_loglik[i]
    report.cv_loglik[i] = (mean + 1e-6, std)
    assert any("CV log-likelihood mean" in m for m in
               worker.check_selection_outputs(gn, TINY_SELECT, data, inp, bad,
                                              3, workdir))


def test_a_non_best_choice_fails():
    assert checks.check_selection([1, 2], [(-5.0, 1.0), (-4.0, 1.0)], 1,
                                  (-5.0, 1.0))


def test_traced_counts_repeat_and_tracing_is_undone(holdout_run, tmp_path):
    data, inp, _ = holdout_run
    originals = (gn.fitting.fit, gn.fitting.sweep_node, gn.fit,
                 gn.prediction.NodePairTables)
    counts = []
    for _ in range(2):
        tracer = Tracer().activate(gn)
        try:
            TINY.run_round(gn, data, inp, 3)
        finally:
            tracer.deactivate()
        metrics = per_layer_metrics(tracer, 0.0, 0.0)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
        summary = tracer.summary()
        fit = summary["fitting.fit"]
        assert 0.0 <= fit["self_s"] <= fit["total_s"]
    assert counts[0] == counts[1]
    assert counts[0]["fitting.outer_iters"] == TINY.max_outer_iters
    assert counts[0]["fitting.membership.passes"] >= TINY.max_outer_iters
    assert counts[0]["prediction.fold_in.sweeps"] > 0
    assert (gn.fitting.fit, gn.fitting.sweep_node, gn.fit,
            gn.prediction.NodePairTables) == originals
