"""Initialization and the guarded alternating ascent loop."""

import warnings

import numpy as np
import pytest

from groupnet import fitting
from groupnet.datatypes import Dataset, Hyperparams, Memberships
from groupnet.errors import UsageError
from groupnet.fitting import fit, init_svd, init_theta
from groupnet.model import feature_prob, group_pair_tables, objective
from groupnet.synth import synth_generate

from conftest import make_state, random_instance


def power_method_svd(mat, rank, iters=3000, tol=1e-14):
    """Oracle decomposition: deflated power iteration on the Gram matrix,
    independent of any library SVD routine."""
    gram = mat.T @ mat
    sigmas, vs, us = [], [], []
    for _ in range(rank):
        v = np.ones(gram.shape[0]) / np.sqrt(gram.shape[0])
        for _ in range(iters):
            nxt = gram @ v
            nxt /= np.linalg.norm(nxt)
            if np.linalg.norm(nxt - v) < tol:
                v = nxt
                break
            v = nxt
        lam = float(v @ gram @ v)
        sigma = np.sqrt(max(lam, 0.0))
        sigmas.append(sigma)
        vs.append(v)
        us.append(mat @ v / sigma)
        gram = gram - lam * np.outer(v, v)
    return np.array(sigmas), np.array(vs), np.array(us)


def expected_seed(mat, k_groups, lam, eps):
    """Reference w/phi construction from the oracle decomposition, using
    the same sign canonicalization and rescale rules."""
    n, l = mat.shape
    sig, vs, us = power_method_svd(mat, k_groups)
    w = np.zeros((l, k_groups))
    phi = np.full((n, k_groups), 0.5)
    for k in range(k_groups):
        vk, uk = vs[k].copy(), us[k].copy()
        if vk[int(np.argmax(np.abs(vk)))] < 0:
            vk, uk = -vk, -uk
        col = sig[k] * vk
        col[np.abs(col) < lam] = 0.0
        w[:, k] = col
        lo, hi = uk.min(), uk.max()
        if hi - lo > 1e-12:
            phi[:, k] = eps + (uk - lo) / (hi - lo) * (1 - 2 * eps)
    return w, phi


class TestInitSvd:
    def test_identical_rows_collapse_to_rank_one(self):
        row = np.array([1.0, 0.0, 1.0, 1.0])
        data = Dataset(np.zeros((5, 5), dtype=np.uint8),
                       np.tile(row, (5, 1)), [f"v{i}" for i in range(5)])
        mem, wts = init_svd(data, 1, lam=0.0, clamp_eps=1e-4)
        # all left-vector entries equal, so the column stays at the midpoint
        assert np.all(mem.phi[:, 0] == 0.5)
        # sigma_1 v_1 reconstructs the common row scaled by sqrt(n)
        assert np.allclose(wts.w[:, 0], np.sqrt(5) * row, atol=1e-10)

    def test_large_penalty_zeroes_every_group_weight(self):
        _, data = random_instance(70, n=8, k=2, l=5)
        u, s, vt = np.linalg.svd(np.nan_to_num(data.features),
                                 full_matrices=False)
        too_big = 1.01 * float(np.abs(s[:, None] * vt).max())
        _, wts = init_svd(data, 2, lam=too_big, clamp_eps=1e-4)
        assert np.all(wts.group_weights == 0.0)
        assert np.any(wts.intercepts != 0.0)

    def test_matches_independent_power_iteration(self):
        rng = np.random.default_rng(71)
        feats = rng.integers(0, 2, size=(10, 6)).astype(np.float64)
        data = Dataset(np.zeros((10, 10), dtype=np.uint8), feats,
                       [f"v{i}" for i in range(10)])
        mem, wts = init_svd(data, 2, lam=0.01, clamp_eps=1e-4)
        w_ref, phi_ref = expected_seed(feats, 2, 0.01, 1e-4)
        for k in range(2):
            dw = min(np.abs(wts.w[:, k] - w_ref[:, k]).max(),
                     np.abs(wts.w[:, k] + w_ref[:, k]).max())
            assert dw < 1e-6
            dphi = min(np.abs(mem.phi[:, k] - phi_ref[:, k]).max(),
                       np.abs(mem.phi[:, k] + phi_ref[:, k] - 1.0).max())
            assert dphi < 1e-6

    def test_mean_imputation_of_missing_cells(self):
        _, data = random_instance(72, n=6, k=1, l=3, missing=0.3)
        obs = data.observed
        filled = np.where(obs, np.nan_to_num(data.features),
                          (np.nan_to_num(data.features).sum(axis=0)
                           / obs.sum(axis=0))[None, :])
        mem, wts = init_svd(data, 1, lam=0.0, clamp_eps=1e-4)
        w_ref, phi_ref = expected_seed(filled, 1, 0.0, 1e-4)
        dw = min(np.abs(wts.w[:, 0] - w_ref[:, 0]).max(),
                 np.abs(wts.w[:, 0] + w_ref[:, 0]).max())
        assert dw < 1e-6

    def test_intercepts_start_at_observed_log_odds(self):
        _, data = random_instance(73, n=12, k=1, l=4, missing=0.2)
        _, wts = init_svd(data, 1, lam=0.01, clamp_eps=1e-4)
        obs = data.observed
        for l in range(4):
            mean = data.features[obs[:, l], l].mean()
            mean = min(max(mean, 1e-4), 1 - 1e-4)
            assert wts.intercepts[l] == pytest.approx(
                np.log(mean / (1 - mean)), rel=1e-12)

    def test_group_count_bounds(self):
        _, data = random_instance(74, n=5, k=1, l=3)
        with pytest.raises(UsageError):
            init_svd(data, 4, lam=0.01, clamp_eps=1e-4)
        with pytest.raises(UsageError):
            init_svd(data, 0, lam=0.01, clamp_eps=1e-4)

    def test_constant_features_fall_back_to_uniform(self):
        data = Dataset(np.zeros((4, 4), dtype=np.uint8),
                       np.ones((4, 3)), [f"v{i}" for i in range(4)])
        mem, wts = init_svd(data, 2, lam=0.01, clamp_eps=1e-4)
        assert np.all(mem.phi == 0.5)
        assert np.all(wts.group_weights == 0.0)


class TestInitTheta:
    def test_expected_edges_match_observed_count(self):
        for seed in (80, 81, 82):
            state, data = random_instance(seed, n=20, k=2, l=0, edge_p=0.2)
            mem = Memberships(state.memberships.phi)
            aff = init_theta(data, mem, clamp_eps=1e-4)
            p1, _, _ = group_pair_tables(mem.phi, aff.theta)
            mask = ~np.eye(20, dtype=bool)
            target = float(data.adjacency.sum())
            assert abs(p1[mask].sum() - target) / target <= 1e-3

    def test_uniform_memberships_give_equal_entries(self):
        _, data = random_instance(83, n=10, k=2, l=0, edge_p=0.3)
        mem = Memberships(np.full((10, 2), 0.5))
        aff = init_theta(data, mem, clamp_eps=1e-4)
        for k in range(2):
            assert np.ptp(aff.theta[k]) < 1e-12

    def test_scaling_preserves_entry_ratios_when_unclamped(self):
        state, data = random_instance(84, n=15, k=2, l=0, edge_p=0.25)
        phi = state.memberships.phi
        aff = init_theta(data, Memberships(phi), clamp_eps=1e-4)
        # recompute the edge-weighted base independently
        edge_m = data.adjacency.astype(np.float64)
        np.fill_diagonal(edge_m, 0.0)
        for k in range(2):
            base = np.empty((2, 2))
            side = {1: phi[:, k], 0: 1 - phi[:, k]}
            for x1 in (0, 1):
                for x2 in (0, 1):
                    base[x1, x2] = side[x1] @ edge_m @ side[x2]
            got = aff.theta[k]
            if got.max() < 1 - 1e-4 - 1e-12 and got.min() > 1e-4 + 1e-12:
                ratio = got / base
                assert np.ptp(ratio) / ratio.mean() < 1e-9

    def test_empty_graph_warns_and_uses_small_default(self):
        data = Dataset(np.zeros((4, 4), dtype=np.uint8),
                       np.zeros((4, 0)), [f"v{i}" for i in range(4)])
        mem = Memberships(np.full((4, 2), 0.5))
        with pytest.warns(UserWarning, match="no usable edges"):
            aff = init_theta(data, mem, clamp_eps=1e-4)
        assert np.all(aff.theta == 0.1)


class TestFit:
    def test_degenerate_single_node(self):
        data = Dataset(np.zeros((1, 1), dtype=np.uint8),
                       np.array([[1.0]]), ["only"])
        hyper = Hyperparams(max_outer_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state, report = fit(data, 1, hyper)
        assert report.converged
        assert report.stop_reason == "converged"
        assert feature_prob(state, 0, 0) > 0.9
        eps = hyper.clamp_eps
        assert np.all((state.memberships.phi >= eps)
                      & (state.memberships.phi <= 1 - eps))

    def test_guarded_ascent_never_decreases(self):
        state, data = random_instance(90, n=25, k=2, l=6, missing=0.1)
        hyper = Hyperparams(max_outer_iters=25, seed=4)
        model, report = fit(data, 2, hyper)
        totals = [report.init_objective.total] + [
            b.total for b in report.objective_trace]
        for prev, cur in zip(totals, totals[1:]):
            assert cur >= prev - 1e-9
        assert totals[-1] >= totals[0]

    def test_oversized_rate_is_rescued_by_backtracking(self):
        _, data = random_instance(91, n=15, k=2, l=4)
        hyper = Hyperparams(max_outer_iters=8, gamma_phi=50.0, gamma_f=50.0,
                            gamma_a=50.0)
        model, report = fit(data, 2, hyper)
        totals = [report.init_objective.total] + [
            b.total for b in report.objective_trace]
        for prev, cur in zip(totals, totals[1:]):
            assert cur >= prev - 1e-9

    def test_identical_seeds_reproduce_the_trace_bitwise(self):
        _, data = random_instance(92, n=18, k=2, l=5, missing=0.2)
        hyper = Hyperparams(max_outer_iters=12, seed=9)
        m1, r1 = fit(data, 2, hyper)
        m2, r2 = fit(data.copy(), 2, Hyperparams(max_outer_iters=12, seed=9))
        assert [b.total for b in r1.objective_trace] == \
            [b.total for b in r2.objective_trace]
        assert np.array_equal(m1.memberships.phi, m2.memberships.phi)
        assert np.array_equal(m1.weights.w, m2.weights.w)
        assert np.array_equal(m1.affinities.theta, m2.affinities.theta)

    def test_parameters_respect_the_clamp(self):
        _, data = random_instance(93, n=20, k=2, l=4)
        hyper = Hyperparams(max_outer_iters=15, clamp_eps=1e-3)
        model, _ = fit(data, 2, hyper)
        for arr in (model.memberships.phi, model.affinities.theta):
            assert np.all(arr >= 1e-3) and np.all(arr <= 1 - 1e-3)

    def test_report_bookkeeping_is_consistent(self):
        _, data = random_instance(94, n=15, k=2, l=4)
        hyper = Hyperparams(max_outer_iters=400, rel_tol=1e-4)
        model, report = fit(data, 2, hyper)
        assert len(report.objective_trace) == report.outer_iters_run
        assert len(report.nonzero_weights) == report.outer_iters_run
        assert report.wall_time > 0.0
        if report.converged:
            totals = [report.init_objective.total] + [
                b.total for b in report.objective_trace]
            rel = abs(totals[-1] - totals[-2]) / max(abs(totals[-2]), 1e-12)
            assert rel < 1e-4
        assert report.nonzero_weights[-1] == int(
            np.count_nonzero(model.weights.group_weights))

    def test_frozen_sweep_variant_also_ascends(self):
        _, data = random_instance(95, n=12, k=2, l=4)
        hyper = Hyperparams(max_outer_iters=10, phi_update="frozen")
        model, report = fit(data, 2, hyper)
        totals = [report.init_objective.total] + [
            b.total for b in report.objective_trace]
        for prev, cur in zip(totals, totals[1:]):
            assert cur >= prev - 1e-9

    def test_holdout_excludes_network_but_keeps_features(self):
        _, data = random_instance(96, n=12, k=2, l=4)
        hyper = Hyperparams(max_outer_iters=10)
        model, _ = fit(data, 2, hyper, holdout_node=3)
        assert model.holdout_node == 3
        # the held-out row exists and stays clamped
        eps = hyper.clamp_eps
        row = model.memberships.phi[3]
        assert np.all((row >= eps) & (row <= 1 - eps))
        with pytest.raises(UsageError):
            fit(data, 2, hyper, holdout_node=99)

    def test_no_backtrack_runs_the_plain_updates(self):
        _, data = random_instance(97, n=10, k=1, l=3)
        hyper = Hyperparams(max_outer_iters=5, backtrack=False)
        model, report = fit(data, 1, hyper)
        assert report.outer_iters_run >= 1
        assert objective(model, data).is_finite()


def breakdown_bits(b):
    return np.array([b.l_phi, b.l_f, b.l_a_surrogate,
                     b.l1_penalty]).view(np.int64)


class TestFitLoop:
    """Stop reasons, and the loop's reuse of gradients and objective pieces."""

    def test_guards_that_all_give_up_report_a_stall(self):
        data, _ = synth_generate(30, 6, 2, planted="homophily", seed=0)
        hyper = Hyperparams(gamma_phi=1e7, gamma_f=1e7, gamma_a=1e7)
        model, report = fit(data, 2, hyper)
        assert report.stop_reason == "stalled"
        assert not report.converged
        totals = [report.init_objective.total] + [
            b.total for b in report.objective_trace]
        assert totals[-1] == totals[-2]

    def test_iteration_cap_is_its_own_stop_reason(self):
        _, data = random_instance(99, n=12, k=2, l=4)
        _, report = fit(data, 2, Hyperparams(max_outer_iters=2))
        assert report.stop_reason == "max_iters"
        assert report.outer_iters_run == 2 and not report.converged
        _, report = fit(data, 2, Hyperparams(max_outer_iters=0))
        assert report.stop_reason == "max_iters"
        assert report.objective_trace == []

    @pytest.mark.parametrize("kw", [
        {}, {"backtrack": False}, {"inner_passes": 2},
        {"gamma_phi": 50.0, "gamma_f": 50.0, "gamma_a": 50.0},
        {"lam": 0.5, "alpha": [[2.0, 3.0], [1.5, 1.2]]},
        {"phi_update": "frozen"}])
    def test_carried_breakdown_equals_a_fresh_objective_bitwise(self, kw):
        _, data = random_instance(100, n=14, k=2, l=5, missing=0.2)
        model, report = fit(data, 2, Hyperparams(max_outer_iters=5, **kw),
                            holdout_node=4)
        assert np.array_equal(breakdown_bits(report.objective_trace[-1]),
                              breakdown_bits(objective(model, data)))

    def test_each_guarded_pass_takes_its_gradient_once(self, monkeypatch):
        calls = {"grad_theta_all": 0, "grad_w_matrix": 0}
        passes = {"affinity": 0, "weight": 0, "membership": 0}
        attempts = dict.fromkeys(passes, 0)

        def counted(name):
            original = getattr(fitting, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapped

        original_guard = fitting._guarded

        def guard(mutate, arrays, partial, old_val, rate, backtrack, block):
            passes[block] += 1

            def counted_mutate(r):
                attempts[block] += 1
                mutate(r)
            return original_guard(counted_mutate, arrays, partial, old_val,
                                  rate, backtrack, block)

        for name in calls:
            monkeypatch.setattr(fitting, name, counted(name))
        monkeypatch.setattr(fitting, "_guarded", guard)
        _, data = random_instance(101, n=14, k=2, l=4)
        fit(data, 2, Hyperparams(max_outer_iters=4, gamma_a=50.0,
                                 gamma_f=50.0, inner_passes=2))
        # the oversized rates force halvings, which reuse the gradient
        assert attempts["affinity"] > passes["affinity"] > 0
        assert attempts["weight"] > passes["weight"] > 0
        assert calls["grad_theta_all"] == passes["affinity"]
        assert calls["grad_w_matrix"] == passes["weight"]
