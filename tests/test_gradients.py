"""Analytic gradients versus finite differences and hand arithmetic."""

import numpy as np
import pytest

from groupnet.datatypes import Dataset
from groupnet.gradients import (NodePairTables, _theta_grad_parts, grad_phi,
                                grad_theta, grad_w, grad_w_matrix, lasso_step,
                                lasso_step_matrix)
from groupnet.model import (feature_term, network_term, pair_expectation,
                            prior_term)

from conftest import close, fd_total, make_state, random_instance


def fd_of(fn, array, index, h=1e-6):
    orig = array[index]
    array[index] = orig + h
    hi = fn()
    array[index] = orig - h
    lo = fn()
    array[index] = orig
    return (hi - lo) / (2.0 * h)


class TestGradPhi:
    def test_constant_affinity_makes_edge_families_vanish(self):
        # both ordered pairs are edges; a constant table has equal logs
        state = make_state([[0.4], [0.6]], np.full((1, 2, 2), 0.2))
        adj = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        data = Dataset(adj, np.zeros((2, 0)), ["x", "y"])
        g = grad_phi(state, data, 0, 0)
        assert g.d_network == pytest.approx(0.0, abs=1e-15)

    def test_outgoing_edge_term_matches_difference_oracle(self, theta_table):
        # oracle first: central finite difference of E[log p] in phi_ik
        def elog(p):
            return pair_expectation(p, 0.6, np.log(theta_table))

        h = 1e-6
        oracle = (elog(0.5 + h) - elog(0.5 - h)) / (2 * h)
        assert oracle == pytest.approx(1.0279, abs=5e-5)

        state = make_state([[0.5], [0.6]], theta_table)
        data = Dataset(np.array([[0, 1], [0, 0]], dtype=np.uint8),
                       np.zeros((2, 0)), ["x", "y"])
        tables = NodePairTables(state, data, 0)
        assert tables.out_edge[1]
        assert tables.elog_out[1, 0] == pytest.approx(oracle, abs=1e-8)

    def test_flat_prior_zeroes_the_prior_part(self):
        state, data = random_instance(40, n=4, k=2, l=3)
        for i in range(4):
            for k in range(2):
                assert grad_phi(state, data, i, k).d_prior == 0.0

    def test_beta_prior_part_matches_closed_form(self):
        alpha = np.array([[2.0, 0.5], [3.0, 4.0]])
        state, data = random_instance(41, n=3, k=2, l=0, alpha=alpha)
        phi = state.memberships.phi
        for i in range(3):
            for k in range(2):
                want = ((alpha[k, 0] - 1) / phi[i, k]
                        - (alpha[k, 1] - 1) / (1 - phi[i, k]))
                assert grad_phi(state, data, i, k).d_prior == pytest.approx(
                    want, rel=1e-12)

    def test_total_is_the_sum_of_parts(self):
        state, data = random_instance(42, n=5, k=2, l=4)
        g = grad_phi(state, data, 2, 1)
        assert g.total == pytest.approx(g.d_prior + g.d_features + g.d_network,
                                        abs=1e-15)

    def test_matches_objective_finite_difference_when_fully_observed(self):
        alpha = np.array([[1.6, 2.2], [0.8, 1.1]])
        state, data = random_instance(43, n=6, k=2, l=4, alpha=alpha)
        phi = state.memberships.phi
        for i in range(6):
            for k in range(2):
                fd = fd_total(state, data, phi, (i, k))
                assert close(grad_phi(state, data, i, k).total, fd)

    def test_partial_rows_average_the_feature_part(self):
        # with missing cells the feature part is the observed-cell average
        state, data = random_instance(44, n=4, k=2, l=5, missing=0.4)
        phi = state.memberships.phi
        for i in range(4):
            obs = data.observed[i]
            n_obs = int(obs.sum())
            for k in range(2):
                g = grad_phi(state, data, i, k)
                fd_feat = fd_of(lambda: feature_term(state, data), phi, (i, k))
                if n_obs == 0:
                    assert g.d_features == 0.0
                elif n_obs == 5:
                    assert close(g.d_features, fd_feat)
                else:
                    assert close(g.d_features, fd_feat / n_obs)

    def test_isolated_node_sees_only_nonedge_terms(self):
        state, data = random_instance(45, n=5, k=2, l=0, edge_p=0.6)
        data.adjacency[2, :] = 0
        data.adjacency[:, 2] = 0
        g = grad_phi(state, data, 2, 0)
        assert np.isfinite(g.total)
        fd = fd_of(lambda: network_term(state, data),
                   state.memberships.phi, (2, 0))
        assert close(g.d_network, fd)

    def test_bad_coordinate_raises(self):
        state, data = random_instance(46, n=3, k=2, l=1)
        with pytest.raises(IndexError):
            grad_phi(state, data, 3, 0)
        with pytest.raises(IndexError):
            grad_phi(state, data, 0, 2)


class TestGradW:
    def test_saturated_model_has_vanishing_residual(self):
        # push every probability onto its observed bit
        state, data = random_instance(50, n=4, k=1, l=2)
        data.features[:] = 1.0
        state.weights.w[:] = 0.0
        state.weights.w[:, -1] = 60.0
        for l in range(2):
            for k in range(2):
                assert abs(grad_w(state, data, l, k)) < 1e-12

    def test_single_cell_hand_value(self):
        # residual (1 - 0.5) times phi = 0.15, cross-checked by differences
        state = make_state([[0.3]], np.full((1, 2, 2), 0.5), w=[[0.0, 0.0]])
        data = Dataset(np.zeros((1, 1), dtype=np.uint8),
                       np.array([[1.0]]), ["x"])
        assert grad_w(state, data, 0, 0) == pytest.approx(0.15, abs=1e-12)
        fd = fd_of(lambda: feature_term(state, data), state.weights.w, (0, 0),
                   h=1e-6)
        assert fd == pytest.approx(0.15, abs=1e-8)

    def test_fully_missing_data_gives_zero(self):
        state, data = random_instance(51, n=4, k=2, l=3)
        data.features[:] = np.nan
        assert np.all(grad_w_matrix(state, data) == 0.0)

    def test_fully_missing_column_gives_zero_row(self):
        state, data = random_instance(52, n=5, k=2, l=4)
        data.features[:, 2] = np.nan
        grads = grad_w_matrix(state, data)
        assert np.all(grads[2] == 0.0)
        assert np.any(grads[0] != 0.0)

    def test_matches_feature_term_difference_with_missing_cells(self):
        state, data = random_instance(53, n=6, k=2, l=4, missing=0.3)
        w = state.weights.w
        for l in range(4):
            for k in range(3):
                fd = fd_of(lambda: feature_term(state, data), w, (l, k))
                assert close(grad_w(state, data, l, k), fd)

    def test_intercept_column_is_reachable(self):
        state, data = random_instance(54, n=4, k=2, l=2)
        got = grad_w(state, data, 1, 2)
        assert got == pytest.approx(grad_w_matrix(state, data)[1, 2], abs=1e-15)
        with pytest.raises(IndexError):
            grad_w(state, data, 1, 3)


class TestLassoStep:
    def test_subthreshold_zero_stays_inactive(self):
        assert lasso_step(0.0, 0.005 / 0.1, 0.1, 0.01) == 0.0
        assert lasso_step(0.0, -0.09, 0.1, 0.01) == 0.0

    def test_active_weight_worked_update(self):
        # 0.5 + 0.1*1.0 - 0.01 = 0.59
        assert lasso_step(0.5, 1.0, 0.1, 0.01) == pytest.approx(0.59, abs=1e-15)

    def test_crossing_zero_resets_to_zero(self):
        # candidate 0.02 - 0.1 - 0.01 = -0.09 flips sign
        assert lasso_step(0.02, -1.0, 0.1, 0.01) == 0.0

    def test_activation_uses_gradient_sign(self):
        up = lasso_step(0.0, 2.0, 0.1, 0.01)
        dn = lasso_step(0.0, -2.0, 0.1, 0.01)
        assert up == pytest.approx(0.19, abs=1e-15)
        assert dn == pytest.approx(-0.19, abs=1e-15)

    def test_never_flips_the_sign_of_an_active_weight(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            w = rng.normal() or 0.1
            out = lasso_step(w, rng.normal() * 5, rng.uniform(0.01, 0.5),
                             rng.uniform(0.0, 0.3))
            assert out == 0.0 or np.sign(out) == np.sign(w)

    def test_intercept_path_is_plain_gradient(self):
        assert lasso_step(0.4, -1.0, 0.1, 0.0) == pytest.approx(0.3, abs=1e-15)


def scalar_lasso(w, grads, gamma_f, lambdas):
    lambdas = np.broadcast_to(lambdas, w.shape)
    out = np.empty_like(w)
    for idx in np.ndindex(w.shape):
        out[idx] = lasso_step(w[idx], grads[idx], gamma_f, float(lambdas[idx]))
    return out


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


class TestLassoStepMatrix:
    """The array form must be bitwise the scalar reference, signed zeros
    included (compared through int64 views)."""

    def test_random_matrices_with_signed_zeros(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            l, k = rng.integers(1, 9), rng.integers(1, 5)
            w = rng.normal(size=(l, k + 1))
            w[rng.random(w.shape) < 0.3] = 0.0
            w[rng.random(w.shape) < 0.2] = -0.0
            grads = rng.normal(size=w.shape) * rng.choice([1e-3, 1.0, 50.0])
            grads[rng.random(w.shape) < 0.1] = 0.0
            gamma_f = float(rng.choice([1e-3, 0.005, 0.5, 8.0]))
            lambdas = np.append(np.full(k, rng.uniform(0.0, 0.3)), 0.0)
            got = lasso_step_matrix(w, grads, gamma_f, lambdas)
            assert same_bits(got, scalar_lasso(w, grads, gamma_f, lambdas))

    def test_intercept_column_without_penalty(self):
        w = np.array([[0.0, -0.0, 0.4, -0.25]])
        grads = np.array([[0.0, 0.0, -4.0, 2.5]])
        lambdas = np.array([0.1, 0.0, 0.0, 0.0])
        got = lasso_step_matrix(w, grads, 0.1, lambdas)
        assert same_bits(got, scalar_lasso(w, grads, 0.1, lambdas))
        # an exact cancellation lands on +0.0 in both forms
        assert same_bits(got[0, 2:], [0.0, 0.0])

    def test_gradients_exactly_at_the_threshold(self):
        # gamma_f * |grad| == lambda exactly (powers of two): stays inactive
        w = np.array([[0.0, -0.0, 0.0, -0.0, 0.5, -0.5]])
        grads = np.array([[0.5, -0.5, 0.5000000000000001, -0.5000000000000001,
                           0.5, -0.5]])
        got = lasso_step_matrix(w, grads, 0.5, 0.25)
        assert same_bits(got, scalar_lasso(w, grads, 0.5, 0.25))
        assert same_bits(got[0, :2], [0.0, 0.0])
        assert got[0, 2] > 0 > got[0, 3]


class TestGradTheta:
    def test_degenerate_memberships_hit_one_entry(self, theta_table):
        # source surely out of the group, destination surely in
        state = make_state([[0.0], [1.0]], theta_table)
        data = Dataset(np.array([[0, 1], [0, 0]], dtype=np.uint8),
                       np.zeros((2, 0)), ["x", "y"])
        edge_part, _ = _theta_grad_parts(state, data)
        want = np.zeros((2, 2))
        want[0, 1] = 1.0 / theta_table[0, 1]
        assert np.allclose(edge_part[0], want, atol=1e-12)

    def test_single_node_graph_has_zero_gradient(self, theta_table):
        state = make_state([[0.4]], theta_table)
        data = Dataset(np.zeros((1, 1), dtype=np.uint8),
                       np.zeros((1, 0)), ["x"])
        assert np.all(grad_theta(state, data, 0) == 0.0)

    def test_matches_network_term_difference(self):
        state, data = random_instance(60, n=4, k=2, l=0, edge_p=0.4)
        theta = state.affinities.theta
        for k in range(2):
            got = grad_theta(state, data, k)
            for x1 in (0, 1):
                for x2 in (0, 1):
                    fd = fd_of(lambda: network_term(state, data),
                               theta, (k, x1, x2))
                    assert close(got[x1, x2], fd)

    def test_bad_group_raises(self):
        state, data = random_instance(61, n=3, k=2, l=0)
        with pytest.raises(IndexError):
            grad_theta(state, data, 2)

    def test_holdout_node_is_excluded_from_all_families(self):
        state, data = random_instance(62, n=5, k=2, l=0, edge_p=0.5)
        held = state.copy()
        held.holdout_node = 3
        shrunk = Dataset(np.delete(np.delete(data.adjacency, 3, 0), 3, 1),
                         np.zeros((4, 0)),
                         [v for i, v in enumerate(data.node_ids) if i != 3])
        small = make_state(np.delete(state.memberships.phi, 3, 0),
                           state.affinities.theta.copy())
        assert np.allclose(grad_theta(held, data, 0),
                           grad_theta(small, shrunk, 0), atol=1e-12)
