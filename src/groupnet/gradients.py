"""Closed-form gradients of the surrogate objective.

Every formula here is the exact derivative of the surrogate objective in
model.py, with one deliberate exception: the feature part of the membership
gradient is averaged over a node's observed cells whenever that node has at
least one missing feature cell (prediction-time handling of partial rows).
For fully observed rows all gradients match central finite differences of
the reported objective.

Directional bookkeeping: phi_ik appears in four sum families, as the source
of pairs (i, j) and as the destination of pairs (j, i), each split into
edges (exact expected-log term) and non-edges (Taylor surrogate term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datatypes import Dataset, ModelState

__all__ = ["PhiGradient", "grad_phi", "grad_w", "grad_w_matrix",
           "lasso_step", "lasso_step_matrix", "grad_theta", "grad_theta_all"]


@dataclass
class PhiGradient:
    """Membership gradient split into its prior / feature / network parts."""

    d_prior: float
    d_features: float
    d_network: float

    @property
    def total(self) -> float:
        return self.d_prior + self.d_features + self.d_network


class NodePairTables:
    """Per-partner coefficient tables for one node i against all others.

    For a 2 x 2 table f, the pair expectation is linear in phi_ik:
    E f(z_i, z_j) = phi_ik * a + (1 - phi_ik) * b with a, b depending only
    on the partner membership and f; the destination-slot direction uses
    coefficients c, d in the same way.  Built once per node, the tables
    serve all K coordinates; only the expectation columns depend on
    phi_ik and are refreshed after a Gauss-Seidel coordinate update.
    """

    def __init__(self, state: ModelState, data: Dataset, i: int,
                 with_values: bool = False):
        phi = state.memberships.phi
        theta = state.affinities.theta               # (K, 2, 2)
        n = data.n_nodes
        self.i = i
        self.k_groups = state.k_groups
        self.with_values = with_values
        pj = phi                                      # partner memberships (N, K)
        qj = 1.0 - pj
        t, t2, lt = theta, theta ** 2, np.log(theta)
        # source-slot coefficients (i as source of i -> j)
        self.a = pj * t[:, 1, 1] + qj * t[:, 1, 0]
        self.b = pj * t[:, 0, 1] + qj * t[:, 0, 0]
        self.a2 = pj * t2[:, 1, 1] + qj * t2[:, 1, 0]
        self.b2 = pj * t2[:, 0, 1] + qj * t2[:, 0, 0]
        self.alog = pj * lt[:, 1, 1] + qj * lt[:, 1, 0]
        self.blog = pj * lt[:, 0, 1] + qj * lt[:, 0, 0]
        self.elog_out = self.alog - self.blog
        # destination-slot coefficients (i as destination of j -> i)
        self.c = pj * t[:, 1, 1] + qj * t[:, 0, 1]
        self.d = pj * t[:, 1, 0] + qj * t[:, 0, 0]
        self.c2 = pj * t2[:, 1, 1] + qj * t2[:, 0, 1]
        self.d2 = pj * t2[:, 1, 0] + qj * t2[:, 0, 0]
        self.clog = pj * lt[:, 1, 1] + qj * lt[:, 0, 1]
        self.dlog = pj * lt[:, 1, 0] + qj * lt[:, 0, 0]
        self.elog_in = self.clog - self.dlog

        valid = np.ones(n, dtype=bool)
        valid[i] = False
        if state.holdout_node is not None and state.holdout_node != i:
            valid[state.holdout_node] = False
        if state.holdout_node == i:
            valid[:] = False
        out_edge = (data.adjacency[i] == 1) & valid
        in_edge = (data.adjacency[:, i] == 1) & valid
        self.out_edge = out_edge
        self.out_non = valid & ~out_edge
        self.in_edge = in_edge
        self.in_non = valid & ~in_edge

        self.e_out = np.empty_like(self.a)
        self.e2_out = np.empty_like(self.a)
        self.e_in = np.empty_like(self.a)
        self.e2_in = np.empty_like(self.a)
        if with_values:
            self.elogv_out = np.empty_like(self.a)
            self.elogv_in = np.empty_like(self.a)
        row = phi[i]
        for k in range(self.k_groups):
            self.refresh(k, row[k])

    def refresh(self, k: int, phi_ik: float):
        """Recompute the expectation columns of group k for a new phi_ik."""
        q = 1.0 - phi_ik
        self.e_out[:, k] = phi_ik * self.a[:, k] + q * self.b[:, k]
        self.e2_out[:, k] = phi_ik * self.a2[:, k] + q * self.b2[:, k]
        self.e_in[:, k] = phi_ik * self.c[:, k] + q * self.d[:, k]
        self.e2_in[:, k] = phi_ik * self.c2[:, k] + q * self.d2[:, k]
        if self.with_values:
            self.elogv_out[:, k] = phi_ik * self.alog[:, k] + q * self.blog[:, k]
            self.elogv_in[:, k] = phi_ik * self.clog[:, k] + q * self.dlog[:, k]

    def network_value(self) -> float:
        """The network term restricted to pairs touching node i, at the
        current expectation columns (requires with_values)."""
        val = float(self.elogv_out[self.out_edge].sum()
                    + self.elogv_in[self.in_edge].sum())
        if self.out_non.any():
            m = self.out_non
            val -= float((self.e_out[m].prod(axis=1)
                          + 0.5 * self.e2_out[m].prod(axis=1)).sum())
        if self.in_non.any():
            m = self.in_non
            val -= float((self.e_in[m].prod(axis=1)
                          + 0.5 * self.e2_in[m].prod(axis=1)).sum())
        return val

    def network_grad(self, k: int) -> float:
        """d (network term) / d phi_ik at the current expectation columns."""
        g = float(self.elog_out[self.out_edge, k].sum()
                  + self.elog_in[self.in_edge, k].sum())
        if self.out_non.any():
            m = self.out_non
            p1_exc = np.prod(np.delete(self.e_out[m], k, axis=1), axis=1)
            p2_exc = np.prod(np.delete(self.e2_out[m], k, axis=1), axis=1)
            g -= float((p1_exc * (self.a[m, k] - self.b[m, k])
                        + 0.5 * p2_exc * (self.a2[m, k] - self.b2[m, k])).sum())
        if self.in_non.any():
            m = self.in_non
            p1_exc = np.prod(np.delete(self.e_in[m], k, axis=1), axis=1)
            p2_exc = np.prod(np.delete(self.e2_in[m], k, axis=1), axis=1)
            g -= float((p1_exc * (self.c[m, k] - self.d[m, k])
                        + 0.5 * p2_exc * (self.c2[m, k] - self.d2[m, k])).sum())
        return g


def feature_grad_phi(state: ModelState, data: Dataset, i: int, k: int) -> float:
    """Feature part of the membership gradient for coordinate (i, k).

    Averaged over the node's observed cells when the node has missing
    features; plain sum when the row is fully observed; zero when nothing
    is observed.
    """
    obs = ~np.isnan(data.features[i])
    n_obs = int(obs.sum())
    if n_obs == 0:
        return 0.0
    w = state.weights.w
    x = state.memberships.phi[i] @ w[:, :-1].T + w[:, -1]
    resid = data.features[i, obs] - expit(x[obs])
    g = float(resid @ w[obs, k])
    if n_obs < data.n_features:
        g /= n_obs
    return g


def grad_phi(state: ModelState, data: Dataset, i: int, k: int) -> PhiGradient:
    """Gradient of the surrogate objective in the membership coordinate
    (i, k), holding everything else fixed."""
    phi = state.memberships.phi
    if not (0 <= i < phi.shape[0] and 0 <= k < phi.shape[1]):
        raise IndexError(f"membership coordinate ({i}, {k}) out of range")
    alpha = state.hyper.alpha_for(state.k_groups)
    p = phi[i, k]
    d_prior = (alpha[k, 0] - 1.0) / p - (alpha[k, 1] - 1.0) / (1.0 - p)
    d_features = feature_grad_phi(state, data, i, k)
    tables = NodePairTables(state, data, i)
    return PhiGradient(float(d_prior), d_features, tables.network_grad(k))


def grad_w_matrix(state: ModelState, data: Dataset) -> np.ndarray:
    """L x (K+1) gradient of the feature term in every weight coordinate;
    the last column is the intercept direction.  Missing cells are skipped."""
    phi = state.memberships.phi
    w = state.weights.w
    x = phi @ w[:, :-1].T + w[:, -1][None, :]
    obs = data.observed
    resid = np.where(obs, np.nan_to_num(data.features) - expit(x), 0.0)
    design = np.hstack([phi, np.ones((phi.shape[0], 1))])
    return resid.T @ design


def grad_w(state: ModelState, data: Dataset, l: int, k: int) -> float:
    """Feature-term gradient for weight (l, k); k == K addresses the
    intercept column."""
    if not (0 <= l < state.weights.n_features and 0 <= k <= state.k_groups):
        raise IndexError(f"weight coordinate ({l}, {k}) out of range")
    return float(grad_w_matrix(state, data)[l, k])


def lasso_step(w_old: float, grad: float, gamma_f: float, lambda_k: float) -> float:
    """One L1-shrunk gradient step on a single weight.

    Inactive weights stay at zero below the activation threshold; active
    weights that would cross zero are reset to zero instead.
    """
    if w_old == 0.0:
        if gamma_f * abs(grad) <= lambda_k:
            return 0.0
        ref = 1.0 if grad > 0 else -1.0
    else:
        ref = 1.0 if w_old > 0 else -1.0
    cand = w_old + gamma_f * grad - lambda_k * ref
    if w_old != 0.0 and cand * w_old < 0.0:
        return 0.0
    return cand


def lasso_step_matrix(w: np.ndarray, grads: np.ndarray, gamma_f: float,
                      lambdas: np.ndarray) -> np.ndarray:
    """lasso_step applied to every entry at once; lambdas broadcasts against
    w (one strength per column, 0 for the intercept).  Each entry takes the
    same floating-point operations as the scalar reference, so the result
    is bitwise equal to it, signed zeros included."""
    zero = w == 0.0
    ref = np.where(zero, np.where(grads > 0, 1.0, -1.0),
                   np.where(w > 0, 1.0, -1.0))
    cand = w + gamma_f * grads - lambdas * ref
    dead = np.where(zero, gamma_f * np.abs(grads) <= lambdas, cand * w < 0.0)
    return np.where(dead, 0.0, cand)


def _theta_grad_parts(state: ModelState, data: Dataset):
    """Edge and non-edge gradient tables for every group, each (K, 2, 2)."""
    from .datatypes import pair_mask
    from .model import group_pair_tables

    phi = state.memberships.phi
    theta = state.affinities.theta
    n = data.n_nodes
    k_groups = state.k_groups
    mask = pair_mask(n, state.holdout_node)
    edge_m = ((data.adjacency == 1) & mask).astype(np.float64)
    non_m = ((data.adjacency == 0) & mask).astype(np.float64)
    p1, p2, _ = group_pair_tables(phi, theta)

    edge_part = np.zeros((k_groups, 2, 2))
    non_part = np.zeros((k_groups, 2, 2))
    for k in range(k_groups):
        pk = phi[:, k]
        t = theta[k]
        w11 = np.outer(pk, pk)
        w10 = np.outer(pk, 1.0 - pk)
        w01 = np.outer(1.0 - pk, pk)
        w00 = np.outer(1.0 - pk, 1.0 - pk)
        ek = w11 * t[1, 1] + w10 * t[1, 0] + w01 * t[0, 1] + w00 * t[0, 0]
        ek2 = (w11 * t[1, 1] ** 2 + w10 * t[1, 0] ** 2
               + w01 * t[0, 1] ** 2 + w00 * t[0, 0] ** 2)
        p1_exc = p1 / ek
        p2_exc = p2 / ek2
        side = {1: pk, 0: 1.0 - pk}
        for x1 in (0, 1):
            for x2 in (0, 1):
                wgt = np.outer(side[x1], side[x2])
                edge_part[k, x1, x2] = (wgt * edge_m).sum() / t[x1, x2]
                non_part[k, x1, x2] = -(
                    wgt * non_m * (p1_exc + t[x1, x2] * p2_exc)).sum()
    return edge_part, non_part


def grad_theta_all(state: ModelState, data: Dataset) -> np.ndarray:
    """Gradient of the surrogate network term in every affinity entry,
    shape (K, 2, 2)."""
    edge_part, non_part = _theta_grad_parts(state, data)
    return edge_part + non_part


def grad_theta(state: ModelState, data: Dataset, k: int) -> np.ndarray:
    """2 x 2 gradient table for group k's affinities."""
    if not 0 <= k < state.k_groups:
        raise IndexError(f"group {k} out of range")
    return grad_theta_all(state, data)[k]
