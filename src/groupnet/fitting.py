"""Initialization and the alternating ascent loop.

Starting values come from a truncated SVD of the (imputed) feature matrix
together with an edge-weighted ratio estimate of the affinities, rescaled so
the model's expected edge count matches the observed one.  The fit then
cycles membership / weight / affinity blocks, each guarded by rate-halving
backtracking so the surrogate objective never decreases on an accepted step.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .datatypes import (AffinityTensor, Dataset, FeatureWeights, Hyperparams,
                        Memberships, ModelState, pair_mask)
from .errors import NumericError, UsageError
from .gradients import (NodePairTables, grad_phi, grad_theta_all, grad_w_matrix,
                        lasso_step_matrix)
from .model import (ObjectiveBreakdown, feature_term, group_pair_tables,
                    l1_term, network_term, objective, prior_term)

__all__ = ["FitReport", "init_svd", "init_theta", "fit"]

_MAX_HALVINGS = 20


@dataclass
class FitReport:
    """Trace of one fit: per-iteration objective breakdowns and bookkeeping."""

    objective_trace: list[ObjectiveBreakdown] = field(default_factory=list)
    outer_iters_run: int = 0
    converged: bool = False
    wall_time: float = 0.0
    nonzero_weights: list[int] = field(default_factory=list)
    init_objective: Optional[ObjectiveBreakdown] = None
    stop_reason: str = "max_iters"     # or "converged", "stalled"


def init_svd(data: Dataset, k_groups: int, lam: float,
             clamp_eps: float) -> tuple[Memberships, FeatureWeights]:
    """Seed memberships and feature weights from a rank-K SVD of the feature
    matrix (missing cells imputed with their column's observed mean).

    Weight columns take sigma_k * v_k with small entries zeroed below the
    penalty; membership columns are the left singular vectors min-max
    rescaled into the clamp interval.  Intercepts start at each column's
    observed log-odds.
    """
    n, l = data.n_nodes, data.n_features
    if k_groups < 1:
        raise UsageError("group count must be at least 1")
    if k_groups > min(n, l):
        raise UsageError(
            f"group count {k_groups} exceeds min(n_nodes={n}, n_features={l})")

    obs = data.observed
    filled = np.nan_to_num(data.features)
    col_n = obs.sum(axis=0)
    col_mean = np.where(col_n > 0, filled.sum(axis=0) / np.maximum(col_n, 1), 0.5)
    imputed = np.where(obs, filled, col_mean[None, :])

    safe_mean = np.clip(col_mean, clamp_eps, 1.0 - clamp_eps)
    w = np.zeros((l, k_groups + 1))
    w[:, -1] = np.log(safe_mean / (1.0 - safe_mean))
    phi = np.full((n, k_groups), 0.5)

    if imputed.max() - imputed.min() < 1e-12:
        return Memberships(phi), FeatureWeights(w)

    u, sigma, vt = np.linalg.svd(imputed, full_matrices=False)
    for k in range(k_groups):
        vk, uk = vt[k].copy(), u[:, k].copy()
        if vk[int(np.argmax(np.abs(vk)))] < 0:
            vk, uk = -vk, -uk
        col = sigma[k] * vk
        col[np.abs(col) < lam] = 0.0
        w[:, k] = col
        lo, hi = uk.min(), uk.max()
        if hi - lo > 1e-12:
            phi[:, k] = clamp_eps + (uk - lo) / (hi - lo) * (1.0 - 2.0 * clamp_eps)
    return Memberships(phi), FeatureWeights(w)


def _expected_edge_total(phi: np.ndarray, theta: np.ndarray,
                         mask: np.ndarray) -> float:
    p1, _, _ = group_pair_tables(phi, theta)
    return float(p1[mask].sum())


def init_theta(data: Dataset, memberships: Memberships, clamp_eps: float,
               holdout_node: Optional[int] = None) -> AffinityTensor:
    """Seed affinities from edge-weighted indicator co-occurrence ratios,
    scaled so the expected edge count matches the observed count.

    Each group's table is proportional to the summed membership weights of
    the observed edges, normalized to peak at 1 - eps, then multiplied by a
    common per-group factor; when clamping distorts the closed-form factor
    the scale is re-solved by bisection to 0.1% relative edge-count error.
    """
    phi = memberships.phi
    n, k_groups = phi.shape
    mask = pair_mask(n, holdout_node)
    edge_m = ((data.adjacency == 1) & mask).astype(np.float64)
    e_target = float(edge_m.sum())
    if e_target == 0:
        warnings.warn("graph has no usable edges; affinities start uniform at 0.1")
        return AffinityTensor(np.full((k_groups, 2, 2), 0.1))

    base = np.empty((k_groups, 2, 2))
    for k in range(k_groups):
        side = {1: phi[:, k], 0: 1.0 - phi[:, k]}
        for x1 in (0, 1):
            for x2 in (0, 1):
                base[k, x1, x2] = side[x1] @ edge_m @ side[x2]
        base[k] *= (1.0 - clamp_eps) / base[k].max()

    def clamped(scale: float) -> np.ndarray:
        return np.clip(base * scale, clamp_eps, 1.0 - clamp_eps)

    s = (e_target / _expected_edge_total(phi, np.clip(base, clamp_eps, 1.0 - clamp_eps), mask)) ** (1.0 / k_groups)
    theta = clamped(s)
    if abs(_expected_edge_total(phi, theta, mask) - e_target) / e_target > 1e-3:
        lo, hi = 0.0, s
        while _expected_edge_total(phi, clamped(hi), mask) < e_target and hi < 1e12:
            lo, hi = hi, hi * 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            err = _expected_edge_total(phi, clamped(mid), mask) - e_target
            if abs(err) / e_target <= 1e-3:
                break
            if err < 0:
                lo = mid
            else:
                hi = mid
        theta = clamped(mid)
    return AffinityTensor(theta)


def sweep_node(state: ModelState, data: Dataset, i: int, rate: float,
               use_features: bool = True, use_links: bool = True):
    """Coordinate-ascent updates for one node's membership row, each group's
    update applied before the next is computed.  Channel switches let the
    fold-in path run on a single observation channel; the fit loop uses
    both.  Mutates state.memberships.phi[i] in place."""
    phi = state.memberships.phi
    w = state.weights.w
    wg = w[:, :-1]
    alpha = state.hyper.alpha_for(state.k_groups)
    eps = state.hyper.clamp_eps
    k_groups = phi.shape[1]
    n_feats = data.n_features

    n_obs = 0
    if use_features and n_feats:
        obs = ~np.isnan(data.features[i])
        n_obs = int(obs.sum())
    if n_obs:
        norm = 1.0 if n_obs == n_feats else 1.0 / n_obs
        f_obs = data.features[i, obs]
        w_obs = wg[obs]
        x_obs = phi[i] @ w_obs.T + w[obs, -1]
    if use_links:
        t = NodePairTables(state, data, i)
        p1o = t.e_out.prod(axis=1)
        p2o = t.e2_out.prod(axis=1)
        p1i = t.e_in.prod(axis=1)
        p2i = t.e2_in.prod(axis=1)
        oe, on, ie, inn = t.out_edge, t.out_non, t.in_edge, t.in_non

    for k in range(k_groups):
        p = phi[i, k]
        g = (alpha[k, 0] - 1.0) / p - (alpha[k, 1] - 1.0) / (1.0 - p)
        if n_obs:
            g += norm * float((f_obs - expit(x_obs)) @ w_obs[:, k])
        if use_links:
            g += float(t.elog_out[oe, k].sum() + t.elog_in[ie, k].sum())
            g -= float((p1o[on] / t.e_out[on, k] * (t.a[on, k] - t.b[on, k])).sum()
                       + 0.5 * (p2o[on] / t.e2_out[on, k]
                                * (t.a2[on, k] - t.b2[on, k])).sum())
            g -= float((p1i[inn] / t.e_in[inn, k] * (t.c[inn, k] - t.d[inn, k])).sum()
                       + 0.5 * (p2i[inn] / t.e2_in[inn, k]
                                * (t.c2[inn, k] - t.d2[inn, k])).sum())
        new = min(max(p + rate * g, eps), 1.0 - eps)
        if new == p:
            continue
        if use_links:
            p1o /= t.e_out[:, k]
            p2o /= t.e2_out[:, k]
            p1i /= t.e_in[:, k]
            p2i /= t.e2_in[:, k]
            t.refresh(k, new)
            p1o *= t.e_out[:, k]
            p2o *= t.e2_out[:, k]
            p1i *= t.e_in[:, k]
            p2i *= t.e2_in[:, k]
        phi[i, k] = new
        if n_obs:
            x_obs += (new - p) * w_obs[:, k]


def _phi_pass_gauss_seidel(state: ModelState, data: Dataset, rate: float):
    """One sweep over all membership coordinates, each update visible to
    the next (per-node tables refreshed in place)."""
    for i in range(data.n_nodes):
        sweep_node(state, data, i, rate)


def _phi_pass_frozen(state: ModelState, data: Dataset, rate: float):
    """One sweep with every gradient taken against the pre-pass snapshot."""
    snap = state.copy()
    phi = state.memberships.phi
    eps = state.hyper.clamp_eps
    for i in range(phi.shape[0]):
        for k in range(phi.shape[1]):
            g = grad_phi(snap, data, i, k).total
            phi[i, k] = min(max(phi[i, k] + rate * g, eps), 1.0 - eps)


def _w_step(state: ModelState, data: Dataset) -> Callable[[float], None]:
    """One shrinkage pass over every weight as a function of the rate: the
    gradient is taken once at the pass's start point, and each call steps
    from that point."""
    grads = grad_w_matrix(state, data)
    w = state.weights.w
    start = w.copy()
    lambdas = np.append(np.full(state.k_groups, state.hyper.lam), 0.0)

    def step(rate: float):
        w[:] = lasso_step_matrix(start, grads, rate, lambdas)
    return step


def _theta_step(state: ModelState, data: Dataset) -> Callable[[float], None]:
    """One clamped gradient step on every affinity table as a function of
    the rate, the gradient taken once at the pass's start point."""
    grads = grad_theta_all(state, data)
    eps = state.hyper.clamp_eps
    theta = state.affinities.theta
    start = theta.copy()

    def step(rate: float):
        theta[:] = np.clip(start + rate * grads, eps, 1.0 - eps)
    return step


def _guarded(mutate: Callable[[float], None], arrays: list[np.ndarray],
             partial: Callable[[], float], old_val: float, rate: float,
             backtrack: bool, block: str) -> tuple[float, float, bool]:
    """Run one block pass; with backtracking, halve the rate and retry from
    the snapshot until the block's objective slice does not decrease.
    Returns (accepted value, rate in effect, whether a step was accepted);
    a pass that used up its halvings leaves the arrays as they were."""
    if not backtrack:
        mutate(rate)
        val = partial()
        if not np.isfinite(val):
            raise NumericError(f"objective became non-finite in the {block} block")
        return val, rate, True
    snaps = [a.copy() for a in arrays]
    halvings = 0
    while True:
        mutate(rate)
        val = partial()
        if np.isfinite(val) and val >= old_val:
            return val, rate, True
        for a, s in zip(arrays, snaps):
            a[:] = s
        if halvings >= _MAX_HALVINGS:
            return old_val, rate, False
        halvings += 1
        rate *= 0.5


def fit(data: Dataset, k_groups: int, hyper: Hyperparams,
        holdout_node: Optional[int] = None) -> tuple[ModelState, FitReport]:
    """Fit the full model by blockwise ascent on the surrogate objective.

    Each outer iteration runs a membership sweep, a shrinkage pass over the
    weights, and a clamped gradient step per affinity table, in that order,
    each backtrack-guarded.  Stops when the relative objective change over
    one outer iteration falls below rel_tol ("converged"), when an outer
    iteration accepts no step in any block ("stalled"), or after
    max_outer_iters ("max_iters").

    The objective components (prior, feature, network, L1) are evaluated
    only on trial states and carried from block to block: after every
    guarded pass, the carried components are exactly those of the current
    parameters (the accepted trial's, or the pre-pass ones when the guard
    gave up and restored the arrays).  Each block's old value and the
    per-iteration breakdown are sums of carried components, added in the
    same order as objective() adds them, so they are bitwise equal to a
    fresh evaluation.

    holdout_node, when given, removes every adjacency pair touching that
    node from all network sums (its features and prior still count), which
    is the protocol link prediction requires.
    """
    t0 = time.perf_counter()
    if holdout_node is not None and not 0 <= holdout_node < data.n_nodes:
        raise UsageError(f"holdout node index {holdout_node} out of range")
    memberships, weights = init_svd(data, k_groups, hyper.lam, hyper.clamp_eps)
    affinities = init_theta(data, memberships, hyper.clamp_eps, holdout_node)
    state = ModelState(memberships, weights, affinities, hyper, holdout_node)

    init = objective(state, data)
    report = FitReport(init_objective=init)
    if not init.is_finite():
        raise NumericError("objective non-finite at initialization")
    prev_total = init.total

    phi_pass = (_phi_pass_gauss_seidel if hyper.phi_update == "gauss-seidel"
                else _phi_pass_frozen)
    phi = state.memberships.phi
    w = state.weights.w
    theta = state.affinities.theta

    # components at the current parameters, and at the latest trial state
    cur = {"prior": init.l_phi, "feat": init.l_f,
           "net": init.l_a_surrogate, "l1": init.l1_penalty}
    trial = {}

    def phi_part() -> float:
        trial.update(prior=prior_term(state), feat=feature_term(state, data),
                     net=network_term(state, data))
        return trial["prior"] + trial["feat"] + trial["net"]

    def w_part() -> float:
        trial.update(feat=feature_term(state, data), l1=l1_term(state))
        return trial["feat"] - trial["l1"]

    def theta_part() -> float:
        trial.update(net=network_term(state, data))
        return trial["net"]

    def run_block(block, make_step, array, partial, old, rate) -> bool:
        """The block's guarded passes; True when any of them moved."""
        moved = False
        for _ in range(hyper.inner_passes):
            trial.clear()     # carry only pieces this pass evaluated
            old, rate, accepted = _guarded(make_step(), [array], partial, old,
                                           rate, hyper.backtrack, block)
            if accepted:
                cur.update(trial)
                moved = True
        return moved

    for _ in range(hyper.max_outer_iters):
        moved = run_block("membership", lambda: lambda r: phi_pass(state, data, r),
                          phi, phi_part, cur["prior"] + cur["feat"] + cur["net"],
                          hyper.gamma_phi)
        moved |= run_block("weight", lambda: _w_step(state, data), w, w_part,
                           cur["feat"] - cur["l1"], hyper.gamma_f)
        moved |= run_block("affinity", lambda: _theta_step(state, data), theta,
                           theta_part, cur["net"], hyper.gamma_a)

        snap = ObjectiveBreakdown(cur["prior"], cur["feat"], cur["net"],
                                  cur["l1"])
        if not snap.is_finite():
            raise NumericError("objective became non-finite after an outer iteration")
        report.objective_trace.append(snap)
        report.nonzero_weights.append(int(np.count_nonzero(w[:, :k_groups])))
        report.outer_iters_run += 1
        if not moved:
            report.stop_reason = "stalled"
            break
        rel = abs(snap.total - prev_total) / max(abs(prev_total), 1e-12)
        prev_total = snap.total
        if rel < hyper.rel_tol:
            report.converged = True
            report.stop_reason = "converged"
            break

    report.wall_time = time.perf_counter() - t0
    return state, report
