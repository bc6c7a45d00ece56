"""Prediction tasks built on a fitted model.

Held-out nodes share one primitive: fold the target node's membership row
in by coordinate ascent while every fitted parameter stays frozen.  Link
prediction folds in on features alone (the node's links were excluded from
the fit); feature prediction folds in on both channels only when the node
was held out, and otherwise reads the fitted row directly, since the fit
already maximized the same partial objective.  Classification masks the
label column for test nodes and reads probabilities straight off the refit
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .datatypes import Dataset, Hyperparams, ModelState
from .errors import DataFormatError, UsageError
from .fitting import fit, sweep_node
from .gradients import NodePairTables
from .model import feature_prob

__all__ = ["PredictionResult", "fold_in_node", "predict_missing_features",
           "predict_links", "classify_nodes"]

_CHANNELS = {"features-only": (True, False), "features": (True, False),
             "links-only": (False, True), "links": (False, True),
             "both": (True, True)}

_LOGLIK_FLOOR = 1e-12


def _clamped_log(prob: float, truth: int) -> float:
    p = min(max(prob, _LOGLIK_FLOOR), 1.0 - _LOGLIK_FLOOR)
    return float(np.log(p if truth else 1.0 - p))


@dataclass
class PredictionResult:
    """Output of one prediction task on one node."""

    target: str                                   # "features" | "links" | "label"
    node: str
    scores: list                                  # (index, probability) pairs
    loglik: Optional[float] = None
    scores_in: Optional[list] = None              # incoming-direction link scores


def _resolve(data: Dataset, u: Union[int, str]) -> int:
    if isinstance(u, str):
        return data.index_of(u)
    if not 0 <= u < data.n_nodes:
        raise DataFormatError(f"node index {u} out of range")
    return int(u)


def _foldin_partial(state: ModelState, data: Dataset, i: int,
                    use_features: bool, use_links: bool) -> float:
    """The slice of the surrogate objective that depends on node i's
    membership row, with the feature block scaled the same way its
    gradient is."""
    phi_row = state.memberships.phi[i]
    alpha = state.hyper.alpha_for(state.k_groups)
    val = float(((alpha[:, 0] - 1.0) * np.log(phi_row)
                 + (alpha[:, 1] - 1.0) * np.log(1.0 - phi_row)).sum())
    if use_features and data.n_features:
        obs = ~np.isnan(data.features[i])
        n_obs = int(obs.sum())
        if n_obs:
            w = state.weights.w
            x = phi_row @ w[obs, :-1].T + w[obs, -1]
            f = data.features[i, obs]
            ll = float((f * x - np.logaddexp(0.0, x)).sum())
            val += ll if n_obs == data.n_features else ll / n_obs
    if use_links:
        tables = NodePairTables(state, data, i, with_values=True)
        val += tables.network_value()
    return val


def fold_in_node(model: ModelState, data: Dataset, u: Union[int, str],
                 observe: str = "both") -> np.ndarray:
    """Estimate a membership row for node u from its observed channel,
    holding W, the affinities, and every other membership row fixed.

    Starts the row at 0.5, runs guarded coordinate sweeps, and stops when
    the node's partial objective stops changing by rel_tol.  Returns the
    new row; the model passed in is never mutated.
    """
    if observe not in _CHANNELS:
        raise UsageError(f"unknown observation channel {observe!r}")
    use_features, use_links = _CHANNELS[observe]
    idx = _resolve(data, u)
    hyper = model.hyper
    work = model.copy()
    work.holdout_node = None
    phi = work.memberships.phi
    phi[idx] = 0.5

    prev = _foldin_partial(work, data, idx, use_features, use_links)
    for _ in range(hyper.foldin_max_iters):
        rate = hyper.gamma_phi
        snap = phi[idx].copy()
        halvings = 0
        while True:
            sweep_node(work, data, idx, rate, use_features, use_links)
            val = _foldin_partial(work, data, idx, use_features, use_links)
            if np.isfinite(val) and val >= prev:
                break
            phi[idx] = snap
            val = prev
            if halvings >= 20 or not hyper.backtrack:
                break
            halvings += 1
            rate *= 0.5
        rel = abs(val - prev) / max(abs(prev), 1e-12)
        prev = val
        if rel < hyper.rel_tol:
            break
    return phi[idx].copy()


def predict_missing_features(model: ModelState, data: Dataset,
                             u: Union[int, str],
                             truth: Optional[dict] = None) -> PredictionResult:
    """Score every missing feature cell of node u.  truth, when given, maps
    feature index -> held-out bit and yields a summed log-likelihood.

    When u was part of the fit its membership row already maximizes the
    node's partial objective over links plus observed features, so that row
    is read directly.  When the model was fitted with u held out, the row
    is first folded in from both channels.
    """
    idx = _resolve(data, u)
    masked = np.flatnonzero(~data.observed[idx])
    if model.holdout_node == idx:
        row = fold_in_node(model, data, idx, "both")
    else:
        row = model.memberships.phi[idx].copy()
    work = model.copy()
    work.memberships.phi[idx] = row
    scores = [(int(l), feature_prob(work, idx, int(l))) for l in masked]
    loglik = None
    if truth is not None:
        loglik = sum(_clamped_log(p, int(truth[l])) for l, p in scores
                     if l in truth)
    return PredictionResult("features", data.node_ids[idx], scores, loglik)


def predict_links(model: ModelState, data: Dataset, u: Union[int, str],
                  undirected: bool = False) -> PredictionResult:
    """Rank all possible partners of held-out node u by expected edge
    probability, after folding u in on its features alone.

    The model must have been fitted with u held out of the network sums;
    anything else breaks the held-out protocol and raises.
    """
    idx = _resolve(data, u)
    if model.holdout_node != idx:
        raise UsageError(
            f"node {data.node_ids[idx]!r} was not held out during fitting; "
            "link prediction requires a holdout fit")
    row = fold_in_node(model, data, idx, "features-only")
    scoring = model.copy()
    scoring.memberships.phi[idx] = row
    scoring.holdout_node = None
    tables = NodePairTables(scoring, data, idx)
    p_out = tables.e_out.prod(axis=1)
    p_in = tables.e_in.prod(axis=1)
    others = [j for j in range(data.n_nodes) if j != idx]

    loglik = 0.0
    if undirected:
        scores = []
        for j in others:
            pair = 1.0 - (1.0 - p_out[j]) * (1.0 - p_in[j])
            scores.append((j, float(pair)))
            linked = int(data.adjacency[idx, j] or data.adjacency[j, idx])
            loglik += _clamped_log(pair, linked)
        return PredictionResult("links", data.node_ids[idx], scores, loglik)

    scores = [(j, float(p_out[j])) for j in others]
    scores_in = [(j, float(p_in[j])) for j in others]
    for j in others:
        loglik += _clamped_log(p_out[j], int(data.adjacency[idx, j]))
        loglik += _clamped_log(p_in[j], int(data.adjacency[j, idx]))
    return PredictionResult("links", data.node_ids[idx], scores, loglik,
                            scores_in=scores_in)


def classify_nodes(data: Dataset, label_feature: int, train_mask: np.ndarray,
                   k_groups: int, hyper: Hyperparams) -> list[PredictionResult]:
    """Treat one feature column as a class label: hide it on the test
    nodes, fit once, and read each test node's class-1 probability from
    the refit feature model.
    """
    if not 0 <= label_feature < data.n_features:
        raise UsageError(f"label feature index {label_feature} out of range")
    train_mask = np.asarray(train_mask, dtype=bool)
    if train_mask.shape != (data.n_nodes,):
        raise UsageError("train mask length must equal the node count")
    work = data.copy()
    work.features[~train_mask, label_feature] = np.nan
    if not work.observed[:, label_feature].any():
        raise DataFormatError("label column has no observed training values")
    state, _ = fit(work, k_groups, hyper)
    results = []
    for u in np.flatnonzero(~train_mask):
        p = feature_prob(state, int(u), label_feature)
        loglik = None
        if data.observed[u, label_feature]:
            loglik = _clamped_log(p, int(data.features[u, label_feature]))
        results.append(PredictionResult(
            "label", data.node_ids[int(u)], [(label_feature, p)], loglik))
    return results
