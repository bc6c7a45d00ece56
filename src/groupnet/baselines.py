"""Reference predictors and the shared evaluation metrics.

Three baselines of increasing machinery: population averaging, a smoothed
Naive Bayes over own-feature and neighbor-majority evidence, and a logistic
regression over the same evidence with neighbor means.  Targets are tagged
tuples: ("feature", node, feature_index) or ("link", src, dst).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .datatypes import Dataset
from .errors import DataFormatError, UsageError

__all__ = ["Metrics", "evaluate", "baseline_avg", "baseline_ccn",
           "baseline_ccl"]

_LOGLIK_FLOOR = 1e-12


@dataclass
class Metrics:
    """Ranking, likelihood, and thresholded-accuracy summary of a score set."""

    auc: Optional[float]
    loglik: float
    accuracy: float
    count: int


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x with ties sharing their average rank (the
    "average" method of scipy.stats.rankdata); any nan makes every rank
    nan, as there.  Average ranks are half-integers, so they are exact."""
    n = x.size
    if np.isnan(x).any():
        return np.full(n, np.nan)
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    first = np.concatenate(([True], sorted_x[1:] != sorted_x[:-1]))
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n))
    ranks = np.empty(n)
    ranks[order] = (starts + (counts + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def evaluate(scores) -> Metrics:
    """Score (probability, truth) pairs.

    AUC comes from the rank statistic with tied scores counted half, and is
    absent when only one class is present.  Log-likelihood clamps
    probabilities away from 0/1; accuracy thresholds at 0.5 with ties
    predicted positive.
    """
    pairs = list(scores)
    if not pairs:
        raise DataFormatError("no scores to evaluate")
    probs = np.array([p for p, _ in pairs], dtype=np.float64)
    truth = np.array([int(t) for _, t in pairs])
    clamped = np.clip(probs, _LOGLIK_FLOOR, 1.0 - _LOGLIK_FLOOR)
    loglik = float(np.where(truth == 1, np.log(clamped),
                            np.log1p(-clamped)).sum())
    accuracy = float(((probs >= 0.5).astype(int) == truth).mean())
    pos = truth == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    auc = None
    if n_pos and n_neg:
        ranks = _average_ranks(probs)
        auc = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                    / (n_pos * n_neg))
    return Metrics(auc, loglik, accuracy, len(pairs))


def _resolve(data: Dataset, u: Union[int, str]) -> int:
    if isinstance(u, str):
        return data.index_of(u)
    if not 0 <= u < data.n_nodes:
        raise DataFormatError(f"node index {u} out of range")
    return int(u)


def _check_task(data: Dataset, task) -> tuple:
    kind = task[0]
    if kind == "feature":
        u, l = _resolve(data, task[1]), int(task[2])
        if not 0 <= l < data.n_features:
            raise UsageError(f"feature index {l} out of range")
        return "feature", u, l
    if kind == "link":
        u, j = _resolve(data, task[1]), _resolve(data, task[2])
        if u == j:
            raise UsageError("link target cannot be a self-pair")
        return "link", u, j
    raise UsageError(f"unknown baseline task {kind!r}")


def baseline_avg(data: Dataset, task) -> float:
    """Population-average predictor.

    Features: fraction of ones among the other nodes' observed values in
    that column.  Links: fraction of the other possible sources that link
    to the destination.  Falls back to the global observed mean, then 0.5.
    """
    kind, u, t = _check_task(data, task)
    if kind == "feature":
        col = data.features[:, t]
        keep = data.observed[:, t].copy()
        keep[u] = False
        if keep.any():
            return float(col[keep].mean())
        global_obs = data.observed.copy()
        global_obs[u, :] = False
        if global_obs.any():
            return float(data.features[global_obs].mean())
        return 0.5
    sources = np.ones(data.n_nodes, dtype=bool)
    sources[[u, t]] = False
    if sources.any():
        return float(data.adjacency[sources, t].mean())
    mask = ~np.eye(data.n_nodes, dtype=bool)
    mask[u, :] = False
    mask[:, u] = False
    if mask.any():
        return float(data.adjacency[mask].mean())
    return 0.5


def _neighbor_sets(data: Dataset) -> list:
    adj = data.adjacency
    both = (adj == 1) | (adj.T == 1)
    np.fill_diagonal(both, False)
    return [np.flatnonzero(both[i]) for i in range(data.n_nodes)]


def _marginal_bit(data: Dataset, l: int) -> int:
    obs = data.observed[:, l]
    if not obs.any():
        return 1
    return 1 if data.features[obs, l].mean() >= 0.5 else 0


def _neighbor_majority(data: Dataset, neighbors, i: int, l: int,
                       marginal: int) -> Optional[int]:
    nbrs = neighbors[i]
    if len(nbrs) == 0:
        return None
    vals = data.features[nbrs, l]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return None
    ones = int(vals.sum())
    zeros = vals.size - ones
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    return marginal


def _neighbor_mean(data: Dataset, neighbors, i: int, l: int) -> Optional[float]:
    nbrs = neighbors[i]
    if len(nbrs) == 0:
        return None
    vals = data.features[nbrs, l]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return None
    return float(vals.mean())


def _ccn_channels(data: Dataset, kind: str, u: int, t: int):
    """Evidence channels the target node can actually supply, as
    (target value, per-node value function) pairs."""
    channels = []
    if kind == "feature":
        for l2 in range(data.n_features):
            if l2 != t and data.observed[u, l2]:
                channels.append((int(data.features[u, l2]),
                                 _own_feature_fn(data, l2)))
        neighbors = _neighbor_sets(data)
        for l2 in range(data.n_features):
            marginal = _marginal_bit(data, l2)
            e = _neighbor_majority(data, neighbors, u, l2, marginal)
            if e is not None:
                channels.append((e, _majority_fn(data, neighbors, l2, marginal)))
    else:
        for l2 in range(data.n_features):
            if data.observed[u, l2]:
                channels.append((int(data.features[u, l2]),
                                 _own_feature_fn(data, l2)))
    return channels


def _own_feature_fn(data: Dataset, l: int):
    def value(s: int) -> Optional[int]:
        return int(data.features[s, l]) if data.observed[s, l] else None
    return value


def _majority_fn(data: Dataset, neighbors, l: int, marginal: int):
    def value(s: int) -> Optional[int]:
        return _neighbor_majority(data, neighbors, s, l, marginal)
    return value


def _train_population(data: Dataset, kind: str, u: int, t: int):
    """(node index, class bit) pairs the baseline may learn from."""
    out = []
    for s in range(data.n_nodes):
        if s == u or (kind == "link" and s == t):
            continue
        if kind == "feature":
            if data.observed[s, t]:
                out.append((s, int(data.features[s, t])))
        else:
            out.append((s, int(data.adjacency[s, t])))
    return out


def baseline_ccn(data: Dataset, task) -> float:
    """Naive Bayes with add-1 smoothing over the evidence channels.

    Feature targets use the node's other observed features plus per-feature
    neighbor majorities; link targets use the source's own features.  With
    no usable evidence the smoothed class prior is returned.
    """
    kind, u, t = _check_task(data, task)
    train = _train_population(data, kind, u, t)
    n1 = sum(c for _, c in train)
    n0 = len(train) - n1
    log_odds = np.log((n1 + 1.0) / (len(train) + 2.0)) - np.log(
        (n0 + 1.0) / (len(train) + 2.0))
    for evidence, value_fn in _ccn_channels(data, kind, u, t):
        c1 = c0 = m1 = m0 = 0
        for s, cls in train:
            v = value_fn(s)
            if v is None:
                continue
            if cls == 1:
                m1 += 1
                c1 += int(v == evidence)
            else:
                m0 += 1
                c0 += int(v == evidence)
        log_odds += np.log((c1 + 1.0) / (m1 + 2.0)) - np.log((c0 + 1.0) / (m0 + 2.0))
    return float(expit(log_odds))


def _ccl_design(data: Dataset, kind: str, u: int, t: int):
    """Target feature vector and training design for the logistic baseline.

    Channels mirror the Naive Bayes ones with neighbor means in place of
    majorities; training gaps are filled with the channel's observed mean
    and constant channels are dropped.
    """
    train = _train_population(data, kind, u, t)
    if not train:
        return np.zeros(0), np.zeros((0, 0)), np.zeros(0)
    columns = []
    target_vals = []
    if kind == "feature":
        neighbors = _neighbor_sets(data)
        for l2 in range(data.n_features):
            if l2 != t and data.observed[u, l2]:
                target_vals.append(float(data.features[u, l2]))
                columns.append([
                    float(data.features[s, l2]) if data.observed[s, l2] else np.nan
                    for s, _ in train])
        for l2 in range(data.n_features):
            e = _neighbor_mean(data, neighbors, u, l2)
            if e is not None:
                target_vals.append(e)
                col = [_neighbor_mean(data, neighbors, s, l2) for s, _ in train]
                columns.append([np.nan if v is None else v for v in col])
    else:
        for l2 in range(data.n_features):
            if data.observed[u, l2]:
                target_vals.append(float(data.features[u, l2]))
                columns.append([
                    float(data.features[s, l2]) if data.observed[s, l2] else np.nan
                    for s, _ in train])

    y = np.array([c for _, c in train], dtype=np.float64)
    kept_target, kept_cols = [], []
    for tv, col in zip(target_vals, columns):
        arr = np.array(col, dtype=np.float64)
        seen = arr[~np.isnan(arr)]
        if seen.size == 0:
            continue
        arr[np.isnan(arr)] = seen.mean()
        if arr.max() - arr.min() < 1e-12:
            continue
        kept_target.append(tv)
        kept_cols.append(arr)
    if kept_cols:
        x = np.column_stack(kept_cols)
    else:
        x = np.zeros((len(train), 0))
    return np.array(kept_target), x, y


def _logistic_fit(x: np.ndarray, y: np.ndarray,
                  tol: float = 1e-8, max_iters: int = 100000) -> np.ndarray:
    """Unregularized logistic regression by plain gradient ascent with a
    curvature-safe constant step."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram_top = float(np.linalg.eigvalsh(design.T @ design)[-1])
    step = 4.0 / max(gram_top, 1e-12)
    w = np.zeros(design.shape[1])
    for _ in range(max_iters):
        grad = design.T @ (y - expit(design @ w))
        if np.abs(grad).max() < tol:
            break
        w += step * grad
    return w


def baseline_ccl(data: Dataset, task) -> float:
    """Logistic-regression variant of the relational baseline: same
    channels as the Naive Bayes one with neighbor means, unregularized."""
    kind, u, t = _check_task(data, task)
    target_vec, x, y = _ccl_design(data, kind, u, t)
    if y.size == 0:
        return 0.5
    w = _logistic_fit(x, y)
    z = float(target_vec @ w[:-1] + w[-1]) if target_vec.size else float(w[-1])
    return float(expit(z))
