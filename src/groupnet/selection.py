"""Choosing the group count by repeated held-out-node cross validation.

One repetition masks a random node's observed channel, refits at the
candidate group count, and scores the held-out truth; candidates compete
on mean held-out log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .datatypes import Dataset, Hyperparams
from .errors import UsageError
from .fitting import fit
from .prediction import predict_links, predict_missing_features

__all__ = ["KSelectionReport", "select_k"]


@dataclass
class KSelectionReport:
    """Cross-validation summary over the candidate group counts."""

    candidates: list[int]
    cv_loglik: list[tuple[float, float]]   # (mean, std) per candidate
    chosen_k: int
    folds: int


def _default_candidates(n_nodes: int, n_features: int) -> list[int]:
    center = math.ceil(math.log2(n_nodes))
    cap = min(n_nodes, n_features)
    return [k for k in range(center - 2, center + 3) if 1 <= k <= cap]


def _hyper_for(hyper: Hyperparams, k_groups: int) -> Hyperparams:
    """hyper with its Beta prior sized for k_groups: a single (a1, a2) pair
    applies to every group, per-group pairs must match the count."""
    if hyper.alpha is None or hyper.alpha.shape[0] == k_groups:
        return hyper
    if hyper.alpha.shape[0] == 1:
        return replace(hyper, alpha=np.tile(hyper.alpha, (k_groups, 1)))
    raise UsageError(f"alpha gives {hyper.alpha.shape[0]} per-group pairs but "
                     f"candidate K={k_groups} has {k_groups} groups")


def select_k(data: Dataset, hyper: Hyperparams,
             candidates: Optional[list] = None, reps: int = 20,
             cv_task: str = "features") -> KSelectionReport:
    """Pick the group count whose refits best predict held-out nodes.

    Default candidates bracket log2 of the node count.  A single-row alpha
    in hyper applies to every group of every candidate.  Each repetition
    draws one validation node from a seed derived from (seed, repetition)
    and every candidate is scored on that same node, so reports are
    reproducible and comparisons share their folds.  Ties prefer the
    smaller count.
    """
    n = data.n_nodes
    if n < 3:
        raise UsageError("cross-validation needs at least 3 nodes")
    if cv_task not in ("features", "link"):
        raise UsageError("cv_task must be 'features' or 'link'")
    if reps < 1:
        raise UsageError("reps must be positive")
    cap = min(n, data.n_features) if data.n_features else 0
    if candidates is None:
        cand = _default_candidates(n, data.n_features)
    else:
        cand = sorted({int(k) for k in candidates if 1 <= int(k) <= cap})
    if not cand:
        raise UsageError("candidate set is empty after clipping to "
                         f"[1, min(n_nodes, n_features)] = [1, {cap}]")
    hypers = [_hyper_for(hyper, k) for k in cand]

    if cv_task == "features":
        eligible = np.flatnonzero(data.observed.any(axis=1))
        if eligible.size == 0:
            raise UsageError("no node has an observed feature to hold out")
    else:
        eligible = np.arange(n)

    lls = [[] for _ in cand]
    for r in range(reps):
        rng = np.random.default_rng([hyper.seed, r])
        u = int(eligible[rng.integers(eligible.size)])
        if cv_task == "features":
            truth = {int(l): int(data.features[u, l])
                     for l in np.flatnonzero(data.observed[u])}
            work = data.copy()
            work.features[u, :] = np.nan
        for ki, k in enumerate(cand):
            if cv_task == "features":
                state, _ = fit(work, k, hypers[ki])
                res = predict_missing_features(state, work, u, truth=truth)
            else:
                state, _ = fit(data, k, hypers[ki], holdout_node=u)
                res = predict_links(state, data, u)
            lls[ki].append(res.loglik)
    stats = []
    for vals in lls:
        arr = np.array(vals, dtype=np.float64)
        stats.append((float(arr.mean()), float(arr.std())))

    means = [m for m, _ in stats]
    chosen = cand[int(np.argmax(means))]
    return KSelectionReport(cand, stats, chosen, reps)
