"""Output checks computed apart from the program.

Every check here works on plain NumPy arrays in the benchmark's own node
order and re-derives what the program should have produced from the model
definition: the surrogate objective from the edge list the benchmark
wrote, link scores from the four-term pair expectation, feature
probabilities from the logistic layer.  Nothing is compared against a
saved copy of an earlier output.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

OBJECTIVE_RTOL = 1e-9      # reassociated sums of up to N^2 terms
SCORE_RTOL = 1e-12         # one product of K four-term expectations
MONOTONE_RTOL = 1e-12      # ulp-level slack: components are summed in
                           # another order than the guard compares them
LOG_FLOOR = 1e-12          # probability clamp of held-out log-likelihoods
MIN_AUC = 0.6              # in-sample link AUC a fit must reach; chance is
                           # 0.5, fits of the benchmark graphs reach 0.72-0.81


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def clamped_log(p, truth):
    p = np.clip(p, LOG_FLOOR, 1.0 - LOG_FLOOR)
    return np.where(np.asarray(truth) == 1, np.log(p), np.log1p(-p))


def indicator_rows(phi_k):
    """U with U[i] = (1 - phi_ik, phi_ik): the indicator distribution."""
    return np.stack([1.0 - phi_k, phi_k], axis=1)


def pair_moments(phi, theta):
    """E[p_ij], E[p_ij^2] and E[log p_ij] for every ordered pair, as
    products (sums for the log) over groups of U_k T U_k^T."""
    n = phi.shape[0]
    p1, p2, el = np.ones((n, n)), np.ones((n, n)), np.zeros((n, n))
    for k in range(phi.shape[1]):
        u = indicator_rows(phi[:, k])
        p1 *= u @ theta[k] @ u.T
        p2 *= u @ (theta[k] ** 2) @ u.T
        el += u @ np.log(theta[k]) @ u.T
    return p1, p2, el


def valid_pairs(n, holdout):
    """Ordered pairs that enter the network term: no self-pairs, nothing
    touching the held-out node."""
    valid = ~np.eye(n, dtype=bool)
    if holdout is not None:
        valid[holdout, :] = False
        valid[:, holdout] = False
    return valid


def adjacency_of(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    return adj


def objective_parts(phi, w, theta, features, edges, holdout, lam, alpha=None):
    """The surrogate objective's components, recomputed from scratch.

    Edges contribute E[log p]; non-edges -E[p] - E[p^2]/2; observed
    feature cells their Bernoulli log-likelihood; memberships the Beta
    prior (up to its constant); the group weights -lam |W|.
    """
    n, k = phi.shape
    if alpha is None:
        alpha = np.ones((k, 2))
    prior = float(((alpha[:, 0] - 1.0) * np.log(phi)
                   + (alpha[:, 1] - 1.0) * np.log(1.0 - phi)).sum())

    obs = ~np.isnan(features)
    x = phi @ w[:, :k].T + w[:, k]
    f = np.nan_to_num(features)
    # log sigma(x) = -log(1 + e^-x), log(1 - sigma(x)) = -log(1 + e^x)
    cell = -(f * np.logaddexp(0.0, -x) + (1.0 - f) * np.logaddexp(0.0, x))
    feat = float(cell[obs].sum())

    p1, p2, el = pair_moments(phi, theta)
    valid = valid_pairs(n, holdout)
    edge = adjacency_of(n, edges) & valid
    non = valid & ~edge
    network = float(el[edge].sum() - (p1[non] + 0.5 * p2[non]).sum())
    return {"l_phi": prior, "l_f": feat, "l_a_surrogate": network,
            "l1_penalty": float(lam * np.abs(w[:, :k]).sum())}


def check_objective(breakdown, parts) -> list:
    """Each reported component must match its recomputation."""
    return [f"objective component {name}: reported {getattr(breakdown, name)!r}, "
            f"recomputed {value!r}"
            for name, value in parts.items()
            if not close(getattr(breakdown, name), value, OBJECTIVE_RTOL)]


def check_monotone(totals) -> list:
    """Guarded ascent never lowers the objective: totals is the initial
    value followed by one value per outer iteration."""
    return [f"objective fell at iteration {i + 1}: {a!r} -> {b!r}"
            for i, (a, b) in enumerate(zip(totals, totals[1:]))
            if not b >= a - MONOTONE_RTOL * abs(a)]


def check_bounds(phi, theta, eps) -> list:
    bad = []
    for name, arr in (("phi", phi), ("theta", theta)):
        if not ((arr >= eps) & (arr <= 1.0 - eps)).all():
            bad.append(f"{name} leaves [{eps}, {1 - eps}]: "
                       f"min {arr.min()!r}, max {arr.max()!r}")
    return bad


def four_term(src, dst, theta):
    """Per-group E[theta_k(z_src, z_dst)] for independent indicators."""
    return (src * dst * theta[:, 1, 1] + src * (1.0 - dst) * theta[:, 1, 0]
            + (1.0 - src) * dst * theta[:, 0, 1]
            + (1.0 - src) * (1.0 - dst) * theta[:, 0, 0])


def check_links(scores, scores_in, loglik, row, phi, theta, node, edges) -> list:
    """Link scores of node `node` folded in with membership `row`: outgoing
    E[p_uj] and incoming E[p_ju] for every other node j, plus the summed
    clamped log-likelihood of its true links."""
    n = phi.shape[0]
    others = np.array([j for j in range(n) if j != node])
    p_out = four_term(row[None, :], phi[others], theta).prod(axis=1)
    p_in = four_term(phi[others], row[None, :], theta).prod(axis=1)
    bad = []
    for label, got, want in (("out", scores, p_out), ("in", scores_in, p_in)):
        idx = np.array([j for j, _ in got])
        val = np.array([p for _, p in got])
        if idx.shape != others.shape or (idx != others).any():
            bad.append(f"{label}-link scores do not cover every other node once")
            continue
        wrong = np.flatnonzero(np.abs(val - want) > SCORE_RTOL * np.abs(want))
        if wrong.size:
            j = int(wrong[0])
            bad.append(f"{wrong.size} {label}-link score(s) differ, first at "
                       f"node {others[j]}: {val[j]!r} vs {want[j]!r}")
    adj = adjacency_of(n, edges)
    want_ll = float(clamped_log(p_out, adj[node, others]).sum()
                    + clamped_log(p_in, adj[others, node]).sum())
    if not close(loglik, want_ll, OBJECTIVE_RTOL):
        bad.append(f"link log-likelihood {loglik!r} vs {want_ll!r}")
    return bad


def check_features(scores, loglik, row, w, truth) -> list:
    """Probabilities of the masked cells of a node with membership `row`
    and their summed clamped log-likelihood against the masked truth."""
    k = row.shape[0]
    cells = sorted(truth)
    idx = [l for l, _ in scores]
    if idx != cells:
        return [f"feature scores cover cells {idx}, masked cells are {cells}"]
    want = expit(w[cells, :k] @ row + w[cells, k])
    got = np.array([p for _, p in scores])
    bad = [f"feature {cells[i]} probability {got[i]!r} vs {want[i]!r}"
           for i in np.flatnonzero(np.abs(got - want) > SCORE_RTOL * want)]
    want_ll = float(clamped_log(want, [truth[l] for l in cells]).sum())
    if not close(loglik, want_ll, OBJECTIVE_RTOL):
        bad.append(f"feature log-likelihood {loglik!r} vs {want_ll!r}")
    return bad


def link_auc(phi, theta, edges, holdout) -> float:
    """In-sample AUC of E[p_ij] over the pairs the fit saw."""
    n = phi.shape[0]
    p1 = pair_moments(phi, theta)[0]
    valid = valid_pairs(n, holdout)
    labels = adjacency_of(n, edges)[valid]
    ranks = rankdata(p1[valid])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def check_auc(auc) -> list:
    if not auc >= MIN_AUC:
        return [f"in-sample link AUC {auc:.4f} is below {MIN_AUC}"]
    return []


def cv_loglik(rows, ws, truths) -> tuple:
    """Mean and population std of held-out feature log-likelihoods, one
    per fold: fold r scores the masked node's row rows[r] under ws[r]."""
    lls = []
    for row, w, truth in zip(rows, ws, truths):
        k = row.shape[0]
        cells = sorted(truth)
        p = expit(w[cells, :k] @ row + w[cells, k])
        lls.append(float(clamped_log(p, [truth[l] for l in cells]).sum()))
    arr = np.array(lls)
    return float(arr.mean()), float(arr.std())


def check_selection(candidates, cv, chosen_k, chosen_cv) -> list:
    """The chosen count must have the best mean (ties to the smaller
    count) and its score must match the recomputation chosen_cv."""
    bad = []
    means = [m for m, _ in cv]
    best = candidates[int(np.argmax(means))]
    if chosen_k != best:
        bad.append(f"chose K={chosen_k}, best mean is at K={best}")
    got = cv[candidates.index(chosen_k)]
    for label, a, b in (("mean", got[0], chosen_cv[0]),
                        ("std", got[1], chosen_cv[1])):
        if not close(a, b, OBJECTIVE_RTOL):
            bad.append(f"CV log-likelihood {label} for K={chosen_k}: "
                       f"reported {a!r}, recomputed {b!r}")
    return bad
