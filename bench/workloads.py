"""Benchmark inputs and the timed user-level calls of each workload.

Inputs are sampled here, with NumPy alone, from the benchmark seed, then
written as the edge and feature TSV files that ``groupnet.load_dataset``
reads.  The program under test never sees the seed or the planted values:
it only reads the files.  The planted model has the same shape as the one
the package fits (Beta(0.3, 0.3) memberships, per-group 2x2 affinity
tables multiplied across groups, a logistic feature layer), and features
are drawn from the sampled indicators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Planted per-group affinity table of the homophily regime:
# rows = source indicator, columns = destination indicator.
HOMOPHILY = np.array([[0.45, 0.10], [0.10, 0.70]])
FEATURE_WEIGHT = 4.0      # weight of a feature's own group
FEATURE_INTERCEPT = -2.0


@dataclass
class Inputs:
    """What the benchmark generated: the truth it keeps for the checks,
    and the TSV files the program reads."""

    node_ids: list
    edges: np.ndarray            # (E, 2) int source/destination indices
    features: np.ndarray         # (N, L) float 0/1, nan = masked cell
    holdout: Optional[int]       # index of the held-out node, if any
    masked_truth: dict = field(default_factory=dict)  # feature index -> bit
    edges_path: str = ""
    features_path: str = ""


def sample_graph(rng, n, l, k, table):
    """Planted memberships, indicators, a directed graph and feature bits.

    Returns (edges, features).  Edge i -> j appears with probability
    prod_k table_k[z_ik, z_jk]; feature l of node i is 1 with probability
    expit(4 z_i,(l mod k) - 2).
    """
    phi = rng.beta(0.3, 0.3, size=(n, k))
    z = (rng.random((n, k)) < phi).astype(np.intp)
    prob = np.ones((n, n))
    for g in range(k):
        prob *= table[g][np.ix_(z[:, g], z[:, g])]
    np.fill_diagonal(prob, 0.0)
    src, dst = np.nonzero(rng.random((n, n)) < prob)
    edges = np.stack([src, dst], axis=1)
    w = np.zeros((l, k))
    w[np.arange(l), np.arange(l) % k] = FEATURE_WEIGHT
    logits = z @ w.T + FEATURE_INTERCEPT
    features = (rng.random((n, l)) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
    return edges, features


def scaled_tables(k, n, mean_out_degree):
    """Homophily tables for k groups, scaled by one common factor so the
    expected out-degree is mean_out_degree (indicators are 1 with
    probability 1/2 under the Beta(0.3, 0.3) prior)."""
    base = np.tile(HOMOPHILY, (k, 1, 1))
    density = mean_out_degree / (n - 1)
    scale = (density / HOMOPHILY.mean() ** k) ** (1.0 / k)
    return base * scale


def pick_holdout(rng, n, edges):
    """A node with at least two incident edges, so its links can be scored."""
    degree = np.bincount(edges.ravel(), minlength=n)
    return int(rng.choice(np.flatnonzero(degree >= 2)))


def write_tsv(inp: Inputs, directory: str):
    """Write the edge list and the feature table load_dataset reads."""
    ids = inp.node_ids
    inp.edges_path = os.path.join(directory, "input.edges.tsv")
    inp.features_path = os.path.join(directory, "input.features.tsv")
    with open(inp.edges_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ids[s]}\t{ids[d]}\n" for s, d in inp.edges)
    write_features(inp.features, ids, inp.features_path)


def write_features(features, node_ids, path):
    cells = np.where(np.isnan(features), "?",
                     np.where(features == 1.0, "1", "0"))
    with open(path, "w", encoding="utf-8") as fh:
        header = ["node"] + [f"f{c + 1}" for c in range(features.shape[1])]
        fh.write("\t".join(header) + "\n")
        for node, row in zip(node_ids, cells):
            fh.write(node + "\t" + "\t".join(row) + "\n")


def node_names(n):
    return [f"v{i:05d}" for i in range(n)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its inputs are made and which user-level
    calls one round times.  Sizes are recorded in the benchmark's README."""

    name: str
    n: int
    l: int
    k_planted: int
    mean_out_degree: Optional[float]   # None: unscaled homophily tables
    holdout: bool
    masked_cells: int
    fit_k: int
    max_outer_iters: int
    lam: float = 0.01
    candidates: tuple = ()
    reps: int = 0

    def make_inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        if self.mean_out_degree is None:
            tables = np.tile(HOMOPHILY, (self.k_planted, 1, 1))
        else:
            tables = scaled_tables(self.k_planted, self.n, self.mean_out_degree)
        edges, features = sample_graph(rng, self.n, self.l, self.k_planted,
                                       tables)
        holdout = pick_holdout(rng, self.n, edges) if self.holdout else None
        truth = {}
        if self.masked_cells:
            cells = np.sort(rng.choice(self.l, self.masked_cells, replace=False))
            truth = {int(c): int(features[holdout, c]) for c in cells}
            features[holdout, cells] = np.nan
        return Inputs(node_names(self.n), edges, features, holdout, truth)

    def hyper(self, gn, seed: int):
        return gn.Hyperparams(seed=seed, lam=self.lam,
                              max_outer_iters=self.max_outer_iters)

    def run_round(self, gn, data, inp: Inputs, seed: int) -> dict:
        """The timed user-level calls.  Returns their outputs by name."""
        hyper = self.hyper(gn, seed)
        if self.candidates:
            return {"select_k": gn.select_k(data, hyper,
                                            candidates=list(self.candidates),
                                            reps=self.reps, cv_task="features")}
        node = inp.node_ids[inp.holdout]
        state, report = gn.fit(data, self.fit_k, hyper,
                               holdout_node=data.index_of(node))
        out = {"state": state, "report": report,
               "links": gn.predict_links(state, data, node)}
        if inp.masked_truth:
            out["features"] = gn.predict_missing_features(
                state, data, node, truth=inp.masked_truth)
        return out

    def operations(self) -> int:
        """User-level calls per round."""
        return 1 if self.candidates else 2 + (1 if self.masked_cells else 0)


WORKLOADS = {
    w.name: w for w in (
        # Sparse graph, mean out-degree 10: nearly all of the dense N x N
        # algebra is spent on non-edges.  The held-out node's masked cells
        # drive both fold-in prediction paths.
        Workload("sparse-large", n=800, l=16, k_planted=3,
                 mean_out_degree=10.0, holdout=True, masked_cells=6,
                 fit_k=3, max_outer_iters=2),
        # Many small capped fits over a wide feature channel.
        Workload("selectk-wide", n=100, l=128, k_planted=3,
                 mean_out_degree=None, holdout=False, masked_cells=0,
                 fit_k=0, max_outer_iters=12, lam=0.1,
                 candidates=(1, 2, 3, 4, 5), reps=2),
    )
}
