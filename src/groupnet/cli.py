"""Command-line front end.

Every subcommand reads TSV/JSON inputs, prints a machine-readable JSON
document to stdout (or --out), and keeps human-oriented chatter on stderr.
Exit codes: 0 success, 1 usage problem, 2 malformed data, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .baselines import baseline_avg, baseline_ccl, baseline_ccn, evaluate
from .dataio import (load_dataset, load_model, load_scores, save_dataset,
                     save_model)
from .datatypes import Dataset, Hyperparams
from .errors import DataFormatError, NumericError, UsageError
from .fitting import fit
from .prediction import classify_nodes, predict_links, predict_missing_features
from .selection import select_k
from .synth import PRESETS, synth_generate

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this tool reserves 2 for
    data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: dict, out: Optional[str]):
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _say(message: str):
    print(message, file=sys.stderr)


def _add_data_opts(p, undirected: bool = True):
    p.add_argument("--edges", required=True, help="edge list TSV (src dst)")
    p.add_argument("--features", required=True,
                   help="feature table TSV (node f1..fL; cells 0/1/?)")
    if undirected:
        p.add_argument("--undirected", action="store_true",
                       help="treat edges as symmetric (adds both directions)")


def _add_hyper_opts(p):
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="L1 strength on non-intercept weights")
    p.add_argument("--gamma-phi", type=float, default=0.005,
                   help="membership learning rate")
    p.add_argument("--gamma-f", type=float, default=0.005,
                   help="weight learning rate")
    p.add_argument("--gamma-a", type=float, default=0.005,
                   help="affinity learning rate")
    p.add_argument("--alpha", default=None,
                   help="Beta prior as 'a1,a2' for every group or "
                        "semicolon-separated per-group pairs")
    p.add_argument("--eps", type=float, default=1e-4,
                   help="clamp keeping probabilities off 0 and 1")
    p.add_argument("--max-iters", type=int, default=500,
                   help="outer iteration cap")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative objective change declaring convergence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--no-backtrack", action="store_true",
                   help="plain fixed-rate updates without the ascent guard")
    p.add_argument("--inner-passes", type=int, default=1,
                   help="passes per block per outer iteration")
    p.add_argument("--phi-update", choices=["gauss-seidel", "frozen"],
                   default="gauss-seidel",
                   help="membership sweep style")
    p.add_argument("--foldin-iters", type=int, default=200,
                   help="iteration cap when folding in a node")


def _parse_alpha(text: Optional[str],
                 k_groups: Optional[int]) -> Optional[np.ndarray]:
    """The --alpha pairs as a (K, 2) array, a single pair repeated for every
    group; with k_groups None the pairs are returned as given."""
    if text is None:
        return None
    try:
        groups = [part for part in text.split(";") if part]
        pairs = [[float(v) for v in part.split(",")] for part in groups]
    except ValueError:
        raise UsageError(f"cannot parse --alpha value {text!r}") from None
    if any(len(pair) != 2 for pair in pairs):
        raise UsageError("--alpha pairs must have exactly two values")
    if k_groups is None:
        return np.asarray(pairs, dtype=np.float64)
    if len(pairs) == 1:
        return np.tile(np.asarray(pairs, dtype=np.float64), (k_groups, 1))
    if len(pairs) != k_groups:
        raise UsageError(
            f"--alpha gives {len(pairs)} pairs but the model has "
            f"{k_groups} groups")
    return np.asarray(pairs, dtype=np.float64)


def _make_hyper(args, k_groups: Optional[int]) -> Hyperparams:
    try:
        return Hyperparams(
            alpha=_parse_alpha(args.alpha, k_groups),
            lam=args.lam,
            gamma_phi=args.gamma_phi,
            gamma_f=args.gamma_f,
            gamma_a=args.gamma_a,
            clamp_eps=args.eps,
            max_outer_iters=args.max_iters,
            rel_tol=args.tol,
            seed=args.seed,
            backtrack=not args.no_backtrack,
            inner_passes=args.inner_passes,
            threads=args.threads,
            phi_update=args.phi_update,
            foldin_max_iters=args.foldin_iters,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load(args) -> Dataset:
    return load_dataset(args.edges, args.features,
                        undirected=getattr(args, "undirected", False))


def _command_line(argv: Optional[list]) -> str:
    tail = sys.argv[1:] if argv is None else list(argv)
    return " ".join(["groupnet"] + tail)


def _cmd_fit(args) -> int:
    data = _load(args)
    hyper = _make_hyper(args, args.k)
    state, report = fit(data, args.k, hyper)
    text = save_model(state, data.node_ids, args.out, command=args.command_line)
    if not args.out:
        print(text)
    final = report.objective_trace[-1] if report.objective_trace else \
        report.init_objective
    _say(f"fit: n={data.n_nodes} l={data.n_features} k={args.k} "
         f"iters={report.outer_iters_run} converged={report.converged} "
         f"stop_reason={report.stop_reason} "
         f"objective={final.total:.6f} "
         f"nonzero_weights={np.count_nonzero(state.weights.group_weights)} "
         f"wall={report.wall_time:.2f}s")
    return 0


def _parse_mask(text: Optional[str], data: Dataset, idx: int) -> list:
    if text is None:
        return []
    if text == "all":
        return [int(l) for l in np.flatnonzero(data.observed[idx])]
    try:
        cols = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"cannot parse --mask value {text!r}") from None
    for l in cols:
        if not 0 <= l < data.n_features:
            raise UsageError(f"--mask feature index {l} out of range")
    return cols


def _cmd_predict_features(args) -> int:
    model, model_ids = load_model(args.model)
    data = _load(args)
    if model_ids != data.node_ids:
        raise DataFormatError(
            "model and dataset disagree on the node universe; refit or fix inputs")
    model.hyper.foldin_max_iters = args.foldin_iters
    idx = data.index_of(args.node)
    mask = _parse_mask(args.mask, data, idx)
    work = data
    truth = None
    if mask:
        work = data.copy()
        truth = {}
        for l in mask:
            if data.observed[idx, l]:
                truth[l] = int(data.features[idx, l])
            work.features[idx, l] = np.nan
        if not truth:
            truth = None
    res = predict_missing_features(model, work, idx, truth=truth)
    _emit({"target": res.target, "node": res.node,
           "scores": [[l, p] for l, p in res.scores],
           "loglik": res.loglik}, args.out)
    _say(f"predict-features: node={args.node} scored={len(res.scores)}")
    return 0


def _cmd_predict_links(args) -> int:
    data = _load(args)
    idx = data.index_of(args.holdout)
    hyper = _make_hyper(args, args.k)
    state, report = fit(data, args.k, hyper, holdout_node=idx)
    res = predict_links(state, data, idx, undirected=args.undirected)
    doc = {"target": res.target, "node": res.node,
           "scores": [[data.node_ids[j], p] for j, p in res.scores],
           "loglik": res.loglik}
    if res.scores_in is not None:
        doc["scores_in"] = [[data.node_ids[j], p] for j, p in res.scores_in]
    _emit(doc, args.out)
    _say(f"predict-links: holdout={args.holdout} candidates={len(res.scores)} "
         f"fit_iters={report.outer_iters_run}")
    return 0


def _cmd_classify(args) -> int:
    data = _load(args)
    if not 0 <= args.label_col < data.n_features:
        raise UsageError(f"--label-col {args.label_col} out of range")
    if not 0.0 < args.train_frac < 1.0:
        raise UsageError("--train-frac must lie strictly between 0 and 1")
    labeled = np.flatnonzero(data.observed[:, args.label_col])
    if labeled.size == 0:
        raise DataFormatError("label column has no observed values")
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(labeled)
    n_train = max(1, int(round(args.train_frac * labeled.size)))
    n_train = min(n_train, labeled.size - 1) if labeled.size > 1 else n_train
    train_mask = np.zeros(data.n_nodes, dtype=bool)
    train_mask[perm[:n_train]] = True
    hyper = _make_hyper(args, args.k)
    results = classify_nodes(data, args.label_col, train_mask, args.k, hyper)

    predictions = []
    scored = []
    for res in results:
        idx = data.index_of(res.node)
        p = res.scores[0][1]
        truth = (int(data.features[idx, args.label_col])
                 if data.observed[idx, args.label_col] else None)
        predictions.append([res.node, p, truth])
        if truth is not None:
            scored.append((p, truth))
    doc = {"target": "label", "label_feature": args.label_col,
           "train_nodes": [data.node_ids[i] for i in np.flatnonzero(train_mask)],
           "predictions": predictions, "metrics": None}
    if scored:
        m = evaluate(scored)
        doc["metrics"] = {"auc": m.auc, "loglik": m.loglik,
                          "accuracy": m.accuracy, "count": m.count}
    _emit(doc, args.out)
    _say(f"classify: label={args.label_col} train={n_train} "
         f"test={len(predictions)}")
    return 0


def _cmd_select_k(args) -> int:
    data = _load(args)
    hyper = _make_hyper(args, None)
    candidates = None
    if args.candidates:
        try:
            candidates = [int(v) for v in args.candidates.split(",") if v]
        except ValueError:
            raise UsageError(
                f"cannot parse --candidates value {args.candidates!r}") from None
    report = select_k(data, hyper, candidates=candidates, reps=args.reps,
                      cv_task=args.cv_task)
    _emit({"candidates": report.candidates,
           "cv_loglik": [[m, s] for m, s in report.cv_loglik],
           "chosen_k": report.chosen_k, "folds": report.folds}, args.out)
    _say(f"select-k: chose k={report.chosen_k} from {report.candidates}")
    return 0


def _cmd_synth(args) -> int:
    data, z = synth_generate(args.n, args.l, args.k, planted=args.preset,
                             seed=args.seed,
                             feature_input="z" if args.use_z else "phi")
    prefix = args.out_prefix
    paths = {"edges": f"{prefix}.edges.tsv",
             "features": f"{prefix}.features.tsv",
             "groups": f"{prefix}.z.tsv"}
    save_dataset(data, paths["edges"], paths["features"])
    with open(paths["groups"], "w", encoding="utf-8") as fh:
        fh.write("\t".join(["node"] + [f"g{k + 1}" for k in range(args.k)]) + "\n")
        for i, node in enumerate(data.node_ids):
            fh.write("\t".join([node] + [str(int(v)) for v in z[i]]) + "\n")
    n_edges = int(data.adjacency.sum())
    density = n_edges / (args.n * (args.n - 1)) if args.n > 1 else 0.0
    _emit({"preset": args.preset, "n": args.n, "l": args.l, "k": args.k,
           "seed": args.seed, "edges": n_edges, "density": density,
           "paths": paths}, args.out)
    _say(f"synth: wrote {n_edges} edges to {paths['edges']}")
    return 0


def _cmd_eval(args) -> int:
    metrics = evaluate(load_scores(args.scores))
    _emit({"count": metrics.count, "auc": metrics.auc,
           "loglik": metrics.loglik, "accuracy": metrics.accuracy}, args.out)
    _say(f"eval: {metrics.count} scores")
    return 0


def _cmd_baseline(args) -> int:
    data = _load(args)
    if args.task == "feature":
        if args.feature is None:
            raise UsageError("feature task requires --feature")
        task = ("feature", args.node, args.feature)
        target = args.feature
    else:
        if args.dst is None:
            raise UsageError("link task requires --dst")
        task = ("link", args.node, args.dst)
        target = args.dst
    method = {"avg": baseline_avg, "ccn": baseline_ccn, "ccl": baseline_ccl}
    prob = method[args.method](data, task)
    _emit({"method": args.method, "task": args.task, "node": args.node,
           "goal": target, "probability": prob}, args.out)
    _say(f"baseline {args.method}/{args.task}: {prob:.6f}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="groupnet",
                     description="Latent multi-group membership graph model: "
                                 "fitting, prediction, baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[], help="fit the model",
                       description="Fit the model and write a model JSON.")
    _add_data_opts(p)
    p.add_argument("--k", type=int, required=True, help="number of groups")
    _add_hyper_opts(p)
    p.add_argument("--out", help="model JSON path (default: stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict-features",
                       help="score missing features of a node")
    p.add_argument("--model", required=True, help="fitted model JSON")
    _add_data_opts(p)
    p.add_argument("--node", required=True, help="target node id")
    p.add_argument("--mask", default=None,
                   help="comma-separated feature indices to hide and score, "
                        "or 'all' for every observed one (default: score "
                        "cells already missing)")
    p.add_argument("--foldin-iters", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict_features)

    p = sub.add_parser("predict-links",
                       help="hold a node out, refit, and rank its links")
    _add_data_opts(p)
    p.add_argument("--holdout", required=True, help="node id to hold out")
    p.add_argument("--k", type=int, required=True)
    _add_hyper_opts(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict_links)

    p = sub.add_parser("classify",
                       help="predict a label column on a held-out split")
    _add_data_opts(p)
    p.add_argument("--label-col", type=int, required=True,
                   help="feature column holding the label")
    p.add_argument("--train-frac", type=float, required=True,
                   help="fraction of labeled nodes used for training")
    p.add_argument("--k", type=int, required=True)
    _add_hyper_opts(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("select-k", help="cross-validate the group count")
    _add_data_opts(p)
    p.add_argument("--candidates", default=None,
                   help="comma-separated group counts to try")
    p.add_argument("--reps", type=int, default=20,
                   help="validation repetitions per candidate")
    p.add_argument("--cv-task", choices=["features", "link"],
                   default="features")
    _add_hyper_opts(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_select_k)

    p = sub.add_parser("synth", help="sample a planted dataset")
    p.add_argument("--preset", choices=list(PRESETS), default="homophily")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--use-z", action="store_true",
                   help="drive features from sampled indicators instead of "
                        "membership probabilities")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="metrics for a probability/truth TSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="reference predictors")
    p.add_argument("--method", choices=["avg", "ccn", "ccl"], required=True)
    p.add_argument("--task", choices=["feature", "link"], required=True)
    _add_data_opts(p)
    p.add_argument("--node", required=True, help="target node id")
    p.add_argument("--feature", type=int, default=None,
                   help="feature index (feature task)")
    p.add_argument("--dst", default=None, help="destination node id (link task)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.command_line = _command_line(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _say(f"groupnet: error: {exc}")
        return 1
    except DataFormatError as exc:
        _say(f"groupnet: data error: {exc}")
        return 2
    except NumericError as exc:
        _say(f"groupnet: numeric failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
