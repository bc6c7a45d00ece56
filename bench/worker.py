"""One workload in one process: set up, time whole rounds, check outputs.

Started by run.py, which owns the command line and the timing of set-up
from process start.  Prints one JSON object as its last stdout line.
Exit codes: 0 done (the object says whether the outputs were correct),
2 the package sources are missing.

``checks`` (and the scipy.stats it imports) is imported only after the
timed rounds, so that it never counts in set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_groupnet():
    """Import the package from this checkout's sources, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "groupnet" / "__init__.py").is_file():
        print(f"bench: no groupnet sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import groupnet
    return groupnet


def aligned(data, inp):
    """Program index of each of the benchmark's nodes."""
    return np.array([data.index_of(v) for v in inp.node_ids])


def check_fit(state, report, data, inp, wl, eps, features=None):
    """Objective recomputation, monotone trace and bounds for one fit.
    Returns the failures and phi in the benchmark's node order."""
    import checks
    order = aligned(data, inp)
    phi = state.memberships.phi[order]
    w, theta = state.weights.w, state.affinities.theta
    parts = checks.objective_parts(
        phi, w, theta, inp.features if features is None else features,
        inp.edges, inp.holdout, wl.lam)
    totals = [report.init_objective.total] + [b.total for b in report.objective_trace]
    return (checks.check_objective(report.objective_trace[-1], parts)
            + checks.check_monotone(totals)
            + checks.check_bounds(phi, theta, eps)), phi


def check_holdout_outputs(gn, wl, data, inp, out):
    import checks
    state, report, links = out["state"], out["report"], out["links"]
    eps = state.hyper.clamp_eps
    bad, phi = check_fit(state, report, data, inp, wl, eps)
    order = aligned(data, inp)
    mine = {int(p): i for i, p in enumerate(order)}
    node = inp.holdout
    theta, w = state.affinities.theta, state.weights.w
    row = gn.fold_in_node(state, data, inp.node_ids[node], "features-only")
    bad += checks.check_links(
        sorted((mine[j], p) for j, p in links.scores),
        sorted((mine[j], p) for j, p in links.scores_in),
        links.loglik, row, phi, theta, node, inp.edges)
    if "features" in out:
        feats = out["features"]
        row = gn.fold_in_node(state, data, inp.node_ids[node], "both")
        bad += checks.check_features(feats.scores, feats.loglik, row, w,
                                     inp.masked_truth)
    auc = checks.link_auc(phi, theta, inp.edges, node)
    bad += checks.check_auc(auc)
    return bad


def check_selection_outputs(gn, wl, data, inp, out, seed, workdir):
    """Refit the chosen K on select_k's documented folds and score them
    with the benchmark's own logistic computation."""
    import checks
    from workloads import write_features
    report = out["select_k"]
    bad = []
    if list(report.candidates) != list(wl.candidates) or report.folds != wl.reps:
        bad.append(f"select_k ran candidates {report.candidates} with "
                   f"{report.folds} folds")
    if report.chosen_k not in report.candidates:
        return bad + [f"chosen K={report.chosen_k} is not a candidate"]
    hyper = wl.hyper(gn, seed)
    observed = ~np.isnan(inp.features)
    eligible = np.flatnonzero(observed.any(axis=1))
    rows, ws, truths = [], [], []
    for r in range(wl.reps):
        # fold rule of select_k: the validation node of repetition r is
        # drawn from a generator seeded with (seed, r) among the nodes
        # with an observed feature, in dataset order
        rng = np.random.default_rng([seed, r])
        u = int(eligible[rng.integers(eligible.size)])
        truths.append({int(l): int(inp.features[u, l])
                       for l in np.flatnonzero(observed[u])})
        masked = inp.features.copy()
        masked[u, :] = np.nan
        path = os.path.join(workdir, f"fold{r}.features.tsv")
        write_features(masked, inp.node_ids, path)
        fold_data = gn.load_dataset(inp.edges_path, path)
        state, fit_report = gn.fit(fold_data, report.chosen_k, hyper)
        fit_bad, phi = check_fit(state, fit_report, fold_data, inp, wl,
                                 hyper.clamp_eps, features=masked)
        bad += [f"fold {r}: {msg}" for msg in fit_bad]
        rows.append(phi[u])
        ws.append(state.weights.w)
    chosen_cv = checks.cv_loglik(rows, ws, truths)
    return bad + checks.check_selection(list(report.candidates),
                                        report.cv_loglik, report.chosen_k,
                                        chosen_cv)


def timed_round(gn, wl, data, inp, seed):
    """One round of the timed calls: their outputs and wall time."""
    t0 = time.perf_counter()
    out = wl.run_round(gn, data, inp, seed)
    return out, time.perf_counter() - t0


def same_outputs(x, y) -> bool:
    """The traced round must compute exactly what the untraced one did."""
    if "select_k" in x:
        return x["select_k"].cv_loglik == y["select_k"].cv_loglik
    return ([o.total for o in x["report"].objective_trace]
            == [o.total for o in y["report"].objective_trace]
            and x["links"].scores == y["links"].scores)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    gn = import_groupnet()
    import workloads
    from tracer import Tracer, per_layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.make_inputs(args.seed)
    workdir = os.path.join(args.out_dir,
                           f"work-{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workloads.write_tsv(inp, workdir)
        load_tracer = Tracer().activate(gn) if args.trace else None
        try:
            data = gn.load_dataset(inp.edges_path, inp.features_path)
        finally:
            if load_tracer:
                load_tracer.deactivate()
        setup_done = time.monotonic()

        # Whole rounds, each started only if at least half of it fits in
        # --seconds.  The rounds repeat the same deterministic work, and load
        # from other tenants of the host only ever slows one, so wall_s is
        # the fastest round (best of n, as timeit reports): a slow phase of
        # the host that leaves one round of the run untouched stays out of it.
        walls = []
        started = time.perf_counter()
        while not walls or (time.perf_counter() - started + 0.5 * walls[-1]
                            < args.seconds):
            out, wall = timed_round(gn, wl, data, inp, args.seed)
            walls.append(wall)
        wall_s = min(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        result = {"setup_done": setup_done,
                  "attempted": wl.operations() * len(walls), "failed": 0}
        if args.trace:
            tracer = Tracer().activate(gn)
            try:
                traced, traced_wall = timed_round(gn, wl, data, inp, args.seed)
            finally:
                tracer.deactivate()
            if not same_outputs(out, traced):
                failures.append("the traced round computed other outputs")
            load_s = load_tracer.total("dataio.load_dataset")
            overhead = traced_wall - wall_s
            metrics = per_layer_metrics(tracer, load_s, overhead)
            trace_path = os.path.join(
                args.out_dir, f"trace-{wl.name}-{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"workload": wl.name, "seed": args.seed,
                           "summary": tracer.summary(),
                           "spans": tracer.spans()}, fh)
        else:
            metrics = {"wall_s": (wall_s, "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}

        if wl.candidates:
            failures += check_selection_outputs(gn, wl, data, inp, out,
                                                args.seed, workdir)
        else:
            failures += check_holdout_outputs(gn, wl, data, inp, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result["correct"] = not failures
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
