"""Span tracing of groupnet from outside the package.

The tracer replaces module-level functions of groupnet by wrappers, in
every groupnet module that holds a reference to them, and puts the
originals back when it is deactivated.  Each wrapped call records a span
(name, start, end, parent) in memory; a few very frequent calls are only
counted.  The block guard of the fit loop (``fitting._guarded``) is
wrapped too, because the accepted/attempted ratio of each block is only
visible there.  A target the package no longer has is skipped with a
warning, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) -> span name
SPANS = {
    ("dataio", "load_dataset"): "dataio.load_dataset",
    ("fitting", "fit"): "fitting.fit",
    ("fitting", "init_svd"): "fitting.init_svd",
    ("fitting", "init_theta"): "fitting.init_theta",
    ("gradients", "NodePairTables"): "gradients.NodePairTables",
    ("gradients", "grad_w_matrix"): "gradients.grad_w_matrix",
    ("gradients", "grad_theta_all"): "gradients.grad_theta_all",
    ("model", "group_pair_tables"): "model.group_pair_tables",
    ("model", "network_term"): "model.network_term",
    ("model", "feature_term"): "model.feature_term",
    ("model", "objective"): "model.objective",
    ("prediction", "fold_in_node"): "prediction.fold_in_node",
    ("prediction", "predict_links"): "prediction.predict_links",
    ("prediction", "predict_missing_features"):
        "prediction.predict_missing_features",
    ("selection", "select_k"): "selection.select_k",
}
COUNTED = {
    ("gradients", "lasso_step"): "gradients.lasso_step",
    ("fitting", "sweep_node"): "fitting.sweep_node",
}
GUARD = ("fitting", "_guarded")


class Tracer:
    """Records spans and counts while active; see the module docstring."""

    def __init__(self):
        # spans as parallel lists of atoms, which the garbage collector
        # does not have to scan
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self.open_names = Counter()
        self._stack = []
        self._patched = []       # (module, attribute, original)

    # -- recording -----------------------------------------------------
    def _open(self, name):
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self._stack.append(len(self.names) - 1)
        self.starts.append(time.perf_counter())
        self.open_names[name] += 1
        self.counts[name] += 1

    def _close(self, name):
        self.ends[self._stack.pop()] = time.perf_counter()
        self.open_names[name] -= 1

    def _span(self, name, fn, after=None):
        def wrapped(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if after is not None:
                after(result)
            return result
        return wrapped

    def _counted(self, name, fn):
        def wrapped(*args, **kwargs):
            if name == "fitting.sweep_node" and self.open_names["prediction.fold_in_node"]:
                self.counts["prediction.fold_in.sweeps"] += 1
            else:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _after_fit(self, result):
        _, report = result
        self.counts["fitting.outer_iters"] += report.outer_iters_run
        if self.open_names["selection.select_k"]:
            self.counts["selection.fits"] += 1

    def _guard(self, fn):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            a = bound.arguments
            block = a["block"]
            values = []
            mutate, partial = a["mutate"], a["partial"]

            def counted_mutate(rate):
                self.counts[f"fitting.{block}.attempts"] += 1
                return mutate(rate)

            def recorded_partial():
                values.append(partial())
                return values[-1]

            a["mutate"], a["partial"] = counted_mutate, recorded_partial
            name = f"fitting.{block}_block"
            self._open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(name)
            # the guard keeps the first value that is finite and not below
            # the block's old value; without backtracking it keeps any
            old = a["old_val"]
            if not a.get("backtrack", True) or any(
                    np.isfinite(v) and v >= old for v in values):
                self.counts[f"fitting.{block}.accepted"] += 1
            return result
        return wrapped

    # -- patching ------------------------------------------------------
    def _replace(self, module, attr, wrapper):
        original = getattr(module, attr)
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "groupnet" or n.startswith("groupnet.")]:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def activate(self, gn):
        targets = [(key, "span", name) for key, name in SPANS.items()]
        targets += [(key, "count", name) for key, name in COUNTED.items()]
        targets.append((GUARD, "guard", None))
        for (mod_name, attr), kind, name in targets:
            module = getattr(gn, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: groupnet.{mod_name}.{attr} not found; "
                      "its metrics read 0", file=sys.stderr)
                continue
            if kind == "span":
                after = self._after_fit if name == "fitting.fit" else None
                wrapper = self._span(name, fn, after)
            elif kind == "count":
                wrapper = self._counted(name, fn)
            else:
                wrapper = self._guard(fn)
            self._replace(module, attr, wrapper)
        return self

    def deactivate(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: call count, total time and self time (total minus
        the time covered by direct child spans)."""
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.intp)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested],
                            minlength=len(duration))
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for name, d, c in zip(self.names, duration, child):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += float(d)
            entry["self_s"] += float(d - c)
        return dict(out)

    def spans(self) -> list:
        """[name, start, end, parent index] per span, in start order."""
        return [list(s) for s in zip(self.names, self.starts, self.ends,
                                     self.parents)]

    def total(self, name) -> float:
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends)
                   if n == name)


def per_layer_metrics(tracer: Tracer, load_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of one traced round, name -> (value, unit)."""
    c, t = tracer.counts, tracer.total

    def ratio(block):
        attempts = c[f"fitting.{block}.attempts"]
        return c[f"fitting.{block}.accepted"] / attempts if attempts else 0.0

    iters = c["fitting.outer_iters"]
    return {
        "dataio.load_s": (load_s, "s"),
        "fitting.init_svd_s": (t("fitting.init_svd"), "s"),
        "fitting.init_theta_s": (t("fitting.init_theta"), "s"),
        "fitting.membership_s": (t("fitting.membership_block"), "s"),
        "fitting.membership.node_sweeps": (c["fitting.sweep_node"], "count"),
        "fitting.membership.passes": (c["fitting.membership.attempts"], "count"),
        "fitting.membership.accept_ratio": (ratio("membership"), "ratio"),
        "gradients.node_tables": (c["gradients.NodePairTables"], "count"),
        "gradients.node_tables_s": (t("gradients.NodePairTables"), "s"),
        "gradients.grad_w_matrix.calls": (c["gradients.grad_w_matrix"], "count"),
        "gradients.grad_w_matrix_s": (t("gradients.grad_w_matrix"), "s"),
        "gradients.lasso_step.calls": (c["gradients.lasso_step"], "count"),
        "fitting.weight.accept_ratio": (ratio("weight"), "ratio"),
        "gradients.grad_theta_all.calls": (c["gradients.grad_theta_all"], "count"),
        "gradients.grad_theta_all_s": (t("gradients.grad_theta_all"), "s"),
        "fitting.affinity.accept_ratio": (ratio("affinity"), "ratio"),
        "model.group_pair_tables.calls": (c["model.group_pair_tables"], "count"),
        "model.group_pair_tables_s": (t("model.group_pair_tables"), "s"),
        "model.network_term.calls": (c["model.network_term"], "count"),
        "model.network_term_s": (t("model.network_term"), "s"),
        "model.feature_term.calls": (c["model.feature_term"], "count"),
        "model.feature_term_s": (t("model.feature_term"), "s"),
        "model.objective.calls": (c["model.objective"], "count"),
        "fitting.outer_iters": (iters, "count"),
        "fitting.iter_s": (t("fitting.fit") / iters if iters else 0.0, "s/iter"),
        "prediction.fold_in_s": (t("prediction.fold_in_node"), "s"),
        "prediction.fold_in.sweeps": (c["prediction.fold_in.sweeps"], "count"),
        "prediction.predict_links_s": (t("prediction.predict_links"), "s"),
        "prediction.predict_features_s":
            (t("prediction.predict_missing_features"), "s"),
        "selection.fits": (c["selection.fits"], "count"),
        "selection.select_k_s": (t("selection.select_k"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
