"""Wire formats: TSV edge/feature files and the JSON model file.

Model persistence stores every float as its repr string, which Python
round-trips bit-exactly, so save/load cannot drift an objective value.
"""

from __future__ import annotations

import datetime
import json
import warnings
from typing import Optional

import numpy as np

from .datatypes import (AffinityTensor, Dataset, FeatureWeights, Hyperparams,
                        Memberships, ModelState)
from .errors import DataFormatError, UsageError

__all__ = ["load_dataset", "save_dataset", "save_model", "load_model",
           "load_scores", "MODEL_FORMAT_VERSION"]

MODEL_FORMAT_VERSION = 1

_CELLS = {"0": 0.0, "1": 1.0, "?": np.nan}


def _open_for_read(path: str):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _data_lines(path: str):
    """Yield (line_number, stripped line), skipping blanks and # comments."""
    with _open_for_read(path) as fh:
        for no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield no, line


def load_dataset(edges_path: str, features_path: str,
                 undirected: bool = False) -> Dataset:
    """Read a directed graph plus feature table.

    Node order: feature-file order first, then edge-only nodes by first
    appearance.  Cells are 0, 1, or ? for missing; nodes known only from
    edges get all-missing rows.  Duplicate edges collapse, self-loops are
    dropped with a warning, and undirected input materializes both
    directions.
    """
    rows: dict[str, list[float]] = {}
    order: list[str] = []
    n_feats = 0
    header_seen = False
    for no, line in _data_lines(features_path):
        parts = line.split()
        if not header_seen:
            if parts[0] != "node":
                raise DataFormatError(
                    f"{features_path}:{no}: header must start with 'node'")
            n_feats = len(parts) - 1
            header_seen = True
            continue
        if len(parts) != n_feats + 1:
            raise DataFormatError(
                f"{features_path}:{no}: expected {n_feats + 1} columns, "
                f"got {len(parts)}")
        node = parts[0]
        if node in rows:
            raise DataFormatError(
                f"{features_path}:{no}: duplicate node {node!r}")
        try:
            rows[node] = [_CELLS[c] for c in parts[1:]]
        except KeyError as bad:
            raise DataFormatError(
                f"{features_path}:{no}: feature value {bad.args[0]!r} "
                "is not one of 0, 1, ?") from None
        order.append(node)
    if not header_seen:
        raise DataFormatError(f"{features_path}: missing header line")

    edges = set()
    self_loops = 0
    for no, line in _data_lines(edges_path):
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(
                f"{edges_path}:{no}: expected 'src dst', got {len(parts)} fields")
        src, dst = parts
        if src == dst:
            self_loops += 1
            continue
        edges.add((src, dst))
        if undirected:
            edges.add((dst, src))
        for node in (src, dst):
            if node not in rows:
                rows[node] = [np.nan] * n_feats
                order.append(node)
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s) from {edges_path}")

    index = {node: i for i, node in enumerate(order)}
    n = len(order)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for src, dst in edges:
        adjacency[index[src], index[dst]] = 1
    features = np.array([rows[node] for node in order],
                        dtype=np.float64).reshape(n, n_feats)
    return Dataset(adjacency, features, order)


def save_dataset(data: Dataset, edges_path: str, features_path: str):
    """Write the TSV pair load_dataset reads; loading it back reproduces
    the dataset exactly."""
    with open(edges_path, "w", encoding="utf-8") as fh:
        for i in range(data.n_nodes):
            for j in np.flatnonzero(data.adjacency[i]):
                fh.write(f"{data.node_ids[i]}\t{data.node_ids[j]}\n")
    with open(features_path, "w", encoding="utf-8") as fh:
        header = ["node"] + [f"f{l + 1}" for l in range(data.n_features)]
        fh.write("\t".join(header) + "\n")
        for i, node in enumerate(data.node_ids):
            cells = ["?" if np.isnan(v) else str(int(v))
                     for v in data.features[i]]
            fh.write("\t".join([node] + cells) + "\n")


def _encode_floats(arr: np.ndarray) -> list:
    if arr.ndim == 1:
        return [repr(float(v)) for v in arr]
    return [_encode_floats(row) for row in arr]


def _decode_floats(payload, shape: tuple) -> np.ndarray:
    arr = np.asarray(payload)
    if arr.size == 0:
        if int(np.prod(shape)) == 0:
            return np.zeros(shape)
        raise DataFormatError(
            f"empty model payload where shape {shape} was expected")
    try:
        out = arr.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad numeric payload in model file: {exc}") from None
    if out.shape != shape:
        raise DataFormatError(
            f"model payload shape {out.shape} does not match header {shape}")
    return out


def save_model(state: ModelState, node_ids: list, path: Optional[str] = None,
               command: str = "") -> str:
    """Serialize a fitted model to JSON; returns the text, and writes it
    when a path is given."""
    phi = state.memberships.phi
    w = state.weights.w
    n, k = phi.shape
    l = w.shape[0]
    if len(node_ids) != n:
        raise DataFormatError("node id list does not match the model size")
    hyper = state.hyper
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "n": n, "l": l, "k": k,
        "node_ids": list(node_ids),
        "phi": _encode_floats(phi),
        "w": _encode_floats(w),
        "theta": _encode_floats(state.affinities.theta),
        "alpha": _encode_floats(hyper.alpha_for(k)),
        "hyper": {
            "lam": repr(hyper.lam),
            "gamma_phi": repr(hyper.gamma_phi),
            "gamma_f": repr(hyper.gamma_f),
            "gamma_a": repr(hyper.gamma_a),
            "clamp_eps": repr(hyper.clamp_eps),
            "max_outer_iters": hyper.max_outer_iters,
            "rel_tol": repr(hyper.rel_tol),
            "seed": hyper.seed,
            "backtrack": hyper.backtrack,
            "inner_passes": hyper.inner_passes,
            "threads": hyper.threads,
            "phi_update": hyper.phi_update,
            "foldin_max_iters": hyper.foldin_max_iters,
        },
        "holdout_node": state.holdout_node,
        "provenance": {
            "command": command,
            "seed": hyper.seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load_model(path: str) -> tuple[ModelState, list]:
    """Read a model file back into a state plus its node id list."""
    try:
        with _open_for_read(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})")
    try:
        n, l, k = int(doc["n"]), int(doc["l"]), int(doc["k"])
        node_ids = [str(s) for s in doc["node_ids"]]
        phi = _decode_floats(doc["phi"], (n, k))
        w = _decode_floats(doc["w"], (l, k + 1))
        theta = _decode_floats(doc["theta"], (k, 2, 2))
        alpha = _decode_floats(doc["alpha"], (k, 2))
        h = doc["hyper"]
        hyper = Hyperparams(
            alpha=alpha,
            lam=float(h["lam"]),
            gamma_phi=float(h["gamma_phi"]),
            gamma_f=float(h["gamma_f"]),
            gamma_a=float(h["gamma_a"]),
            clamp_eps=float(h["clamp_eps"]),
            max_outer_iters=int(h["max_outer_iters"]),
            rel_tol=float(h["rel_tol"]),
            seed=int(h["seed"]),
            backtrack=bool(h["backtrack"]),
            inner_passes=int(h["inner_passes"]),
            threads=int(h["threads"]),
            phi_update=str(h["phi_update"]),
            foldin_max_iters=int(h["foldin_max_iters"]),
        )
        holdout = doc.get("holdout_node")
        holdout = None if holdout is None else int(holdout)
    except KeyError as missing:
        raise DataFormatError(
            f"{path}: model file lacks field {missing.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad model value: {exc}") from None
    if len(node_ids) != n:
        raise DataFormatError(f"{path}: node id count does not match n")
    for name, arr in (("phi", phi), ("theta", theta)):
        if not ((arr > 0.0) & (arr < 1.0)).all():
            raise DataFormatError(
                f"{path}: {name} entries must be finite and inside (0, 1)")
    for name, arr in (("w", w), ("alpha", alpha)):
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: {name} entries must be finite")
    if holdout is not None and not 0 <= holdout < n:
        raise DataFormatError(
            f"{path}: holdout_node {holdout} is outside [0, {n})")
    state = ModelState(Memberships(phi), FeatureWeights(w),
                       AffinityTensor(theta), hyper, holdout)
    return state, node_ids


def load_scores(path: str) -> list:
    """Read probability/truth pairs from a two-column TSV."""
    out = []
    for no, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(
                f"{path}:{no}: expected 'probability truth', got "
                f"{len(parts)} fields")
        try:
            p = float(parts[0])
            t = int(parts[1])
        except ValueError:
            raise DataFormatError(
                f"{path}:{no}: cannot parse {line!r}") from None
        if t not in (0, 1):
            raise DataFormatError(f"{path}:{no}: truth must be 0 or 1")
        out.append((p, t))
    return out
