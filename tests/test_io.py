"""TSV and JSON wire formats."""

import json
import warnings

import numpy as np
import pytest

from groupnet.dataio import (load_dataset, load_model, load_scores,
                             save_dataset, save_model)
from groupnet.datatypes import Hyperparams
from groupnet.errors import DataFormatError, UsageError
from groupnet.model import objective

from conftest import random_instance


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


FEATS_AB = "node\tf1\na\t1\nb\t0\n"


class TestLoadDataset:
    def test_directed_two_edge_cycle(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tb\nb\ta\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        data = load_dataset(e, f)
        assert data.node_ids == ["a", "b"]
        assert data.adjacency.tolist() == [[0, 1], [1, 0]]
        assert data.features.tolist() == [[1.0], [0.0]]

    def test_undirected_materializes_both_directions(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tb\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        data = load_dataset(e, f, undirected=True)
        assert data.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_duplicate_edges_collapse(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tb\na\tb\nb\ta\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        data = load_dataset(e, f)
        assert int(data.adjacency.sum()) == 2

    def test_self_loops_drop_with_warning(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\ta\na\tb\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        with pytest.warns(UserWarning, match="1 self-loop"):
            data = load_dataset(e, f)
        assert data.adjacency[0, 0] == 0
        assert int(data.adjacency.sum()) == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        e = write(tmp_path, "e.tsv", "# edges\n\na\tb\n")
        f = write(tmp_path, "f.tsv", "# feats\nnode\tf1\n\na\t?\nb\t1\n")
        data = load_dataset(e, f)
        assert np.isnan(data.features[0, 0])
        assert data.features[1, 0] == 1.0

    def test_edge_only_nodes_get_missing_rows(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tc\nc\td\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        data = load_dataset(e, f)
        assert data.node_ids == ["a", "b", "c", "d"]
        assert np.isnan(data.features[2:]).all()

    def test_malformed_edge_line_cites_position(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tb\nc\n")
        f = write(tmp_path, "f.tsv", FEATS_AB)
        with pytest.raises(DataFormatError, match=r"e\.tsv:2"):
            load_dataset(e, f)

    def test_bad_feature_cell(self, tmp_path):
        e = write(tmp_path, "e.tsv", "a\tb\n")
        f = write(tmp_path, "f.tsv", "node\tf1\na\t2\nb\t0\n")
        with pytest.raises(DataFormatError, match="not one of 0, 1"):
            load_dataset(e, f)

    def test_wrong_column_count(self, tmp_path):
        e = write(tmp_path, "e.tsv", "")
        f = write(tmp_path, "f.tsv", "node\tf1\tf2\na\t1\n")
        with pytest.raises(DataFormatError, match="expected 3 columns"):
            load_dataset(e, f)

    def test_duplicate_node_row(self, tmp_path):
        e = write(tmp_path, "e.tsv", "")
        f = write(tmp_path, "f.tsv", "node\tf1\na\t1\na\t0\n")
        with pytest.raises(DataFormatError, match="duplicate node 'a'"):
            load_dataset(e, f)

    def test_missing_or_wrong_header(self, tmp_path):
        e = write(tmp_path, "e.tsv", "")
        f = write(tmp_path, "f.tsv", "ident\tf1\na\t1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(e, f)
        empty = write(tmp_path, "f2.tsv", "# nothing\n")
        with pytest.raises(DataFormatError, match="missing header"):
            load_dataset(e, empty)

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        f = write(tmp_path, "f.tsv", FEATS_AB)
        with pytest.raises(UsageError, match="cannot read"):
            load_dataset(str(tmp_path / "absent.tsv"), f)


class TestDatasetRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        _, data = random_instance(160, n=12, k=2, l=5, missing=0.25,
                                  edge_p=0.3)
        e, f = str(tmp_path / "e.tsv"), str(tmp_path / "f.tsv")
        save_dataset(data, e, f)
        back = load_dataset(e, f)
        assert back.node_ids == data.node_ids
        assert np.array_equal(back.adjacency, data.adjacency)
        assert np.array_equal(np.isnan(back.features),
                              np.isnan(data.features))
        obs = ~np.isnan(data.features)
        assert np.array_equal(back.features[obs], data.features[obs])


class TestModelRoundTrip:
    def test_bit_exact_state(self, tmp_path):
        state, data = random_instance(161, n=7, k=2, l=4,
                                      alpha=[[1.5, 0.7], [2.0, 1.0]])
        state.hyper = Hyperparams(alpha=state.hyper.alpha, lam=0.037,
                                  seed=13)
        state.holdout_node = 2
        path = str(tmp_path / "model.json")
        save_model(state, data.node_ids, path, command="unit-test")
        back, ids = load_model(path)
        assert ids == data.node_ids
        assert np.array_equal(back.memberships.phi, state.memberships.phi)
        assert np.array_equal(back.weights.w, state.weights.w)
        assert np.array_equal(back.affinities.theta, state.affinities.theta)
        assert np.array_equal(back.hyper.alpha, state.hyper.alpha)
        assert back.hyper.lam == state.hyper.lam
        assert back.hyper.seed == 13
        assert back.holdout_node == 2
        assert objective(back, data).total == objective(state, data).total

    def test_text_return_matches_file(self, tmp_path):
        state, data = random_instance(162, n=4, k=1, l=2)
        path = str(tmp_path / "m.json")
        text = save_model(state, data.node_ids, path)
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == text + "\n"
        doc = json.loads(text)
        assert doc["format_version"] == 1
        assert set(doc["provenance"]) == {"command", "seed", "timestamp"}

    def test_version_mismatch(self, tmp_path):
        state, data = random_instance(163, n=3, k=1, l=2)
        text = save_model(state, data.node_ids)
        doc = json.loads(text)
        doc["format_version"] = 99
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(DataFormatError, match="version 99"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        state, data = random_instance(164, n=3, k=1, l=2)
        doc = json.loads(save_model(state, data.node_ids))
        del doc["theta"]
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(DataFormatError, match="lacks field 'theta'"):
            load_model(path)

    def test_shape_mismatch(self, tmp_path):
        state, data = random_instance(165, n=3, k=1, l=2)
        doc = json.loads(save_model(state, data.node_ids))
        doc["phi"] = doc["phi"][:-1]
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(DataFormatError, match="shape"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "m.json", "{not json")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
    def test_json_that_is_not_an_object(self, tmp_path, text):
        with pytest.raises(DataFormatError, match="JSON object"):
            load_model(write(tmp_path, "m.json", text))

    def test_mismatched_node_ids(self, tmp_path):
        state, data = random_instance(166, n=3, k=1, l=2)
        with pytest.raises(DataFormatError):
            save_model(state, ["a", "b"])
        doc = json.loads(save_model(state, data.node_ids))
        doc["node_ids"] = doc["node_ids"][:-1]
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(DataFormatError, match="node id count"):
            load_model(path)

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            load_model(str(tmp_path / "no-model.json"))

    @pytest.mark.parametrize("field,path,value,match", [
        ("theta", (0, 0, 0), "0.0", "theta"),
        ("theta", (0, 1, 1), "1.0", "theta"),
        ("theta", (0, 1, 0), "nan", "theta"),
        ("phi", (2, 0), "1.0", "phi"),
        ("phi", (1, 0), "-0.25", "phi"),
        ("phi", (0, 0), "inf", "phi"),
        ("w", (1, 0), "nan", "w entries"),
        ("alpha", (0, 1), "0.0", "alpha"),
        ("alpha", (0, 0), "inf", "alpha"),
    ])
    def test_out_of_range_values_are_data_errors(self, tmp_path, field,
                                                 path, value, match):
        state, data = random_instance(167, n=4, k=1, l=2)
        doc = json.loads(save_model(state, data.node_ids))
        target = doc[field]
        for i in path[:-1]:
            target = target[i]
        target[path[-1]] = value
        with pytest.raises(DataFormatError, match=match):
            load_model(write(tmp_path, "m.json", json.dumps(doc)))

    @pytest.mark.parametrize("holdout", [4, -1, "x"])
    def test_holdout_outside_the_node_range(self, tmp_path, holdout):
        state, data = random_instance(168, n=4, k=1, l=2)
        doc = json.loads(save_model(state, data.node_ids))
        doc["holdout_node"] = holdout
        with pytest.raises(DataFormatError):
            load_model(write(tmp_path, "m.json", json.dumps(doc)))

    def test_rejected_hyperparameters_are_data_errors(self, tmp_path):
        state, data = random_instance(169, n=4, k=1, l=2)
        doc = json.loads(save_model(state, data.node_ids))
        doc["hyper"]["gamma_phi"] = "0.0"
        with pytest.raises(DataFormatError, match="gamma_phi"):
            load_model(write(tmp_path, "m.json", json.dumps(doc)))


class TestLoadScores:
    def test_parses_pairs(self, tmp_path):
        path = write(tmp_path, "s.tsv", "# p truth\n0.9\t1\n0.25\t0\n")
        assert load_scores(path) == [(0.9, 1), (0.25, 0)]

    def test_bad_truth_value(self, tmp_path):
        path = write(tmp_path, "s.tsv", "0.5\t2\n")
        with pytest.raises(DataFormatError, match="truth must be 0 or 1"):
            load_scores(path)

    def test_unparseable_line(self, tmp_path):
        path = write(tmp_path, "s.tsv", "high\t1\n")
        with pytest.raises(DataFormatError, match=r"s\.tsv:1"):
            load_scores(path)
        short = write(tmp_path, "s2.tsv", "0.5\n")
        with pytest.raises(DataFormatError, match="probability truth"):
            load_scores(short)
