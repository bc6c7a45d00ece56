"""End-to-end runs of the command-line front end, in process."""

import json
from fractions import Fraction

import pytest

from groupnet.cli import main

from conftest import asset


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def synth_files(tmp_path, n=20, l=4, k=2, seed=1):
    prefix = str(tmp_path / "toy")
    code = main(["synth", "--n", str(n), "--l", str(l), "--k", str(k),
                 "--seed", str(seed), "--out-prefix", prefix,
                 "--out", str(tmp_path / "synth.json")])
    assert code == 0
    return f"{prefix}.edges.tsv", f"{prefix}.features.tsv"


class TestSynthCommand:
    def test_writes_three_tables(self, tmp_path, capsys):
        doc = run_json(capsys, ["synth", "--n", "10", "--l", "3", "--k", "2",
                                "--seed", "4", "--out-prefix",
                                str(tmp_path / "s")])
        for key in ("edges", "features", "groups"):
            assert (tmp_path / f"s.{key if key != 'groups' else 'z'}.tsv"
                    if key == "groups" else tmp_path / f"s.{key}.tsv").exists()
        assert doc["n"] == 10 and doc["k"] == 2
        assert 0.0 <= doc["density"] <= 1.0
        z_lines = (tmp_path / "s.z.tsv").read_text().strip().splitlines()
        assert len(z_lines) == 11
        assert z_lines[0].split("\t") == ["node", "g1", "g2"]


class TestFitCommand:
    def test_pipeline_fit_then_predict_features(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path)
        model = str(tmp_path / "model.json")
        code = main(["fit", "--edges", edges, "--features", feats,
                     "--k", "2", "--max-iters", "5", "--seed", "3",
                     "--out", model])
        assert code == 0
        capsys.readouterr()
        doc = run_json(capsys, ["predict-features", "--model", model,
                                "--edges", edges, "--features", feats,
                                "--node", "n0000", "--mask", "all"])
        assert doc["target"] == "features"
        assert doc["node"] == "n0000"
        assert len(doc["scores"]) == 4
        for _, p in doc["scores"]:
            assert 0.0 <= p <= 1.0
        assert doc["loglik"] is not None

    def test_summary_names_the_stop_reason(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path)
        code = main(["fit", "--edges", edges, "--features", feats,
                     "--k", "2", "--max-iters", "2",
                     "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 0
        assert "converged=False stop_reason=max_iters" in err

    def test_summary_counts_weights_of_the_returned_model(self, tmp_path,
                                                          capsys):
        edges, feats = synth_files(tmp_path)
        model = str(tmp_path / "m.json")
        assert main(["fit", "--edges", edges, "--features", feats,
                     "--k", "2", "--max-iters", "0", "--out", model]) == 0
        err = capsys.readouterr().err
        with open(model, encoding="utf-8") as fh:
            w = [[float(v) for v in row] for row in json.load(fh)["w"]]
        nonzero = sum(v != 0.0 for row in w for v in row[:-1])
        assert nonzero > 0
        assert f"nonzero_weights={nonzero} " in err

    def test_stdout_model_is_valid_json(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=8, l=2, k=1, seed=2)
        doc = run_json(capsys, ["fit", "--edges", edges, "--features", feats,
                                "--k", "1", "--max-iters", "3"])
        assert doc["format_version"] == 1
        assert len(doc["node_ids"]) == 8

    def test_identical_invocations_differ_only_in_timestamp(
            self, tmp_path, capsys, monkeypatch):
        argv = None
        blobs = []
        for sub in ("one", "two"):
            work = tmp_path / sub
            work.mkdir()
            monkeypatch.chdir(work)
            argv = ["synth", "--n", "15", "--l", "3", "--k", "2",
                    "--seed", "5", "--out-prefix", "toy"]
            assert main(argv) == 0
            argv = ["fit", "--edges", "toy.edges.tsv",
                    "--features", "toy.features.tsv", "--k", "2",
                    "--seed", "7", "--threads", "1", "--max-iters", "6",
                    "--out", "model.json"]
            assert main(argv) == 0
            doc = json.loads((work / "model.json").read_text())
            doc["provenance"]["timestamp"] = None
            blobs.append(json.dumps(doc, sort_keys=True))
        capsys.readouterr()
        assert blobs[0] == blobs[1]


class TestPredictLinksCommand:
    def test_directed_output_has_both_directions(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=12, l=3, k=2, seed=6)
        doc = run_json(capsys, ["predict-links", "--edges", edges,
                                "--features", feats, "--holdout", "n0003",
                                "--k", "2", "--max-iters", "4"])
        assert doc["node"] == "n0003"
        assert len(doc["scores"]) == 11
        assert len(doc["scores_in"]) == 11
        names = [name for name, _ in doc["scores"]]
        assert "n0003" not in names

    def test_undirected_collapses_to_pair_scores(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=10, l=3, k=1, seed=8)
        doc = run_json(capsys, ["predict-links", "--edges", edges,
                                "--features", feats, "--holdout", "n0001",
                                "--k", "1", "--max-iters", "4",
                                "--undirected"])
        assert "scores_in" not in doc
        assert len(doc["scores"]) == 9


class TestClassifyCommand:
    def test_split_and_metrics(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=16, l=4, k=2, seed=9)
        doc = run_json(capsys, ["classify", "--edges", edges,
                                "--features", feats, "--label-col", "0",
                                "--train-frac", "0.5", "--k", "2",
                                "--max-iters", "4", "--seed", "2"])
        assert doc["label_feature"] == 0
        assert len(doc["train_nodes"]) == 8
        assert len(doc["predictions"]) == 8
        assert doc["metrics"] is not None
        assert doc["metrics"]["count"] == 8

    def test_bad_train_fraction(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=8, l=2, k=1)
        code = main(["classify", "--edges", edges, "--features", feats,
                     "--label-col", "0", "--train-frac", "1.5", "--k", "1"])
        capsys.readouterr()
        assert code == 1


class TestSelectKCommand:
    def test_single_alpha_pair_applies_to_every_candidate(self, tmp_path,
                                                          capsys):
        edges, feats = synth_files(tmp_path, n=14, l=4, k=2, seed=3)
        doc = run_json(capsys, ["select-k", "--edges", edges,
                                "--features", feats, "--candidates", "1,2",
                                "--reps", "1", "--max-iters", "2",
                                "--alpha", "2,2"])
        assert doc["candidates"] == [1, 2]

    def test_per_group_alpha_must_match_every_candidate(self, tmp_path,
                                                        capsys):
        edges, feats = synth_files(tmp_path, n=14, l=4, k=2, seed=3)
        capsys.readouterr()
        code = main(["select-k", "--edges", edges, "--features", feats,
                     "--candidates", "1,2", "--reps", "1",
                     "--max-iters", "2", "--alpha", "2,2;3,3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("groupnet: error:") and "K=1" in err
        assert err.count("\n") == 1

    def test_reports_candidates_and_choice(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=14, l=4, k=2, seed=3)
        doc = run_json(capsys, ["select-k", "--edges", edges,
                                "--features", feats, "--candidates", "1,2",
                                "--reps", "1", "--max-iters", "3",
                                "--tol", "1e-3"])
        assert doc["candidates"] == [1, 2]
        assert doc["chosen_k"] in (1, 2)
        assert len(doc["cv_loglik"]) == 2


class TestEvalCommand:
    def test_metrics_from_literal_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("0.9\t1\n0.8\t0\n0.7\t1\n0.2\t0\n",
                          encoding="utf-8")
        doc = run_json(capsys, ["eval", "--scores", str(scores)])
        assert doc["count"] == 4
        assert 0.0 <= doc["auc"] <= 1.0
        assert doc["accuracy"] == 0.75


class TestBaselineCommand:
    def test_all_three_methods_on_the_fixture(self, capsys):
        base = ["baseline", "--edges", asset("ccn.edges.tsv"),
                "--features", asset("ccn.features.tsv")]
        doc = run_json(capsys, base + ["--method", "avg", "--task", "feature",
                                       "--node", "a", "--feature", "0"])
        assert doc["probability"] == 0.5
        doc = run_json(capsys, base + ["--method", "ccn", "--task", "feature",
                                       "--node", "a", "--feature", "0"])
        assert doc["probability"] == pytest.approx(float(Fraction(8, 11)),
                                                   abs=1e-12)
        doc = run_json(capsys, base + ["--method", "avg", "--task", "link",
                                       "--node", "a", "--dst", "e"])
        assert doc["probability"] == pytest.approx(float(Fraction(1, 3)),
                                                   abs=1e-15)
        doc = run_json(capsys, base + ["--method", "ccl", "--task", "feature",
                                       "--node", "a", "--feature", "0"])
        assert 0.0 <= doc["probability"] <= 1.0

    def test_missing_task_argument(self, capsys):
        code = main(["baseline", "--edges", asset("ccn.edges.tsv"),
                     "--features", asset("ccn.features.tsv"),
                     "--method", "avg", "--task", "link", "--node", "a"])
        capsys.readouterr()
        assert code == 1


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--edges", "e", "--features", "f", "--wat"])
        capsys.readouterr()
        assert err.value.code == 1

    def test_missing_input_file_is_usage(self, tmp_path, capsys):
        code = main(["fit", "--edges", str(tmp_path / "no.tsv"),
                     "--features", str(tmp_path / "no2.tsv"), "--k", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read" in err

    def test_malformed_data_is_two(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        feats = tmp_path / "f.tsv"
        edges.write_text("a\tb\n", encoding="utf-8")
        feats.write_text("node\tf1\na\t7\nb\t0\n", encoding="utf-8")
        code = main(["fit", "--edges", str(edges), "--features", str(feats),
                     "--k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "data error" in err

    def test_model_dataset_mismatch_is_two(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=6, l=2, k=1)
        model = str(tmp_path / "m.json")
        assert main(["fit", "--edges", edges, "--features", feats,
                     "--k", "1", "--max-iters", "2", "--out", model]) == 0
        sub = tmp_path / "sub"
        sub.mkdir()
        other_e, other_f = synth_files(sub, n=7, l=2, k=1)
        code = main(["predict-features", "--model", model,
                     "--edges", other_e, "--features", other_f,
                     "--node", "n0000"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flags", [["--gamma-phi", "0"], ["--eps", "0.7"],
                                       ["--gamma-a", "-1"],
                                       ["--lambda", "-0.1"],
                                       ["--alpha", "0,1"]])
    def test_rejected_hyperparameters_are_usage(self, tmp_path, capsys,
                                                flags):
        edges, feats = synth_files(tmp_path, n=6, l=2, k=1)
        capsys.readouterr()
        code = main(["fit", "--edges", edges, "--features", feats,
                     "--k", "1"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("groupnet: error:")
        assert captured.err.count("\n") == 1

    def test_model_with_affinity_on_the_boundary_is_two(self, tmp_path,
                                                       capsys):
        edges, feats = synth_files(tmp_path, n=6, l=2, k=1)
        model = tmp_path / "m.json"
        assert main(["fit", "--edges", edges, "--features", feats,
                     "--k", "1", "--max-iters", "2",
                     "--out", str(model)]) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["theta"][0][0][0] = "0.0"
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["predict-features", "--model", str(model),
                     "--edges", edges, "--features", feats,
                     "--node", "n0000", "--mask", "all"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "theta" in captured.err and captured.err.count("\n") == 1

    def test_bad_alpha_string_is_usage(self, tmp_path, capsys):
        edges, feats = synth_files(tmp_path, n=6, l=2, k=1)
        code = main(["fit", "--edges", edges, "--features", feats,
                     "--k", "1", "--alpha", "banana"])
        capsys.readouterr()
        assert code == 1
