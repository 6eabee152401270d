"""Tests for the command-line interface and its artifacts."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from episampler import autodiff as ad
from episampler import cli, data, learners, sampling, training

TINY_CONFIG = {
    "seed": 0,
    "dataset": {
        "num_classes": 12,
        "samples_per_class": 20,
        "feature_dim": 5,
        "class_separation": 3.0,
        "noise_scale": 1.0,
        "split_ratios": [6, 3, 3],
    },
    "learner": {"algorithm": "proto_euclidean", "hidden_sizes": [16], "embedding_dim": 8},
    "train": {
        "iterations": 20,
        "batch_size": 4,
        "validation_interval": 10,
        "validation_episodes": 6,
        "test_episodes": 8,
        "way": 3,
        "shot": 1,
        "query": 4,
    },
    "scheme": {"kind": "baseline", "mode": "online", "warmup_iterations": 10},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def _run(argv):
    return cli.main([str(a) for a in argv])


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trian": {}}))
        with pytest.raises(cli.ConfigError, match="trian"):
            cli.load_config(str(path), [])

    def test_missing_feature_dim_names_key(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        del cfg["dataset"]["feature_dim"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(cli.ConfigError, match="dataset.feature_dim"):
            cli.load_config(str(path), [])

    def test_offline_requires_proposal_checkpoint(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["scheme"]["mode"] = "offline"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(cli.ConfigError, match="proposal_checkpoint"):
            cli.load_config(str(path), [])

    def test_dotted_overrides(self, tiny_config):
        config = cli.load_config(str(tiny_config), [("train.batch_size", "8"), ("seed", "3")])
        assert config["train"]["batch_size"] == 8
        assert config["seed"] == 3

    def test_unknown_override_rejected(self, tiny_config):
        with pytest.raises(cli.ConfigError, match="train.bogus"):
            cli.load_config(str(tiny_config), [("train.bogus", "8")])


class TestGenData:
    def test_deterministic_bytes(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(["gen-data", "--config", tiny_config, "--out", a]) == 0
        assert _run(["gen-data", "--config", tiny_config, "--out", b]) == 0
        for split in ("train", "val", "test"):
            for name in ("manifest.json", "data.csv"):
                assert (a / split / name).read_bytes() == (b / split / name).read_bytes()

    def test_refuses_to_overwrite_without_force(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", out]) == 0
        assert _run(["gen-data", "--config", tiny_config, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "--force" in err["error"]
        assert _run(["gen-data", "--config", tiny_config, "--out", out, "--force"]) == 0

    def test_bad_ratios_fail(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "ds"
        code = _run([
            "gen-data", "--config", tiny_config, "--out", out,
            "--dataset.split_ratios", "[6,3,0.0]",
        ])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)


class TestTrain:
    def test_artifacts_and_schema(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out]) == 0
        capsys.readouterr()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,loss,ess,mu,sigma2,fallback,val_accuracy"
        assert len(history) == 21
        # baseline scheme: ess column is constantly |B|
        assert all(line.split(",")[2] == "4.0" for line in history[1:])
        result = json.loads((out / "result.json").read_text())
        cli.validate_result(result)
        assert result["scheme"] == "baseline"
        assert (out / "episodes.csv").exists()
        assert (out / "config.json").exists()
        best = learners.load_checkpoint(out / "checkpoints" / "best")
        assert best.algorithm == "proto_euclidean"
        assert (out / "checkpoints" / "iter_000010.json").exists()
        assert (out / "checkpoints" / "iter_000020.csv").exists()

    @pytest.mark.parametrize("name", ["validation_episodes", "test_episodes"])
    def test_one_evaluation_episode_rejected_before_training(self, tiny_config, tmp_path, capsys, name):
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out, f"--train.{name}", "1"]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"type": "TrainerError", "error": f"{name} must be at least 2, got 1"}
        assert not (out / "history.csv").exists() and not (out / "checkpoints").exists()

    def test_seed_changes_history_not_schema(self, tiny_config, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(["train", "--config", tiny_config, "--out", a]) == 0
        assert _run(["train", "--config", tiny_config, "--out", b, "--seed", "1"]) == 0
        capsys.readouterr()
        ha = (a / "history.csv").read_text().splitlines()
        hb = (b / "history.csv").read_text().splitlines()
        assert ha[0] == hb[0] and len(ha) == len(hb)
        assert ha[1:] != hb[1:]
        for path in (a, b):
            cli.validate_result(json.loads((path / "result.json").read_text()))

    def test_uniform_online_scheme_runs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run([
            "train", "--config", tiny_config, "--out", out,
            "--scheme.kind", "uniform", "--scheme.warmup_iterations", "8",
        ])
        assert code == 0
        capsys.readouterr()
        result = json.loads((out / "result.json").read_text())
        assert result["scheme"] == "uniform"

    def test_warmup_counts_iterations(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run([
            "train", "--config", tiny_config, "--out", out,
            "--scheme.kind", "uniform", "--scheme.warmup_iterations", "3",
        ])
        assert code == 0
        capsys.readouterr()
        weights = {}
        for line in (out / "episodes.csv").read_text().splitlines()[1:]:
            iteration, _, _, weight, _ = line.split(",")
            weights.setdefault(int(iteration), []).append(float(weight))
        assert all(len(weights[it]) == 4 for it in (1, 2, 3, 4))
        assert all(w == 1.0 for it in (1, 2, 3) for w in weights[it])
        assert any(w != 1.0 for w in weights[4])

    @pytest.mark.parametrize(
        "failure, expected",
        [
            ("loss", "TrainerError: non-finite loss"),
            ("gradient", "TrainerError: non-finite gradient"),
            ("inner_loss", "LearnerError: non-finite inner-loop loss in episode 0"),
            ("difficulty_model", "SamplerError: update_online: non-finite difficulty nan"),
        ],
    )
    def test_failure_keeps_the_completed_iterations(
        self, tiny_config, tmp_path, capsys, monkeypatch, failure, expected
    ):
        # Each failure is injected into iteration 3 of 20; the run must stop
        # there with both CSVs holding iterations 1 and 2.
        calls = [0]

        def nth(k):
            calls[0] += 1
            return calls[0] == k

        extra = []
        if failure == "loss":
            batch_loss = training.weighted_batch_loss

            def corrupt_loss(nll, weights):
                loss, ess = batch_loss(nll, weights)
                return (ad.smul(math.nan, loss) if nth(3) else loss), ess

            monkeypatch.setattr(training, "weighted_batch_loss", corrupt_loss)
        elif failure == "gradient":
            grad = ad.grad

            def corrupt_grad(output, inputs, **kwargs):
                grads = grad(output, inputs, **kwargs)
                return [ad.smul(math.nan, g) for g in grads] if nth(3) else grads

            monkeypatch.setattr(ad, "grad", corrupt_grad)
        elif failure == "inner_loss":
            extra = ["--learner.algorithm", "maml"]
            sample_episodes = training.sample_episodes

            def corrupt_batch(*args):
                episodes = sample_episodes(*args)
                if nth(3):
                    x = episodes.x.copy()
                    x[episodes.support_rows[0]] = 1e308
                    episodes = dataclasses.replace(episodes, x=x)
                return episodes

            monkeypatch.setattr(training, "sample_episodes", corrupt_batch)
        else:
            update_online = sampling.update_online

            def corrupt_update(model, omega):
                # Four episodes per batch: call 9 is iteration 3's first.
                return update_online(model, math.nan if nth(9) else omega)

            monkeypatch.setattr(sampling, "update_online", corrupt_update)

        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = _run(["train", "--config", tiny_config, "--out", out, *extra])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"].startswith(f"iteration 3: {expected}")
        history = (out / "history.csv").read_text().splitlines()
        episodes = (out / "episodes.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in history[1:]] == ["1", "2"]
        assert [line.split(",")[0] for line in episodes[1:]] == ["1"] * 4 + ["2"] * 4
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize(
        "config", sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json")), ids=lambda p: p.stem
    )
    def test_shipped_config_runs(self, config, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run([
            "train", "--config", config, "--out", out,
            "--train.iterations", "2", "--train.validation_interval", "1",
            "--train.validation_episodes", "2", "--train.test_episodes", "2",
            "--scheme.warmup_iterations", "0",
        ])
        assert code == 0
        capsys.readouterr()
        cli.validate_result(json.loads((out / "result.json").read_text()))

    def test_dataset_path_loads_each_split_once(self, tiny_config, tmp_path, monkeypatch, capsys):
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        loaded = []
        load_dataset = data.load_dataset

        def counting(path):
            loaded.append(Path(path).name)
            return load_dataset(path)

        monkeypatch.setattr(data, "load_dataset", counting)
        code = _run([
            "train", "--config", tiny_config, "--out", tmp_path / "run",
            "--dataset.path", ds_dir,
        ])
        assert code == 0
        capsys.readouterr()
        assert loaded == ["train", "val", "test"]

    def test_bad_dataset_split_names_its_file_and_line(self, tiny_config, tmp_path, capsys):
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        csv = ds_dir / "val" / "data.csv"
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = _run([
            "train", "--config", tiny_config, "--out", tmp_path / "run",
            "--dataset.path", ds_dir,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "DatasetParseError"
        assert err["error"] == f"{csv} line 3 field 'f4': non-finite value 'nan'"

    def test_offline_mode_via_proposal_checkpoint(self, tiny_config, tmp_path, capsys):
        base = tmp_path / "base"
        assert _run(["train", "--config", tiny_config, "--out", base]) == 0
        out = tmp_path / "offline"
        code = _run([
            "train", "--config", tiny_config, "--out", out,
            "--scheme.kind", "easy", "--scheme.mode", "offline",
            "--scheme.offline_episodes", "40",
            "--scheme.proposal_checkpoint", str(base / "checkpoints" / "best"),
        ])
        assert code == 0
        capsys.readouterr()
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "offline"


class TestEvaluate:
    def test_evaluate_checkpoint(self, tiny_config, tmp_path, capsys):
        run_dir = tmp_path / "run"
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        assert _run(["train", "--config", tiny_config, "--out", run_dir]) == 0
        capsys.readouterr()
        code = _run([
            "evaluate", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--split", "test", "--episodes", "10",
            "--way", "3", "--shot", "1", "--query", "4",
            "--out", tmp_path / "eval.json",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert 0.0 <= payload["accuracy_mean"] <= 1.0
        assert payload["episodes"] == 10

    def test_missing_checkpoint_names_its_file(self, tiny_config, tmp_path, capsys):
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        capsys.readouterr()
        stem = tmp_path / "run" / "checkpoints" / "best"
        code = _run([
            "evaluate", "--checkpoint", stem, "--data", ds_dir, "--split", "test",
            "--episodes", "10", "--way", "3", "--shot", "1", "--query", "4",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "LearnerError", "error": f"cannot read {stem}.json: No such file or directory"
        }


class TestCompareSchemes:
    def test_two_schemes_two_rows(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = _run([
            "compare-schemes", "--config", tiny_config,
            "--schemes", "baseline,uniform", "--out", out,
        ])
        assert code == 0
        capsys.readouterr()
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "scheme,test_accuracy_mean,test_accuracy_ci95,best_iteration"
        assert len(lines) == 3
        assert lines[1].startswith("baseline,")
        assert lines[2].startswith("uniform,")
        for line in lines[1:]:
            _, mean, ci, best = line.split(",")
            assert 0.0 <= float(mean) <= 1.0 and float(ci) >= 0.0 and float(best) >= 0

    def test_duplicate_scheme_rejected_before_any_run(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = _run([
            "compare-schemes", "--config", tiny_config,
            "--schemes", "uniform,baseline,uniform", "--out", out,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"type": "ConfigError", "error": "scheme 'uniform' listed twice"}
        assert not out.exists()

    def test_single_scheme_rejected(self, tiny_config, tmp_path, capsys):
        code = _run([
            "compare-schemes", "--config", tiny_config,
            "--schemes", "baseline", "--out", tmp_path / "cmp",
        ])
        assert code == 1
        assert "2 schemes" in json.loads(capsys.readouterr().err)["error"]


class TestAnalyze:
    @pytest.fixture
    def trained(self, tiny_config, tmp_path, capsys):
        run_dir = tmp_path / "run"
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        assert _run(["train", "--config", tiny_config, "--out", run_dir]) == 0
        capsys.readouterr()
        return run_dir, ds_dir

    def test_qq_and_density_row_counts(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "60",
            "--way", "3", "--shot", "1", "--query", "4",
            "--qq", "--bins", "10",
        ])
        assert code == 0
        capsys.readouterr()
        assert len((out / "density.csv").read_text().splitlines()) == 11
        assert len((out / "qq.csv").read_text().splitlines()) == 61
        assert (out / "episodes.json").exists()

    def test_normality_value_in_range(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "80",
            "--way", "3", "--shot", "1", "--query", "4",
            "--normality", "--subsample-size", "20", "--repetitions", "10",
        ])
        assert code == 0
        capsys.readouterr()
        lines = (out / "normality.csv").read_text().splitlines()
        assert lines[0] == "rejection_rate"
        assert 0.0 <= float(lines[1]) <= 1.0

    def test_spearman_single_value_file(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "iter_000010",
            "--data", ds_dir, "--out", out, "--episodes", "50",
            "--way", "3", "--shot", "1", "--query", "4",
            "--spearman", run_dir / "checkpoints" / "iter_000020",
        ])
        assert code == 0
        capsys.readouterr()
        lines = (out / "spearman.csv").read_text().splitlines()
        assert lines[0] == "rho"
        assert -1.0 <= float(lines[1]) <= 1.0

    def test_extremes_and_dispersion(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "40",
            "--way", "3", "--shot", "1", "--query", "4",
            "--extremes", run_dir, "--m", "10",
            "--dispersion", run_dir,
        ])
        assert code == 0
        capsys.readouterr()
        ext = (out / "extremes.csv").read_text().splitlines()
        assert ext[0] == "checkpoint,easy_mean,hard_mean"
        assert len(ext) == 3  # two validation checkpoints
        disp = (out / "dispersion.csv").read_text().splitlines()
        assert disp[0] == "run_id,mean_batch_std"
        assert len(disp) == 2

    def test_dispersion_without_episodes_csv_names_its_file(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        empty = tmp_path / "empty"
        empty.mkdir()
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", tmp_path / "analysis", "--episodes", "10",
            "--way", "3", "--shot", "1", "--query", "4",
            "--dispersion", run_dir, empty,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "TrainerError",
            "error": f"cannot read {empty / 'episodes.csv'}: No such file or directory",
        }

    def test_no_protocol_selected_errors(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", tmp_path / "analysis", "--episodes", "10",
            "--way", "3", "--shot", "1", "--query", "4",
        ])
        assert code == 1
        assert "protocol" in json.loads(capsys.readouterr().err)["error"]


class TestOutputRoot:
    def test_env_var_controls_default_root(self, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EPISAMPLER_OUTPUT_ROOT", str(tmp_path / "root"))
        assert _run(["gen-data", "--config", tiny_config]) == 0
        capsys.readouterr()
        assert (tmp_path / "root" / "dataset" / "train" / "data.csv").exists()
