"""Tests for the command-line interface and its artifacts."""

import dataclasses
import inspect
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

    def test_every_default_passes_its_own_rule(self):
        def leaves(table, prefix=""):
            for key, entry in table.items():
                if isinstance(entry, dict):
                    yield from leaves(entry, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", entry

        for key, (default, accepts) in leaves(cli._CONFIG):
            assert accepts(default), key

    def test_every_learner_key_is_an_init_params_keyword(self):
        keywords = inspect.signature(learners.init_params).parameters
        assert set(cli._CONFIG["learner"]) <= set(keywords)

    @pytest.mark.parametrize("key,raw,value", [
        ("seed", "1.5", "1.5"),
        ("train.batch_size", "abc", "'abc'"),
        ("train.way", "2.0", "2.0"),
        ("train.shot", "true", "True"),
        ("train.learning_rate", "null", "None"),
        ("learner.cosine_scale", "false", "False"),
        ("learner.adaptation_rate", "[0.1]", "[0.1]"),
        ("learner.hidden_sizes", "64", "64"),
        ("learner.hidden_sizes", "[64, 0]", "[64, 0]"),
        ("learner.algorithm", "protonet", "'protonet'"),
        ("dataset.feature_dim", "8.5", "8.5"),
        ("dataset.split_ratios", "[6, [1], 3]", "[6, [1], 3]"),
        ("scheme.proposal_checkpoint", "3", "3"),
        ("scheme.mode", "[]", "[]"),
        ("train.learning_rate", "NaN", "nan"),
        ("dataset.class_separation", "-Infinity", "-inf"),
        ("learner.embedding_dim", "0", "0"),
    ])
    def test_value_of_the_wrong_type_is_rejected_before_any_work(
        self, tiny_config, tmp_path, capsys, key, raw, value
    ):
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out, f"--{key}", raw]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"type": "ConfigError", "error": f"config key {key}: invalid value {value}"}
        assert not out.exists()

    def test_non_finite_number_in_the_file_is_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"]["learning_rate"] = math.inf
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(cli.ConfigError, match="^config key train.learning_rate: invalid value inf$"):
            cli.load_config(str(path), [])

    def test_section_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**TINY_CONFIG, "train": 5}))
        with pytest.raises(cli.ConfigError, match="^config key train: invalid value 5$"):
            cli.load_config(str(path), [])

    def test_object_override_merges_key_by_key(self, tiny_config):
        config = cli.load_config(str(tiny_config), [("train", '{"iterations": 4, "validation_interval": 1}')])
        expected = {**cli.DEFAULT_CONFIG["train"], **TINY_CONFIG["train"]}
        assert config["train"] == {**expected, "iterations": 4, "validation_interval": 1}

    def test_object_override_with_an_unknown_key_is_rejected_before_any_work(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "run"
        section = json.dumps({**cli.DEFAULT_CONFIG["train"], "bogus": 1})
        assert _run(["train", "--config", tiny_config, "--out", out, "--train", section]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"type": "ConfigError", "error": "unknown config key 'train.bogus'"}
        assert not out.exists()


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
        assert not out.exists()

    # Each run fails while it is built (settings, difficulty model, learner,
    # offline proposal), after its data are generated and before it writes.
    @pytest.mark.parametrize("command", ["train", "compare-schemes"])
    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (["--train.batch_size", "0"], "TrainerError"),
            (["--scheme.ema_lambda", "1.5"], "SamplerError"),
            (["--scheme.warmup_iterations", "-1"], "SamplerError"),
            (["--learner.adaptation_steps", "0"], "LearnerError"),
            (["--train.iterations", "4", "--train.validation_interval", "3"], "TrainerError"),
            (["--scheme.mode", "offline", "--scheme.proposal_checkpoint", "missing"], "LearnerError"),
        ],
        ids=["batch-size", "ema-lambda", "warmup", "adaptation-steps", "validation-interval", "proposal"],
    )
    def test_run_that_cannot_start_writes_nothing(
        self, tiny_config, tmp_path, capsys, command, overrides, expected
    ):
        out = tmp_path / "out"
        schemes = ["--schemes", "baseline,uniform"] if command == "compare-schemes" else []
        overrides = [str(tmp_path / v) if v == "missing" else v for v in overrides]
        assert _run([command, "--config", tiny_config, "--out", out, *schemes, *overrides]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["type"] == expected
        assert not out.exists()

    def test_episode_shape_a_split_cannot_fill_keeps_the_completed_iterations(
        self, tiny_config, tmp_path, capsys
    ):
        # 4-way episodes fit the 6 training classes, not the 3 validation
        # ones: the first validation, at iteration 10, ends the run.
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out, "--train.way", "4"]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "TrainerError",
            "error": "iteration 10: DatasetError: need 4 classes but dataset has only 3",
        }
        history = (out / "history.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in history[1:]] == [str(i) for i in range(1, 10)]
        assert (out / "checkpoints" / "best.csv").exists() and not (out / "result.json").exists()

    def test_forced_run_that_aborts_leaves_none_of_the_earlier_runs_artifacts(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out]) == 0
        assert (out / "result.json").exists() and (out / "checkpoints" / "iter_000020.csv").exists()
        # The forced 4-way run aborts at its first validation, iteration 10.
        assert _run(["train", "--config", tiny_config, "--out", out, "--force", "--train.way", "4"]) == 1
        capsys.readouterr()
        assert json.loads((out / "config.json").read_text())["train"]["way"] == 4
        assert len((out / "history.csv").read_text().splitlines()) == 10
        assert not (out / "result.json").exists()
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["best.csv", "best.json"]

    def test_forced_run_that_cannot_start_keeps_the_earlier_run(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(["train", "--config", tiny_config, "--out", out]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert _run(["train", "--config", tiny_config, "--out", out, "--force", "--train.batch_size", "0"]) == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_out_naming_a_file_is_an_error(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep\n")
        assert _run(["train", "--config", tiny_config, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"type": "ConfigError", "error": f"output path {out} is not a directory"}
        assert out.read_text() == "keep\n"

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


class TestValidateResult:
    VALID = {
        "algorithm": "maml", "scheme": "uniform", "mode": "offline", "seed": 3,
        "best_iteration": 0, "test_accuracy_mean": 1, "test_accuracy_ci95": 0.0,
    }

    def test_valid_result_passes(self):
        cli.validate_result(dict(self.VALID))

    @pytest.mark.parametrize("key, value", [
        ("algorithm", "protonet"),
        ("scheme", "hardest"),
        ("mode", "batch"),
        ("seed", True),
        ("seed", 1.5),
        ("best_iteration", -1),
        ("test_accuracy_mean", 1.5),
        ("test_accuracy_mean", math.nan),
        ("test_accuracy_ci95", -0.1),
        ("test_accuracy_ci95", math.inf),
    ])
    def test_invalid_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^result field '{key}': invalid value "):
            cli.validate_result({**self.VALID, key: value})

    def test_missing_key_is_named(self):
        payload = dict(self.VALID)
        del payload["best_iteration"]
        with pytest.raises(ValueError, match="^result has no field 'best_iteration'$"):
            cli.validate_result(payload)

    def test_extra_key_is_named(self):
        with pytest.raises(ValueError, match="^result has unknown field 'status'$"):
            cli.validate_result({**self.VALID, "status": "ok"})


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

    def test_out_naming_a_directory_is_an_error_before_the_checkpoint_loads(self, tmp_path, capsys):
        out = tmp_path / "r1"
        out.mkdir()
        code = _run([
            "evaluate", "--checkpoint", tmp_path / "missing", "--data", tmp_path / "ds", "--out", out,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"type": "ConfigError", "error": f"output path {out} is a directory"}
        assert list(out.iterdir()) == []

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


class TestCheckpointWidth:
    """A 12-feature checkpoint read against the 5-feature tiny dataset."""

    @pytest.fixture
    def wide(self, tiny_config, tmp_path, capsys):
        ds_dir = tmp_path / "ds"
        assert _run(["gen-data", "--config", tiny_config, "--out", ds_dir]) == 0
        capsys.readouterr()

        def checkpoint(algorithm):
            stem = tmp_path / algorithm
            params = learners.init_params(algorithm, 12, 3, hidden_sizes=(8,), embedding_dim=4, seed=1)
            learners.save_checkpoint(params, stem)
            return stem

        return ds_dir, checkpoint

    @staticmethod
    def _error(capsys, algorithm):
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "LearnerError",
            "error": f"{algorithm} learner takes 12 features per row, the episodes' rows have 5",
        }

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_evaluate(self, wide, capsys, algorithm):
        ds_dir, checkpoint = wide
        code = _run([
            "evaluate", "--checkpoint", checkpoint(algorithm), "--data", ds_dir,
            "--episodes", "4", "--way", "3", "--shot", "1", "--query", "4",
        ])
        assert code == 1
        self._error(capsys, algorithm)

    def test_analyze(self, wide, tmp_path, capsys):
        ds_dir, checkpoint = wide
        code = _run([
            "analyze", "--checkpoint", checkpoint("proto_cosine"), "--data", ds_dir,
            "--out", tmp_path / "analysis", "--episodes", "10", "--way", "3", "--shot", "1",
            "--query", "4", "--qq",
        ])
        assert code == 1
        self._error(capsys, "proto_cosine")

    def test_offline_train(self, wide, tiny_config, tmp_path, capsys):
        _, checkpoint = wide
        code = _run([
            "train", "--config", tiny_config, "--out", tmp_path / "offline",
            "--scheme.mode", "offline", "--scheme.offline_episodes", "10",
            "--scheme.proposal_checkpoint", str(checkpoint("anil")),
        ])
        assert code == 1
        self._error(capsys, "anil")


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

    def test_unknown_scheme_rejected_before_any_run(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = _run([
            "compare-schemes", "--config", tiny_config,
            "--schemes", "baseline,bogus", "--out", out,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"type": "ConfigError", "error": "config key scheme.kind: invalid value 'bogus'"}
        assert not out.exists()

    def test_failing_arm_keeps_the_completed_rows(self, tiny_config, tmp_path, monkeypatch, capsys):
        def run_training(config, out, stale=()):
            # As the real one does once its run is built: the easy arm fails
            # in training, after its directory is made.
            out.mkdir(parents=True)
            if config["scheme"]["kind"] == "easy":
                raise training.TrainerError("easy arm failed")
            return {"test_accuracy_mean": 0.5, "test_accuracy_ci95": 0.25, "best_iteration": 10}

        monkeypatch.setattr(cli, "_run_training", run_training)
        out = tmp_path / "cmp"
        code = _run([
            "compare-schemes", "--config", tiny_config,
            "--schemes", "baseline,easy,hard", "--out", out,
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"type": "TrainerError", "error": "easy arm failed"}
        assert (out / "comparison.csv").read_text() == (
            "scheme,test_accuracy_mean,test_accuracy_ci95,best_iteration\nbaseline,0.5,0.25,10\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["baseline", "comparison.csv", "easy"]

    def test_forced_comparison_that_aborts_leaves_none_of_the_earlier_one(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "cc"
        argv = ["compare-schemes", "--config", tiny_config, "--schemes", "baseline,uniform", "--out", out]
        assert _run(argv) == 0
        assert len((out / "comparison.csv").read_text().splitlines()) == 3
        assert (out / "uniform" / "result.json").exists()
        # The forced 4-way baseline arm aborts at its first validation,
        # iteration 10, so the uniform arm never starts.
        assert _run([*argv, "--force", "--train.way", "4"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "TrainerError" and err["error"].startswith("iteration 10: ")
        assert sorted(p.name for p in out.iterdir()) == ["baseline"]
        assert not (out / "baseline" / "result.json").exists()
        assert len((out / "baseline" / "history.csv").read_text().splitlines()) == 10

    def test_forced_comparison_that_cannot_start_keeps_the_earlier_one(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "cc"
        argv = ["compare-schemes", "--config", tiny_config, "--schemes", "baseline,uniform", "--out", out]
        assert _run(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert _run([*argv, "--force", "--train.batch_size", "0"]) == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

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

    def test_out_naming_a_file_is_an_error(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        out.write_text("keep\n")
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "20",
            "--way", "3", "--shot", "1", "--query", "4", "--qq",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"type": "ConfigError", "error": f"output path {out} is not a directory"}
        assert out.read_text() == "keep\n"

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

    def test_subsample_size_outside_the_shapiro_wilk_range_is_an_error(self, trained, tmp_path, capsys):
        run_dir, ds_dir = trained
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "20",
            "--way", "3", "--shot", "1", "--query", "4",
            "--normality", "--subsample-size", "2", "--repetitions", "10",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "StatsError",
            "error": "normality_rejection_rate: subsample_size 2 outside [3, 5000]",
        }
        assert not out.exists()

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
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "10",
            "--way", "3", "--shot", "1", "--query", "4",
            "--qq", "--dispersion", run_dir, empty,
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {
            "type": "TrainerError",
            "error": f"cannot read {empty / 'episodes.csv'}: No such file or directory",
        }
        assert not out.exists()

    @pytest.mark.parametrize("missing_run", [False, True], ids=["m-zero", "missing-run"])
    def test_failed_extremes_leaves_no_output(self, trained, tmp_path, capsys, missing_run):
        run_dir, ds_dir = trained
        extremes = tmp_path / "missing" if missing_run else run_dir
        out = tmp_path / "analysis"
        code = _run([
            "analyze", "--checkpoint", run_dir / "checkpoints" / "best",
            "--data", ds_dir, "--out", out, "--episodes", "10",
            "--way", "3", "--shot", "1", "--query", "4",
            "--qq", "--extremes", extremes, "--m", "1" if missing_run else "0",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        if missing_run:
            assert err == {"type": "ConfigError", "error": f"no checkpoints under {extremes / 'checkpoints'}"}
        else:
            assert err == {"type": "StatsError", "error": "track_extremes: m must be at least 1, got 0"}
        assert not out.exists()

    def test_no_protocol_selected_errors(self, tmp_path, monkeypatch, capsys):
        # Neither the checkpoint nor the data exists: the missing protocol
        # is reported before either is read.
        monkeypatch.setenv("EPISAMPLER_OUTPUT_ROOT", str(tmp_path / "root"))
        missing = tmp_path / "missing"
        code = _run(["analyze", "--checkpoint", missing / "best", "--data", missing])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "type": "ConfigError",
            "error": "analyze: choose at least one protocol"
            " (--normality, --qq, --spearman, --extremes, --dispersion)",
        }
        assert list(tmp_path.iterdir()) == []


class TestOutputRoot:
    def test_env_var_controls_default_root(self, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EPISAMPLER_OUTPUT_ROOT", str(tmp_path / "root"))
        assert _run(["gen-data", "--config", tiny_config]) == 0
        capsys.readouterr()
        assert (tmp_path / "root" / "dataset" / "train" / "data.csv").exists()


class TestInterrupt:
    def test_ctrl_c_ends_with_the_json_error_line(self, tiny_config, tmp_path, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_train", interrupted)
        code = _run(["train", "--config", tiny_config, "--out", tmp_path / "run"])
        assert code == 130
        assert json.loads(capsys.readouterr().err) == {"error": "interrupted", "type": "KeyboardInterrupt"}
