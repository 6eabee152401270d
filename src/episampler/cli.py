"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``evaluate``, ``compare-schemes``,
``analyze``. Configuration is a single JSON document; any scalar leaf can
be overridden on the command line with a dotted path, e.g.
``--train.batch_size 32``. The default output root is the
``EPISAMPLER_OUTPUT_ROOT`` environment variable (``./runs`` otherwise).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import data, files, learners, sampling, stats, streams, training
from .sampling import DifficultyModel, SamplingScheme
from .training import TrainConfig


class ConfigError(Exception):
    pass


DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": {
        "path": None,
        "num_classes": None,
        "samples_per_class": None,
        "feature_dim": None,
        "class_separation": 3.0,
        "noise_scale": 1.0,
        "split_ratios": [64, 16, 20],
    },
    "learner": {
        "algorithm": "proto_euclidean",
        "hidden_sizes": [64, 64],
        "embedding_dim": 64,
        "adaptation_rate": None,
        "adaptation_steps": 5,
        "cosine_scale": 10.0,
    },
    "train": {
        "iterations": 20000,
        "batch_size": 16,
        "learning_rate": 1e-3,
        "validation_interval": 1000,
        "validation_episodes": 1000,
        "test_episodes": 1000,
        "way": 5,
        "shot": 1,
        "query": 15,
    },
    "scheme": {
        "kind": "baseline",
        "mode": "online",
        "ema_lambda": 0.9,
        "warmup_iterations": 100,
        "offline_episodes": 1000,
        "proposal_checkpoint": None,
    },
}

GENERATOR_KEYS = ("num_classes", "samples_per_class", "feature_dim")


def _merge_config(base: dict, user: dict, prefix: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _merge_config(base[key], value, prefix=f"{path}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str | None, overrides) -> dict:
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    config = _merge_config(DEFAULT_CONFIG, user)
    for key, raw in overrides:
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown config key {key!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            node[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            node[leaf] = raw
    _validate_config(config)
    return config


def _validate_config(config: dict) -> None:
    scheme = config["scheme"]
    if scheme["kind"] not in sampling.SCHEME_KINDS:
        raise ConfigError(f"unknown scheme.kind {scheme['kind']!r}")
    if scheme["mode"] not in sampling.MODES:
        raise ConfigError(f"unknown scheme.mode {scheme['mode']!r}")
    if scheme["mode"] == "offline" and not scheme["proposal_checkpoint"]:
        raise ConfigError("offline mode requires scheme.proposal_checkpoint")
    learner = config["learner"]
    if learner["algorithm"] not in learners.ALGORITHMS:
        raise ConfigError(f"unknown learner.algorithm {learner['algorithm']!r}")
    dataset = config["dataset"]
    if dataset["path"] is None:
        for key in GENERATOR_KEYS:
            if dataset[key] is None:
                raise ConfigError(f"missing config key dataset.{key}")


def _output_root() -> Path:
    return Path(os.environ.get("EPISAMPLER_OUTPUT_ROOT", "runs"))


def _prepare_out(out: str | None, default_name: str, force: bool) -> Path:
    path = Path(out) if out else _output_root() / default_name
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"output directory {path} is not empty (use --force to overwrite)")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_splits(config: dict):
    dataset = config["dataset"]
    if dataset["path"] is not None:
        root = Path(dataset["path"])
        return tuple(data.load_dataset(root / split) for split in ("train", "val", "test"))
    full = data.generate_synthetic(
        dataset["num_classes"],
        dataset["samples_per_class"],
        dataset["feature_dim"],
        dataset["class_separation"],
        dataset["noise_scale"],
        seed=config["seed"],
    )
    return data.split_classes(full, tuple(dataset["split_ratios"]))


def _load_split(path: str, split: str) -> data.BaseDataset:
    root = Path(path)
    if (root / "manifest.json").exists():
        return data.load_dataset(root)
    return data.load_dataset(root / split)


def _init_learner(config: dict, feature_dim: int) -> learners.LearnerParams:
    learner = config["learner"]
    train = config["train"]
    return learners.init_params(
        learner["algorithm"],
        feature_dim,
        train["way"],
        hidden_sizes=tuple(learner["hidden_sizes"]),
        embedding_dim=learner["embedding_dim"],
        seed=config["seed"],
        adaptation_rate=learner["adaptation_rate"],
        adaptation_steps=learner["adaptation_steps"],
        cosine_scale=learner["cosine_scale"],
    )


def result_schema() -> dict:
    text = resources.files("episampler").joinpath("schemas/result.schema.json").read_text()
    return json.loads(text)


def validate_result(payload: dict) -> None:
    jsonschema.validate(payload, result_schema())


def cmd_gen_data(args) -> Path:
    config = load_config(args.config, args.overrides)
    if config["dataset"]["path"] is not None:
        raise ConfigError("gen-data generates a dataset; dataset.path must be null")
    out = _prepare_out(args.out, "dataset", args.force)
    splits = _build_splits(config)
    for split in splits:
        data.save_dataset(split, out / split.split)
    print(f"dataset written to {out}")
    return out


def _run_training(config: dict, out: Path) -> dict:
    train_ds, val_ds, test_ds = _build_splits(config)
    params = _init_learner(config, train_ds.feature_dim)
    scheme_cfg = config["scheme"]
    scheme = SamplingScheme(scheme_cfg["kind"], mode=scheme_cfg["mode"])
    train_cfg = TrainConfig(seed=config["seed"], **config["train"])
    proposal_params = None
    model = None
    if scheme.mode == "offline":
        proposal_params = learners.load_checkpoint(scheme_cfg["proposal_checkpoint"])
        pool_rng = streams.stream(config["seed"], streams.ANALYSIS)
        pool = data.sample_episodes(
            train_ds, train_cfg.way, train_cfg.shot, train_cfg.query, pool_rng,
            scheme_cfg["offline_episodes"],
        )
        model = sampling.estimate_offline(
            training.score_difficulties(proposal_params, pool), lam=scheme_cfg["ema_lambda"]
        )
    else:
        # The model counts its warm-up down once per episode.
        model = DifficultyModel(
            lam=scheme_cfg["ema_lambda"],
            warmup_remaining=scheme_cfg["warmup_iterations"] * train_cfg.batch_size,
        )

    result = training.train(
        train_cfg, params, train_ds, val_ds, scheme,
        difficulty_model=model, proposal_params=proposal_params,
    )
    training.write_history_csv(result.history, out / "history.csv")
    training.write_episodes_csv(result.history, out / "episodes.csv")
    ckpt_dir = out / "checkpoints"
    for iteration, snapshot, _ in result.checkpoints:
        learners.save_checkpoint(snapshot, ckpt_dir / f"iter_{iteration:06d}")
    learners.save_checkpoint(result.params, ckpt_dir / "best")
    if result.aborted:
        raise training.TrainerError(result.diagnostic or "training aborted")

    test_rng = streams.stream(config["seed"], streams.TEST_EPISODES)
    mean, ci = training.evaluate(
        result.params, test_ds, train_cfg.way, train_cfg.shot, train_cfg.query,
        train_cfg.test_episodes, test_rng,
    )
    payload = {
        "algorithm": config["learner"]["algorithm"],
        "scheme": scheme.kind,
        "mode": scheme.mode,
        "seed": config["seed"],
        "best_iteration": result.best_iteration,
        "test_accuracy_mean": mean,
        "test_accuracy_ci95": ci,
    }
    validate_result(payload)
    training.write_result_json(payload, out / "result.json")
    return payload


def cmd_train(args) -> Path:
    config = load_config(args.config, args.overrides)
    out = _prepare_out(args.out, "run", args.force)
    files.write_json(out / "config.json", config)
    payload = _run_training(config, out)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return out


def cmd_evaluate(args) -> dict:
    params = learners.load_checkpoint(args.checkpoint)
    dataset = _load_split(args.data, args.split)
    rng = streams.stream(args.seed, streams.TEST_EPISODES)
    mean, ci = training.evaluate(
        params, dataset, args.way, args.shot, args.query, args.episodes, rng
    )
    payload = {
        "checkpoint": str(args.checkpoint),
        "split": dataset.split,
        "episodes": args.episodes,
        "accuracy_mean": mean,
        "accuracy_ci95": ci,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        files.write_text(args.out, text + "\n")
    print(text)
    return payload


def cmd_compare_schemes(args) -> Path:
    config = load_config(args.config, args.overrides)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if len(schemes) < 2:
        raise ConfigError("compare-schemes needs at least 2 schemes")
    for scheme in schemes:
        if scheme not in sampling.SCHEME_KINDS:
            raise ConfigError(f"unknown scheme {scheme!r}")
    out = _prepare_out(args.out, "comparison", args.force)
    rows = []
    failure: Exception | None = None
    for scheme in schemes:
        run_config = copy.deepcopy(config)
        run_config["scheme"]["kind"] = scheme
        run_dir = out / scheme
        run_dir.mkdir(parents=True, exist_ok=True)
        files.write_json(run_dir / "config.json", run_config)
        try:
            payload = _run_training(run_config, run_dir)
        except Exception as exc:  # preserve partial results before aborting
            failure = exc
            break
        rows.append(
            (scheme, payload["test_accuracy_mean"], payload["test_accuracy_ci95"], payload["best_iteration"])
        )
    lines = ["scheme,test_accuracy_mean,test_accuracy_ci95,best_iteration"]
    for scheme, mean, ci, best in rows:
        lines.append(f"{scheme},{mean!r},{ci!r},{best}")
    files.write_text(out / "comparison.csv", "\n".join(lines) + "\n")
    if failure is not None:
        raise failure
    print(f"comparison written to {out / 'comparison.csv'}")
    return out


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    files.write_text(path, "\n".join(lines) + "\n")


def cmd_analyze(args) -> Path:
    out = _prepare_out(args.out, "analysis", args.force)
    dataset = _load_split(args.data, args.split)
    params = learners.load_checkpoint(args.checkpoint)
    rng = streams.stream(args.seed, streams.ANALYSIS)
    episodes = data.sample_episodes(dataset, args.way, args.shot, args.query, rng, args.episodes)
    data.save_episode_file(episodes, out / "episodes.json")
    omegas = np.array(training.score_difficulties(params, episodes))
    ran_any = False

    if args.normality:
        rate = stats.normality_rejection_rate(
            omegas, streams.stream(args.seed, streams.STATS),
            subsample_size=args.subsample_size, repetitions=args.repetitions,
        )
        _write_csv(out / "normality.csv", "rejection_rate", [(float(rate),)])
        ran_any = True

    if args.qq:
        hist, qq = stats.export_density_and_qq(omegas, bins=args.bins)
        _write_csv(out / "density.csv", "bin_left,density", hist)
        _write_csv(out / "qq.csv", "theoretical_q,sample_q", qq)
        ran_any = True

    if args.spearman:
        other = learners.load_checkpoint(args.spearman)
        other_omegas = np.array(training.score_difficulties(other, episodes))
        rho = stats.spearman(omegas, other_omegas)
        _write_csv(out / "spearman.csv", "rho", [(float(rho),)])
        ran_any = True

    if args.extremes:
        run_dir = Path(args.extremes)
        ckpt_dir = run_dir / "checkpoints"
        stems = sorted(p.with_suffix("") for p in ckpt_dir.glob("iter_*.json"))
        if not stems:
            raise ConfigError(f"no checkpoints under {ckpt_dir}")
        per_checkpoint = []
        for stem in stems:
            ckpt = learners.load_checkpoint(stem)
            per_checkpoint.append((stem.name, np.array(training.score_difficulties(ckpt, episodes))))
        # select extremes with the best checkpoint's difficulties
        best = learners.load_checkpoint(ckpt_dir / "best")
        initial = np.array(training.score_difficulties(best, episodes))
        rows = stats.track_extremes(initial, per_checkpoint, m=args.m)
        _write_csv(out / "extremes.csv", "checkpoint,easy_mean,hard_mean", rows)
        ran_any = True

    if args.dispersion:
        rows = []
        for run_dir in args.dispersion:
            batches = training.read_episodes_csv(Path(run_dir) / "episodes.csv")
            rows.append((Path(run_dir).name, stats.weighted_loss_std(batches)))
        _write_csv(out / "dispersion.csv", "run_id,mean_batch_std", rows)
        ran_any = True

    if not ran_any:
        raise ConfigError(
            "analyze: choose at least one protocol "
            "(--normality, --qq, --spearman, --extremes, --dispersion)"
        )
    print(f"analysis written to {out}")
    return out


def _split_overrides(extras) -> list[tuple[str, str]]:
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--"):
            raise ConfigError(f"unrecognized argument {token!r}")
        key = token[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            i += 1
            if i >= len(extras):
                raise ConfigError(f"override {token!r} is missing a value")
            value = extras[i]
        overrides.append((key, value))
        i += 1
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episampler",
        description="Episodic few-shot training with difficulty-based importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset with train/val/test splits")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=None)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train one learner under one sampling scheme")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", default=None)
    tr.add_argument("--force", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", default="test")
    ev.add_argument("--episodes", type=int, default=1000)
    ev.add_argument("--way", type=int, default=5)
    ev.add_argument("--shot", type=int, default=1)
    ev.add_argument("--query", type=int, default=15)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)

    cmp = sub.add_parser("compare-schemes", help="train once per scheme and tabulate accuracies")
    cmp.add_argument("--config", required=True)
    cmp.add_argument("--schemes", required=True, help="comma-separated scheme kinds")
    cmp.add_argument("--out", default=None)
    cmp.add_argument("--force", action="store_true")
    cmp.set_defaults(func=cmd_compare_schemes)

    an = sub.add_parser("analyze", help="run the difficulty analysis protocols")
    an.add_argument("--checkpoint", required=True)
    an.add_argument("--data", required=True)
    an.add_argument("--split", default="test")
    an.add_argument("--out", default=None)
    an.add_argument("--force", action="store_true")
    an.add_argument("--episodes", type=int, default=1000)
    an.add_argument("--way", type=int, default=5)
    an.add_argument("--shot", type=int, default=1)
    an.add_argument("--query", type=int, default=15)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--normality", action="store_true")
    an.add_argument("--subsample-size", type=int, default=50)
    an.add_argument("--repetitions", type=int, default=100)
    an.add_argument("--qq", action="store_true")
    an.add_argument("--bins", type=int, default=50)
    an.add_argument("--spearman", default=None, metavar="CHECKPOINT_B")
    an.add_argument("--extremes", default=None, metavar="RUN_DIR")
    an.add_argument("--m", type=int, default=50)
    an.add_argument("--dispersion", nargs="+", default=None, metavar="RUN_DIR")
    an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command in ("gen-data", "train", "compare-schemes"):
            args.overrides = _split_overrides(extras)
        elif extras:
            raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
        args.func(args)
    except Exception as exc:
        record = {"error": str(exc), "type": type(exc).__name__}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
