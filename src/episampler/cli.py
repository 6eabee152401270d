"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``evaluate``, ``compare-schemes``,
``analyze``. Configuration is a single JSON document; any key can be
overridden on the command line with a dotted path, e.g.
``--train.batch_size 32``. An object value, e.g.
``--train '{"iterations": 4}'``, merges key by key, as a section of the
file does. An unknown key, a leaf of the wrong type and a number that is
not finite (``NaN``, ``Infinity``) are each a ``ConfigError`` naming the
dotted key. The default output root is the ``EPISAMPLER_OUTPUT_ROOT``
environment variable (``./runs`` otherwise).

``evaluate`` and ``analyze`` read split ``--split`` (default ``test``) of
the dataset root ``--data``: the ``ROOT/{train,val,test}`` directories that
``gen-data`` writes and ``dataset.path`` names.

``validate_result`` checks each ``result.json`` before it is written: exactly
the fields of ``_RESULT_FIELDS``, each accepted by its ``files`` rule, or a
``ValueError`` naming the field.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import data, files, learners, sampling, stats, streams, training
from .files import integer, list_of, number, of_type, or_none, positive
from .sampling import DifficultyModel, SamplingScheme
from .training import TrainConfig


class ConfigError(Exception):
    pass


GENERATOR_KEYS = ("num_classes", "samples_per_class", "feature_dim")


# Each config leaf as (default, the values it may hold). Most ranges are
# checked where the values are used.
_CONFIG = {
    "seed": (0, integer),
    "dataset": {
        "path": (None, or_none(of_type(str))),
        **{key: (None, or_none(integer)) for key in GENERATOR_KEYS},
        "class_separation": (3.0, number),
        "noise_scale": (1.0, number),
        # Class weights of the train, val and test splits.
        "split_ratios": ([64, 16, 20], list_of(number)),
    },
    "learner": {
        "algorithm": ("proto_euclidean", lambda v: v in learners.ALGORITHMS),
        "hidden_sizes": ([64, 64], list_of(positive)),
        "embedding_dim": (64, positive),
        "adaptation_rate": (None, or_none(number)),
        "adaptation_steps": (5, integer),
        "cosine_scale": (10.0, number),
    },
    "train": {
        "iterations": (20000, integer),
        "batch_size": (16, integer),
        "learning_rate": (1e-3, number),
        "validation_interval": (1000, integer),
        "validation_episodes": (1000, integer),
        "test_episodes": (1000, integer),
        "way": (5, integer),
        "shot": (1, integer),
        "query": (15, integer),
    },
    "scheme": {
        "kind": ("baseline", lambda v: v in sampling.SCHEME_KINDS),
        "mode": ("online", lambda v: v in sampling.MODES),
        "ema_lambda": (0.9, number),
        "warmup_iterations": (100, integer),
        "offline_episodes": (1000, integer),
        "proposal_checkpoint": (None, or_none(of_type(str))),
    },
}


def _defaults(table: dict) -> dict:
    return {key: _defaults(entry) if isinstance(entry, dict) else entry[0] for key, entry in table.items()}


DEFAULT_CONFIG = _defaults(_CONFIG)


def _merge(config: dict, user: dict, table: dict = _CONFIG, prefix: str = "") -> None:
    """Write ``user`` into ``config`` key by key. An unknown key, or a value
    its leaf's rule rejects, is a ``ConfigError`` naming the dotted key."""
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in table:
            raise ConfigError(f"unknown config key {path!r}")
        entry = table[key]
        if isinstance(entry, dict) and isinstance(value, dict):
            _merge(config[key], value, entry, f"{path}.")
        elif isinstance(entry, dict) or not entry[1](value):
            raise ConfigError(f"config key {path}: invalid value {value!r}")
        else:
            config[key] = value


def load_config(path: str, overrides) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    _merge(config, files.read_manifest(path, {}, ConfigError))
    for key, raw in overrides:
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(config, value)
    if config["scheme"]["mode"] == "offline" and not config["scheme"]["proposal_checkpoint"]:
        raise ConfigError("offline mode requires scheme.proposal_checkpoint")
    if config["dataset"]["path"] is None:
        for key in GENERATOR_KEYS:
            if config["dataset"][key] is None:
                raise ConfigError(f"missing config key dataset.{key}")
    return config


def _output_root() -> Path:
    return Path(os.environ.get("EPISAMPLER_OUTPUT_ROOT", "runs"))


def _output_dir(out: str | None, default_name: str, force: bool) -> Path:
    """The output directory, which must be empty or absent unless ``force``;
    the caller makes it when it writes."""
    path = Path(out) if out else _output_root() / default_name
    if path.exists() and not path.is_dir():
        raise ConfigError(f"output path {path} is not a directory")
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"output directory {path} is not empty (use --force to overwrite)")
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


# Each result.json field and the values it may hold.
_RESULT_FIELDS = {
    "algorithm": lambda v: v in learners.ALGORITHMS,
    "scheme": lambda v: v in sampling.SCHEME_KINDS,
    "mode": lambda v: v in sampling.MODES,
    "seed": integer,
    "best_iteration": lambda v: integer(v) and v >= 0,
    "test_accuracy_mean": lambda v: number(v) and 0 <= v <= 1,
    "test_accuracy_ci95": lambda v: number(v) and v >= 0,
}


def validate_result(payload: dict) -> None:
    """Raise ``ValueError`` naming the field unless ``payload`` holds exactly
    the fields of ``_RESULT_FIELDS``, each with a value its rule accepts."""
    extra = sorted(set(payload) - set(_RESULT_FIELDS))
    if extra:
        raise ValueError(f"result has unknown field {extra[0]!r}")
    files.check_fields(payload, _RESULT_FIELDS, ValueError, "result")


def cmd_gen_data(args) -> Path:
    config = load_config(args.config, args.overrides)
    if config["dataset"]["path"] is not None:
        raise ConfigError("gen-data generates a dataset; dataset.path must be null")
    out = _output_dir(args.out, "dataset", args.force)
    splits = _build_splits(config)
    for split in splits:
        data.save_dataset(split, out / split.split)
    print(f"dataset written to {out}")
    return out


def _run_training(config: dict, out: Path, stale=()) -> dict:
    """Train one run into ``out``. The splits, learner, settings, scheme and
    difficulty model are built first, so a run that cannot start writes
    nothing. Only then does it delete the ``result.json`` and checkpoints of
    an earlier run in ``out`` (``--force``) and the ``stale`` paths, and
    write ``config.json``."""
    train_ds, val_ds, test_ds = _build_splits(config)
    params = learners.init_params(
        feature_dim=train_ds.feature_dim, way=config["train"]["way"], seed=config["seed"],
        **config["learner"],
    )
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
    for path in (out / "result.json", out / "checkpoints", *stale):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    files.write_json(out / "config.json", config)
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
        raise training.TrainerError(result.diagnostic)

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
    out = _output_dir(args.out, "run", args.force)
    payload = _run_training(config, out)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return out


def cmd_evaluate(args) -> dict:
    if args.out and Path(args.out).is_dir():
        raise ConfigError(f"output path {args.out} is a directory")
    params = learners.load_checkpoint(args.checkpoint)
    dataset = data.load_dataset(Path(args.data) / args.split)
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
    runs = {}
    for scheme in schemes:
        # Each scheme trains into its own directory and comparison.csv row.
        if scheme in runs:
            raise ConfigError(f"scheme {scheme!r} listed twice")
        runs[scheme] = copy.deepcopy(config)
        _merge(runs[scheme], {"scheme": {"kind": scheme}})
    out = _output_dir(args.out, "comparison", args.force)
    rows = []
    failure: Exception | None = None
    # Once the first arm is built, a forced comparison deletes the earlier
    # one's table and the arms it has not reached yet.
    stale = [out / "comparison.csv", *(out / name for name in schemes[1:])]
    for scheme, run_config in runs.items():
        try:
            payload = _run_training(run_config, out / scheme, stale)
            stale = []
        except Exception as exc:  # preserve partial results before aborting
            failure = exc
            break
        rows.append(
            (scheme, payload["test_accuracy_mean"], payload["test_accuracy_ci95"], payload["best_iteration"])
        )
    # The completed arms' rows; with none there is no table.
    if rows:
        files.write_table(
            out / "comparison.csv", "scheme,test_accuracy_mean,test_accuracy_ci95,best_iteration", rows
        )
    if failure is not None:
        raise failure
    print(f"comparison written to {out / 'comparison.csv'}")
    return out


# Every table an analysis protocol writes.
_ANALYSIS_TABLES = (
    "normality.csv", "density.csv", "qq.csv", "spearman.csv", "extremes.csv", "dispersion.csv",
)


def cmd_analyze(args) -> Path:
    if not (args.normality or args.qq or args.spearman or args.extremes or args.dispersion):
        raise ConfigError(
            "analyze: choose at least one protocol "
            "(--normality, --qq, --spearman, --extremes, --dispersion)"
        )
    out = _output_dir(args.out, "analysis", args.force)
    dataset = data.load_dataset(Path(args.data) / args.split)
    params = learners.load_checkpoint(args.checkpoint)
    rng = streams.stream(args.seed, streams.ANALYSIS)
    episodes = data.sample_episodes(dataset, args.way, args.shot, args.query, rng, args.episodes)
    omegas = np.array(training.score_difficulties(params, episodes))
    # Each protocol's (file name, header, rows). Nothing is written until
    # every protocol has run, so a failed analysis leaves no directory, and
    # a forced one that fails leaves the earlier analysis as it was.
    tables = []

    if args.normality:
        rate = stats.normality_rejection_rate(
            omegas, streams.stream(args.seed, streams.STATS),
            subsample_size=args.subsample_size, repetitions=args.repetitions,
        )
        tables.append(("normality.csv", "rejection_rate", [(float(rate),)]))

    if args.qq:
        hist, qq = stats.export_density_and_qq(omegas, bins=args.bins)
        tables.append(("density.csv", "bin_left,density", hist))
        tables.append(("qq.csv", "theoretical_q,sample_q", qq))

    if args.spearman:
        other = learners.load_checkpoint(args.spearman)
        other_omegas = np.array(training.score_difficulties(other, episodes))
        rho = stats.spearman(omegas, other_omegas)
        tables.append(("spearman.csv", "rho", [(float(rho),)]))

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
        tables.append(("extremes.csv", "checkpoint,easy_mean,hard_mean", rows))

    if args.dispersion:
        rows = []
        for run_dir in args.dispersion:
            batches = training.read_episodes_csv(Path(run_dir) / "episodes.csv")
            rows.append((Path(run_dir).name, stats.weighted_loss_std(batches)))
        tables.append(("dispersion.csv", "run_id,mean_batch_std", rows))

    out.mkdir(parents=True, exist_ok=True)
    written = {name for name, _, _ in tables}
    for name in _ANALYSIS_TABLES:
        if name not in written:  # an earlier analysis's (--force)
            (out / name).unlink(missing_ok=True)
    data.save_episode_file(episodes, out / "episodes.json")
    for name, header, rows in tables:
        files.write_table(out / name, header, rows)
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

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--out", default=None)
    configured.add_argument("--force", action="store_true")

    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("--checkpoint", required=True)
    scored.add_argument("--data", required=True)
    scored.add_argument("--split", default="test")
    scored.add_argument("--episodes", type=int, default=1000)
    scored.add_argument("--way", type=int, default=5)
    scored.add_argument("--shot", type=int, default=1)
    scored.add_argument("--query", type=int, default=15)
    scored.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser(
        "gen-data", parents=[configured], help="generate a synthetic dataset with train/val/test splits"
    )
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", parents=[configured], help="train one learner under one sampling scheme")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", parents=[scored], help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)

    cmp = sub.add_parser(
        "compare-schemes", parents=[configured], help="train once per scheme and tabulate accuracies"
    )
    cmp.add_argument("--schemes", required=True, help="comma-separated scheme kinds, each listed once")
    cmp.set_defaults(func=cmd_compare_schemes)

    an = sub.add_parser("analyze", parents=[scored], help="run the difficulty analysis protocols")
    an.add_argument("--out", default=None)
    an.add_argument("--force", action="store_true")
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
    except KeyboardInterrupt:
        print(json.dumps({"error": "interrupted", "type": "KeyboardInterrupt"}), file=sys.stderr)
        return 130
    except Exception as exc:
        record = {"error": str(exc), "type": type(exc).__name__}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
