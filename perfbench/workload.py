"""One benchmark workload, run in its own process.

    PYTHONPATH=src python3 perfbench/workload.py --workload proto_train \
        --seed 1 --seconds 10 --trace 0 --out DIR [--size tiny]

Runs passes of the workload back to back (a closed loop with one caller)
until ``--seconds`` have elapsed, and prints one JSON object on stdout
with each pass's timings, correctness failures and output digests. With
``--trace 1`` one untimed pass counts the tape, then untraced passes
alternate with passes under the span wrappers of ``tracing``, and the
object also carries the per-layer aggregates. ``perfbench/run.py``
starts this script and turns its output into metrics.

Every pass of one seed does identical work: the inputs come from
``--seed`` alone, so each pass must write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
from episampler import autodiff, cli, data, kernels, learners, sampling, stats, streams, training
from episampler.sampling import DifficultyModel, SamplingScheme
from episampler.training import TrainConfig

# Shapes of the ROADMAP baseline table.
NUM_CLASSES, SAMPLES_PER_CLASS, FEATURE_DIM = 100, 50, 12
SEPARATION, NOISE = 3.0, 1.0
SPLIT = (64, 16, 20)
HIDDEN, EMBEDDING = (64, 64), 64
WAY, QUERY, BATCH = 5, 15, 16
LEARNING_RATE, EMA_LAMBDA = 1e-3, 0.9
WARMUP_EPISODES = 2 * BATCH  # online weights go live at iteration 3
SETUP_REPEATS = 5
MIN_PASSES = 2

# Run lengths of one pass. "full" is what the benchmark measures; "tiny"
# only proves that every code path and metric is reached.
SIZES = {
    "proto_train": {
        "full": dict(iterations=40, validation_interval=20, validation_episodes=25, test_episodes=300),
        "tiny": dict(iterations=8, validation_interval=4, validation_episodes=2, test_episodes=2),
    },
    "maml_train": {
        "full": dict(iterations=6, validation_interval=3, validation_episodes=8, test_episodes=32),
        "tiny": dict(iterations=3, validation_interval=3, validation_episodes=2, test_episodes=2),
    },
    "cosine_score_5shot": {
        "full": dict(pool=300, test_episodes=300, repetitions=100, bins=20),
        "tiny": dict(pool=50, test_episodes=4, repetitions=4, bins=5),
    },
}
TRAIN_ALGORITHM = {"proto_train": "proto_euclidean", "maml_train": "maml"}
WORKLOADS = tuple(SIZES)

clock = time.perf_counter


def _splits(seed: int):
    full = data.generate_synthetic(
        NUM_CLASSES, SAMPLES_PER_CLASS, FEATURE_DIM, SEPARATION, NOISE, seed=seed
    )
    return data.split_classes(full, SPLIT)


def _init(algorithm: str, seed: int) -> learners.LearnerParams:
    return learners.init_params(
        algorithm, FEATURE_DIM, WAY, hidden_sizes=HIDDEN, embedding_dim=EMBEDDING, seed=seed
    )


def setup(workload: str, seed: int, out: Path):
    """Data generation, split and learner init; on the scoring workload
    also the checkpoint round trip of both networks."""
    splits = _splits(seed)
    if workload in TRAIN_ALGORITHM:
        return splits, _init(TRAIN_ALGORITHM[workload], seed)
    nets = []
    for name, net_seed in (("proposal", seed), ("other", seed + 1)):
        learners.save_checkpoint(_init("proto_cosine", net_seed), out / name)
        nets.append(learners.load_checkpoint(out / name))
    return splits, nets


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _check_checkpoint(params, stem: Path, failures: list[str]) -> None:
    loaded = learners.load_checkpoint(stem)
    for a, b in zip(params.trainable_tensors(), loaded.trainable_tensors()):
        if not np.array_equal(a.data, b.data):
            failures.append(f"checkpoint {stem.name} does not read back")
            return


def _check_history(result: training.TrainResult, iterations: int, failures: list[str]) -> dict:
    """Correctness gate on a training history; returns its sampling ratios."""
    if result.aborted:
        failures.append(f"training aborted: {result.diagnostic}")
    if len(result.history) != iterations:
        failures.append(f"history has {len(result.history)} of {iterations} iterations")
    weights, ess_ratios, fallbacks = [], [], 0
    for rec in result.history:
        batch = len(rec.episodes)
        if not math.isfinite(rec.loss):
            failures.append(f"non-finite loss at iteration {rec.iteration}")
        # ESS = (sum w)^2 / sum w^2 lies in [1, B]; allow rounding in the last digits.
        if not (1.0 - 1e-9 <= rec.ess <= batch * (1.0 + 1e-9)):
            failures.append(f"ESS {rec.ess} outside [1, {batch}] at iteration {rec.iteration}")
        for ep in rec.episodes:
            if not (math.isfinite(ep.weight) and ep.weight >= 0.0):
                failures.append(f"weight {ep.weight} at iteration {rec.iteration}")
            if not (math.isfinite(ep.omega) and ep.omega >= 0.0 and math.isfinite(ep.nll)):
                failures.append(f"difficulty {ep.omega} at iteration {rec.iteration}")
        weights.extend(ep.weight for ep in rec.episodes)
        ess_ratios.append(rec.ess / batch)
        fallbacks += int(rec.fallback)
    if not weights:
        return {}
    return {
        "ess_over_batch": statistics.fmean(ess_ratios),
        "zero_weight_share": sum(w == 0.0 for w in weights) / len(weights),
        "capped_weight_share": sum(w >= sampling.WEIGHT_CAP for w in weights) / len(weights),
        "fallback_iterations": fallbacks,
    }


def train_pass(workload: str, seed: int, size: dict, out: Path) -> dict:
    """proto_train / maml_train: what ``episampler train`` does, timed by phase."""
    failures: list[str] = []
    t0 = clock()
    (train_ds, val_ds, test_ds), params = setup(workload, seed, out)
    t_setup = clock()
    config = TrainConfig(
        iterations=size["iterations"], batch_size=BATCH, learning_rate=LEARNING_RATE,
        validation_interval=size["validation_interval"],
        validation_episodes=size["validation_episodes"], test_episodes=size["test_episodes"],
        way=WAY, shot=1, query=QUERY, seed=seed,
    )
    model = DifficultyModel(lam=EMA_LAMBDA, warmup_remaining=WARMUP_EPISODES)
    scheme = SamplingScheme("uniform", mode="online")
    result = training.train(config, params, train_ds, val_ds, scheme, difficulty_model=model)
    t_train = clock()
    training.write_history_csv(result.history, out / "history.csv")
    training.write_episodes_csv(result.history, out / "episodes.csv")
    ckpt_dir = out / "checkpoints"
    for iteration, snapshot, _ in result.checkpoints:
        learners.save_checkpoint(snapshot, ckpt_dir / f"iter_{iteration:06d}")
    learners.save_checkpoint(result.params, ckpt_dir / "best")
    t_eval0 = clock()
    accuracy, ci = training.evaluate(
        result.params, test_ds, WAY, 1, QUERY, config.test_episodes,
        streams.stream(seed, streams.TEST_EPISODES),
    )
    t_eval1 = clock()
    payload = {
        "algorithm": TRAIN_ALGORITHM[workload], "scheme": scheme.kind, "mode": scheme.mode,
        "seed": seed, "best_iteration": result.best_iteration,
        "test_accuracy_mean": accuracy, "test_accuracy_ci95": ci,
    }
    cli.validate_result(payload)
    training.write_result_json(payload, out / "result.json")
    t_end = clock()

    ratios = _check_history(result, config.iterations, failures)
    if not model.var > 0.0:
        failures.append(f"difficulty model variance {model.var}")
    if not 0.0 <= accuracy <= 1.0:
        failures.append(f"test accuracy {accuracy}")
    _check_checkpoint(result.params, ckpt_dir / "best", failures)
    return {
        "failures": failures,
        "episodes": planned_episodes(workload, size),
        "units": config.iterations,
        "setup_s": t_setup - t0,
        "main_s": t_train - t_setup,
        "main_episodes": config.iterations * BATCH,
        "eval_s": t_eval1 - t_eval0,
        "eval_episodes": config.test_episodes,
        "run_s": t_end - t0,
        "test_accuracy": accuracy,
        "sampling": ratios,
        "digest": _digest(out / "history.csv", out / "episodes.csv", ckpt_dir / "best.csv", out / "result.json"),
    }


def score_pass(workload: str, seed: int, size: dict, out: Path) -> dict:
    """cosine_score_5shot: the no-grad read path of offline mode and ``analyze``."""
    failures: list[str] = []
    shot = 5
    t0 = clock()
    (train_ds, _, test_ds), (params, other) = setup(workload, seed, out)
    t_setup = clock()
    pool_rng = streams.stream(seed, streams.ANALYSIS)
    pool = [data.sample_episode(train_ds, WAY, shot, QUERY, pool_rng) for _ in range(size["pool"])]
    omegas = training.score_difficulties(params, pool)
    t_score = clock()
    model = sampling.estimate_offline(omegas, lam=EMA_LAMBDA)
    t_eval0 = clock()
    accuracy, ci = training.evaluate(
        params, test_ds, WAY, shot, QUERY, size["test_episodes"],
        streams.stream(seed, streams.TEST_EPISODES),
    )
    t_eval1 = clock()
    data.save_episode_file(pool, out / "episodes.json")
    rate = stats.normality_rejection_rate(
        omegas, streams.stream(seed, streams.STATS), subsample_size=50,
        repetitions=size["repetitions"],
    )
    hist, qq = stats.export_density_and_qq(omegas, bins=size["bins"])
    other_omegas = training.score_difficulties(other, pool)
    rho = stats.spearman(omegas, other_omegas)
    summary = {
        "offline_mu": model.mu, "offline_var": model.var, "rejection_rate": rate,
        "spearman": rho, "test_accuracy_mean": accuracy, "test_accuracy_ci95": ci,
        "difficulties": omegas, "density": hist, "qq": qq,
    }
    training.write_result_json(summary, out / "analysis.json")
    t_end = clock()

    for name, values in (("proposal", omegas), ("other", other_omegas)):
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            failures.append(f"{name} difficulties not all finite and >= 0")
    if not model.var > 0.0:
        failures.append(f"offline variance {model.var}")
    if not -1.0 <= rho <= 1.0:
        failures.append(f"spearman rho {rho}")
    if not 0.0 <= rate <= 1.0:
        failures.append(f"rejection rate {rate}")
    if not 0.0 <= accuracy <= 1.0:
        failures.append(f"test accuracy {accuracy}")
    if len(qq) != len(omegas) or len(hist) != size["bins"]:
        failures.append("density or Q-Q export has the wrong length")
    return {
        "failures": failures,
        "episodes": planned_episodes(workload, size),
        "units": size["pool"],
        "setup_s": t_setup - t0,
        "main_s": t_score - t_setup,
        "main_episodes": size["pool"],
        "eval_s": t_eval1 - t_eval0,
        "eval_episodes": size["test_episodes"],
        "run_s": t_end - t0,
        "test_accuracy": accuracy,
        "sampling": {},
        "digest": _digest(out / "proposal.csv", out / "episodes.json", out / "analysis.json"),
    }


PASSES = {"proto_train": train_pass, "maml_train": train_pass, "cosine_score_5shot": score_pass}


def run_pass(workload: str, seed: int, size: dict, out: Path) -> dict:
    """One pass in a fresh output directory. An exception fails the pass;
    the caller counts its episodes as failed."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    try:
        return PASSES[workload](workload, seed, size, out)
    except Exception as exc:  # the gate reports every failure, never a fast pass
        return {"failures": [f"{type(exc).__name__}: {exc}"], "episodes": planned_episodes(workload, size)}


def evaluated_episodes(workload: str, size: dict) -> int:
    """Episodes of one pass that go through ``training.evaluate``."""
    if workload in TRAIN_ALGORITHM:
        vals = size["iterations"] // size["validation_interval"] * size["validation_episodes"]
        return vals + size["test_episodes"]
    return size["test_episodes"]


def scored_episodes(workload: str, size: dict) -> int:
    """Episodes of one pass that go through ``training.score_difficulties``:
    the pool, scored by both networks."""
    return 0 if workload in TRAIN_ALGORITHM else 2 * size["pool"]


def planned_episodes(workload: str, size: dict) -> int:
    """Episodes of one pass: trained, evaluated and scored."""
    trained = size["iterations"] * BATCH if workload in TRAIN_ALGORITHM else 0
    return trained + evaluated_episodes(workload, size) + scored_episodes(workload, size)


def repeat(seconds: float, min_rounds: int, round_fn) -> None:
    """Call ``round_fn`` back to back until the next call would end after
    ``seconds``, and at least ``min_rounds`` times."""
    deadline = clock() + seconds
    durations = []
    while True:
        start = clock()
        round_fn()
        durations.append(clock() - start)
        if len(durations) >= min_rounds and clock() + statistics.median(durations) > deadline:
            return


# --- traced run -------------------------------------------------------------

def _grad_span(args, kwargs) -> str:
    create_graph = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
    return "autodiff.grad.inner" if create_graph else "autodiff.grad.outer"


# (module, attribute, span name). Both data.sample_episode and the name
# training imported are wrapped: training looks up its own global.
TRACE_TARGETS = [
    (data, "sample_episode", "data.sample_episode"),
    (training, "sample_episode", "data.sample_episode"),
    (data, "save_episode_file", "data.save_episode_file"),
    (learners, "episode_nll", "learners.episode_nll"),
    (learners, "episode_accuracy", "learners.episode_accuracy"),
    (learners, "episode_log_likelihoods", "learners.episode_log_likelihoods"),
    (learners, "save_checkpoint", "learners.save_checkpoint"),
    (autodiff, "grad", _grad_span),
    (kernels, "pairwise_sqdist", "kernels.pairwise_sqdist"),
    (kernels, "softmax_xent", "kernels.softmax_xent"),
    (kernels, "adam_update", "kernels.adam_update"),
    (sampling, "importance_weight", "sampling.importance_weight"),
    (sampling, "update_online", "sampling.update_online"),
    (training, "train", "training.train"),
    (training, "adam_step", "training.adam_step"),
    (training, "weighted_batch_loss", "training.weighted_batch_loss"),
    (training, "evaluate", "training.evaluate"),
    (training, "score_difficulties", "training.score_difficulties"),
    (training, "write_history_csv", "training.write_history_csv"),
    (training, "write_episodes_csv", "training.write_episodes_csv"),
    (training, "write_result_json", "training.write_result_json"),
    (stats, "normality_rejection_rate", "stats.normality_rejection_rate"),
    (stats, "export_density_and_qq", "stats.export_density_and_qq"),
    (stats, "spearman", "stats.spearman"),
]


def count_pass(workload: str, seed: int, size: dict, out: Path):
    """One untimed pass that counts, per outer backward, the tape reachable
    from the batch loss and every node recorded while building it (MAML's
    inner loop records nodes the loss does not reach)."""
    reachable: list[dict[str, int]] = []
    recorded = [0]
    building = [0]  # depth inside episode_nll / weighted_batch_loss

    def count_reachable(_, grad):
        def wrapper(output, inputs, create_graph=False, allow_unused=False):
            if not create_graph:
                reachable.append(tracing.count_tape(output))
            return grad(output, inputs, create_graph=create_graph, allow_unused=allow_unused)
        return wrapper

    def count_recorded(_, make):
        def wrapper(*args):
            out = make(*args)
            if building[0] and out.node is not None:
                recorded[0] += 1
            return out
        return wrapper

    def building_loss(_, fn):
        def wrapper(*args, **kwargs):
            building[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                building[0] -= 1
        return wrapper

    with tracing.patched([(autodiff, "grad", None)], count_reachable), \
            tracing.patched([(autodiff, "_make", None)], count_recorded), \
            tracing.patched([(learners, "episode_nll", None), (training, "weighted_batch_loss", None)], building_loss):
        result = run_pass(workload, seed, size, out)
    tape = Counter()
    for counts in reachable:
        tape.update(counts)
    return result, {"tape": tape, "nodes_recorded": recorded[0], "backward_calls": len(reachable)}


def traced_passes(workload: str, seed: int, size: dict, out: Path, seconds: float):
    """Pairs of an untraced and a traced pass, so that both see the same
    machine and the ratio of their throughputs is the tracing overhead."""
    tracer = tracing.Tracer()
    monitor = tracing.GcMonitor()
    plain, traced = [], []
    traced_wall = [0.0]

    def traced_pass():
        start = clock()
        with tracing.patched(TRACE_TARGETS, tracer.wrap), monitor.active():
            traced.append(run_pass(workload, seed, size, out))
        traced_wall[0] += clock() - start

    def pair():
        # Alternate which side goes first, so neither always follows the other.
        if len(plain) % 2:
            traced_pass()
            plain.append(run_pass(workload, seed, size, out))
        else:
            plain.append(run_pass(workload, seed, size, out))
            traced_pass()

    repeat(seconds, 1, pair)
    # Iteration gaps: successive adam_step returns inside one train call.
    ends_by_train: dict[int, list[float]] = {}
    for idx in tracer.spans("training.adam_step"):
        ends_by_train.setdefault(tracer.parents[idx], []).append(tracer.ends[idx])
    gaps = [g for ends in ends_by_train.values() for g in tracing.gaps(ends)]
    return plain, traced, {
        "spans": tracing.totals(tracer),
        "iteration_gaps_s": gaps,
        "evaluated_episodes": len(traced) * evaluated_episodes(workload, size),
        "scored_episodes": len(traced) * scored_episodes(workload, size),
        "gc_pause_s": monitor.pause_s,
        "gc_collections": monitor.collections,
        "wall_s": traced_wall[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    size = SIZES[args.workload][args.size]
    tiny = SIZES[args.workload]["tiny"]
    args.out.mkdir(parents=True, exist_ok=True)
    # Warm-up: one tiny pass fills lazy imports and allocator pools.
    run_pass(args.workload, args.seed, tiny, args.out / "warmup")
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        setup(args.workload, args.seed, args.out)
        setup_s.append(clock() - t0)

    report = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernels_backend": kernels.BACKEND,
        },
        "setup_s": setup_s,
    }
    out = args.out / "pass"
    if args.trace:
        counted, counts = count_pass(args.workload, args.seed, size, out)
        plain, traced, layers = traced_passes(args.workload, args.seed, size, out, args.seconds)
        layers.update(counts)
        report.update(layers=layers, plain=plain, traced=traced, passes=[counted] + plain + traced)
    else:
        passes = []
        repeat(args.seconds, MIN_PASSES, lambda: passes.append(run_pass(args.workload, args.seed, size, out)))
        report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
