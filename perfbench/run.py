"""Benchmark command for episampler.

    python3 perfbench/run.py --workload proto_train --seed 1 --seconds 25 --trace 0

Runs one workload of ``workload.py`` in a fresh single-threaded
subprocess, applies the correctness gate to every pass and prints the
metrics as the last line of stdout:

    {"correct": true, "attempted": 2616, "failed": 0,
     "metrics": {"setup_s": {"value": 0.0035, "unit": "s"}, ...}}

``--trace 0`` gives the end-to-end metrics. ``--trace 1`` gives the
per-layer metrics: untraced passes alternate with passes under the span
wrappers, and all must write byte-identical artifacts. The
metric names and units are the ones in ``BENCHMARK.json``; ``README.md``
next to this file defines them. The exit code is 0 only when every check
passed. Run from the repository root: the program is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORKLOADS = ("proto_train", "maml_train", "cosine_score_5shot")
TRAINING = ("proto_train", "maml_train")
# BLAS and OpenMP pools pinned to one thread, for the child process only.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
TIME_BUDGET_S = 170.0  # for the worker process

# Ops that occur on some workload's tape; matmuls are autodiff.tape_matmuls.
TAPE_OPS = ("add", "sub", "mul", "smul", "relu", "exp", "log", "mean", "sqdist", "softmax_cross_entropy")
KERNELS = ("pairwise_sqdist", "softmax_xent", "adam_update")
ARTIFACTS = (
    "training.write_history_csv", "training.write_episodes_csv", "learners.save_checkpoint",
    "training.write_result_json", "data.save_episode_file",
)
STATS = ("stats.normality_rejection_rate", "stats.export_density_and_qq", "stats.spearman")


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from files."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _spawn(args, out: Path):
    """Run workload.py in a fresh process; its report, or None on failure."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--size", args.size,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, stdout=subprocess.PIPE, timeout=TIME_BUDGET_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded the time budget", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"workload {args.workload} printed no report", file=sys.stderr)
        return None


def _gate(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every pass of the run.

    A pass that raised or failed a check counts all its episodes as
    failed. Passes of one seed must produce identical artifacts.
    """
    attempted = sum(p["episodes"] for p in passes)
    failed = sum(p["episodes"] for p in passes if p["failures"])
    for p in passes:
        for failure in p["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    digests = {p["digest"] for p in passes if not p["failures"]}
    if len(digests) > 1:
        print(f"passes of one seed wrote {len(digests)} different artifact sets", file=sys.stderr)
    return failed == 0 and len(digests) == 1, attempted, failed


def _median_rate(passes, episodes: str, seconds: str) -> float:
    return statistics.median(p[episodes] / p[seconds] for p in passes)


def end_to_end(report) -> dict:
    passes = report["passes"]
    return {
        "setup_s": (statistics.median(report["setup_s"] + [p["setup_s"] for p in passes]), "s"),
        "episodes_per_s": (_median_rate(passes, "main_episodes", "main_s"), "1/s"),
        "eval_episodes_per_s": (_median_rate(passes, "eval_episodes", "eval_s"), "1/s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "test_accuracy": (passes[0]["test_accuracy"], "fraction"),
    }


def per_layer(workload: str, report) -> dict:
    layers = report["layers"]
    spans = layers["spans"]
    timed = report["traced"]
    n_pass = len(timed)
    units = sum(p["units"] for p in timed)

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per_unit_ms(name, key="total"):
        return 1000.0 * get(name, key) / units

    def per_call(name, scale):
        calls = get(name, "calls")
        return scale * get(name, "total") / calls if calls else 0.0

    def per_episode_ms(name, episodes):
        return 1000.0 * get(name, "total") / episodes if episodes else 0.0

    m = {
        "data.sample_episode.self_ms": (per_unit_ms("data.sample_episode", "self"), "ms"),
        "learners.episode_nll.self_ms": (per_unit_ms("learners.episode_nll", "self"), "ms"),
        "learners.episode_accuracy.self_ms": (per_unit_ms("learners.episode_accuracy", "self"), "ms"),
        "learners.episode_log_likelihoods.self_ms": (
            per_unit_ms("learners.episode_log_likelihoods", "self"), "ms"),
        "autodiff.grad.outer_ms": (per_unit_ms("autodiff.grad.outer"), "ms"),
        "autodiff.grad.inner_ms": (per_unit_ms("autodiff.grad.inner"), "ms"),
    }
    tape, backward_calls = layers["tape"], layers["backward_calls"]
    per_backward = {op: n / backward_calls for op, n in tape.items()}
    m["autodiff.tape_nodes"] = (sum(per_backward.values()), "count")
    m["autodiff.tape_matmuls"] = (per_backward.get("matmul", 0.0), "count")
    m["autodiff.nodes_recorded"] = (
        layers["nodes_recorded"] / backward_calls if backward_calls else 0.0, "count")
    for op in TAPE_OPS:
        m[f"autodiff.tape_nodes.{op}"] = (per_backward.get(op, 0.0), "count")
    for k in KERNELS:
        m[f"kernels.{k}.ms"] = (per_unit_ms(f"kernels.{k}"), "ms")
        m[f"kernels.{k}.calls"] = (get(f"kernels.{k}", "calls") / units, "count")
    m["training.train.self_ms"] = (per_unit_ms("training.train", "self"), "ms")
    m["training.adam_step.self_ms"] = (per_unit_ms("training.adam_step", "self"), "ms")
    m["training.weighted_batch_loss.ms"] = (per_unit_ms("training.weighted_batch_loss"), "ms")
    m["training.evaluate.ms_per_episode"] = (
        per_episode_ms("training.evaluate", layers["evaluated_episodes"]), "ms")
    m["training.score_difficulties.ms_per_episode"] = (
        per_episode_ms("training.score_difficulties", layers["scored_episodes"]), "ms")
    gaps = layers["iteration_gaps_s"]
    tail = tracing.tail_percentile(len(gaps))
    m["training.iteration_ms.p50"] = (1000.0 * tracing.percentile(gaps, 50.0) if gaps else 0.0, "ms")
    m["training.iteration_ms.tail"] = (1000.0 * tracing.percentile(gaps, tail) if tail else 0.0, "ms")
    print(f"training.iteration_ms.tail is p{tail} of {len(gaps)} iteration gaps", file=sys.stderr)
    for name in ARTIFACTS + STATS:
        m[f"{name}.ms"] = (1000.0 * get(name, "total") / n_pass, "ms")
    m["sampling.importance_weight.us"] = (per_call("sampling.importance_weight", 1e6), "us")
    m["sampling.update_online.us"] = (per_call("sampling.update_online", 1e6), "us")
    ratios = report["plain"][0]["sampling"]
    m["sampling.ess_over_batch"] = (ratios.get("ess_over_batch", 0.0), "ratio")
    m["sampling.zero_weight_share"] = (ratios.get("zero_weight_share", 0.0), "ratio")
    m["sampling.capped_weight_share"] = (ratios.get("capped_weight_share", 0.0), "ratio")
    m["sampling.fallback_iterations"] = (ratios.get("fallback_iterations", 0), "count")
    m["runtime.gc.pause_share"] = (layers["gc_pause_s"] / layers["wall_s"], "ratio")
    m["runtime.gc.gen2_collections"] = (layers["gc_collections"][2] / n_pass, "count")
    m["trace.overhead"] = (
        statistics.median(
            (t["main_episodes"] / t["main_s"]) / (p["main_episodes"] / p["main_s"])
            for t, p in zip(timed, report["plain"])
        ),
        "ratio",
    )
    _print_split(workload, spans, units, report["plain"])
    return m


def _print_split(workload: str, spans: dict, units: int, plain) -> None:
    """Self time per work unit of every span, largest first, on stderr, and
    what the spans account for against an untraced pass."""
    unit = "iteration" if workload in TRAINING else "pool episode"
    total = sum(s["self"] for s in spans.values())
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self"]):
        print(
            f"split {name:40s} self {1000.0 * s['self'] / units:9.3f} ms/{unit} "
            f"{100.0 * s['self'] / total:5.1f}%  calls {s['calls'] / units:9.2f}/{unit}",
            file=sys.stderr,
        )
    untraced = statistics.median(1000.0 * p["run_s"] / p["units"] for p in plain)
    print(
        f"split total: spans {1000.0 * total / units:.3f} ms/{unit} traced; "
        f"a whole untraced pass {untraced:.3f} ms/{unit} (median)",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="episampler benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: minimal passes that reach every metric (for tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "episampler" / "__init__.py").is_file():
        print(f"no program source at {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2

    work_root = REPO / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        report = _spawn(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if report is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    env = dict(report["env"])
    env.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), usable_cpus=len(os.sched_getaffinity(0)),
        thread_env=THREAD_ENV, commit=_commit(),
    )
    print("env " + json.dumps(env, sort_keys=True))
    correct, attempted, failed = _gate(report["passes"])
    if not correct:
        metrics = {}  # a failed run reports no speed
    elif args.trace:
        metrics = per_layer(args.workload, report)
    else:
        metrics = end_to_end(report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
