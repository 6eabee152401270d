"""Every function of the package is entered by some command-line run.

``tests/test_source_hygiene.py`` finds private names nothing references; it
cannot see a public op, or a function, that only tests reach. This test runs
the command line's user paths on a tiny config in a fresh process, under a
profile hook set before ``episampler`` is imported (so calls made at import
time count), and fails when a ``def`` in ``src/episampler`` is never entered,
unless it is on ``ALLOWLIST`` with its reason.

A ``def`` is keyed by its file and first line, as its code object's
``co_firstlineno`` (a decorated one's is its first decorator's line), since
Python 3.10 code objects have no qualified name.

Run as a script, ``python tests/test_user_paths.py WORK_DIR``, this file is
the driver: it runs the commands in ``WORK_DIR`` and writes the entered
``(file, first line)`` pairs to ``WORK_DIR/entered.json``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "episampler"

# Functions no user path enters, each with its reason.
ALLOWLIST = {
    # Error constructors: only a failing call builds one.
    "autodiff.ShapeMismatchError.__init__": "raised on a shape error only",
    "learners.LearnerError.__init__": "raised on a learner failure only",
    "learners.LearnerError.offset": "renumbers a failed episode only",
    # Debug helper.
    "autodiff.Tensor.__repr__": "shown in a debugger or a failing test",
    # Only perfbench enters these two; they go once it samples and scores
    # its pool through the batch functions.
    "data.sample_episode": "perfbench traces it",
    "learners.episode_log_likelihoods": "perfbench traces it",
}

TINY_CONFIG = {
    "seed": 0,
    "dataset": {"num_classes": 6, "samples_per_class": 4, "feature_dim": 3, "split_ratios": [2, 2, 2]},
    "learner": {"hidden_sizes": [4], "embedding_dim": 4, "adaptation_steps": 1},
    "train": {
        "iterations": 2,
        "batch_size": 2,
        "validation_interval": 1,
        "validation_episodes": 2,
        "test_episodes": 2,
        "way": 2,
        "shot": 1,
        "query": 2,
    },
    # The online model is ready after the first iteration, so the second
    # weighs its episodes by the target density.
    "scheme": {"kind": "curriculum", "warmup_iterations": 1},
}


def _commands(work: Path, algorithms) -> list[list]:
    """The user paths, in order: each later command reads what an earlier
    one wrote. ``gen-data`` has no ``--out``, so it writes under
    ``EPISAMPLER_OUTPUT_ROOT``."""
    config = work / "config.json"
    dataset = work / "root" / "dataset"
    runs = work / "runs"
    shape = ["--way", "2", "--shot", "1", "--query", "2"]
    comparison = [
        "compare-schemes", "--config", config, "--out", work / "comparison",
        "--schemes", "baseline,easy,hard,uniform", "--dataset.path", dataset,
    ]
    return [
        ["gen-data", "--config", config],
        *(
            ["train", "--config", config, "--out", runs / algorithm, "--learner.algorithm", algorithm]
            for algorithm in algorithms
        ),
        [
            "train", "--config", config, "--out", work / "offline", "--scheme.kind", "uniform",
            "--scheme.mode", "offline", "--scheme.offline_episodes", "8",
            "--scheme.proposal_checkpoint", runs / "maml" / "checkpoints" / "best",
        ],
        comparison,
        [*comparison, "--force"],
        [
            "evaluate", "--checkpoint", runs / "proto_cosine" / "checkpoints" / "best", "--data", dataset,
            "--episodes", "4", *shape, "--out", work / "evaluation" / "result.json",
        ],
        [
            "analyze", "--checkpoint", runs / "proto_euclidean" / "checkpoints" / "best",
            "--data", dataset, "--out", work / "analysis", "--episodes", "12", *shape,
            "--normality", "--subsample-size", "4", "--repetitions", "2",
            "--qq", "--bins", "3",
            "--spearman", runs / "proto_cosine" / "checkpoints" / "best",
            "--extremes", runs / "anil", "--m", "2",
            "--dispersion", runs / "maml", runs / "anil",
        ],
    ]


def _drive(work: Path) -> None:
    """Run the commands in ``work`` and write their exit codes and the
    ``(file, first line)`` of each package function they entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    (work / "config.json").write_text(json.dumps(TINY_CONFIG))
    sys.setprofile(profile)
    from episampler import cli

    commands = _commands(work, cli.learners.ALGORITHMS)
    codes = [cli.main([str(a) for a in argv]) for argv in commands]
    sys.setprofile(None)
    pairs = sorted({
        (str(path), code.co_firstlineno)
        for code in entered
        if (path := Path(code.co_filename).resolve()).parent == PACKAGE
    })
    (work / "entered.json").write_text(json.dumps({"codes": codes, "entered": pairs}))


def _defs() -> dict:
    """Each ``def`` of the package: ``(file, first line)`` to its dotted
    name, ``module.Class.method`` or ``module.outer.<locals>.inner``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), f"{path.stem}.")
    return found


def test_every_function_is_entered_by_a_user_path(tmp_path):
    env = {
        **os.environ,
        "EPISAMPLER_OUTPUT_ROOT": str(tmp_path / "root"),
        "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]),
    }
    run = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "entered.json").read_text())
    assert report["codes"] == [0] * len(report["codes"]), run.stderr
    defs = _defs()
    entered = {tuple(pair) for pair in report["entered"]}
    unknown = sorted(set(ALLOWLIST) - set(defs.values()))
    assert not unknown, f"allowlisted, but no def: {unknown}"
    stale = sorted(name for key, name in defs.items() if key in entered and name in ALLOWLIST)
    assert not stale, f"allowlisted, yet a user path enters: {stale}"
    never = sorted(name for key, name in defs.items() if key not in entered and name not in ALLOWLIST)
    assert not never, f"no command-line path enters: {never}"


if __name__ == "__main__":
    _drive(Path(sys.argv[1]))
