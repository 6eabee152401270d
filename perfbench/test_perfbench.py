"""Tests of the benchmark's own code: span arithmetic, the tape counter,
the iteration-gap percentile, and a tiny run of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestSelfTime:
    def test_nested_tree(self):
        t = tracing.Tracer()
        root = t.record("root", 0.0, 10.0)
        a = t.record("a", 1.0, 4.0, root)
        t.record("leaf", 2.0, 3.0, a)
        t.record("b", 5.0, 6.0, root)
        t.record("b", 6.5, 7.0, root)
        selfs = tracing.self_times(t)
        assert selfs == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 1.0, 1.0, 0.5])
        agg = tracing.totals(t)
        assert agg["b"] == {"calls": 2, "total": pytest.approx(1.5), "self": pytest.approx(1.5)}
        assert agg["root"]["total"] == pytest.approx(10.0)

    def test_overlapping_children_are_covered_once(self):
        t = tracing.Tracer()
        root = t.record("root", 0.0, 10.0)
        t.record("x", 2.0, 6.0, root)
        t.record("y", 5.0, 8.0, root)
        t.record("z", 9.0, 12.0, root)  # clipped to the parent's end
        assert tracing.self_times(t)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_wrappers_record_parents_and_restore(self):
        class Mod:
            @staticmethod
            def outer(n):
                return Mod.inner(n) + 1

            @staticmethod
            def inner(n):
                return 2 * n

        original = Mod.inner
        t = tracing.Tracer()
        targets = [(Mod, "outer", "mod.outer"), (Mod, "inner", "mod.inner")]
        with tracing.patched(targets, t.wrap):
            assert Mod.outer(3) == 7
        assert Mod.inner is original
        assert t.names == ["mod.outer", "mod.inner"]
        assert t.parents == [tracing.NO_PARENT, 0]
        assert t.starts[0] <= t.starts[1] <= t.ends[1] <= t.ends[0]

    def test_span_name_from_arguments(self):
        t = tracing.Tracer()
        f = t.wrap(lambda args, kwargs: "deep" if kwargs.get("deep") else "flat", lambda deep=False: deep)
        f()
        f(deep=True)
        assert t.names == ["flat", "deep"]


class TestTapeCount:
    def test_hand_built_graph(self):
        np = pytest.importorskip("numpy")
        ad = pytest.importorskip("episampler.autodiff")
        x = ad.tensor(np.ones((2, 3)), requires_grad=True)
        w = ad.tensor(np.ones((3, 4)), requires_grad=True)
        h = ad.matmul(x, w)  # 1 matmul
        r = ad.relu(h)  # 1 relu
        y = ad.add(r, r)  # shared input: r counted once
        z = ad.matmul(y, ad.tensor(np.ones((4, 1))))  # constant operand: no node of its own
        loss = ad.sum(ad.smul(2.0, z))
        assert tracing.count_tape(loss) == {"sum": 1, "smul": 1, "matmul": 2, "add": 1, "relu": 1}

    def test_leaf_has_no_nodes(self):
        ad = pytest.importorskip("episampler.autodiff")
        assert tracing.count_tape(ad.tensor(1.0, requires_grad=True)) == {}


class TestIterationPercentile:
    def test_tail_needs_ten_samples_beyond(self):
        assert tracing.tail_percentile(9) is None
        assert tracing.tail_percentile(19) is None
        assert tracing.tail_percentile(20) == 50.0
        assert tracing.tail_percentile(100) == 90.0
        assert tracing.tail_percentile(199) == 90.0
        assert tracing.tail_percentile(200) == 95.0
        assert tracing.tail_percentile(1000) == 99.0
        assert tracing.tail_percentile(10000) == 99.9

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert tracing.percentile(values, 50.0) == 50
        assert tracing.percentile(values, 90.0) == 90
        assert tracing.percentile([7.0], 99.0) == 7.0

    def test_gaps(self):
        assert tracing.gaps([1.0, 1.5, 3.0]) == pytest.approx([0.5, 1.5])
        assert tracing.gaps([1.0]) == []


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload):
    results = {}
    for trace in (0, 1):
        proc = _run(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
            HERE.parent,
        )
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        assert results[trace]["correct"] is True
        assert results[trace]["failed"] == 0 and results[trace]["attempted"] >= 1
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = results[trace]["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in SPEC[kind])
        for m in SPEC[kind]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert results[0]["metrics"][m["name"]]["value"] > 0


def test_counts_repeat_exactly():
    runs = [
        _run(["--workload", "proto_train", "--seed", "5", "--seconds", "0", "--trace", "1", "--size", "tiny"], HERE.parent)
        for _ in range(2)
    ]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({
            k: v["value"] for k, v in metrics.items()
            if k.startswith(("autodiff.tape", "autodiff.nodes", "sampling.")) and not k.endswith(".us")
            or k.endswith(".calls")
        })
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.tape_nodes"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "proto_train", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
