"""The seed-1 perfbench digests, tiny and full size, that ROADMAP.md's
digest table quotes.

A change that moves any bit of a workload's artifacts fails here, so it
must change a literal below, and say why, as ROADMAP.md's digest rule
asks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# The first 16 hex digits of each workload's artifact digest, seed 1, tiny
# size, one BLAS thread.
TINY_DIGESTS = {
    "proto_train": "c2cdefa14a2fe0b2",
    "maml_train": "f0be62e098b1a7c5",
    "cosine_score_5shot": "bfe245fbb50742bc",
}

# The same at full size, the size the benchmark measures. Only it encodes
# more than one ENCODE_STACK_ROWS stack in an evaluation.
FULL_DIGESTS = {
    "proto_train": "754d27ef760af923",
    "maml_train": "4dbe858cb3b65c33",
    "cosine_score_5shot": "03c6e41d78bbf7fd",
}

# One thread for every BLAS and OpenMP pool, as perfbench/run.py pins them.
ONE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def _digests(workload, size, out):
    """The 16-digit digests of every pass of ``workload`` at ``size``."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "perfbench" / "workload.py"), "--workload", workload,
            "--size", size, "--seed", "1", "--seconds", "0", "--trace", "0", "--out", str(out),
        ],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    passes = json.loads(proc.stdout.strip().splitlines()[-1])["passes"]
    assert not any(p["failures"] for p in passes)
    return {p["digest"][:16] for p in passes}


@pytest.mark.parametrize("workload", sorted(TINY_DIGESTS))
def test_tiny_digest(workload, tmp_path):
    assert _digests(workload, "tiny", tmp_path) == {TINY_DIGESTS[workload]}


@pytest.mark.parametrize("workload", sorted(FULL_DIGESTS))
def test_full_digest(workload, tmp_path):
    assert _digests(workload, "full", tmp_path) == {FULL_DIGESTS[workload]}
