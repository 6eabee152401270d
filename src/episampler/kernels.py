"""Hot numeric kernels, in numpy.

``pairwise_sqdist`` and ``softmax_xent`` back the ``sqdist`` and
``softmax_cross_entropy`` tape ops in ``autodiff``; ``adam_update`` backs
``training.adam_step``. Callers look each one up as a module attribute at
call time, so the benchmark's tracer can wrap exactly these three names.
``BACKEND`` names the implementation and is recorded with benchmark runs.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def pairwise_sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances between the rows of x and y."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross-entropy (m, 1) and the softmax probabilities (m, n)."""
    rowmax = logits.max(axis=1, keepdims=True)
    shifted = logits - rowmax
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    probs = e / z
    picked = shifted[np.arange(logits.shape[0]), labels][:, None]
    loss = np.log(z) - picked
    return loss, probs


def adam_update(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam step on flat arrays; returns (p, m, v)."""
    m2 = beta1 * m + (1.0 - beta1) * g
    v2 = beta2 * v + (1.0 - beta2) * g * g
    mhat = m2 / (1.0 - beta1**t)
    vhat = v2 / (1.0 - beta2**t)
    p2 = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p2, m2, v2
