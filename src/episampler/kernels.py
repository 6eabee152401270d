"""Hot numeric kernels, in numpy.

``pairwise_sqdist`` and ``softmax_xent`` back the ``sqdist`` and
``softmax_cross_entropy`` tape ops in ``autodiff``, one kernel call per op
and the whole ``(B, ...)`` batch in it; ``adam_update`` backs
``training.adam_step``. Callers look each one up as a module attribute at
call time, so the benchmark's tracer can wrap exactly these three names.
``BACKEND`` names the implementation and is recorded with benchmark runs.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def pairwise_sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(..., m, n) squared Euclidean distances between the rows of x
    (..., m, d) and y (..., n, d), for each leading index at once.

    Computed as ``max(|x_i|^2 + |y_j|^2 - 2 x_i.y_j, 0)``: the norms by
    ``einsum``, the cross term by one (batched) matrix product. The terms
    cancel where two rows are close, so an entry's rounding error scales
    with the rows' norms, not with the distance: with d features it stays
    within ``4 * (d + 2) * eps * (|x_i|^2 + |y_j|^2)`` of the difference
    formula ``sum((x_i - y_j)**2)``, and the clamp keeps it non-negative.
    """
    norms_x = np.einsum("...md,...md->...m", x, x)
    norms_y = np.einsum("...nd,...nd->...n", y, y)
    out = norms_x[..., :, None] + norms_y[..., None, :] - 2.0 * (x @ y.swapaxes(-1, -2))
    return np.maximum(out, 0.0, out=out)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross-entropy (m, 1) and ``e = exp(logits - rowmax)`` (m, n),
    the unnormalized softmax: ``e / e.sum(axis=1, keepdims=True)`` gives the
    probabilities, and the ``softmax_cross_entropy`` vjp reuses ``e``.
    A row holding inf or NaN gives a NaN loss."""
    rowmax = logits.max(axis=1, keepdims=True)
    shifted = logits - rowmax
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(logits.shape[0]), labels][:, None]
    loss = np.log(z) - picked
    return loss, e


def adam_update(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam step, elementwise on same-shape arrays; returns (p, m, v)."""
    m2 = beta1 * m + (1.0 - beta1) * g
    v2 = beta2 * v + (1.0 - beta2) * g * g
    mhat = m2 / (1.0 - beta1**t)
    vhat = v2 / (1.0 - beta2**t)
    p2 = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p2, m2, v2
