"""The per-episode MAML/ANIL inner loop, for tests.

Each episode adapts its own untiled copy of the parameters on a tape of
its own. The learner batches these inner loops on tiled fast weights;
tests compare the two.
"""

import numpy as np

from episampler import autodiff as ad
from episampler import learners


def _mean(col: ad.Tensor) -> ad.Tensor:
    """The mean of a column of losses, as a scalar graph tensor."""
    return ad.smul(1.0 / col.size, ad.sum(col))


def gradient_logits(params: learners.LearnerParams, episode) -> ad.Tensor:
    """(n*q, n) query logits of a one-episode batch after its inner loop."""
    sup_x = ad.tensor(episode.support_x[0])
    # The flat encoder and head lists; MAML adapts both, ANIL the head.
    encoder, head = params.encoder, params.head
    alpha = params.adaptation_rate
    with ad.enable_grad():
        for step in range(params.adaptation_steps):
            emb = learners._encode(encoder, sup_x)
            logits = ad.add(ad.matmul(emb, head[0]), head[1])
            loss = _mean(ad.softmax_cross_entropy(logits, episode.support_labels))
            if not np.isfinite(loss.item()):
                raise learners.LearnerError(f"non-finite inner-loop loss at adaptation step {step}")
            targets = encoder + head if params.algorithm == "maml" else head
            grads = ad.grad(loss, targets, create_graph=True)
            updated = [ad.sub(t, ad.smul(alpha, g)) for t, g in zip(targets, grads)]
            if params.algorithm == "maml":
                encoder = updated[: len(encoder)]
            head = updated[-2:]
    emb_q = learners._encode(encoder, ad.tensor(episode.query_x[0]))
    return ad.add(ad.matmul(emb_q, head[0]), head[1])


def episode_nlls(params: learners.LearnerParams, batch) -> list[ad.Tensor]:
    """Each episode's mean query NLL, one scalar graph tensor per episode."""
    return [
        _mean(ad.softmax_cross_entropy(gradient_logits(params, batch[i : i + 1]), batch.query_labels))
        for i in range(len(batch))
    ]
