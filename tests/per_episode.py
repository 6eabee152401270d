"""The per-episode MAML/ANIL inner loop, for tests.

Each episode adapts its own untiled copy of the parameters on a tape of
its own. The learner batches these inner loops on tiled fast weights;
tests compare the two.
"""

import numpy as np

from episampler import autodiff as ad
from episampler import learners


def gradient_logits(params: learners.LearnerParams, episode) -> ad.Tensor:
    """(n*q, n) query logits of a one-episode batch after its inner loop."""
    sup_x = ad.tensor(episode.support_x[0])
    encoder = list(params.encoder)
    head_w, head_b = params.head
    alpha = params.adaptation_rate
    with ad.enable_grad():
        for step in range(params.adaptation_steps):
            emb = learners._encode(encoder, sup_x)
            logits = ad.add(ad.matmul(emb, head_w), head_b)
            loss = ad.mean(ad.softmax_cross_entropy(logits, episode.support_labels))
            if not np.isfinite(loss.item()):
                raise learners.LearnerError(f"non-finite inner-loop loss at adaptation step {step}")
            if params.algorithm == "maml":
                targets = [t for pair in encoder for t in pair] + [head_w, head_b]
            else:
                targets = [head_w, head_b]
            grads = ad.grad(loss, targets, create_graph=True)
            updated = [ad.sub(t, ad.smul(alpha, g)) for t, g in zip(targets, grads)]
            if params.algorithm == "maml":
                encoder = [(updated[2 * i], updated[2 * i + 1]) for i in range(len(encoder))]
                head_w, head_b = updated[-2], updated[-1]
            else:
                head_w, head_b = updated
    emb_q = learners._encode(encoder, ad.tensor(episode.query_x[0]))
    return ad.add(ad.matmul(emb_q, head_w), head_b)


def episode_nlls(params: learners.LearnerParams, batch) -> list[ad.Tensor]:
    """Each episode's mean query NLL, one scalar graph tensor per episode."""
    return [
        ad.mean(ad.softmax_cross_entropy(gradient_logits(params, batch[i : i + 1]), batch.query_labels))
        for i in range(len(batch))
    ]
