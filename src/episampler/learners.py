"""The four episodic learners over a shared MLP encoder.

Every public function takes a batch: a non-empty sequence of episodes
that share ``n``, ``k`` and ``q``, and returns one result per episode in
batch order. All share one entry point, ``_episode_logits``: the batch's
``(B, n*q, n)`` query logits over each episode's local labels. From it come
``episode_log_likelihoods`` (a ``(B, n*q)`` tensor of each query's
log-likelihood of its true label; ``episode_difficulty`` turns one row into
that episode's difficulty, the mean query negative log-likelihood),
``episode_nll`` (the same means as a ``(B,)`` graph tensor, the training
loss) and ``episode_accuracy`` (a ``(B,)`` array). The batch's queries
share one ``softmax_cross_entropy`` call.

* ``proto_euclidean`` - log-softmax over negative squared Euclidean
  distances between query embeddings and class prototypes (per-class mean
  support embeddings). The batch's supports and queries are encoded once
  each, as two stacked matrices; prototypes use batch-global labels and
  distances are taken episode by episode on ``(B, ...)`` tensors, so the
  tape does not grow with the batch size.
* ``proto_cosine`` - negative cosine similarity in place of the distance,
  multiplied by a learnable scale.
* ``maml`` - all parameters adapted by ``adaptation_steps`` gradient
  descent steps on the support NLL; the adapted parameters stay connected
  to the originals so the outer gradient is the full second-order one.
  Each episode adapts on its own; the batch's query logits are stacked.
* ``anil`` - same, but only the linear head is adapted.

Checkpoint format: ``<stem>.json`` manifest (algorithm, layer sizes,
adaptation hyper-parameters) plus ``<stem>.csv`` with one ``value`` column
holding the flattened parameters in canonical order: per encoder layer the
weight matrix row-major then the bias, then head weight and bias (maml and
anil), then the cosine scale (proto_cosine).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import streams
from .data import Episode

ALGORITHMS = ("proto_euclidean", "proto_cosine", "maml", "anil")
GRADIENT_ALGORITHMS = ("maml", "anil")
PROTO_ALGORITHMS = ("proto_euclidean", "proto_cosine")

DEFAULT_ADAPTATION_RATE = {"maml": 0.01, "anil": 0.1}
DEFAULT_COSINE_SCALE = 10.0


class LearnerError(Exception):
    pass


@dataclass
class LearnerParams:
    """Model parameters plus the algorithm kind and adaptation settings."""

    algorithm: str
    encoder: list[tuple[ad.Tensor, ad.Tensor]]
    head: tuple[ad.Tensor, ad.Tensor] | None = None
    cosine_scale: ad.Tensor | None = None
    adaptation_rate: float = 0.01
    adaptation_steps: int = 5

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise LearnerError(f"unknown algorithm {self.algorithm!r}")
        if (self.head is not None) != (self.algorithm in GRADIENT_ALGORITHMS):
            raise LearnerError("head must be present exactly for maml/anil")
        if (self.cosine_scale is not None) != (self.algorithm == "proto_cosine"):
            raise LearnerError("cosine_scale must be present exactly for proto_cosine")
        if self.adaptation_rate < 0:
            raise LearnerError("adaptation_rate must be non-negative")
        if self.adaptation_steps < 1:
            raise LearnerError("adaptation_steps must be at least 1")

    def trainable_tensors(self) -> list[ad.Tensor]:
        """All parameters in the canonical (checkpoint) order."""
        out: list[ad.Tensor] = []
        for w, b in self.encoder:
            out.extend((w, b))
        if self.head is not None:
            out.extend(self.head)
        if self.cosine_scale is not None:
            out.append(self.cosine_scale)
        return out

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.encoder[0][0].shape[0]]
        sizes.extend(w.shape[1] for w, _ in self.encoder)
        return sizes

    @property
    def way(self) -> int | None:
        return None if self.head is None else self.head[0].shape[1]


def init_params(
    algorithm: str,
    feature_dim: int,
    way: int,
    hidden_sizes=(64, 64),
    embedding_dim: int = 64,
    seed: int = 0,
    adaptation_rate: float | None = None,
    adaptation_steps: int = 5,
    cosine_scale: float = DEFAULT_COSINE_SCALE,
) -> LearnerParams:
    """He-initialized encoder; head and cosine scale start at zero logits."""
    if algorithm not in ALGORITHMS:
        raise LearnerError(f"unknown algorithm {algorithm!r}")
    rng = streams.stream(seed, streams.INIT)
    sizes = [feature_dim, *hidden_sizes, embedding_dim]
    encoder = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        encoder.append(
            (ad.tensor(w, requires_grad=True), ad.tensor(np.zeros((1, fan_out)), requires_grad=True))
        )
    head = None
    scale = None
    if algorithm in GRADIENT_ALGORITHMS:
        head = (
            ad.tensor(np.zeros((embedding_dim, way)), requires_grad=True),
            ad.tensor(np.zeros((1, way)), requires_grad=True),
        )
    if algorithm == "proto_cosine":
        scale = ad.tensor(float(cosine_scale), requires_grad=True)
    if adaptation_rate is None:
        adaptation_rate = DEFAULT_ADAPTATION_RATE.get(algorithm, 0.01)
    return LearnerParams(
        algorithm=algorithm,
        encoder=encoder,
        head=head,
        cosine_scale=scale,
        adaptation_rate=adaptation_rate,
        adaptation_steps=adaptation_steps,
    )


def _ones(shape) -> ad.Tensor:
    return ad.tensor(np.ones(shape))


def _affine(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(x, w), b)


def _encode(encoder, x: ad.Tensor) -> ad.Tensor:
    h = x
    last = len(encoder) - 1
    for i, (w, b) in enumerate(encoder):
        h = _affine(h, w, b)
        if i < last:
            h = ad.relu(h)
    return h


def compute_prototypes(embeddings: ad.Tensor, labels: np.ndarray, k: int) -> ad.Tensor:
    """Per-class mean support embeddings, rows ordered by class label.

    ``labels`` are local labels in [0, n); every class must appear exactly
    ``k`` times.
    """
    labels = np.asarray(labels)
    n = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n)
    if not np.all(counts == k):
        bad = int(np.argmax(counts != k))
        raise LearnerError(f"class {bad} has {counts[bad]} support samples, expected {k}")
    m = labels.shape[0]
    averaging = np.zeros((n, m))
    averaging[labels, np.arange(m)] = 1.0 / k
    return ad.matmul(ad.tensor(averaging), embeddings)


def _reciprocal_row_norms(x: ad.Tensor, what: str) -> ad.Tensor:
    sq = ad.mul(x, x)
    sums = ad.matmul(sq, _ones((x.shape[1], 1)))
    if np.any(sums.data <= 0.0):
        raise LearnerError(f"zero-norm {what} embedding: cosine direction undefined")
    # 1/sqrt(s) = exp(-log(s)/2), differentiable on s > 0.
    return ad.exp(ad.smul(-0.5, ad.log(sums)))


def _proto_logits(params: LearnerParams, episodes: Sequence[Episode]) -> ad.Tensor:
    count, n, k = len(episodes), episodes[0].n, episodes[0].k
    emb_s = _encode(params.encoder, ad.tensor(np.concatenate([ep.support_x for ep in episodes])))
    emb_q = _encode(params.encoder, ad.tensor(np.concatenate([ep.query_x for ep in episodes])))
    # Batch-global labels: class j of episode i is prototype row i*n + j.
    labels = np.concatenate([ep.support_labels + i * n for i, ep in enumerate(episodes)])
    protos = compute_prototypes(emb_s, labels, k)
    dim = protos.shape[1]
    queries = ad.reshape(emb_q, (count, -1, dim))
    centres = ad.reshape(protos, (count, n, dim))
    if params.algorithm == "proto_euclidean":
        return ad.smul(-1.0, ad.sqdist(queries, centres))
    dots = ad.matmul(queries, centres, tb=True)
    rq = ad.reshape(_reciprocal_row_norms(emb_q, "query"), (count, -1, 1))
    rp = ad.reshape(_reciprocal_row_norms(protos, "prototype"), (count, n, 1))
    cosines = ad.mul(dots, ad.matmul(rq, rp, tb=True))
    return ad.mul(params.cosine_scale, cosines)


def _gradient_logits(params: LearnerParams, episode: Episode) -> ad.Tensor:
    if params.head[0].shape[1] != episode.n:
        raise LearnerError(
            f"head width {params.head[0].shape[1]} does not match episode way {episode.n}"
        )
    sup_x = ad.tensor(episode.support_x)
    encoder = list(params.encoder)
    head_w, head_b = params.head
    alpha = params.adaptation_rate
    # The inner loop differentiates the support loss, so recording must be
    # on even when the caller only wants values.
    with ad.enable_grad():
        for step in range(params.adaptation_steps):
            emb = _encode(encoder, sup_x)
            logits = _affine(emb, head_w, head_b)
            loss = ad.mean(ad.softmax_cross_entropy(logits, episode.support_labels))
            if not np.isfinite(loss.item()):
                raise LearnerError(f"non-finite inner-loop loss at adaptation step {step}")
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
    # The query pass records only if the caller does, so a scoring call
    # drops the inner-loop graph as soon as the episode is done.
    emb_q = _encode(encoder, ad.tensor(episode.query_x))
    return _affine(emb_q, head_w, head_b)


def _episode_logits(params: LearnerParams, episodes: Sequence[Episode]) -> ad.Tensor:
    """(B, n*q, n) query logits; column j scores local label j."""
    if not episodes:
        raise LearnerError("empty episode batch")
    shape = (episodes[0].n, episodes[0].k, episodes[0].q)
    for ep in episodes:
        if (ep.n, ep.k, ep.q) != shape:
            raise LearnerError(f"episode shape {(ep.n, ep.k, ep.q)} differs from the batch's {shape}")
    if params.algorithm in PROTO_ALGORITHMS:
        return _proto_logits(params, episodes)
    return ad.stack([_gradient_logits(params, ep) for ep in episodes])


def _query_losses(params: LearnerParams, episodes: Sequence[Episode]) -> ad.Tensor:
    """(B, n*q) cross-entropy of each query against its true label."""
    logits = _episode_logits(params, episodes)
    count, rows, n = logits.shape
    labels = np.concatenate([ep.query_labels for ep in episodes])
    losses = ad.softmax_cross_entropy(ad.reshape(logits, (count * rows, n)), labels)
    return ad.reshape(losses, (count, rows))


def episode_log_likelihoods(params: LearnerParams, episodes: Sequence[Episode]) -> ad.Tensor:
    """Per-query log-likelihood of the true label, as a (B, n*q) tensor."""
    return ad.smul(-1.0, _query_losses(params, episodes))


def episode_nll(params: LearnerParams, episodes: Sequence[Episode]) -> ad.Tensor:
    """Each episode's mean query negative log-likelihood, as a (B,) graph
    tensor.

    An entry's value is that episode's difficulty; it is also the
    per-episode loss the trainer weights and aggregates.
    """
    return ad.mean(_query_losses(params, episodes), rows=True)


def episode_difficulty(log_likelihoods) -> float:
    """Difficulty = mean negative log-likelihood over the query set."""
    values = log_likelihoods.data if isinstance(log_likelihoods, ad.Tensor) else np.asarray(log_likelihoods)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise LearnerError("episode_difficulty: empty log-likelihood vector")
    if not np.all(np.isfinite(values)):
        raise LearnerError("episode_difficulty: non-finite log-likelihood")
    if np.any(values > 1e-9):
        raise LearnerError("episode_difficulty: positive log-likelihood")
    # Each value is <= 0 up to rounding, so clamp tiny negative means to 0.
    return max(float(-values.mean()), 0.0)


def episode_accuracy(params: LearnerParams, episodes: Sequence[Episode]) -> np.ndarray:
    """Per episode, the fraction of query points whose argmax class matches
    the label; ties break toward the lowest class id (argmax convention)."""
    pred = np.argmax(_episode_logits(params, episodes).data, axis=2)
    return np.mean(pred == np.stack([ep.query_labels for ep in episodes]), axis=1)


def save_checkpoint(params: LearnerParams, stem) -> None:
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "algorithm": params.algorithm,
        "layer_sizes": params.layer_sizes,
        "way": params.way,
        "adaptation_rate": params.adaptation_rate,
        "adaptation_steps": params.adaptation_steps,
        "has_cosine_scale": params.cosine_scale is not None,
    }
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = ["value"]
    for t in params.trainable_tensors():
        lines.extend(repr(float(v)) for v in t.data.reshape(-1))
    stem.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def load_checkpoint(stem) -> LearnerParams:
    stem = Path(stem)
    manifest = json.loads(stem.with_suffix(".json").read_text())
    with open(stem.with_suffix(".csv")) as fh:
        header = fh.readline().strip()
        if header != "value":
            raise LearnerError(f"unexpected checkpoint CSV header {header!r}")
        values = np.array([float(line) for line in fh if line.strip()], dtype=np.float64)
    sizes = manifest["layer_sizes"]
    cursor = 0

    def take(shape) -> ad.Tensor:
        nonlocal cursor
        count = int(np.prod(shape))
        chunk = values[cursor : cursor + count]
        if chunk.size != count:
            raise LearnerError("checkpoint CSV has too few values")
        cursor += count
        return ad.tensor(chunk.reshape(shape), requires_grad=True)

    encoder = [
        (take((fan_in, fan_out)), take((1, fan_out)))
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ]
    head = None
    if manifest["way"] is not None:
        head = (take((sizes[-1], manifest["way"])), take((1, manifest["way"])))
    scale = take(()) if manifest["has_cosine_scale"] else None
    if cursor != values.size:
        raise LearnerError("checkpoint CSV has extra values")
    return LearnerParams(
        algorithm=manifest["algorithm"],
        encoder=encoder,
        head=head,
        cosine_scale=scale,
        adaptation_rate=manifest["adaptation_rate"],
        adaptation_steps=manifest["adaptation_steps"],
    )


def clone_params(params: LearnerParams) -> LearnerParams:
    """Deep copy with fresh leaf tensors (used for checkpoint snapshots)."""
    encoder = [
        (ad.tensor(w.data.copy(), requires_grad=True), ad.tensor(b.data.copy(), requires_grad=True))
        for w, b in params.encoder
    ]
    head = None
    if params.head is not None:
        head = (
            ad.tensor(params.head[0].data.copy(), requires_grad=True),
            ad.tensor(params.head[1].data.copy(), requires_grad=True),
        )
    scale = None
    if params.cosine_scale is not None:
        scale = ad.tensor(params.cosine_scale.data.copy(), requires_grad=True)
    return LearnerParams(
        algorithm=params.algorithm,
        encoder=encoder,
        head=head,
        cosine_scale=scale,
        adaptation_rate=params.adaptation_rate,
        adaptation_steps=params.adaptation_steps,
    )
