"""The four episodic learners over a shared MLP encoder.

Every public function takes a non-empty ``data.EpisodeBatch`` and returns
one result per episode in batch order. All share one entry point,
``_episode_logits``: the batch's ``(B, n*q, n)`` query logits over each
episode's local labels. From it come ``episode_nll`` (each episode's mean
query negative log-likelihood, as a ``(B,)`` graph tensor),
``episode_log_likelihoods`` (a ``(B, n*q)`` tensor of each query's
log-likelihood of its true label) and ``episode_accuracy`` (a ``(B,)``
array). The batch's queries share one ``softmax_cross_entropy`` call. An
entry of ``episode_nll`` is the training loss of its episode and also its
difficulty, the paper's omega; every difficulty in the package is one. It
is never negative: each query loss is ``log(z) - picked``, where the row
maximum alone puts 1 into ``z`` and ``picked <= 0``.

* ``proto_euclidean`` - log-softmax over negative squared Euclidean
  distances between query embeddings and class prototypes (per-class mean
  support embeddings). The batch's supports and queries are encoded once
  each, as two stacked matrices; prototypes use batch-global labels, and
  one ``sqdist`` op on ``(B, ...)`` tensors takes every episode's
  distances as one batched matrix product, so the tape does not grow with
  the batch size.
* ``proto_cosine`` - negative cosine similarity in place of the distance,
  multiplied by a learnable scale.
* ``maml`` - all parameters adapted by ``adaptation_steps`` gradient
  descent steps on the support NLL. The parameters are tiled into
  ``(B, ...)`` fast weights, one copy per episode, so the batch adapts on
  one tape that does not grow with B. When the caller records, the
  adapted parameters stay connected to the originals, so the outer
  gradient is the full second-order one. Under ``autodiff.no_grad``
  (evaluation, difficulty scoring) nothing can differentiate the result,
  so each inner gradient is first order; the logits keep their bits.
* ``anil`` - same, but only the linear head is adapted: the batch's
  supports and queries are encoded once each, as for the ProtoNets, and
  only the head is tiled. Its graph too is second order only when the
  caller records.

A ProtoNet or ANIL encoder is the same for every episode, so under frozen
parameters a row's embedding depends on the row alone. ``encode_once`` turns
such a learner and a stack of rows into the learner without its encoder and
the rows' embeddings; fed embedded rows, that learner gives the logits the
full learner gives on the raw rows. It is the one way rows are encoded
ahead of the episodes, and it has two callers: ``embedded``, on every row
of a split (``training.evaluate`` draws from the result), and
``training.score_difficulties``, on the distinct rows a given batch
indexes, which it then points the batch at. MAML adapts its encoder per
episode and has no embedded form. An encoder-less learner has no layer
sizes and cannot be saved.

Checkpoint format: ``<stem>.json`` manifest (algorithm, layer sizes,
adaptation hyper-parameters) plus ``<stem>.csv`` with one ``value`` column
holding the flattened parameters in canonical order: per encoder layer the
weight matrix row-major then the bias, then head weight and bias (maml and
anil), then the cosine scale (proto_cosine). ``trainable_tensors`` lists
the tensors in that order and ``LearnerParams.with_tensors`` is its inverse.
Loading reads both files through ``files``, so a bad manifest field or CSV
line is reported with its file. It builds the manifest's learner with
``init_params`` as a template and fills it with the values, split to the
template's shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import files, streams
from .data import BaseDataset, EpisodeBatch

ALGORITHMS = ("proto_euclidean", "proto_cosine", "maml", "anil")
GRADIENT_ALGORITHMS = ("maml", "anil")
PROTO_ALGORITHMS = ("proto_euclidean", "proto_cosine")

DEFAULT_ADAPTATION_RATE = {"maml": 0.01, "anil": 0.1}
DEFAULT_COSINE_SCALE = 10.0

# Rows per encoder stack in encode_once, which bounds the activations held
# at a time. Past about 244 rows of the 64-wide layers OpenBLAS 0.3.31
# leaves its small-matrix path and a row costs about 30% more (the
# CHANGES.md line on stacks over 244 rows); the stack size does not change
# a row's bits.
ENCODE_STACK_ROWS = 200


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

    def with_tensors(self, tensors) -> "LearnerParams":
        """The same learner with ``tensors``, in the canonical order of
        ``trainable_tensors``, as its parameters."""
        tensors = list(tensors)
        expected = len(self.trainable_tensors())
        if len(tensors) != expected:
            raise LearnerError(f"{self.algorithm} learner has {expected} tensors, got {len(tensors)}")
        it = iter(tensors)
        return dataclasses.replace(
            self,
            encoder=[(next(it), next(it)) for _ in self.encoder],
            head=None if self.head is None else (next(it), next(it)),
            cosine_scale=None if self.cosine_scale is None else next(it),
        )

    @property
    def layer_sizes(self) -> list[int]:
        if not self.encoder:
            raise LearnerError(f"{self.algorithm} learner has no encoder: it reads embedded rows")
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


def _reciprocal_row_norms(x: ad.Tensor, count: int, what: str) -> ad.Tensor:
    sq = ad.mul(x, x)
    sums = ad.matmul(sq, _ones((x.shape[1], 1)))
    if np.any(sums.data <= 0.0):
        raise LearnerError(f"zero-norm {what} embedding: cosine direction undefined")
    # An overflowed norm would give its row a cosine of 0. A NaN one comes
    # from a NaN row and gives a NaN difficulty, which the caller rejects.
    huge = np.flatnonzero(sums.data == np.inf)
    if huge.size:
        episode = huge[0] * count // x.shape[0]
        raise LearnerError(f"{what} embedding in episode {episode} of the batch: its squared norm overflows")
    # 1/sqrt(s) = exp(-log(s)/2), differentiable on s > 0.
    return ad.exp(ad.smul(-0.5, ad.log(sums)))


def _proto_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    count, n, k, features = len(batch), batch.n, batch.k, batch.x.shape[1]
    emb_s = _encode(params.encoder, ad.tensor(batch.support_x.reshape(-1, features)))
    emb_q = _encode(params.encoder, ad.tensor(batch.query_x.reshape(-1, features)))
    # Batch-global labels: class j of episode i is prototype row i*n + j.
    labels = (batch.support_labels + n * np.arange(count)[:, None]).reshape(-1)
    protos = compute_prototypes(emb_s, labels, k)
    dim = protos.shape[1]
    queries = ad.reshape(emb_q, (count, -1, dim))
    centres = ad.reshape(protos, (count, n, dim))
    if params.algorithm == "proto_euclidean":
        return ad.smul(-1.0, ad.sqdist(queries, centres))
    dots = ad.matmul(queries, centres, tb=True)
    rq = ad.reshape(_reciprocal_row_norms(emb_q, count, "query"), (count, -1, 1))
    rp = ad.reshape(_reciprocal_row_norms(protos, count, "prototype"), (count, n, 1))
    cosines = ad.mul(dots, ad.matmul(rq, rp, tb=True))
    return ad.mul(params.cosine_scale, cosines)


def _encode_stacked(encoder, x: np.ndarray) -> ad.Tensor:
    """(B, m, d) inputs through the shared encoder as one (B*m, d) matrix,
    returned as (B, m, e) embeddings."""
    count, rows, dim = x.shape
    return ad.reshape(_encode(encoder, ad.tensor(x.reshape(count * rows, dim))), (count, rows, -1))


def _gradient_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """(B, n*q, n) query logits after each episode's inner loop.

    The weights to adapt are tiled to ``(B, ...)`` fast weights, one copy
    per episode, so the batch's inner loops are one tape. The inner loss is the
    sum of the episodes' mean support losses; no fast weight is shared
    between episodes, so its gradient is each episode's own gradient.

    Only a recording caller can differentiate the adapted weights, so only
    it gets the second-order graph. Otherwise each inner gradient is first
    order and records nothing; the softmax vjp has the same bits in both
    modes, so the logits do too.
    """
    count, n = len(batch), batch.n
    if params.head[0].shape[1] != n:
        raise LearnerError(f"head width {params.head[0].shape[1]} does not match episode way {n}")
    support, query = batch.support_x, batch.query_x
    labels = np.tile(batch.support_labels, count)
    maml = params.algorithm == "maml"
    if maml:
        support, query = ad.tensor(support), ad.tensor(query)
        slow = params.trainable_tensors()
    else:
        # ANIL adapts only the head. Encoding once, in the caller's
        # recording mode and before the head is tiled, keeps the encoder
        # forward out of every inner grad.
        support = _encode_stacked(params.encoder, support)
        query = _encode_stacked(params.encoder, query)
        slow = list(params.head)

    def forward(weights, x):
        if maml:
            fast = params.with_tensors(weights)
            return _affine(_encode(fast.encoder, x), *fast.head)
        return _affine(x, *weights)

    alpha = params.adaptation_rate
    second_order = ad.is_grad_enabled()
    # The inner loop differentiates the support loss, so recording must be
    # on even when the caller only wants values.
    with ad.enable_grad():
        weights = [ad.tile(t, count) for t in slow]
        for step in range(params.adaptation_steps):
            losses = ad.softmax_cross_entropy(ad.reshape(forward(weights, support), (-1, n)), labels)
            means = ad.mean(ad.reshape(losses, (count, -1)), rows=True)
            bad = np.flatnonzero(~np.isfinite(means.data))
            if bad.size:
                raise LearnerError(
                    f"non-finite inner-loop loss in episode {bad[0]} of the batch"
                    f" at adaptation step {step}"
                )
            grads = ad.grad(ad.sum(means), weights, create_graph=second_order)
            weights = [ad.sub(w, ad.smul(alpha, g)) for w, g in zip(weights, grads)]
    # The query pass records only if the caller does.
    return forward(weights, query)


def encode_once(params: LearnerParams, x: np.ndarray) -> tuple[LearnerParams, np.ndarray]:
    """``params`` without its encoder, and the rows of ``x`` through that
    encoder under ``no_grad``, as a read-only array.

    Only for a learner whose encoder no episode adapts (not MAML): fed the
    embedded rows, the encoder-less learner gives the logits the full
    learner gives on the raw rows. The rows go through in stacks of
    ``ENCODE_STACK_ROWS``. A row's embedding has the same bits in any stack
    of two rows or more, but numpy multiplies a one-row stack by another
    routine, so a lone last row joins the stack before it.
    """
    bounds = list(range(0, len(x), ENCODE_STACK_ROWS)) + [len(x)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty((len(x), params.encoder[-1][0].shape[1]))
    with ad.no_grad():
        for start, stop in zip(bounds, bounds[1:]):
            out[start:stop] = _encode(params.encoder, ad.tensor(x[start:stop])).data
    out.setflags(write=False)
    return dataclasses.replace(params, encoder=[]), out


def embedded(params: LearnerParams, dataset: BaseDataset) -> tuple[LearnerParams, BaseDataset]:
    """The learner and split to draw episodes from when no episode adapts
    the encoder: ``encode_once`` of ``params`` and every row of ``dataset``.

    The episode draw reads only class ids and counts, so a stream yields
    the same episodes from either split, embedded rows in place of feature
    rows. MAML adapts its encoder per episode; it gets both back unchanged.
    """
    if params.algorithm == "maml":
        return params, dataset
    params, x = encode_once(params, dataset.x)
    return params, dataclasses.replace(dataset, x=x)


def _episode_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """(B, n*q, n) query logits; column j scores local label j."""
    if not len(batch):
        raise LearnerError("empty episode batch")
    if params.algorithm in PROTO_ALGORITHMS:
        return _proto_logits(params, batch)
    return _gradient_logits(params, batch)


def _query_losses(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """(B, n*q) cross-entropy of each query against its true label."""
    logits = _episode_logits(params, batch)
    count, rows, n = logits.shape
    labels = np.tile(batch.query_labels, count)
    losses = ad.softmax_cross_entropy(ad.reshape(logits, (count * rows, n)), labels)
    return ad.reshape(losses, (count, rows))


def episode_log_likelihoods(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """Per-query log-likelihood of the true label, as a (B, n*q) tensor."""
    return ad.smul(-1.0, _query_losses(params, batch))


def episode_nll(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """Each episode's mean query negative log-likelihood, as a (B,) graph
    tensor.

    An entry's value is that episode's difficulty; it is also the
    per-episode loss the trainer weights and aggregates.
    """
    return ad.mean(_query_losses(params, batch), rows=True)


def episode_accuracy(params: LearnerParams, batch: EpisodeBatch) -> np.ndarray:
    """Per episode, the fraction of query points whose argmax class matches
    the label; ties break toward the lowest class id (argmax convention)."""
    pred = np.argmax(_episode_logits(params, batch).data, axis=2)
    return np.mean(pred == batch.query_labels, axis=1)


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
    files.write_json(stem.with_suffix(".json"), manifest)
    lines = ["value"]
    for t in params.trainable_tensors():
        lines.extend(map(repr, t.data.reshape(-1).tolist()))
    files.write_text(stem.with_suffix(".csv"), "\n".join(lines) + "\n")


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


# Each manifest field and the values it may hold.
_MANIFEST_FIELDS = {
    "algorithm": lambda v: v in ALGORITHMS,
    "layer_sizes": lambda v: isinstance(v, list) and len(v) >= 2 and all(map(_positive_int, v)),
    "way": lambda v: v is None or _positive_int(v),
    "adaptation_rate": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0,
    "adaptation_steps": _positive_int,
    "has_cosine_scale": lambda v: isinstance(v, bool),
}


def load_checkpoint(stem) -> LearnerParams:
    stem = Path(stem)
    manifest = files.read_manifest(stem.with_suffix(".json"), _MANIFEST_FIELDS, LearnerError)
    csv_path = stem.with_suffix(".csv")
    values = files.read_table(csv_path, "value", LearnerError)[0].reshape(-1)
    algorithm, way, sizes = manifest["algorithm"], manifest["way"], manifest["layer_sizes"]
    scaled = manifest["has_cosine_scale"]
    if (way is None) == (algorithm in GRADIENT_ALGORITHMS) or scaled != (algorithm == "proto_cosine"):
        raise LearnerError(
            f"checkpoint manifest {stem.with_suffix('.json')} way {way} and has_cosine_scale"
            f" {scaled} do not fit algorithm {algorithm!r}"
        )
    template = init_params(
        algorithm, sizes[0], way, hidden_sizes=sizes[1:-1], embedding_dim=sizes[-1],
        adaptation_rate=manifest["adaptation_rate"], adaptation_steps=manifest["adaptation_steps"],
    )
    slots = template.trainable_tensors()
    counts = [t.size for t in slots]
    if values.size != sum(counts):
        raise LearnerError(
            f"checkpoint CSV {csv_path} has {values.size} values, its manifest needs {sum(counts)}"
        )
    chunks = np.split(values, np.cumsum(counts)[:-1])
    return template.with_tensors(
        ad.tensor(chunk.reshape(t.shape), requires_grad=True) for chunk, t in zip(chunks, slots)
    )


def clone_params(params: LearnerParams) -> LearnerParams:
    """Deep copy with fresh leaf tensors (used for checkpoint snapshots)."""
    return params.with_tensors(
        ad.tensor(t.data.copy(), requires_grad=True) for t in params.trainable_tensors()
    )
