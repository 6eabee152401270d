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
  each, as two stacked matrices. One ``(n, n*k)`` averaging matrix, built
  from the labels every episode shares and broadcast over the batch,
  multiplies each episode's supports, so the prototypes cost linear time
  in B. One ``sqdist`` op on ``(B, ...)`` tensors takes every episode's
  distances as one batched matrix product, so the tape does not grow with
  the batch size.
* ``proto_cosine`` - negative cosine similarity in place of the distance,
  multiplied by a learnable scale.
* ``maml`` - all parameters adapted by ``adaptation_steps`` gradient
  descent steps on the support NLL. The parameters are tiled into
  ``(B, ...)`` fast weights, one copy per episode, so the batch adapts on
  one tape that does not grow with B. Each inner gradient is taken at
  the layers' pre-activations and biases, and each weight takes one fused
  ``autodiff.sgd_step`` from its layer's input and pre-activation
  gradient: one array per step and layer, with the bits of a step on the
  weight gradient. When the caller records, the adapted parameters stay
  connected to the originals, so the outer gradient is the full
  second-order one. Under ``autodiff.no_grad`` (evaluation, difficulty
  scoring) nothing can differentiate the result, so the same code runs
  first order; the logits keep their bits.
* ``anil`` - same, but only the linear head is adapted: the batch's
  supports and queries are encoded once each, as for the ProtoNets, and
  only the head is tiled and stepped. Its graph too is second order only
  when the caller records.

Every forward runs one layer loop, ``_layers``, over a flat ``w0, b0, w1,
b1, ...`` list, the layout the parameters are held in: the encoder (a ReLU
after every layer but the last), and MAML's and ANIL's adapted layers,
whose inputs and pre-activations it also returns for the fused step. A
layer is one ``autodiff.affine`` record, so the tape holds one array per
layer's pre-activation, and the tiled fast weights are views of the slow
ones, not copies.

A ProtoNet or ANIL encoder is the same for every episode, so under frozen
parameters a row's embedding depends on the row alone. ``encoded``, the
one path that encodes rows ahead of the episodes, encodes each distinct
row a batch indexes once and points the batch at the embeddings; the
learner without its encoder gives the logits the full learner gives on
the raw rows (a 1-way episode's may round differently, but its accuracy
is 1 and its difficulty 0). MAML adapts its encoder per episode and gets
no embedded form. An encoder-less learner has no layer sizes and cannot
be saved.

Checkpoint format: ``<stem>.json`` manifest (algorithm, layer sizes,
adaptation hyper-parameters) plus ``<stem>.csv`` with one ``value`` column
holding the flattened parameters in canonical order, ``trainable_tensors``:
the encoder list (each weight row-major, then its bias), then head weight
and bias (maml and anil), then the cosine scale (proto_cosine).
``LearnerParams.with_tensors`` is its inverse.
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
from .data import EpisodeBatch

ALGORITHMS = ("proto_euclidean", "proto_cosine", "maml", "anil")
GRADIENT_ALGORITHMS = ("maml", "anil")
PROTO_ALGORITHMS = ("proto_euclidean", "proto_cosine")

DEFAULT_ADAPTATION_RATE = {"maml": 0.01, "anil": 0.1}
DEFAULT_COSINE_SCALE = 10.0

# Rows per encoder stack in encoded, which bounds the activations held
# at a time. Past about 244 rows of the 64-wide layers OpenBLAS 0.3.31
# leaves its small-matrix path and a row costs about 30% more (the
# CHANGES.md line on stacks over 244 rows); the stack size does not change
# a row's bits.
ENCODE_STACK_ROWS = 200


class LearnerError(Exception):
    """A learner failure. One about a single episode of the batch names it
    by its index, ``episode``; ``template`` is then the message with
    ``{episode}`` in place of that index."""

    def __init__(self, template: str, episode: int | None = None):
        super().__init__(template if episode is None else template.format(episode=episode))
        self.template = template
        self.episode = episode

    def offset(self, start: int) -> "LearnerError":
        """The same error with the episode counted in a batch of which this
        batch starts at index ``start``."""
        return LearnerError(self.template, self.episode + start)


@dataclass
class LearnerParams:
    """Model parameters plus the algorithm kind and adaptation settings:
    ``encoder`` is the flat ``w0, b0, w1, b1, ...`` list of its layers and
    ``head`` MAML's and ANIL's ``[weight, bias]``, as ``_layers`` runs them."""

    algorithm: str
    encoder: list[ad.Tensor]
    head: list[ad.Tensor] | None = None
    cosine_scale: ad.Tensor | None = None
    adaptation_rate: float = 0.01
    adaptation_steps: int = 5

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise LearnerError(f"unknown algorithm {self.algorithm!r}")
        if len(self.encoder) % 2:
            raise LearnerError(f"encoder has {len(self.encoder)} tensors: a weight and a bias per layer")
        if self.head is not None and len(self.head) != 2:
            raise LearnerError(f"head has {len(self.head)} tensors, not a weight and a bias")
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
        scale = [] if self.cosine_scale is None else [self.cosine_scale]
        return [*self.encoder, *(self.head or []), *scale]

    def with_tensors(self, tensors) -> "LearnerParams":
        """The same learner with ``tensors``, in the canonical order of
        ``trainable_tensors``, as its parameters."""
        tensors = list(tensors)
        expected = len(self.trainable_tensors())
        if len(tensors) != expected:
            raise LearnerError(f"{self.algorithm} learner has {expected} tensors, got {len(tensors)}")
        cut = len(self.encoder)
        return dataclasses.replace(
            self,
            encoder=tensors[:cut],
            head=None if self.head is None else tensors[cut : cut + 2],
            cosine_scale=None if self.cosine_scale is None else tensors[-1],
        )

    @property
    def layer_sizes(self) -> list[int]:
        if not self.encoder:
            raise LearnerError(f"{self.algorithm} learner has no encoder: it reads embedded rows")
        return [self.encoder[0].shape[0], *(w.shape[1] for w in self.encoder[::2])]

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
    rng = streams.stream(seed, streams.INIT)
    sizes = [feature_dim, *hidden_sizes, embedding_dim]
    encoder = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        encoder += [ad.tensor(w, requires_grad=True), ad.tensor(np.zeros((1, fan_out)), requires_grad=True)]
    head = None
    scale = None
    if algorithm in GRADIENT_ALGORITHMS:
        head = [
            ad.tensor(np.zeros((embedding_dim, way)), requires_grad=True),
            ad.tensor(np.zeros((1, way)), requires_grad=True),
        ]
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


def _layers(weights, x: ad.Tensor, relus: int):
    """``x`` through the affine layers of flat ``weights`` (``w0, b0, w1,
    b1, ...``), a ReLU after each of the first ``relus``: the output, and
    each layer's input and pre-activation."""
    inputs, pre = [], []
    for layer, (w, b) in enumerate(zip(weights[::2], weights[1::2])):
        inputs.append(x)
        x = ad.affine(x, w, b)
        pre.append(x)
        if layer < relus:
            x = ad.relu(x)
    return x, inputs, pre


def _encode(encoder, x: ad.Tensor) -> ad.Tensor:
    """``x`` through the flat encoder list: a ReLU follows every layer but the last."""
    return _layers(encoder, x, len(encoder) // 2 - 1)[0]


def _encode_stacked(encoder, x: np.ndarray) -> ad.Tensor:
    """(B, m, d) inputs through the shared encoder as one (B*m, d) matrix,
    returned as (B, m, e) embeddings."""
    count, rows, dim = x.shape
    return ad.reshape(_encode(encoder, ad.tensor(x.reshape(count * rows, dim))), (count, rows, -1))


def compute_prototypes(embeddings: ad.Tensor, labels: np.ndarray, k: int) -> ad.Tensor:
    """Per-class mean support embeddings of each episode: ``(B, n, d)``
    from ``(B, n*k, d)`` support embeddings, rows ordered by class label.

    ``labels`` are the ``(n*k,)`` local labels in [0, n) that every episode
    shares; every class must appear exactly ``k`` times. One ``(n, n*k)``
    averaging matrix, broadcast over the batch, multiplies each episode's
    supports.
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
    return ad.matmul(ad.tensor(np.broadcast_to(averaging, (embeddings.shape[0], n, m))), embeddings)


def _reciprocal_row_norms(x: ad.Tensor, what: str) -> ad.Tensor:
    """(B, m, 1) reciprocal Euclidean norms of the rows of (B, m, d) ``x``."""
    count, rows, dim = x.shape
    flat = ad.reshape(x, (count * rows, dim))
    sq = ad.mul(flat, flat)
    sums = ad.matmul(sq, ad.tensor(np.ones((dim, 1))))
    if np.any(sums.data <= 0.0):
        raise LearnerError(f"zero-norm {what} embedding: cosine direction undefined")
    # An overflowed norm would give its row a cosine of 0. A NaN one comes
    # from a NaN row and gives a NaN difficulty, which the caller rejects.
    huge = np.flatnonzero(sums.data == np.inf)
    if huge.size:
        raise LearnerError(
            f"{what} embedding in episode {{episode}} of the batch: its squared norm overflows",
            int(huge[0]) // rows,
        )
    # 1/sqrt(s) = exp(-log(s)/2), differentiable on s > 0.
    return ad.reshape(ad.exp(ad.smul(-0.5, ad.log(sums))), (count, rows, 1))


def _proto_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    supports = _encode_stacked(params.encoder, batch.support_x)
    queries = _encode_stacked(params.encoder, batch.query_x)
    centres = compute_prototypes(supports, batch.support_labels, batch.k)
    if params.algorithm == "proto_euclidean":
        return ad.smul(-1.0, ad.sqdist(queries, centres))
    dots = ad.matmul(queries, centres, tb=True)
    rq = _reciprocal_row_norms(queries, "query")
    rp = _reciprocal_row_norms(centres, "prototype")
    cosines = ad.mul(dots, ad.matmul(rq, rp, tb=True))
    return ad.mul(params.cosine_scale, cosines)


def _gradient_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """(B, n*q, n) query logits after each episode's inner loop.

    The layers to adapt (MAML's encoder and head, ANIL's head) are tiled
    to ``(B, ...)`` fast weights, one copy per episode, so the batch's
    inner loops are one tape. The inner loss is the sum of the episodes'
    mean support losses; no fast weight is shared between episodes, so its
    gradient is each episode's own gradient.

    The support forward keeps each adapted layer's input ``a`` and
    pre-activation ``z = a w + b``. The inner grad asks for ``dL/dz`` and
    the bias gradients, not the weight gradients: each weight takes one
    ``sgd_step``, ``w - alpha a^T dL/dz``, which has the bits of a step
    on the weight gradient but records one array, not three. A bias takes
    ``b - alpha dL/db``.

    Only a recording caller can differentiate the adapted weights, so only
    it gets the second-order graph. Otherwise each inner gradient is first
    order and records nothing, and each step takes its layer input as a
    constant; the softmax vjp has the same bits in both modes, so the
    logits do too.
    """
    count, n = len(batch), batch.n
    if params.way != n:
        raise LearnerError(f"head width {params.way} does not match episode way {n}")
    support, query = batch.support_x, batch.query_x
    labels = np.tile(batch.support_labels, count)
    if params.algorithm == "maml":
        support, query = ad.tensor(support), ad.tensor(query)
        slow = params.trainable_tensors()
        # A ReLU follows every encoder layer but the last.
        relus = len(params.encoder) // 2 - 1
    else:
        # ANIL adapts only the head. Encoding once, in the caller's
        # recording mode and before the head is tiled, keeps the encoder
        # forward out of every inner grad.
        support = _encode_stacked(params.encoder, support)
        query = _encode_stacked(params.encoder, query)
        slow = params.head
        relus = 0

    alpha = params.adaptation_rate
    second_order = ad.is_grad_enabled()
    # The inner loop differentiates the support loss, so recording must be
    # on even when the caller only wants values.
    with ad.enable_grad():
        weights = [ad.tile(t, count) for t in slow]
        for step in range(params.adaptation_steps):
            logits, inputs, pre = _layers(weights, support, relus)
            losses = ad.softmax_cross_entropy(ad.reshape(logits, (-1, n)), labels)
            means = ad.mean(ad.reshape(losses, (count, -1)))
            bad = np.flatnonzero(~np.isfinite(means.data))
            if bad.size:
                raise LearnerError(
                    f"non-finite inner-loop loss in episode {{episode}} of the batch"
                    f" at adaptation step {step}",
                    int(bad[0]),
                )
            biases = weights[1::2]
            grads = ad.grad(ad.sum(means), pre + biases, create_graph=second_order)
            layers = zip(weights[::2], biases, inputs, grads[: len(pre)], grads[len(pre) :])
            weights = []
            for w, b, a, gz, gb in layers:
                # A first-order step is constant in a, as in dL/dz; off the
                # tape, a no longer holds this pass's forward alive.
                a = a if second_order else ad.tensor(a.data)
                weights += [ad.sgd_step(w, a, gz, alpha), ad.sub(b, ad.smul(alpha, gb))]
    # The query pass records only if the caller does.
    return _layers(weights, query, relus)[0]


def _check_width(params: LearnerParams, batch: EpisodeBatch) -> None:
    """Rows must be as wide as the encoder's (or encoder-less ANIL head's) input."""
    first = (params.encoder or params.head or [None])[0]
    if first is not None and batch.x.shape[1] != first.shape[0]:
        raise LearnerError(
            f"{params.algorithm} learner takes {first.shape[0]} features per row,"
            f" the episodes' rows have {batch.x.shape[1]}"
        )


def encoded(params: LearnerParams, batch: EpisodeBatch) -> tuple[LearnerParams, EpisodeBatch]:
    """``params`` without its encoder, and ``batch`` pointed at a read-only
    array of the embeddings of the distinct rows it indexes, in row order,
    encoded under ``no_grad`` in stacks of ``ENCODE_STACK_ROWS``; MAML gets
    both back unchanged. A row's embedding has the same bits in any stack
    of two rows or more, but numpy multiplies a one-row stack by another
    routine, so a lone last row joins the stack before it."""
    _check_width(params, batch)
    if params.algorithm == "maml":
        return params, batch
    used = np.zeros(len(batch.x), dtype=bool)
    used[batch.support_rows] = used[batch.query_rows] = True
    distinct = np.flatnonzero(used)
    # The starts stop short of a lone last row.
    bounds = list(range(0, max(len(distinct) - 1, 1), ENCODE_STACK_ROWS)) + [len(distinct)]
    out = np.empty((len(distinct), params.encoder[-1].shape[1]))
    with ad.no_grad():
        for start, stop in zip(bounds, bounds[1:]):
            out[start:stop] = _encode(params.encoder, ad.tensor(batch.x[distinct[start:stop]])).data
    out.setflags(write=False)
    inverse = np.cumsum(used) - 1  # a used row's position in distinct
    return dataclasses.replace(params, encoder=[]), dataclasses.replace(
        batch, x=out, support_rows=inverse[batch.support_rows], query_rows=inverse[batch.query_rows]
    )


def _episode_logits(params: LearnerParams, batch: EpisodeBatch) -> ad.Tensor:
    """(B, n*q, n) query logits; column j scores local label j."""
    if not len(batch):
        raise LearnerError("empty episode batch")
    _check_width(params, batch)
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
    return ad.mean(_query_losses(params, batch))


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


# Each manifest field and the values it may hold.
_MANIFEST_FIELDS = {
    "algorithm": lambda v: v in ALGORITHMS,
    "layer_sizes": lambda v: files.list_of(files.positive)(v) and len(v) >= 2,
    "way": files.or_none(files.positive),
    "adaptation_rate": lambda v: files.number(v) and v >= 0,
    "adaptation_steps": files.positive,
    "has_cosine_scale": files.of_type(bool),
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
