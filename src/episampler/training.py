"""Episodic training loop with importance-weighted, ESS-normalized losses.

Each iteration samples a mini-batch of episodes from the proposal, scores
one NLL per episode with a single batched forward (one ``episode_nll``
call, so one tape per iteration), weights each by the target/proposal
density ratio at the episode's difficulty, and minimizes
``sum(w * NLL) / ESS`` with Adam.
In online mode the difficulty model is advanced with every episode's
difficulty, in iteration order, after the batch's weights were computed
from the model snapshot; in offline mode a frozen proposal network scores
difficulties and the model never moves.

Each training batch is drawn with one ``sample_episodes`` call, and so are
``evaluate``'s episodes, which it runs ``EPISODE_CHUNK`` at a time as
slices; a batch is the same stream as one-at-a-time draws, so neither the
batch nor the chunk size changes a stream. ``score_difficulties`` runs a
given batch through ``learners.episode_nll`` ``EPISODE_CHUNK`` at a time,
so a scored difficulty is the same float as the training loss of that
episode under those parameters, and it rejects a non-finite one.

No ProtoNet or ANIL episode adapts the encoder, so for those learners both
encode each row once, through ``learners.encode_once``, and feed each
chunk its embedded rows. ``evaluate`` encodes its whole split
(``learners.embedded``) and draws from the embedded rows; the draw reads
only class ids and counts, so the stream yields the same episodes.
``score_difficulties`` gets its batch already drawn, holding the indices
of its rows in the array it was drawn from: it encodes the distinct rows
those indices name and points the batch at the embeddings, however few
rows repeat (an offline training batch's barely do). The encoder works
row by row, so the logits keep their bits. The exception is a
one-row stack, which numpy multiplies by another routine and may round
differently; only a 1-way episode has one, and its accuracy is 1 and its
difficulty 0 whatever its logits. MAML adapts its encoder per episode, so
it encodes each chunk's rows.
Both run under ``autodiff.no_grad``, so a MAML or ANIL learner adapts first
order there, without the second-order graph training needs; its
difficulties and accuracies are the same floats either way. Offline mode
scores each training batch with the proposal through
``score_difficulties``, so it takes the same path.

``train``, ``evaluate`` and ``score_difficulties`` run under
``np.errstate(over="ignore", invalid="ignore")``, so a row too large to
square ends in their diagnostic, not a ``RuntimeWarning``.
A run that meets a ``TrainerError`` (a non-finite loss or gradient), a
``LearnerError`` (a non-finite inner-loop loss) or a ``SamplerError`` (a
degenerate difficulty model) stops at that iteration and returns what it
has, marked aborted, with a diagnostic that names the iteration and the
error.

Artifacts: ``history.csv`` (per-iteration: iteration, loss, ess, mu,
sigma2, fallback, val_accuracy), ``episodes.csv`` (per-episode: iteration,
episode, omega, weight, nll), ``result.json``, and checkpoints in the
learner format.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import files, kernels, learners, sampling, streams
# sample_episode stays bound here: benchmark tracing wraps this module's name.
from .data import BaseDataset, EpisodeBatch, concat, sample_episode, sample_episodes  # noqa: F401
from .sampling import DifficultyModel, SamplingScheme

logger = logging.getLogger(__name__)

# Episodes per batched forward in evaluate and score_difficulties. Larger
# chunks cut per-op overhead but hold more rows at once; a MAML chunk holds
# its encoder activations. When every chunk encoded its rows, 4 raised
# perfbench's 5-shot scoring peak RSS by about 1% over one episode at a time
# and 8 by about 2.5%, at the same throughput. The size is part of the
# results: a batch's sums run in another order, so proto_cosine
# difficulties change their last bits at other sizes.
EPISODE_CHUNK = 4

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    """Training settings; ``cli.DEFAULT_CONFIG["train"]`` holds their defaults."""

    iterations: int
    batch_size: int
    learning_rate: float
    validation_interval: int
    validation_episodes: int
    test_episodes: int
    way: int
    shot: int
    query: int
    seed: int

    def __post_init__(self):
        positive = {
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "validation_interval": self.validation_interval,
            "way": self.way,
            "shot": self.shot,
            "query": self.query,
        }
        for name, value in positive.items():
            if value <= 0:
                raise TrainerError(f"{name} must be positive, got {value}")
        # evaluate needs two episodes for a confidence interval.
        episodes = {"validation_episodes": self.validation_episodes, "test_episodes": self.test_episodes}
        for name, value in episodes.items():
            if value < 2:
                raise TrainerError(f"{name} must be at least 2, got {value}")
        if self.iterations < 0:
            raise TrainerError("iterations must be non-negative")
        if self.iterations % self.validation_interval != 0:
            raise TrainerError(
                f"validation_interval {self.validation_interval} must divide "
                f"iterations {self.iterations}"
            )


@dataclass
class EpisodeStat:
    omega: float
    weight: float
    nll: float


@dataclass
class TrainRecord:
    iteration: int
    episodes: list[EpisodeStat]
    ess: float
    loss: float
    mu: float
    sigma2: float
    fallback: bool
    val_accuracy: float | None = None


@dataclass
class TrainResult:
    params: learners.LearnerParams
    best_iteration: int
    history: list[TrainRecord]
    checkpoints: list[tuple[int, learners.LearnerParams, float]] = field(default_factory=list)
    diagnostic: str | None = None

    @property
    def aborted(self) -> bool:
        return self.diagnostic is not None


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, tensors) -> "AdamState":
        return cls(
            m=[np.zeros(t.shape) for t in tensors],
            v=[np.zeros(t.shape) for t in tensors],
        )


def adam_step(tensors, grads, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, in place on the leaf tensors;
    ``grads`` are the tensors ``autodiff.grad`` returns for them."""
    if len(tensors) != len(state.m):
        raise TrainerError("adam state does not match parameter list")
    state.t += 1
    for i, (t, g) in enumerate(zip(tensors, grads)):
        if g.shape != t.shape:
            raise TrainerError(f"gradient shape {g.shape} does not match parameter {t.shape}")
        if not np.all(np.isfinite(g.data)):
            raise TrainerError("non-finite gradient")
        t.data, state.m[i], state.v[i] = kernels.adam_update(
            t.data, g.data, state.m[i], state.v[i], state.t, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
        )


def weighted_batch_loss(nll: ad.Tensor, weights) -> tuple[ad.Tensor, float]:
    """(1/ESS) * sum_i w_i * NLL_i as a graph tensor, plus the ESS; ``nll``
    is the (B,) batch result of ``learners.episode_nll``."""
    ess = sampling.effective_sample_size(weights)
    total = ad.sum(ad.mul(ad.tensor(weights), nll))
    return ad.smul(1.0 / ess, total), ess


def _curriculum_progress(iteration: int, total: int) -> float:
    if total <= 1:
        return 1.0
    return (iteration - 1) / (total - 1)


@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    params: learners.LearnerParams,
    dataset: BaseDataset,
    n: int,
    k: int,
    q: int,
    num_episodes: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean episode accuracy and 95% CI half-width (1.96 * std / sqrt(N))."""
    if num_episodes < 2:
        raise TrainerError("evaluate: need at least 2 episodes")
    accs = np.empty(num_episodes)
    with ad.no_grad():
        params, dataset = learners.embedded(params, dataset)
        batch = sample_episodes(dataset, n, k, q, rng, num_episodes)
        for start in range(0, num_episodes, EPISODE_CHUNK):
            chunk = slice(start, start + EPISODE_CHUNK)
            accs[chunk] = learners.episode_accuracy(params, batch[chunk])
    ci = float(1.96 * accs.std(ddof=1) / np.sqrt(num_episodes))
    return float(accs.mean()), ci


def _encoded_once(params: learners.LearnerParams, batch: EpisodeBatch):
    """``params`` without its encoder and ``batch`` pointed at the
    embeddings of the distinct rows it indexes.

    A 300-episode 5-way 5-shot pool from perfbench's 3200-row split holds
    9.4 rows per distinct row; proto_cosine scored it in 36 ms from encoded
    rows against 59 ms chunk by chunk (one BLAS thread, 2-core Xeon). A
    16-episode batch from that split holds 1.2-1.3, and either path scored
    it in 2.6-2.9 ms (proto_euclidean), so no batch is too small for it.
    """
    rows = np.concatenate([batch.support_rows, batch.query_rows], axis=1)
    distinct, index = np.unique(rows, return_inverse=True)
    params, embeddings = learners.encode_once(params, batch.x.take(distinct, axis=0))
    # The inverse is flat under numpy 1.x and has the shape of rows under 2.x.
    support, query = np.split(index.reshape(rows.shape), [batch.support_rows.shape[1]], axis=1)
    return params, replace(batch, x=embeddings, support_rows=support, query_rows=query)


@np.errstate(over="ignore", invalid="ignore")
def score_difficulties(params: learners.LearnerParams, episodes) -> list[float]:
    """Difficulty of each episode of ``data.concat(episodes)`` under the
    given (frozen) parameters: its entry of ``learners.episode_nll``.
    Raises ``LearnerError`` naming the first episode, by its index in that
    batch, whose difficulty is not finite."""
    batch = concat(episodes)
    out: list[float] = []
    with ad.no_grad():
        if params.algorithm != "maml":
            params, batch = _encoded_once(params, batch)
        for start in range(0, len(batch), EPISODE_CHUNK):
            means = learners.episode_nll(params, batch[start : start + EPISODE_CHUNK]).data
            bad = np.flatnonzero(~np.isfinite(means))
            if bad.size:
                raise learners.LearnerError(f"non-finite difficulty for episode {start + bad[0]}")
            out.extend(means.tolist())
    return out


@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    params: learners.LearnerParams,
    train_dataset: BaseDataset,
    val_dataset: BaseDataset,
    scheme: SamplingScheme,
    difficulty_model: DifficultyModel | None = None,
    proposal_params: learners.LearnerParams | None = None,
) -> TrainResult:
    """Run the episodic training loop and return the best-validation
    parameters with the full history."""
    if scheme.mode == "offline":
        if proposal_params is None:
            raise TrainerError("offline mode requires proposal parameters")
        if difficulty_model is None or not difficulty_model.ready:
            raise TrainerError("offline mode requires a ready difficulty model")
    if difficulty_model is None:
        difficulty_model = DifficultyModel()
    if params.way is not None and params.way != config.way:
        raise TrainerError(f"learner head width {params.way} != config way {config.way}")

    train_rng = streams.stream(config.seed, streams.TRAIN_EPISODES)
    val_rng = streams.stream(config.seed, streams.VAL_EPISODES)

    history: list[TrainRecord] = []
    checkpoints: list[tuple[int, learners.LearnerParams, float]] = []
    best_params = learners.clone_params(params)
    best_iteration = 0
    best_accuracy: float | None = None
    tensors = params.trainable_tensors()
    adam = AdamState.for_params(tensors)
    diagnostic = None

    for iteration in range(1, config.iterations + 1):
        try:
            episodes = sample_episodes(
                train_dataset, config.way, config.shot, config.query, train_rng, config.batch_size
            )
            nll = learners.episode_nll(params, episodes)
            nll_values = nll.data.tolist()
            if scheme.mode == "offline":
                omegas = score_difficulties(proposal_params, episodes)
            else:
                omegas = nll_values

            progress = _curriculum_progress(iteration, config.iterations)
            weights = [
                sampling.importance_weight(omega, scheme, difficulty_model, progress)
                for omega in omegas
            ]
            fallback = False
            if all(w == 0.0 for w in weights):
                weights = [1.0] * len(weights)
                fallback = True
                logger.warning("iteration %d: all-zero weights, falling back to unit weights", iteration)

            loss_tensor, ess = weighted_batch_loss(nll, weights)
            loss_value = loss_tensor.item()
            if not np.isfinite(loss_value):
                raise TrainerError("non-finite loss")
            grads = ad.grad(loss_tensor, tensors)
            adam_step(tensors, grads, adam, config.learning_rate)

            if scheme.mode == "online":
                for omega in omegas:
                    sampling.update_online(difficulty_model, omega)

            record = TrainRecord(
                iteration=iteration,
                episodes=[
                    EpisodeStat(omega=o, weight=w, nll=nv)
                    for o, w, nv in zip(omegas, weights, nll_values)
                ],
                ess=ess,
                loss=loss_value,
                mu=difficulty_model.mu if difficulty_model.ready else float("nan"),
                sigma2=difficulty_model.var if difficulty_model.ready else float("nan"),
                fallback=fallback,
            )
            if iteration % config.validation_interval == 0:
                acc, _ = evaluate(
                    params, val_dataset, config.way, config.shot, config.query,
                    config.validation_episodes, val_rng,
                )
                record.val_accuracy = acc
                snapshot = learners.clone_params(params)
                checkpoints.append((iteration, snapshot, acc))
                if best_accuracy is None or acc > best_accuracy:
                    best_accuracy = acc
                    best_iteration = iteration
                    best_params = snapshot
        except (TrainerError, learners.LearnerError, sampling.SamplerError) as exc:
            diagnostic = f"iteration {iteration}: {type(exc).__name__}: {exc}"
            logger.error(diagnostic)
            break
        history.append(record)

    return TrainResult(
        params=best_params,
        best_iteration=best_iteration,
        history=history,
        checkpoints=checkpoints,
        diagnostic=diagnostic,
    )


def _format(value: float) -> str:
    return repr(float(value))


def write_history_csv(history, path) -> None:
    lines = ["iteration,loss,ess,mu,sigma2,fallback,val_accuracy"]
    for rec in history:
        mu = "" if np.isnan(rec.mu) else _format(rec.mu)
        sigma2 = "" if np.isnan(rec.sigma2) else _format(rec.sigma2)
        val = "" if rec.val_accuracy is None else _format(rec.val_accuracy)
        lines.append(
            f"{rec.iteration},{_format(rec.loss)},{_format(rec.ess)},{mu},{sigma2},"
            f"{int(rec.fallback)},{val}"
        )
    files.write_text(path, "\n".join(lines) + "\n")


_EPISODES_HEADER = "iteration,episode,omega,weight,nll"


def write_episodes_csv(history, path) -> None:
    lines = [_EPISODES_HEADER]
    for rec in history:
        for idx, ep in enumerate(rec.episodes):
            lines.append(
                f"{rec.iteration},{idx},{_format(ep.omega)},{_format(ep.weight)},{_format(ep.nll)}"
            )
    files.write_text(path, "\n".join(lines) + "\n")


def read_episodes_csv(path) -> list[list[tuple[float, float]]]:
    """Per-iteration (weight, nll) batches from an episodes.csv file."""
    table, lines = files.read_table(path, _EPISODES_HEADER, TrainerError)
    batches: dict[float, list[tuple[float, float]]] = {}
    for line, (it, _, _, weight, nll) in zip(lines, table.tolist()):
        if it != int(it):
            raise TrainerError(f"{path} line {line} field 'iteration': non-integer value {it!r}")
        if weight < 0.0:
            raise TrainerError(f"{path} line {line} field 'weight': negative value {weight!r}")
        batches.setdefault(it, []).append((weight, nll))
    return [batches[k] for k in sorted(batches)]


def write_result_json(payload: dict, path) -> None:
    files.write_json(path, payload)
