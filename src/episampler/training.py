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
episode under those parameters, and it rejects a non-finite one. The
learner names an episode it fails on by its index in the chunk; both
report it by its index in the whole batch.

Both read through ``learners.encoded``, which encodes a ProtoNet or ANIL
batch's distinct rows once, ahead of its chunks. Both run under
``autodiff.no_grad``, so a MAML or ANIL learner adapts first order there,
without the second-order graph training needs; its difficulties and
accuracies are the same floats either way. Offline mode scores each
training batch with the proposal through ``score_difficulties``, so it
takes the same path.

``train``, ``evaluate`` and ``score_difficulties`` run under
``np.errstate(over="ignore", invalid="ignore")``, so a row too large to
square ends in their diagnostic, not a ``RuntimeWarning``.
A run that meets a ``TrainerError`` (a non-finite loss or gradient), a
``LearnerError`` (a non-finite inner-loop loss), a ``SamplerError`` (a
degenerate difficulty model) or a ``DatasetError`` (an episode shape a
split cannot fill) stops at that iteration and returns what it has,
marked aborted, with a diagnostic that names the iteration and the error.

Artifacts: ``history.csv`` (per-iteration: iteration, loss, ess, mu,
sigma2, fallback, val_accuracy), ``episodes.csv`` (per-episode: iteration,
episode, omega, weight, nll), ``result.json``, and checkpoints in the
learner format.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import files, kernels, learners, sampling, streams
# sample_episode stays bound here: benchmark tracing wraps this module's name.
from .data import (  # noqa: F401
    BaseDataset, DatasetError, EpisodeBatch, concat, sample_episode, sample_episodes,
)
from .sampling import DifficultyModel, SamplingScheme

logger = logging.getLogger(__name__)

# Episodes per batched forward in evaluate and score_difficulties; it is
# also the default training batch size, so an offline training batch is
# scored in one forward. Larger chunks cut per-op overhead but hold more
# rows at once; a MAML chunk holds its encoder activations. In-process
# with one BLAS thread, 16 was fastest or within noise of it for all four
# learners among 4, 8, 16 and 32; 32 slowed proto_cosine evaluation by
# half. Over 4 it raised perfbench's 5-shot scoring peak RSS by about
# 0.6%. Every episode is computed on its own rows, so the size changes no
# accuracy and no difficulty, except a proto_cosine one by a few ulps
# (test_any_chunk_size_keeps_the_difficulties).
EPISODE_CHUNK = 16

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


def _by_chunk(score, params: learners.LearnerParams, batch: EpisodeBatch):
    """``(start, score(params, chunk))`` for each ``EPISODE_CHUNK``-episode
    slice of ``batch``, in order, ``start`` being the chunk's first index.
    A ``LearnerError`` from a chunk names its episode by its index in
    ``batch``."""
    for start in range(0, len(batch), EPISODE_CHUNK):
        try:
            result = score(params, batch[start : start + EPISODE_CHUNK])
        except learners.LearnerError as exc:
            if exc.episode is None:
                raise
            raise exc.offset(start) from exc
        yield start, result


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
    with ad.no_grad():
        params, batch = learners.encoded(params, sample_episodes(dataset, n, k, q, rng, num_episodes))
        accs = np.concatenate([chunk for _, chunk in _by_chunk(learners.episode_accuracy, params, batch)])
    ci = float(1.96 * accs.std(ddof=1) / np.sqrt(num_episodes))
    return float(accs.mean()), ci


@np.errstate(over="ignore", invalid="ignore")
def score_difficulties(params: learners.LearnerParams, episodes) -> list[float]:
    """Difficulty of each episode of ``data.concat(episodes)`` under the
    given (frozen) parameters: its entry of ``learners.episode_nll``.
    Raises ``LearnerError`` naming the first episode, by its index in that
    batch, whose difficulty is not finite."""
    out: list[float] = []
    with ad.no_grad():
        params, batch = learners.encoded(params, concat(episodes))
        for start, nll in _by_chunk(learners.episode_nll, params, batch):
            bad = np.flatnonzero(~np.isfinite(nll.data))
            if bad.size:
                raise learners.LearnerError(f"non-finite difficulty for episode {start + bad[0]}")
            out.extend(nll.data.tolist())
    return out


@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    params: learners.LearnerParams,
    train_dataset: BaseDataset,
    val_dataset: BaseDataset,
    scheme: SamplingScheme,
    difficulty_model: DifficultyModel,
    proposal_params: learners.LearnerParams | None = None,
) -> TrainResult:
    """Run the episodic training loop and return the best-validation
    parameters with the full history. ``difficulty_model`` is required: an
    online run advances it (its warm-up included) and an offline run reads
    it, ready, with the frozen ``proposal_params``."""
    if scheme.mode == "offline":
        if proposal_params is None:
            raise TrainerError("offline mode requires proposal parameters")
        if not difficulty_model.ready:
            raise TrainerError("offline mode requires a ready difficulty model")
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
        except (TrainerError, learners.LearnerError, sampling.SamplerError, DatasetError) as exc:
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


def write_history_csv(history, path) -> None:
    rows = (
        (
            rec.iteration, rec.loss, rec.ess, None if np.isnan(rec.mu) else rec.mu,
            None if np.isnan(rec.sigma2) else rec.sigma2, int(rec.fallback), rec.val_accuracy,
        )
        for rec in history
    )
    files.write_table(path, "iteration,loss,ess,mu,sigma2,fallback,val_accuracy", rows)


_EPISODES_HEADER = "iteration,episode,omega,weight,nll"


def write_episodes_csv(history, path) -> None:
    rows = (
        (rec.iteration, idx, ep.omega, ep.weight, ep.nll)
        for rec in history
        for idx, ep in enumerate(rec.episodes)
    )
    files.write_table(path, _EPISODES_HEADER, rows)


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
