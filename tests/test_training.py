"""Tests for the episodic training loop, Adam, and evaluation."""

import contextlib
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from episampler import autodiff as ad
from episampler import data, learners, sampling, streams, training
from episampler.sampling import DifficultyModel, SamplingScheme
from episampler.training import AdamState, TrainConfig


def _datasets(seed=0, classes=12, samples=24, dim=6):
    ds = data.generate_synthetic(classes, samples, dim, 3.0, 1.0, seed=seed)
    return data.split_classes(ds, (6, 3, 3))


def _config(**overrides):
    base = dict(
        iterations=20,
        batch_size=4,
        learning_rate=1e-3,
        validation_interval=10,
        validation_episodes=8,
        test_episodes=8,
        way=3,
        shot=1,
        query=5,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        t = ad.tensor([1.0, -2.0], requires_grad=True)
        state = AdamState.for_params([t])
        training.adam_step([t], [ad.tensor(np.zeros(2))], state, lr=0.1)
        np.testing.assert_array_equal(t.data, [1.0, -2.0])

    def test_single_step_hand_value(self):
        # One step on f(x) = x from x = 0 with lr 0.1: the bias-corrected
        # moments give a step of lr/(1 + eps), i.e. x -> -0.1.
        t = ad.tensor(0.0, requires_grad=True)
        state = AdamState.for_params([t])
        training.adam_step([t], [ad.tensor(1.0)], state, lr=0.1)
        assert t.data.item() == pytest.approx(-0.1, abs=1e-7)

    def test_constant_gradient_step_approaches_lr_sign(self):
        t = ad.tensor(0.0, requires_grad=True)
        state = AdamState.for_params([t])
        g = ad.tensor(-3.7)
        prev = t.data.item()
        for _ in range(500):
            training.adam_step([t], [g], state, lr=0.01)
        step = t.data.item() - prev
        # after many steps each per-step move approaches lr * sign(g)
        before = t.data.item()
        training.adam_step([t], [g], state, lr=0.01)
        assert t.data.item() - before == pytest.approx(0.01, abs=1e-6)
        assert step > 0

    def test_non_finite_gradient_rejected(self):
        t = ad.tensor(0.0, requires_grad=True)
        state = AdamState.for_params([t])
        with pytest.raises(training.TrainerError):
            training.adam_step([t], [ad.tensor(np.nan)], state, lr=0.1)

    def test_gradient_shape_must_match_the_parameter(self):
        t = ad.tensor([[1.0, 2.0]], requires_grad=True)
        state = AdamState.for_params([t])
        message = "gradient shape (2,) does not match parameter (1, 2)"
        with pytest.raises(training.TrainerError, match=re.escape(message)):
            training.adam_step([t], [ad.tensor([0.0, 0.0])], state, lr=0.1)


class TestBatchLoss:
    def test_baseline_equals_unweighted_mean(self):
        rng = streams.stream(0, streams.STATS)
        nlls = ad.tensor(rng.uniform(0.5, 2.0, size=8))
        loss, ess = training.weighted_batch_loss(nlls, [1.0] * 8)
        assert ess == 8.0
        expected = np.mean(nlls.data)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_scaling_all_weights_scales_loss_linearly(self):
        rng = streams.stream(1, streams.STATS)
        nlls = ad.tensor(rng.uniform(0.5, 2.0, size=6))
        weights = list(rng.uniform(0.1, 3.0, size=6))
        base, _ = training.weighted_batch_loss(nlls, weights)
        for c in (0.5, 2.0, 17.0):
            scaled, _ = training.weighted_batch_loss(nlls, [c * w for w in weights])
            assert scaled.item() == pytest.approx(c * base.item(), rel=1e-12)


# Every learner at one and at five shots; the test ids stay one per chunk
# size, so each evaluation test runs the cases in turn.
EVALUATION_CASES = [(algorithm, shot) for algorithm in learners.ALGORITHMS for shot in (1, 5)]


def _evaluations(test_ds):
    """Per evaluation case, the result of evaluating 9 episodes and the
    next value of the episode stream after them."""
    out = {}
    for algorithm, shot in EVALUATION_CASES:
        params = learners.init_params(algorithm, 6, 3, seed=2)
        rng = streams.stream(3, streams.TEST_EPISODES)
        out[algorithm, shot] = (training.evaluate(params, test_ds, 3, shot, 5, 9, rng), rng.random())
    return out


def _tape_nodes(output):
    """Tape nodes reachable from ``output`` through ``Tensor.node``."""
    seen, stack = set(), [output]
    while stack:
        node = stack.pop().node
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.inputs)
    return len(seen)


def _reference_difficulties(params, episodes):
    """Difficulties scored one episode at a time, each the negated mean of
    its per-query log-likelihoods."""
    with ad.no_grad():
        return [
            -learners.episode_log_likelihoods(params, episodes[i : i + 1]).data.mean()
            for i in range(len(episodes))
        ]


def _per_chunk_difficulties(params, episodes):
    """Difficulties scored chunk by chunk with every chunk's rows run
    through the full learner, the path that encodes no row in advance."""
    chunk = training.EPISODE_CHUNK
    with ad.no_grad():
        return np.concatenate([
            learners.episode_nll(params, episodes[start : start + chunk]).data
            for start in range(0, len(episodes), chunk)
        ])


def _rows(episodes):
    """The distinct rows the episodes index."""
    return {*episodes.support_rows.ravel().tolist(), *episodes.query_rows.ravel().tolist()}


def _repeating_pool(shot, n=3, seed=7, dataset=None):
    """Episodes from a small dataset, so that samples repeat across
    episodes, followed by a repeat of the first episode."""
    ds = dataset or data.generate_synthetic(6, shot + 6, 5, 3.0, 1.0, seed=seed)
    rng = streams.stream(seed, streams.ANALYSIS)
    episodes = data.sample_episodes(ds, n, shot, 4, rng, 2 * training.EPISODE_CHUNK + 1)
    return data.concat([episodes, episodes[:1]])


@contextlib.contextmanager
def _encoder_stacks():
    """Collects the rows of every encoder stack run inside the block by a
    learner that has its encoder."""
    stacks = []
    encode = learners._encode

    def counting_encode(encoder, x):
        if encoder:
            stacks.append(x.shape[0])
        return encode(encoder, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learners, "_encode", counting_encode)
        yield stacks


class TestScoreDifficulties:
    """ProtoNet and ANIL pools are scored from the distinct rows their
    episodes index, each encoded once; every difficulty keeps the bits of
    the per-chunk path. The encoder stacks show which path ran."""

    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_distinct_rows_keep_the_per_chunk_bits(self, algorithm, shot):
        pool = _repeating_pool(shot)
        params = learners.init_params(
            algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=11, adaptation_steps=2
        )
        with _encoder_stacks() as stacks:
            omegas = training.score_difficulties(params, pool)
        if algorithm != "maml":
            assert sum(stacks) == len(_rows(pool)) < 3 * (shot + 4) * len(pool)
        np.testing.assert_array_equal(omegas, _per_chunk_difficulties(params, pool))

    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_one_way_episodes(self, algorithm, shot):
        pool = _repeating_pool(shot, n=1, dataset=data.generate_synthetic(2, shot + 4, 5, 3.0, 1.0, seed=7))
        params = learners.init_params(
            algorithm, 5, 1, hidden_sizes=(16,), embedding_dim=8, seed=12, adaptation_steps=2
        )
        with _encoder_stacks() as stacks:
            omegas = training.score_difficulties(params, pool)
        if algorithm != "maml":
            assert sum(stacks) == len(_rows(pool)) < (shot + 4) * len(pool)
        np.testing.assert_array_equal(omegas, _per_chunk_difficulties(params, pool))

    @pytest.mark.parametrize("algorithm", ["proto_euclidean", "proto_cosine", "anil"])
    def test_encoder_runs_once_on_the_distinct_rows(self, monkeypatch, algorithm):
        pool = _repeating_pool(5)
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=14)
        monkeypatch.setattr(learners, "ENCODE_STACK_ROWS", 16)
        with _encoder_stacks() as stacks:
            omegas = training.score_difficulties(params, pool)
        # Each distinct row once, in stacks of 16 rows, the last one 2 to 17.
        assert sum(stacks) == len(_rows(pool)) and len(stacks) > 1
        assert stacks[:-1] == [16] * (len(stacks) - 1) and 2 <= stacks[-1] <= 17
        np.testing.assert_array_equal(omegas, _per_chunk_difficulties(params, pool))

    def test_rows_that_barely_repeat_are_encoded_once(self, monkeypatch):
        # 918 rows over 960 samples: fewer than two rows per distinct row,
        # as in a training batch; they too are encoded once each, in one
        # stack when the stack size allows it.
        pool = _repeating_pool(5, dataset=data.generate_synthetic(6, 160, 5, 3.0, 1.0, seed=7))
        assert 2 * len(_rows(pool)) > 27 * len(pool)
        params = learners.init_params("proto_cosine", 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=14)
        monkeypatch.setattr(learners, "ENCODE_STACK_ROWS", 27 * len(pool))
        with _encoder_stacks() as stacks:
            omegas = training.score_difficulties(params, pool)
        assert stacks == [len(_rows(pool))]
        np.testing.assert_array_equal(omegas, _per_chunk_difficulties(params, pool))

    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_any_chunk_size_keeps_the_difficulties(self, monkeypatch, algorithm, shot):
        # Every episode is computed on its own rows, so the chunk size does
        # not change a bit, with one exception: proto_cosine's squared
        # prototype norms are one matrix-vector product over the chunk's
        # prototypes, and OpenBLAS sums a stack of a few rows in another
        # order. At 5 shots that moves a difficulty here by up to 2 ulps;
        # the bound is 4.
        pool = _repeating_pool(shot)
        params = learners.init_params(
            algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=16, adaptation_steps=2
        )
        monkeypatch.setattr(training, "EPISODE_CHUNK", len(pool))
        whole = training.score_difficulties(params, pool)
        for chunk in (1, 4, 16):
            monkeypatch.setattr(training, "EPISODE_CHUNK", chunk)
            omegas = training.score_difficulties(params, pool)
            if algorithm == "proto_cosine":
                np.testing.assert_allclose(omegas, whole, rtol=4 * np.finfo(float).eps, atol=0)
            else:
                np.testing.assert_array_equal(omegas, whole, err_msg=f"chunk {chunk}")

    @pytest.mark.parametrize("algorithm", ["proto_euclidean", "proto_cosine"])
    def test_nan_row_names_the_callers_episode(self, algorithm):
        ds = data.generate_synthetic(6, 40, 5, 3.0, 1.0, seed=7)
        pool = _repeating_pool(5, dataset=ds)
        # A query row first met after the first chunk, made NaN in the
        # dataset, so that every episode holding it reads the same NaN row.
        chunk = training.EPISODE_CHUNK
        first, row = next(
            (index, row)
            for index in range(chunk, len(pool))
            for row in pool.query_rows[index].tolist()
            if row not in _rows(pool[:index])
        )
        x = ds.x.copy()
        x[row] = np.nan
        pool = _repeating_pool(5, dataset=dataclasses.replace(ds, x=x))
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=15)
        with _encoder_stacks() as stacks:
            with pytest.raises(learners.LearnerError, match=f"non-finite difficulty for episode {first}$"):
                training.score_difficulties(params, pool)
        assert sum(stacks) == len(_rows(pool))
        reference = _per_chunk_difficulties(params, pool)
        assert np.isnan(reference[first]) and np.isfinite(reference[:first]).all()

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_equals_the_mean_query_nll_bit_for_bit(self, algorithm):
        train_ds, _, _ = _datasets()
        params = learners.init_params(
            algorithm, 6, 3, hidden_sizes=(16,), embedding_dim=8, seed=5, adaptation_steps=2
        )
        rng = streams.stream(6, streams.TRAIN_EPISODES)
        # Two full chunks and a short one.
        episodes = data.sample_episodes(train_ds, 3, 2, 5, rng, 2 * training.EPISODE_CHUNK + 1)
        lls = learners.episode_log_likelihoods(params, episodes).data
        np.testing.assert_array_equal(training.score_difficulties(params, episodes), -lls.mean(axis=1))

    def test_non_finite_difficulty_names_the_episode(self):
        train_ds, _, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=5)
        rng = streams.stream(6, streams.TRAIN_EPISODES)
        episodes = data.sample_episodes(train_ds, 3, 1, 5, rng, 2 * training.EPISODE_CHUNK + 1)
        # The first episode of the second chunk, pointed at NaN rows of its
        # own: the other episodes keep theirs, even those it shares with them.
        index = training.EPISODE_CHUNK
        rows = episodes.query_rows.copy()
        rows[index] = len(episodes.x) + np.arange(rows.shape[1])
        x = np.concatenate([episodes.x, np.full((rows.shape[1], episodes.x.shape[1]), np.nan)])
        episodes = dataclasses.replace(episodes, x=x, query_rows=rows)
        with pytest.raises(learners.LearnerError, match=f"non-finite difficulty for episode {index}$"):
            training.score_difficulties(params, episodes)

    @pytest.mark.parametrize(
        "algorithm, value, message",
        [
            pytest.param(algorithm, value, message, id=f"{algorithm}-{value:g}")
            for algorithm, value, message in [
                ("proto_euclidean", 1e200, "non-finite difficulty for episode 27"),
                ("proto_euclidean", 1e308, "non-finite difficulty for episode 27"),
                ("proto_cosine", 1e160, "query embedding in episode 27 of the batch: its squared norm overflows"),
                ("proto_cosine", 1e200, "query embedding in episode 27 of the batch: its squared norm overflows"),
                ("proto_cosine", 1e308, "non-finite difficulty for episode 27"),
                ("maml", 1e200, "non-finite inner-loop loss in episode 29 of the batch at adaptation step 1"),
                ("maml", 1e308, "non-finite inner-loop loss in episode 29 of the batch at adaptation step 0"),
                ("anil", 1e200, "non-finite inner-loop loss in episode 29 of the batch at adaptation step 1"),
                ("anil", 1e308, "non-finite inner-loop loss in episode 29 of the batch at adaptation step 0"),
            ]
        ],
    )
    def test_huge_row_names_the_episode_without_a_warning(self, algorithm, value, message):
        # A huge row that the first chunk does not hold, a query row of
        # episode 27 and a support row of episode 29, both in the second
        # chunk, overflows on the way to the loss: a non-finite difficulty,
        # a non-finite inner-loop loss, or a proto_cosine query norm that
        # would otherwise give a finite wrong cosine of 0. Each is a
        # LearnerError, never a RuntimeWarning (an error in this suite).
        # Episodes are named by their index in the caller's batch, also
        # from inside the learner.
        train_ds, _, _ = _datasets()
        params = learners.init_params(algorithm, 6, 3, seed=5)
        rng = streams.stream(6, streams.TRAIN_EPISODES)
        chunk = training.EPISODE_CHUNK
        episodes = data.sample_episodes(train_ds, 3, 1, 5, rng, 2 * chunk + 1)
        first_chunk = _rows(episodes[:chunk])
        row = next(
            row
            for index in range(chunk, 2 * chunk)
            for row in episodes.query_rows[index].tolist()
            if row not in first_chunk and row in episodes.support_rows[index + 1 : 2 * chunk]
        )
        assert np.flatnonzero((episodes.query_rows == row).any(axis=1)).tolist() == [27]
        assert np.flatnonzero((episodes.support_rows == row).any(axis=1)).tolist() == [29]
        x = train_ds.x.copy()
        x[row] = value
        episodes = dataclasses.replace(episodes, x=x)
        with pytest.raises(learners.LearnerError, match=f"^{re.escape(message)}$"):
            training.score_difficulties(params, episodes)

    def test_cosine_scale_free_below_the_overflow(self):
        # The encoder's biases start at zero, so it embeds a scaled row as
        # the scaled embedding, and the cosine ignores the scale: below the
        # overflow a huge query row scores as the row it points along.
        train_ds, _, _ = _datasets()
        params = learners.init_params("proto_cosine", 6, 3, seed=5)
        rng = streams.stream(6, streams.TRAIN_EPISODES)
        episodes = data.sample_episodes(train_ds, 3, 1, 5, rng, 2 * training.EPISODE_CHUNK + 1)
        row = episodes.query_rows[training.EPISODE_CHUNK, 0]
        omegas = []
        for scale in (1.0, 1e150):
            x = train_ds.x.copy()
            x[row] = scale * x[row]
            omegas.append(training.score_difficulties(params, dataclasses.replace(episodes, x=x)))
        np.testing.assert_allclose(omegas[1], omegas[0], rtol=1e-12)


class TestBatchedMatchesPerEpisode:
    """The batch API against itself called with one episode at a time, the
    per-episode reference. The batch's sums run in another order, so values
    agree to 1e-10 relative, not bit for bit."""

    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_nll_difficulty_weight_and_gradient(self, algorithm, shot):
        train_ds, _, _ = _datasets()
        params = learners.init_params(
            algorithm, 6, 3, hidden_sizes=(16,), embedding_dim=8, seed=1, adaptation_steps=2
        )
        rng = streams.stream(4, streams.TRAIN_EPISODES)
        episodes = data.concat([data.sample_episode(train_ds, 3, shot, 5, rng) for _ in range(6)])

        nll = learners.episode_nll(params, episodes)
        ref_nll = [ad.reshape(learners.episode_nll(params, episodes[i : i + 1]), ()) for i in range(6)]
        np.testing.assert_allclose(nll.data, [t.item() for t in ref_nll], rtol=1e-10, atol=0)

        omegas = training.score_difficulties(params, episodes)
        ref_omegas = _reference_difficulties(params, episodes)
        np.testing.assert_allclose(omegas, ref_omegas, rtol=1e-10, atol=0)

        # A curriculum centred on the batch keeps every weight inside the
        # support and different from the others.
        model = DifficultyModel(
            mu=float(np.mean(ref_omegas)), var=float(np.var(ref_omegas)) + 0.05, warmup_remaining=0
        )
        scheme = SamplingScheme("curriculum")
        weights = [sampling.importance_weight(o, scheme, model, 0.3) for o in omegas]
        ref_weights = [sampling.importance_weight(o, scheme, model, 0.3) for o in ref_omegas]
        assert all(w > 0.0 for w in ref_weights)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-10, atol=0)

        tensors = params.trainable_tensors()
        loss, ess = training.weighted_batch_loss(nll, ref_weights)
        total = ad.smul(ref_weights[0], ref_nll[0])
        for w, t in zip(ref_weights[1:], ref_nll[1:]):
            total = ad.add(total, ad.smul(w, t))
        ref_loss = ad.smul(1.0 / ess, total)
        assert loss.item() == pytest.approx(ref_loss.item(), rel=1e-10, abs=0)
        grads, ref_grads = ad.grad(loss, tensors), ad.grad(ref_loss, tensors)
        # Entries near zero are rounding noise (the Euclidean last bias has
        # an exactly zero gradient), so the tolerance is relative to the
        # largest entry of the whole gradient.
        scale = max(float(np.abs(r.data).max()) for r in ref_grads)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g.data, ref.data, rtol=0, atol=1e-10 * scale)

    def test_proto_tape_does_not_grow_with_batch(self):
        train_ds, _, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        rng = streams.stream(0, streams.TRAIN_EPISODES)
        sizes = []
        for batch in (4, 16):
            episodes = data.concat([data.sample_episode(train_ds, 3, 1, 5, rng) for _ in range(batch)])
            loss, _ = training.weighted_batch_loss(learners.episode_nll(params, episodes), [1.0] * batch)
            sizes.append(_tape_nodes(loss))
        assert sizes[0] == sizes[1]

    def test_chunked_evaluation_keeps_the_stream_and_the_accuracies(self):
        _, _, test_ds = _datasets()
        count = 2 * training.EPISODE_CHUNK + 1  # the last chunk is a single episode
        for algorithm, shot in EVALUATION_CASES:
            params = learners.init_params(algorithm, 6, 3, seed=2)
            rng = streams.stream(3, streams.TEST_EPISODES)
            result = training.evaluate(params, test_ds, 3, shot, 5, count, rng)

            ref_rng = streams.stream(3, streams.TEST_EPISODES)
            episodes = data.concat([data.sample_episode(test_ds, 3, shot, 5, ref_rng) for _ in range(count)])
            assert rng.random() == ref_rng.random(), (algorithm, shot)
            with ad.no_grad():
                accs = np.array(
                    [learners.episode_accuracy(params, episodes[i : i + 1])[0] for i in range(count)]
                )
            expected = (float(accs.mean()), 1.96 * float(accs.std(ddof=1)) / np.sqrt(count))
            assert result == expected, (algorithm, shot)
            ref_omegas = _reference_difficulties(params, episodes)
            np.testing.assert_allclose(
                training.score_difficulties(params, episodes), ref_omegas, rtol=1e-10, atol=0,
                err_msg=f"{algorithm} {shot}-shot",
            )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4])
    def test_any_chunk_size_gives_the_same_evaluation(self, monkeypatch, chunk):
        _, _, test_ds = _datasets()
        expected = _evaluations(test_ds)
        monkeypatch.setattr(training, "EPISODE_CHUNK", chunk)
        assert _evaluations(test_ds) == expected


class TestEvaluate:
    def test_zero_variance_ci(self):
        train_ds, _, test_ds = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        # a deterministic constant-accuracy case: perfect accuracy comes
        # from huge separation and no noise
        sep = data.generate_synthetic(4, 20, 6, 100.0, 0.001, seed=1)
        mean, ci = training.evaluate(params, sep, 3, 1, 4, 10, streams.stream(0, 5))
        assert mean == 1.0 and ci == 0.0

    def test_alternating_accuracies_hand_ci(self):
        accs = np.array([0.0, 1.0] * 500)
        ci = 1.96 * accs.std(ddof=1) / math.sqrt(1000)
        assert ci == pytest.approx(0.0310, abs=2e-4)

    def test_same_seed_is_identical(self):
        _, _, test_ds = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        a = training.evaluate(params, test_ds, 3, 1, 5, 20, streams.stream(3, 7))
        b = training.evaluate(params, test_ds, 3, 1, 5, 20, streams.stream(3, 7))
        assert a == b
        assert [type(v) for v in a] == [float, float]

    @pytest.mark.parametrize("algorithm", ["proto_euclidean", "proto_cosine", "anil"])
    def test_encodes_only_the_rows_its_episodes_index(self, algorithm):
        # 2000 rows, of which two 3-way 1-shot episodes index at most 30.
        ds = data.generate_synthetic(20, 100, 6, 3.0, 1.0, seed=5)
        params = learners.init_params(algorithm, 6, 3, hidden_sizes=(16,), embedding_dim=8, seed=2)
        with _encoder_stacks() as stacks:
            training.evaluate(params, ds, 3, 1, 4, 2, streams.stream(3, streams.TEST_EPISODES))
        episodes = data.sample_episodes(ds, 3, 1, 4, streams.stream(3, streams.TEST_EPISODES), 2)
        assert stacks == [len(_rows(episodes))]

    def test_minimum_episode_count(self):
        _, _, test_ds = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        with pytest.raises(training.TrainerError):
            training.evaluate(params, test_ds, 3, 1, 5, 1, streams.stream(0, 7))


# Each malformed episodes.csv row and the end of its error message.
MALFORMED_EPISODE_ROWS = {
    "1,0,0.5,1.0": ": 4 fields, expected 5",
    "1,0,0.5,heavy,0.7": " field 'weight': non-numeric value 'heavy'",
    "1,0,0.5,nan,0.7": " field 'weight': non-finite value 'nan'",
    "1,0,0.5,1.0,inf": " field 'nll': non-finite value 'inf'",
    "1,0,0.5,-1.0,0.7": " field 'weight': negative value -1.0",
    "1.5,0,0.5,1.0,0.7": " field 'iteration': non-integer value 1.5",
}


# sha256 of history.csv, episodes.csv and best.csv of
# test_gradient_learner_training_bytes.
GRADIENT_TRAINING_DIGESTS = {
    "maml": [
        "39e9bd88cb38f266f95a678ef94c11df754f19095fe63778d5076b8f18146690",
        "ba81ef6412767bf9ae615d69df092c49cc58778a58262e9ec86a7be4861aad46",
        "807973e54e17813c6332745d00a1d9a33f2f89fd2f50706a0bc521e3d4546b6c",
    ],
    "anil": [
        "d115088ce7e93f253abc59bd8ad6dc9bdc7146c25cd6af16c310c181764f2e75",
        "31d2b8b2eb50239e7eeaf2986b2a995716cd0d4821526251200638f3f70ae09d",
        "395e08842b5d1083fbde0d03bc6cefe740f55aa7892153bd1e74a85c44699570",
    ],
}


class TestTrainLoop:
    def test_huge_row_ends_the_run_with_a_non_finite_loss(self):
        # A 1e200 query row in the first batch: its distances are inf and
        # its loss NaN, which ends the run, with no RuntimeWarning (an error
        # in this suite) on the way.
        train_ds, val_ds, _ = _datasets()
        config = _config()
        first = data.sample_episodes(
            train_ds, config.way, config.shot, config.query,
            streams.stream(config.seed, streams.TRAIN_EPISODES), config.batch_size,
        )
        x = train_ds.x.copy()
        x[first.query_rows[0, 0]] = 1e200
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        result = training.train(
            config, params, dataclasses.replace(train_ds, x=x), val_ds, SamplingScheme("baseline"),
            DifficultyModel(),
        )
        assert result.diagnostic == "iteration 1: TrainerError: non-finite loss"
        assert result.history == []

    def test_diverging_maml_ends_the_run_with_the_inner_loop_diagnostic(self):
        # A learning rate of 1e6 throws the weights so far in the first Adam
        # step that the second iteration's inner loop overflows; the run
        # ends with that diagnostic, not a RuntimeWarning (an error in this
        # suite).
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("maml", 6, 3, seed=0)
        result = training.train(
            _config(learning_rate=1e6), params, train_ds, val_ds, SamplingScheme("baseline"),
            DifficultyModel(),
        )
        assert result.diagnostic == (
            "iteration 2: LearnerError: non-finite inner-loop loss in episode 0 of the batch"
            " at adaptation step 3"
        )
        assert [rec.iteration for rec in result.history] == [1]

    def test_zero_iterations_returns_initial_params(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        before = [t.data.copy() for t in params.trainable_tensors()]
        result = training.train(
            _config(iterations=0), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        assert result.history == []
        assert result.best_iteration == 0
        for t, b in zip(result.params.trainable_tensors(), before):
            np.testing.assert_array_equal(t.data, b)

    def test_baseline_scheme_unit_weights_full_ess(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        result = training.train(
            _config(), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        assert len(result.history) == 20
        for rec in result.history:
            assert all(ep.weight == 1.0 for ep in rec.episodes)
            assert rec.ess == 4.0
            assert not rec.fallback

    def test_baseline_loss_equals_mean_nll(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        result = training.train(
            _config(iterations=10), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        for rec in result.history:
            mean_nll = np.mean([ep.nll for ep in rec.episodes])
            assert rec.loss == pytest.approx(mean_nll, abs=1e-12)

    def test_validation_rows_at_exact_multiples(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        result = training.train(
            _config(), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        for rec in result.history:
            if rec.iteration % 10 == 0:
                assert rec.val_accuracy is not None
            else:
                assert rec.val_accuracy is None
        assert [it for it, _, _ in result.checkpoints] == [10, 20]
        assert result.best_iteration in (10, 20)

    def test_deterministic_history_bytes(self, tmp_path):
        train_ds, val_ds, _ = _datasets()

        def run(path):
            params = learners.init_params("proto_cosine", 6, 3, seed=0)
            result = training.train(
                _config(), params, train_ds, val_ds, SamplingScheme("curriculum"),
                difficulty_model=DifficultyModel(warmup_remaining=8),
            )
            training.write_history_csv(result.history, path)
            training.write_episodes_csv(result.history, str(path) + ".episodes")
            return result

        result = run(tmp_path / "a.csv")
        run(tmp_path / "b.csv")
        # The weights must have left warm-up, or the bytes compare nothing
        # but unit weights.
        assert any(ep.weight != 1.0 for rec in result.history for ep in rec.episodes)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv.episodes").read_bytes() == (tmp_path / "b.csv.episodes").read_bytes()

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_gradient_learner_training_bytes(self, tmp_path, algorithm):
        # The bytes of a tiny MAML and ANIL run, pinned: a change to the
        # inner loop or its ops that moves a bit must change these literals.
        # The 8-wide layers keep every product far below the size at which
        # BLAS threads, so the bytes do not depend on the thread count.
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params(algorithm, 6, 3, hidden_sizes=(8,), embedding_dim=8, seed=0)
        result = training.train(
            _config(iterations=6, validation_interval=3, validation_episodes=4), params,
            train_ds, val_ds, SamplingScheme("hard"), difficulty_model=DifficultyModel(warmup_remaining=8),
        )
        assert result.diagnostic is None
        assert any(ep.weight != 1.0 for rec in result.history for ep in rec.episodes)
        training.write_history_csv(result.history, tmp_path / "history.csv")
        training.write_episodes_csv(result.history, tmp_path / "episodes.csv")
        learners.save_checkpoint(result.params, tmp_path / "best")
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("history.csv", "episodes.csv", "best.csv")
        ]
        assert digests == GRADIENT_TRAINING_DIGESTS[algorithm]

    def test_online_uniform_weights_after_warmup(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        model = DifficultyModel(warmup_remaining=8)  # 2 iterations of warmup
        result = training.train(
            _config(iterations=10), params, train_ds, val_ds,
            SamplingScheme("uniform"), difficulty_model=model,
        )
        warm = result.history[:2]
        after = result.history[2:]
        assert all(ep.weight == 1.0 for rec in warm for ep in rec.episodes)
        assert any(ep.weight != 1.0 for rec in after for ep in rec.episodes)
        # mu/sigma2 column reflects the model after the iteration's updates:
        # the model readies at the end of iteration 2
        assert math.isnan(result.history[0].mu)
        for rec in result.history[1:]:
            assert not math.isnan(rec.mu)

    def test_offline_mode_requires_proposal(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        with pytest.raises(training.TrainerError):
            training.train(
                _config(), params, train_ds, val_ds,
                SamplingScheme("uniform", mode="offline"),
                difficulty_model=sampling.estimate_offline([1.0, 2.0, 1.5]),
            )

    def test_offline_mode_scores_with_frozen_proposal(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        proposal = learners.init_params("proto_euclidean", 6, 3, seed=99)
        model = sampling.estimate_offline(
            streams.stream(0, streams.STATS).normal(1.3, 0.3, size=100)
        )
        result = training.train(
            _config(iterations=10), params, train_ds, val_ds,
            SamplingScheme("easy", mode="offline"),
            difficulty_model=model, proposal_params=proposal,
        )
        # offline difficulties come from the frozen net, the nll from the
        # trained one, so the columns differ
        diffs = [
            ep.omega != ep.nll for rec in result.history for ep in rec.episodes
        ]
        assert any(diffs)
        for rec in result.history:
            assert rec.mu == model.mu and rec.sigma2 == model.var

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_offline_omegas_are_the_proposal_nlls(self, algorithm):
        # The proposal scores each batch first order, under no_grad; every
        # omega must still be the recording path's NLL, bit for bit.
        train_ds, val_ds, _ = _datasets()
        config = _config(iterations=4, validation_interval=4)
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        proposal = learners.init_params(
            algorithm, 6, 3, hidden_sizes=(16,), embedding_dim=8, seed=98, adaptation_steps=2
        )
        model = sampling.estimate_offline(streams.stream(0, streams.STATS).normal(1.1, 0.2, size=100))
        result = training.train(
            config, params, train_ds, val_ds, SamplingScheme("uniform", mode="offline"),
            difficulty_model=model, proposal_params=proposal,
        )
        rng = streams.stream(config.seed, streams.TRAIN_EPISODES)
        for rec in result.history:
            batch = data.concat([
                data.sample_episode(train_ds, config.way, config.shot, config.query, rng)
                for _ in range(config.batch_size)
            ])
            expected = learners.episode_nll(proposal, batch).data.tolist()
            assert [ep.omega for ep in rec.episodes] == expected

    def test_way_mismatch_rejected(self):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("maml", 6, 4, seed=0)
        with pytest.raises(training.TrainerError, match="way"):
            training.train(_config(), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel())

    @pytest.mark.parametrize("value", [1, 0])
    @pytest.mark.parametrize("name", ["validation_episodes", "test_episodes"])
    def test_fewer_than_two_evaluation_episodes_rejected(self, name, value):
        # evaluate's confidence interval needs two episodes; the config says
        # so before any iteration runs.
        with pytest.raises(training.TrainerError, match=f"^{name} must be at least 2, got {value}$"):
            _config(**{name: value})

    def test_history_round_trip_for_dispersion(self, tmp_path):
        train_ds, val_ds, _ = _datasets()
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        result = training.train(
            _config(iterations=10), params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        training.write_episodes_csv(result.history, tmp_path / "episodes.csv")
        batches = training.read_episodes_csv(tmp_path / "episodes.csv")
        assert len(batches) == 10
        assert all(len(b) == 4 for b in batches)
        first = result.history[0].episodes[0]
        assert batches[0][0] == (first.weight, first.nll)

    @pytest.mark.parametrize("row", MALFORMED_EPISODE_ROWS)
    def test_malformed_episodes_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "episodes.csv"
        path.write_text(f"iteration,episode,omega,weight,nll\n1,0,0.5,1.0,0.7\n\n{row}\n")
        message = f"{path} line 4{MALFORMED_EPISODE_ROWS[row]}"
        with pytest.raises(training.TrainerError, match=f"^{re.escape(message)}$"):
            training.read_episodes_csv(path)


class TestChanceLevel:
    def test_zero_separation_is_chance(self):
        # With all class means at the origin the labels are exchangeable,
        # so any learner sits at 1/n accuracy (Monte-Carlo over 1k episodes).
        ds = data.generate_synthetic(9, 24, 6, 0.0, 1.0, seed=3)
        train_ds, val_ds, test_ds = data.split_classes(ds, (3, 3, 3))
        params = learners.init_params("proto_euclidean", 6, 3, seed=0)
        config = _config(iterations=200, validation_interval=100, way=3)
        result = training.train(
            config, params, train_ds, val_ds, SamplingScheme("baseline"), DifficultyModel()
        )
        mean, _ = training.evaluate(
            result.params, test_ds, 3, 1, 5, 1000, streams.stream(1, streams.TEST_EPISODES)
        )
        assert abs(mean - 1.0 / 3.0) < 0.05
