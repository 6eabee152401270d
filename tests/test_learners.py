"""Tests for the four episodic learners and the difficulty functional."""

import dataclasses
import math

import numpy as np
import pytest

from episampler import autodiff as ad
from episampler import data, kernels, learners, streams


def _episode(support_x, support_labels, query_x, query_labels, k, q):
    """Hand-built episode over classes 0..n-1 from local labels. Learners
    read only the rows and labels, so every sample index is 0."""
    support_labels = np.asarray(support_labels, dtype=np.int64)
    query_labels = np.asarray(query_labels, dtype=np.int64)
    n = int(support_labels.max()) + 1
    return data.Episode(
        n=n,
        k=k,
        q=q,
        classes=tuple(range(n)),
        support_x=np.asarray(support_x, dtype=np.float64),
        support_labels=support_labels,
        support_samples=np.zeros_like(support_labels),
        query_x=np.asarray(query_x, dtype=np.float64),
        query_labels=query_labels,
        query_samples=np.zeros_like(query_labels),
    )


def _probabilities(params, ep):
    """(n*q, n) predicted class probabilities per query."""
    logits = learners._episode_logits(params, [ep]).data[0]
    return kernels.softmax_xent(logits, ep.query_labels)[1]


def _identity_params(algorithm, dim, **kwargs):
    """Single linear layer with identity weights: embeddings == inputs."""
    encoder = [
        (ad.tensor(np.eye(dim), requires_grad=True), ad.tensor(np.zeros((1, dim)), requires_grad=True))
    ]
    return learners.LearnerParams(algorithm=algorithm, encoder=encoder, **kwargs)


def _random_episode(seed, n=3, k=2, q=4, dim=5):
    ds = data.generate_synthetic(8, k + q + 2, dim, 3.0, 1.0, seed=seed)
    rng = streams.stream(seed, streams.TRAIN_EPISODES)
    return data.sample_episode(ds, n, k, q, rng)


class TestPrototypes:
    def test_single_shot_prototypes_are_the_supports(self):
        emb = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        protos = learners.compute_prototypes(emb, np.array([0, 1]), k=1)
        np.testing.assert_array_equal(protos.data, emb.data)

    def test_mean_of_two(self):
        emb = ad.tensor([[0.0, 0.0], [2.0, 2.0]])
        protos = learners.compute_prototypes(emb, np.array([0, 0]), k=2)
        np.testing.assert_array_equal(protos.data, [[1.0, 1.0]])

    def test_permutation_invariance(self):
        rng = streams.stream(0, 99)
        emb = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        protos = learners.compute_prototypes(ad.tensor(emb), labels, k=2)
        perm = np.array([3, 1, 5, 0, 4, 2])
        protos_p = learners.compute_prototypes(ad.tensor(emb[perm]), labels[perm], k=2)
        np.testing.assert_allclose(protos.data, protos_p.data, atol=1e-15)

    def test_wrong_shot_count_rejected(self):
        emb = ad.tensor(np.zeros((3, 2)))
        with pytest.raises(learners.LearnerError):
            learners.compute_prototypes(emb, np.array([0, 0, 1]), k=2)


class TestProtoLikelihoods:
    def test_two_class_hand_value(self):
        # 1-D toy, identity encoder, prototypes {A: 0, B: 2}, query x=0
        # labeled A: p(A) = 1/(1 + exp(-4)), log-lik = log p(A).
        params = _identity_params("proto_euclidean", 1)
        ep = _episode([[0.0], [2.0]], [0, 1], [[0.0]], [0], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, [ep])
        expected_p = 1.0 / (1.0 + math.exp(-4.0))
        assert expected_p == pytest.approx(0.98201, abs=1e-5)
        assert ll.item() == pytest.approx(math.log(expected_p), abs=1e-12)
        assert ll.item() == pytest.approx(-0.01815, abs=1e-5)

    def test_equidistant_query_scores_ln_n(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode([[1.0, 0.0], [-1.0, 0.0]], [0, 1], [[0.0, 0.0]], [0], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, [ep])
        assert ll.item() == -math.log(2.0)

    def test_cosine_zero_scale_scores_ln_n(self):
        params = _identity_params(
            "proto_cosine", 2, cosine_scale=ad.tensor(0.0, requires_grad=True)
        )
        ep = _episode([[1.0, 0.0], [0.0, 1.0]], [0, 1], [[1.0, 1.0], [2.0, 0.1]], [0, 1], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, [ep])
        np.testing.assert_array_equal(ll.data, [[-math.log(2.0), -math.log(2.0)]])

    def test_cosine_zero_norm_embedding_rejected(self):
        params = _identity_params(
            "proto_cosine", 2, cosine_scale=ad.tensor(10.0, requires_grad=True)
        )
        ep = _episode([[1.0, 0.0], [0.0, 1.0]], [0, 1], [[0.0, 0.0]], [0], k=1, q=1)
        with pytest.raises(learners.LearnerError, match="zero-norm"):
            learners.episode_log_likelihoods(params, [ep])

    def test_translation_invariance_of_euclidean(self):
        params = _identity_params("proto_euclidean", 3)
        ep = _random_episode(2, dim=3)
        shift = np.array([5.0, -3.0, 1.5])
        shifted = dataclasses.replace(ep, support_x=ep.support_x + shift, query_x=ep.query_x + shift)
        base = learners.episode_log_likelihoods(params, [ep])
        moved = learners.episode_log_likelihoods(params, [shifted])
        np.testing.assert_allclose(base.data, moved.data, atol=1e-9)

    def test_cosine_argmax_invariant_to_positive_scale(self):
        ep = _random_episode(3)
        preds = []
        for s in (0.1, 1.0, 10.0, 100.0):
            params = learners.init_params("proto_cosine", 5, 3, seed=4, cosine_scale=s)
            probs = _probabilities(params, ep)
            preds.append(np.argmax(probs, axis=1))
        for p in preds[1:]:
            np.testing.assert_array_equal(preds[0], p)


class TestGradientLikelihoods:
    def test_zero_rate_equals_unadapted(self):
        ep = _random_episode(5, n=3)
        params = learners.init_params("maml", 5, 3, seed=1, adaptation_rate=0.0)
        ll = learners.episode_log_likelihoods(params, [ep])
        # Unadapted = encode then zero-initialized head: uniform logits.
        np.testing.assert_allclose(ll.data, -math.log(3.0), atol=1e-12)

    def test_zero_head_before_adaptation_scores_ln_n(self):
        ep = _random_episode(6, n=3)
        for algorithm in ("maml", "anil"):
            params = learners.init_params(algorithm, 5, 3, seed=2, adaptation_rate=0.0)
            ll = learners.episode_log_likelihoods(params, [ep])
            np.testing.assert_allclose(ll.data, -math.log(3.0), atol=1e-12)

    def test_adaptation_reduces_support_loss(self):
        ep = _random_episode(7, n=3)
        for algorithm in ("maml", "anil"):
            base = learners.init_params(algorithm, 5, 3, seed=3, adaptation_steps=1)
            more = learners.init_params(algorithm, 5, 3, seed=3, adaptation_steps=5)
            nll_1 = learners.episode_nll(base, [ep]).item()
            nll_5 = learners.episode_nll(more, [ep]).item()
            assert nll_5 < nll_1 + 1e-9

    def test_head_width_mismatch_rejected(self):
        ep = _random_episode(8, n=3)
        params = learners.init_params("maml", 5, 4, seed=0)
        with pytest.raises(learners.LearnerError, match="width"):
            learners.episode_log_likelihoods(params, [ep])

    def test_anil_inner_loop_never_touches_encoder(self):
        ep = _random_episode(9, n=3)
        params = learners.init_params("anil", 5, 3, seed=5, adaptation_steps=3)
        before = [(w.data.copy(), b.data.copy()) for w, b in params.encoder]
        learners.episode_log_likelihoods(params, [ep])
        for (w0, b0), (w, b) in zip(before, params.encoder):
            assert w0.tobytes() == w.data.tobytes()
            assert b0.tobytes() == b.data.tobytes()

    def test_maml_outer_gradient_matches_finite_differences(self):
        # Full second-order path through a small maml learner.
        ep = _random_episode(10, n=2, k=1, q=2, dim=3)
        params = learners.init_params(
            "maml", 3, 2, hidden_sizes=(4,), embedding_dim=3, seed=6,
            adaptation_rate=0.05, adaptation_steps=2,
        )
        tensors = params.trainable_tensors()

        def f(*ts):
            trial = learners.clone_params(params)
            flat = trial.trainable_tensors()
            for dst, src in zip(flat, ts):
                dst.data = src.data
            # rebuild with the caller's leaves so gradients attach to them
            rebuilt = learners.LearnerParams(
                algorithm="maml",
                encoder=[(ts[2 * i], ts[2 * i + 1]) for i in range(len(params.encoder))],
                head=(ts[-2], ts[-1]),
                adaptation_rate=params.adaptation_rate,
                adaptation_steps=params.adaptation_steps,
            )
            return ad.reshape(learners.episode_nll(rebuilt, [ep]), ())

        assert ad.grad_check(f, tensors) < 1e-4

    def test_anil_outer_gradient_matches_finite_differences(self):
        ep = _random_episode(11, n=2, k=1, q=2, dim=3)
        params = learners.init_params(
            "anil", 3, 2, hidden_sizes=(4,), embedding_dim=3, seed=7,
            adaptation_rate=0.1, adaptation_steps=2,
        )
        tensors = params.trainable_tensors()

        def f(*ts):
            rebuilt = learners.LearnerParams(
                algorithm="anil",
                encoder=[(ts[2 * i], ts[2 * i + 1]) for i in range(len(params.encoder))],
                head=(ts[-2], ts[-1]),
                adaptation_rate=params.adaptation_rate,
                adaptation_steps=params.adaptation_steps,
            )
            return ad.reshape(learners.episode_nll(rebuilt, [ep]), ())

        assert ad.grad_check(f, tensors) < 1e-4


class TestLikelihoodProperties:
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_probabilities_sum_to_one(self, algorithm):
        for seed in range(5):
            ep = _random_episode(20 + seed, n=4)
            params = learners.init_params(algorithm, 5, 4, seed=seed)
            probs = _probabilities(params, ep)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_difficulty_recompute_is_bit_identical(self, algorithm):
        ep = _random_episode(30, n=3)
        params = learners.init_params(algorithm, 5, 3, seed=8)
        a = learners.episode_difficulty(learners.episode_log_likelihoods(params, [ep]))
        b = learners.episode_difficulty(learners.episode_log_likelihoods(params, [ep]))
        assert a == b


class TestDifficulty:
    def test_chance_level_five_way(self):
        lls = np.full((10, 1), -math.log(5.0))
        assert learners.episode_difficulty(lls) == pytest.approx(math.log(5.0), abs=1e-15)

    def test_perfect_predictions_tend_to_zero(self):
        assert learners.episode_difficulty(np.array([-1e-12, -2e-12])) == pytest.approx(0.0, abs=1e-11)

    def test_hand_mean(self):
        assert learners.episode_difficulty(np.array([-0.1, -0.3])) == pytest.approx(0.2, abs=1e-15)

    def test_empty_vector_rejected(self):
        with pytest.raises(learners.LearnerError):
            learners.episode_difficulty(np.array([]))


class TestAccuracy:
    def test_perfect_separation(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode(
            [[10.0, 0.0], [-10.0, 0.0]], [0, 1],
            [[9.0, 0.5], [-9.5, 0.2]], [0, 1], k=1, q=1,
        )
        assert learners.episode_accuracy(params, [ep]).tolist() == [1.0]

    def test_adversarially_permuted_labels(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode(
            [[10.0, 0.0], [-10.0, 0.0]], [0, 1],
            [[9.0, 0.5], [-9.5, 0.2]], [1, 0], k=1, q=1,
        )
        assert learners.episode_accuracy(params, [ep]).tolist() == [0.0]


class TestCheckpoints:
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_round_trip(self, tmp_path, algorithm):
        params = learners.init_params(algorithm, 6, 3, hidden_sizes=(8,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        loaded = learners.load_checkpoint(tmp_path / "ckpt")
        assert loaded.algorithm == algorithm
        assert loaded.adaptation_rate == params.adaptation_rate
        assert loaded.adaptation_steps == params.adaptation_steps
        for a, b in zip(params.trainable_tensors(), loaded.trainable_tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_round_trip_preserves_predictions(self, tmp_path):
        ep = _random_episode(40, n=3)
        params = learners.init_params("proto_cosine", 5, 3, seed=10)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        loaded = learners.load_checkpoint(tmp_path / "ckpt")
        a = learners.episode_log_likelihoods(params, [ep])
        b = learners.episode_log_likelihoods(loaded, [ep])
        np.testing.assert_array_equal(a.data, b.data)
