"""Tests for the four episodic learners and their difficulties."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episampler import autodiff as ad
from episampler import data, kernels, learners, streams, training
from gradcheck import grad_check
import per_episode


def _episode(support_x, support_labels, query_x, query_labels, k, q):
    """Hand-built one-episode batch over classes 0..n-1 from local labels,
    indexing the support rows followed by the query rows. Learners read
    only the rows and labels, so every sample index is 0."""
    support_labels = np.asarray(support_labels, dtype=np.int64)
    query_labels = np.asarray(query_labels, dtype=np.int64)
    n = int(support_labels.max()) + 1
    x = np.concatenate([np.asarray(support_x, dtype=np.float64), np.asarray(query_x, dtype=np.float64)])
    return data.EpisodeBatch(
        n=n,
        k=k,
        q=q,
        x=x,
        classes=np.arange(n)[None],
        support_labels=support_labels,
        support_samples=np.zeros((1, len(support_labels)), dtype=np.int64),
        support_rows=np.arange(len(support_labels))[None],
        query_labels=query_labels,
        query_samples=np.zeros((1, len(query_labels)), dtype=np.int64),
        query_rows=np.arange(len(support_labels), len(x))[None],
    )


def _joined(episodes):
    """One batch of one-episode batches drawn from different arrays: the
    arrays stacked, each episode's rows shifted to its array's block."""
    x = np.concatenate([ep.x for ep in episodes])
    starts = np.cumsum([0] + [len(ep.x) for ep in episodes[:-1]]).tolist()
    return data.concat([
        dataclasses.replace(ep, x=x, support_rows=ep.support_rows + start, query_rows=ep.query_rows + start)
        for ep, start in zip(episodes, starts)
    ])


def _probabilities(params, ep):
    """(n*q, n) predicted class probabilities per query."""
    logits = learners._episode_logits(params, ep).data[0]
    e = kernels.softmax_xent(logits, ep.query_labels)[1]
    return e / e.sum(axis=1, keepdims=True)


def _identity_params(algorithm, dim, **kwargs):
    """Single linear layer with identity weights: embeddings == inputs."""
    encoder = [
        ad.tensor(np.eye(dim), requires_grad=True), ad.tensor(np.zeros((1, dim)), requires_grad=True)
    ]
    return learners.LearnerParams(algorithm=algorithm, encoder=encoder, **kwargs)


def _random_episode(seed, n=3, k=2, q=4, dim=5):
    ds = data.generate_synthetic(8, k + q + 2, dim, 3.0, 1.0, seed=seed)
    rng = streams.stream(seed, streams.TRAIN_EPISODES)
    return data.sample_episode(ds, n, k, q, rng)


class TestPrototypes:
    """Prototypes of a (B, n*k, d) batch of support embeddings, per episode."""

    def test_single_shot_prototypes_are_the_supports(self):
        emb = streams.stream(0, 98).normal(size=(3, 2, 4))
        protos = learners.compute_prototypes(ad.tensor(emb), np.array([0, 1]), k=1)
        np.testing.assert_array_equal(protos.data, emb)

    def test_mean_of_two(self):
        emb = ad.tensor([[[0.0, 0.0], [2.0, 2.0]], [[1.0, -3.0], [3.0, 5.0]]])
        protos = learners.compute_prototypes(emb, np.array([0, 0]), k=2)
        np.testing.assert_array_equal(protos.data, [[[1.0, 1.0]], [[2.0, 1.0]]])

    def test_permutation_invariance(self):
        rng = streams.stream(0, 99)
        emb = rng.normal(size=(2, 6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        protos = learners.compute_prototypes(ad.tensor(emb), labels, k=2)
        assert protos.shape == (2, 3, 3)
        perm = np.array([3, 1, 5, 0, 4, 2])
        protos_p = learners.compute_prototypes(ad.tensor(emb[:, perm]), labels[perm], k=2)
        np.testing.assert_allclose(protos.data, protos_p.data, atol=1e-15)

    def test_wrong_shot_count_rejected(self):
        emb = ad.tensor(np.zeros((2, 3, 2)))
        with pytest.raises(learners.LearnerError, match="class 1 has 1 support samples, expected 2"):
            learners.compute_prototypes(emb, np.array([0, 0, 1]), k=2)


class TestProtoLikelihoods:
    def test_two_class_hand_value(self):
        # 1-D toy, identity encoder, prototypes {A: 0, B: 2}, query x=0
        # labeled A: p(A) = 1/(1 + exp(-4)), log-lik = log p(A).
        params = _identity_params("proto_euclidean", 1)
        ep = _episode([[0.0], [2.0]], [0, 1], [[0.0]], [0], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, ep)
        expected_p = 1.0 / (1.0 + math.exp(-4.0))
        assert expected_p == pytest.approx(0.98201, abs=1e-5)
        assert ll.item() == pytest.approx(math.log(expected_p), abs=1e-12)
        assert ll.item() == pytest.approx(-0.01815, abs=1e-5)

    def test_equidistant_query_scores_ln_n(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode([[1.0, 0.0], [-1.0, 0.0]], [0, 1], [[0.0, 0.0]], [0], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, ep)
        assert ll.item() == -math.log(2.0)

    def test_cosine_zero_scale_scores_ln_n(self):
        params = _identity_params(
            "proto_cosine", 2, cosine_scale=ad.tensor(0.0, requires_grad=True)
        )
        ep = _episode([[1.0, 0.0], [0.0, 1.0]], [0, 1], [[1.0, 1.0], [2.0, 0.1]], [0, 1], k=1, q=1)
        ll = learners.episode_log_likelihoods(params, ep)
        np.testing.assert_array_equal(ll.data, [[-math.log(2.0), -math.log(2.0)]])

    def test_cosine_zero_norm_embedding_rejected(self):
        params = _identity_params(
            "proto_cosine", 2, cosine_scale=ad.tensor(10.0, requires_grad=True)
        )
        ep = _episode([[1.0, 0.0], [0.0, 1.0]], [0, 1], [[0.0, 0.0]], [0], k=1, q=1)
        with pytest.raises(learners.LearnerError, match="zero-norm"):
            learners.episode_log_likelihoods(params, ep)

    def test_translation_invariance_of_euclidean(self):
        params = _identity_params("proto_euclidean", 3)
        ep = _random_episode(2, dim=3)
        shift = np.array([5.0, -3.0, 1.5])
        shifted = dataclasses.replace(ep, x=ep.x + shift)
        base = learners.episode_log_likelihoods(params, ep)
        moved = learners.episode_log_likelihoods(params, shifted)
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
        ll = learners.episode_log_likelihoods(params, ep)
        # Unadapted = encode then zero-initialized head: uniform logits.
        np.testing.assert_allclose(ll.data, -math.log(3.0), atol=1e-12)

    def test_zero_head_before_adaptation_scores_ln_n(self):
        ep = _random_episode(6, n=3)
        for algorithm in ("maml", "anil"):
            params = learners.init_params(algorithm, 5, 3, seed=2, adaptation_rate=0.0)
            ll = learners.episode_log_likelihoods(params, ep)
            np.testing.assert_allclose(ll.data, -math.log(3.0), atol=1e-12)

    def test_adaptation_reduces_support_loss(self):
        # The query set is the support set, so the episode NLL after s inner
        # steps is the support loss the inner loop descends. A small step
        # keeps plain gradient descent monotone; the default rate need not.
        for seed in range(7, 12):
            ep = _random_episode(seed, n=3)
            ep = dataclasses.replace(
                ep, q=ep.k, query_labels=ep.support_labels, query_samples=ep.support_samples,
                query_rows=ep.support_rows,
            )
            for algorithm in ("maml", "anil"):
                losses = [
                    learners.episode_nll(
                        learners.init_params(
                            algorithm, 5, 3, seed=3, adaptation_rate=0.01, adaptation_steps=steps
                        ),
                        ep,
                    ).item()
                    for steps in range(1, 6)
                ]
                assert all(b <= a for a, b in zip(losses, losses[1:])), (seed, algorithm, losses)

    def test_head_width_mismatch_rejected(self):
        ep = _random_episode(8, n=3)
        params = learners.init_params("maml", 5, 4, seed=0)
        with pytest.raises(learners.LearnerError, match="width"):
            learners.episode_log_likelihoods(params, ep)

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_non_finite_inner_loss_names_the_episode(self, algorithm):
        episodes = [_random_episode(12 + i, n=3) for i in range(4)]
        x = episodes[2].x.copy()
        x[episodes[2].support_rows] = 1e308
        episodes = _joined(episodes[:2] + [dataclasses.replace(episodes[2], x=x)] + episodes[3:])
        params = learners.init_params(algorithm, 5, 3, seed=4)
        # Recording (second-order inner loop) and not (first-order).
        for mode in (contextlib.nullcontext, ad.no_grad):
            with mode(), np.errstate(all="ignore"), pytest.raises(learners.LearnerError, match="episode 2 .*step 0"):
                learners.episode_nll(params, episodes)

    def test_anil_inner_loop_never_touches_encoder(self):
        ep = _random_episode(9, n=3)
        params = learners.init_params("anil", 5, 3, seed=5, adaptation_steps=3)
        before = [t.data.copy() for t in params.encoder]
        learners.episode_log_likelihoods(params, ep)
        for old, t in zip(before, params.encoder, strict=True):
            assert old.tobytes() == t.data.tobytes()

    def test_maml_outer_gradient_matches_finite_differences(self):
        # Full second-order path through a small maml learner.
        ep = _random_episode(10, n=2, k=1, q=2, dim=3)
        params = learners.init_params(
            "maml", 3, 2, hidden_sizes=(4,), embedding_dim=3, seed=6,
            adaptation_rate=0.05, adaptation_steps=2,
        )
        tensors = params.trainable_tensors()

        def f(*ts):
            # rebuild with the caller's leaves so gradients attach to them
            return ad.reshape(learners.episode_nll(params.with_tensors(ts), ep), ())

        assert grad_check(f, tensors) < 1e-4

    def test_anil_outer_gradient_matches_finite_differences(self):
        ep = _random_episode(11, n=2, k=1, q=2, dim=3)
        params = learners.init_params(
            "anil", 3, 2, hidden_sizes=(4,), embedding_dim=3, seed=7,
            adaptation_rate=0.1, adaptation_steps=2,
        )
        tensors = params.trainable_tensors()

        def f(*ts):
            return ad.reshape(learners.episode_nll(params.with_tensors(ts), ep), ())

        assert grad_check(f, tensors) < 1e-4


class TestMatchesPerEpisodeReference:
    """Batched inner loops against each episode adapting on its own tape
    (``per_episode``). The outer gradient sums the episodes in another
    order, so it agrees to 1e-10 of its largest entry, not bit for bit."""

    @pytest.mark.parametrize("batch", [1, 4, 16])
    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_nll_and_outer_gradient(self, algorithm, shot, batch):
        ds = data.generate_synthetic(8, shot + 6, 5, 3.0, 1.0, seed=70)
        rng = streams.stream(70, streams.TRAIN_EPISODES)
        episodes = data.concat([data.sample_episode(ds, 3, shot, 4, rng) for _ in range(batch)])
        params = learners.init_params(
            algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=13, adaptation_steps=3
        )
        tensors = params.trainable_tensors()
        nll = learners.episode_nll(params, episodes)
        ref = per_episode.episode_nlls(params, episodes)
        np.testing.assert_allclose(nll.data, [t.item() for t in ref], rtol=1e-10, atol=0)
        ref_total = ref[0]
        for t in ref[1:]:
            ref_total = ad.add(ref_total, t)
        grads, ref_grads = ad.grad(ad.sum(nll), tensors), ad.grad(ref_total, tensors)
        scale = max(float(np.abs(r.data).max()) for r in ref_grads)
        for g, r in zip(grads, ref_grads):
            np.testing.assert_allclose(g.data, r.data, rtol=0, atol=1e-10 * scale)


class TestFirstOrderWhenNotRecording:
    """Under ``no_grad`` the inner loop is first order on leaf fast weights;
    its values must be the recording path's, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 4, 16])
    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_values_equal_the_recording_path(self, algorithm, shot, batch):
        ds = data.generate_synthetic(8, shot + 6, 5, 3.0, 1.0, seed=71)
        rng = streams.stream(71, streams.TRAIN_EPISODES)
        episodes = data.concat([data.sample_episode(ds, 3, shot, 4, rng) for _ in range(batch)])
        params = learners.init_params(
            algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=15, adaptation_steps=3
        )
        logits = learners._episode_logits(params, episodes).data
        lls = learners.episode_log_likelihoods(params, episodes).data
        accuracy = learners.episode_accuracy(params, episodes)
        with ad.no_grad():
            np.testing.assert_array_equal(learners._episode_logits(params, episodes).data, logits)
            np.testing.assert_array_equal(learners.episode_accuracy(params, episodes), accuracy)
        np.testing.assert_array_equal(training.score_difficulties(params, episodes), -lls.mean(axis=1))

    def test_inner_grads_build_no_graph(self, monkeypatch):
        # 5-way 1-shot 15-query episodes, d = 12 and a 64-64-64 MLP, as in perfbench.
        episodes = _joined([_random_episode(90 + i, n=5, k=1, q=15, dim=12) for i in range(4)])
        params = learners.init_params("maml", 12, 5, hidden_sizes=(64, 64), embedding_dim=64, seed=16)
        flags, recorded, inside = [], [0], [False]
        make, grad = ad._make, ad.grad

        def counting_make(*args):
            out = make(*args)
            recorded[0] += inside[0] and out.node is not None
            return out

        def counting_grad(output, inputs, create_graph=False, allow_unused=False):
            flags.append(create_graph)
            inside[0] = True
            try:
                return grad(output, inputs, create_graph=create_graph, allow_unused=allow_unused)
            finally:
                inside[0] = False

        monkeypatch.setattr(ad, "_make", counting_make)
        monkeypatch.setattr(ad, "grad", counting_grad)
        with ad.no_grad():
            learners.episode_accuracy(params, episodes)
        assert flags == [False] * params.adaptation_steps
        assert recorded[0] == 0

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_first_order_steps_take_their_inputs_as_constants(self, algorithm, monkeypatch):
        # Under no_grad no step links back to an earlier support pass, so
        # that pass is freed when the next begins.
        episodes = _joined([_random_episode(60 + i, n=3, k=2, q=2, dim=5) for i in range(2)])
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(8,), embedding_dim=8, seed=3)
        on_tape = []
        sgd_step = ad.sgd_step

        def recording_step(w, a, g, alpha):
            on_tape.append(a.node is not None)
            return sgd_step(w, a, g, alpha)

        monkeypatch.setattr(ad, "sgd_step", recording_step)
        learners.episode_nll(params, episodes)
        # Recording: MAML's later layers and ANIL's head read activations
        # of the parameters.
        assert any(on_tape)
        on_tape.clear()
        with ad.no_grad():
            learners.episode_nll(params, episodes)
        assert on_tape and not any(on_tape)


class TestTapeCost:
    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_recorded_nodes_do_not_grow_with_the_batch(self, algorithm, monkeypatch):
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=14)
        recorded = [0]
        make = ad._make

        def counting_make(*args):
            out = make(*args)
            recorded[0] += out.node is not None
            return out

        monkeypatch.setattr(ad, "_make", counting_make)
        counts = []
        for batch in (4, 16):
            episodes = _joined([_random_episode(80 + i, n=3, k=1, q=4) for i in range(batch)])
            recorded[0] = 0
            learners.episode_nll(params, episodes)
            counts.append(recorded[0])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    def test_inner_grad_cost_does_not_grow_with_the_step(self, algorithm, monkeypatch):
        # 5-way 1-shot 15-query episodes, d = 12 and a 64-64-64 MLP, as in perfbench.
        ep = _random_episode(50, n=5, k=1, q=15, dim=12)
        params = learners.init_params(algorithm, 12, 5, hidden_sizes=(64, 64), embedding_dim=64, seed=11)
        recorded, walked, inside = [], [], [False]
        make, topo_order, grad = ad._make, ad._topo_order, ad.grad

        def counting_make(*args):
            out = make(*args)
            if inside[0] and out.node is not None:
                recorded[-1] += 1
            return out

        def counting_topo_order(*args):
            order = topo_order(*args)
            walked.append(len(order))
            return order

        def counting_grad(*args, **kwargs):
            recorded.append(0)
            inside[0] = True
            try:
                return grad(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(ad, "_make", counting_make)
        monkeypatch.setattr(ad, "_topo_order", counting_topo_order)
        monkeypatch.setattr(ad, "grad", counting_grad)
        learners.episode_nll(params, ep)
        assert len(recorded) == len(walked) == params.adaptation_steps == 5
        assert recorded == [recorded[0]] * 5
        # Step 1 walks down to the leaf parameters; every later step stops
        # at the fast weights of the step before it.
        assert walked[1:] == [walked[1]] * 4

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_tape_is_freed_without_the_cyclic_collector(self, algorithm):
        episodes = _joined([_random_episode(60 + i, n=3, k=1, q=4) for i in range(2)])
        params = learners.init_params(algorithm, 5, 3, seed=12)
        gc.collect()
        gc.disable()
        try:
            loss = ad.sum(learners.episode_nll(params, episodes))
            grads = ad.grad(loss, params.trainable_tensors())
            del loss, grads
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        a = training.score_difficulties(params, [ep])
        b = training.score_difficulties(params, [ep])
        assert a == b == [-learners.episode_log_likelihoods(params, ep).data.mean()]

    # Finite logits up to 1e300 in size keep every shifted logit and every
    # mean of losses finite; larger ones can overflow the shift itself.
    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_difficulty_is_never_negative(self, data):
        count = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        q = data.draw(st.integers(1, 3))
        logits = data.draw(
            st.lists(st.floats(-1e300, 1e300), min_size=count * n * q * n, max_size=count * n * q * n)
        )
        labels = np.repeat(np.arange(n), q)
        episodes = [_episode(np.zeros((n, 1)), np.arange(n), np.zeros((n * q, 1)), labels, 1, q)] * count
        params = _identity_params("proto_euclidean", 1)
        fixed = ad.tensor(np.reshape(logits, (count, n * q, n)))
        with mock.patch.object(learners, "_episode_logits", return_value=fixed):
            omegas = training.score_difficulties(params, episodes)
        assert len(omegas) == count
        assert all(omega >= 0.0 for omega in omegas)


class TestAccuracy:
    def test_perfect_separation(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode(
            [[10.0, 0.0], [-10.0, 0.0]], [0, 1],
            [[9.0, 0.5], [-9.5, 0.2]], [0, 1], k=1, q=1,
        )
        assert learners.episode_accuracy(params, ep).tolist() == [1.0]

    def test_adversarially_permuted_labels(self):
        params = _identity_params("proto_euclidean", 2)
        ep = _episode(
            [[10.0, 0.0], [-10.0, 0.0]], [0, 1],
            [[9.0, 0.5], [-9.5, 0.2]], [1, 0], k=1, q=1,
        )
        assert learners.episode_accuracy(params, ep).tolist() == [0.0]


class TestEncoded:
    """Batches passed through ``encoded`` against the same batches on the
    raw rows. The encoder works row by row and every stack here has at
    least two rows, so the logits keep their bits."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("shot", [1, 5])
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_logits_equal_the_raw_rows(self, algorithm, shot, batch):
        ds = data.generate_synthetic(8, shot + 6, 5, 3.0, 1.0, seed=72)
        params = learners.init_params(
            algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=16, adaptation_steps=3
        )
        raw = data.sample_episodes(ds, 3, shot, 4, streams.stream(72, streams.TEST_EPISODES), batch)
        frozen, episodes = learners.encoded(params, raw)
        assert len(episodes) == len(raw) == batch
        np.testing.assert_array_equal(episodes.classes, raw.classes)
        np.testing.assert_array_equal(episodes.support_samples, raw.support_samples)
        np.testing.assert_array_equal(episodes.query_samples, raw.query_samples)
        with ad.no_grad():
            np.testing.assert_array_equal(
                learners._episode_logits(frozen, episodes).data,
                learners._episode_logits(params, raw).data,
            )

    # None keeps ENCODE_STACK_ROWS, which takes the 9 rows in one stack.
    @pytest.mark.parametrize("rows_per_stack", [None, 2, 3, 4, 8, 9, 20])
    def test_stacks_keep_the_bits_and_leave_no_row_alone(self, monkeypatch, rows_per_stack):
        x = streams.stream(73, streams.INIT).standard_normal((9, 5))
        # One 3-way episode with 1 support and 2 queries per class: rows 0-2
        # and 3-8, each indexed once.
        ep = _episode(x[:3], [0, 1, 2], x[3:], [0, 0, 1, 1, 2, 2], k=1, q=2)
        params = learners.init_params("proto_cosine", 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=17)
        with ad.no_grad():
            whole = learners._encode(params.encoder, ad.tensor(x)).data
        stacks = []
        encode = learners._encode

        def counting_encode(encoder, rows):
            stacks.append(rows.shape[0])
            return encode(encoder, rows)

        monkeypatch.setattr(learners, "_encode", counting_encode)
        if rows_per_stack is not None:
            monkeypatch.setattr(learners, "ENCODE_STACK_ROWS", rows_per_stack)
        frozen, out = learners.encoded(params, ep)
        np.testing.assert_array_equal(out.x, whole)
        np.testing.assert_array_equal(out.support_rows, ep.support_rows)
        np.testing.assert_array_equal(out.query_rows, ep.query_rows)
        assert sum(stacks) == 9 and min(stacks) >= 2
        assert max(stacks) <= (rows_per_stack or 9) + 1
        assert frozen.encoder == [] and frozen.cosine_scale is params.cosine_scale

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_only_maml_keeps_its_encoder(self, algorithm):
        ds = data.generate_synthetic(4, 3, 5, 3.0, 1.0, seed=0)
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=16)
        batch = data.sample_episodes(ds, 3, 1, 2, streams.stream(0, streams.TEST_EPISODES), 4)
        frozen, out = learners.encoded(params, batch)
        if algorithm == "maml":
            assert frozen is params and out is batch
            return
        rows = np.union1d(batch.support_rows, batch.query_rows)
        assert frozen.encoder == [] and out.x.shape == (len(rows), 8)
        np.testing.assert_array_equal(rows[out.support_rows], batch.support_rows)
        np.testing.assert_array_equal(rows[out.query_rows], batch.query_rows)
        for name in ("classes", "support_labels", "support_samples", "query_labels", "query_samples"):
            assert getattr(out, name) is getattr(batch, name)
        assert frozen.trainable_tensors() == params.trainable_tensors()[len(params.encoder) :]

    @pytest.mark.parametrize("algorithm", ["proto_euclidean", "proto_cosine", "anil"])
    def test_encoderless_learner_has_no_layer_sizes_or_checkpoint(self, tmp_path, algorithm):
        ds = data.generate_synthetic(4, 3, 5, 3.0, 1.0, seed=0)
        params = learners.init_params(algorithm, 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=16)
        batch = data.sample_episodes(ds, 3, 1, 2, streams.stream(0, streams.TEST_EPISODES), 2)
        frozen, _ = learners.encoded(params, batch)
        match = f"^{algorithm} learner has no encoder: it reads embedded rows$"
        with pytest.raises(learners.LearnerError, match=match):
            frozen.layer_sizes
        with pytest.raises(learners.LearnerError, match=match):
            learners.save_checkpoint(frozen, tmp_path / "ckpt")
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_rows_of_another_width_are_rejected(self, algorithm):
        ds = data.generate_synthetic(4, 3, 8, 3.0, 1.0, seed=0)
        params = learners.init_params(algorithm, 12, 3, hidden_sizes=(16,), embedding_dim=8, seed=16)
        batch = data.sample_episodes(ds, 3, 1, 2, streams.stream(0, streams.TEST_EPISODES), 2)
        match = f"^{algorithm} learner takes 12 features per row, the episodes' rows have 8$"
        for read in (learners.encoded, learners.episode_accuracy):
            with pytest.raises(learners.LearnerError, match=match):
                read(params, batch)

    def test_encoderless_anil_checks_its_head_width(self):
        ds = data.generate_synthetic(4, 3, 5, 3.0, 1.0, seed=0)
        params = learners.init_params("anil", 5, 3, hidden_sizes=(16,), embedding_dim=8, seed=16)
        batch = data.sample_episodes(ds, 3, 1, 2, streams.stream(0, streams.TEST_EPISODES), 2)
        frozen, _ = learners.encoded(params, batch)
        match = "^anil learner takes 8 features per row, the episodes' rows have 5$"
        with pytest.raises(learners.LearnerError, match=match):
            learners.episode_accuracy(frozen, batch)


class TestWithTensors:
    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_inverts_trainable_tensors(self, algorithm):
        params = learners.init_params(algorithm, 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        fresh = [ad.tensor(t.data + 1.0) for t in params.trainable_tensors()]
        rebuilt = params.with_tensors(fresh)
        assert all(a is b for a, b in zip(rebuilt.trainable_tensors(), fresh, strict=True))
        assert (rebuilt.algorithm, rebuilt.adaptation_rate, rebuilt.adaptation_steps) == (
            params.algorithm, params.adaptation_rate, params.adaptation_steps
        )

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_wrong_count_rejected(self, algorithm):
        params = learners.init_params(algorithm, 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        tensors = params.trainable_tensors()
        for wrong in (tensors[:-1], [*tensors, tensors[0]]):
            with pytest.raises(learners.LearnerError, match=f"has {len(tensors)} tensors, got {len(wrong)}"):
                params.with_tensors(wrong)


class TestInitParams:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(learners.LearnerError, match="^unknown algorithm 'protonet'$"):
            learners.init_params("protonet", 4, 3)


class TestLearnerParams:
    """The flat parameter lists hold a weight and a bias per layer; the
    layer loop would drop a stray tensor without a word."""

    @pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
    def test_odd_length_encoder_rejected(self, algorithm):
        params = learners.init_params(algorithm, 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        with pytest.raises(learners.LearnerError, match="^encoder has 3 tensors: a weight and a bias per layer$"):
            dataclasses.replace(params, encoder=params.encoder[:-1])

    @pytest.mark.parametrize("algorithm", learners.GRADIENT_ALGORITHMS)
    @pytest.mark.parametrize("keep", [1, 3])
    def test_head_not_a_pair_rejected(self, algorithm, keep):
        params = learners.init_params(algorithm, 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        head = (params.head * 2)[:keep]
        with pytest.raises(learners.LearnerError, match=f"^head has {keep} tensors, not a weight and a bias$"):
            dataclasses.replace(params, head=head)


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.1x"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        params = learners.init_params("maml", 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        csv = tmp_path / "ckpt.csv"
        lines = csv.read_text().splitlines()
        lines[7] = bad
        lines.insert(3, "")
        csv.write_text("\n".join(lines) + "\n")
        kind = "non-numeric" if bad == "0.1x" else "non-finite"
        match = f"^{re.escape(str(csv))} line 9 field 'value': {kind} value '{bad}'$"
        with pytest.raises(learners.LearnerError, match=match):
            learners.load_checkpoint(tmp_path / "ckpt")

    def test_bad_header_names_file(self, tmp_path):
        params = learners.init_params("maml", 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        csv = tmp_path / "ckpt.csv"
        csv.write_text("weight" + csv.read_text()[len("value"):])
        match = f"^{re.escape(str(csv))} line 1: header 'weight', expected 'value'$"
        with pytest.raises(learners.LearnerError, match=match):
            learners.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "algorithm, field, value",
        [("maml", "way", None), ("proto_euclidean", "way", 3), ("proto_euclidean", "has_cosine_scale", True),
         ("proto_cosine", "has_cosine_scale", False)],
    )
    def test_manifest_that_does_not_fit_its_algorithm_rejected(self, tmp_path, algorithm, field, value):
        params = learners.init_params(algorithm, 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(learners.LearnerError, match="do not fit algorithm"):
            learners.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda m: m.pop("way"), "has no field 'way'"),
            (lambda m: m.update(layer_sizes=None), "field 'layer_sizes': invalid value None"),
            (lambda m: m.update(adaptation_steps="5"), "field 'adaptation_steps': invalid value '5'"),
            (lambda m: m.update(adaptation_rate=math.inf), "field 'adaptation_rate': invalid value inf"),
            (lambda m: m.update(adaptation_rate=math.nan), "field 'adaptation_rate': invalid value nan"),
            (None, "is not JSON"),
        ],
        ids=["missing-way", "null-layer-sizes", "string-steps", "infinite-rate", "nan-rate", "not-json"],
    )
    def test_malformed_manifest_names_file_and_field(self, tmp_path, edit, match):
        params = learners.init_params("maml", 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt.json"
        if edit is None:
            manifest_path.write_text(manifest_path.read_text()[:-2])
        else:
            manifest = json.loads(manifest_path.read_text())
            edit(manifest)
            manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(learners.LearnerError, match=f"{re.escape(str(manifest_path))} .*{re.escape(match)}"):
            learners.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("change", ["drop", "append"])
    def test_value_count_must_match_the_manifest(self, tmp_path, change):
        params = learners.init_params("proto_cosine", 4, 3, hidden_sizes=(5,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        csv = tmp_path / "ckpt.csv"
        lines = csv.read_text().splitlines()
        lines = lines[:-1] if change == "drop" else [*lines, "0.5"]
        csv.write_text("\n".join(lines) + "\n")
        # 4*5 + 5 + 5*4 + 4 encoder values and the cosine scale.
        match = f"^checkpoint CSV {re.escape(str(csv))} has {len(lines) - 1} values, its manifest needs 50$"
        with pytest.raises(learners.LearnerError, match=match):
            learners.load_checkpoint(tmp_path / "ckpt")

    def test_written_bytes(self, tmp_path):
        # Literal digests of one checkpoint; a change to the value format
        # or the manifest moves them.
        params = learners.init_params("maml", 6, 3, hidden_sizes=(8,), embedding_dim=4, seed=9)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        digests = {
            suffix: hashlib.sha256((tmp_path / f"ckpt{suffix}").read_bytes()).hexdigest()
            for suffix in (".csv", ".json")
        }
        assert digests == {
            ".csv": "83b97ff54adfcd94179915bf482e2b8155eb474a09e8f6854a2b0dc4efd42fd2",
            ".json": "a6fe3405c40ddcf569b119dfb8732d9aec7fbdacd68aa3a004ba488c5fd513aa",
        }

    def test_round_trip_preserves_predictions(self, tmp_path):
        ep = _random_episode(40, n=3)
        params = learners.init_params("proto_cosine", 5, 3, seed=10)
        learners.save_checkpoint(params, tmp_path / "ckpt")
        loaded = learners.load_checkpoint(tmp_path / "ckpt")
        a = learners.episode_log_likelihoods(params, ep)
        b = learners.episode_log_likelihoods(loaded, ep)
        np.testing.assert_array_equal(a.data, b.data)
