"""Tests for synthetic dataset generation, episode sampling, and disk IO."""

import numpy as np
import pytest

from episampler import data, streams


def _small_dataset(seed=0, classes=10, samples=20, dim=4):
    return data.generate_synthetic(classes, samples, dim, 3.0, 1.0, seed)


class TestGenerate:
    def test_zero_noise_collapses_to_class_mean(self):
        ds = data.generate_synthetic(4, 6, 3, 2.0, 0.0, seed=1)
        for rec in ds.classes:
            np.testing.assert_array_equal(rec.features, np.broadcast_to(rec.features[0], rec.features.shape))
            assert np.linalg.norm(rec.features[0]) == pytest.approx(2.0)

    def test_same_seed_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        data.save_dataset(data.generate_synthetic(5, 4, 3, 3.0, 1.0, seed=7), a)
        data.save_dataset(data.generate_synthetic(5, 4, 3, 3.0, 1.0, seed=7), b)
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_feature_dim_below_two_rejected(self):
        with pytest.raises(data.DatasetError):
            data.generate_synthetic(3, 3, 1, 3.0, 1.0, seed=0)

    def test_different_seeds_differ(self):
        a = data.generate_synthetic(3, 3, 4, 3.0, 1.0, seed=0)
        b = data.generate_synthetic(3, 3, 4, 3.0, 1.0, seed=1)
        assert not np.array_equal(a.classes[0].features, b.classes[0].features)


class TestSplit:
    def test_mini_imagenet_proportions(self):
        ds = _small_dataset(classes=100, samples=3, dim=2)
        train, val, test = data.split_classes(ds, (64, 16, 20))
        assert (train.num_classes, val.num_classes, test.num_classes) == (64, 16, 20)
        assert set(train.class_ids) | set(val.class_ids) | set(test.class_ids) == set(ds.class_ids)
        assert train.split == "train" and val.split == "val" and test.split == "test"

    def test_three_singletons(self):
        ds = _small_dataset(classes=3, samples=3)
        parts = data.split_classes(ds, (1, 1, 1))
        assert [p.num_classes for p in parts] == [1, 1, 1]

    def test_overlapping_explicit_ids_rejected(self):
        ds = _small_dataset(classes=4, samples=3)
        with pytest.raises(data.DatasetError):
            data.split_classes(ds, ([0, 1], [1, 2], [3]))

    def test_empty_split_rejected(self):
        ds = _small_dataset(classes=3, samples=3)
        with pytest.raises(data.DatasetError):
            data.split_classes(ds, (100, 1e-9, 1e-9))


class TestSampleEpisode:
    def test_protocol_arithmetic(self):
        ds = _small_dataset()
        rng = streams.stream(0, streams.TRAIN_EPISODES)
        ep = data.sample_episode(ds, 5, 1, 15, rng)
        assert ep.support_x.shape == (5, 4)
        assert ep.query_x.shape == (75, 4)
        assert ep.support_labels.shape == ep.support_samples.shape == (5,)
        assert ep.query_labels.shape == ep.query_samples.shape == (75,)

    def test_full_class_set(self):
        ds = _small_dataset(classes=5)
        rng = streams.stream(0, streams.TRAIN_EPISODES)
        ep = data.sample_episode(ds, 5, 2, 2, rng)
        assert ep.classes == ds.class_ids

    def test_insufficient_classes_names_deficit(self):
        ds = _small_dataset(classes=3)
        with pytest.raises(data.DatasetError, match="3"):
            data.sample_episode(ds, 5, 1, 1, streams.stream(0, 1))

    def test_insufficient_samples_names_deficit(self):
        ds = _small_dataset(samples=5)
        with pytest.raises(data.DatasetError, match="5"):
            data.sample_episode(ds, 2, 3, 3, streams.stream(0, 1))

    def test_episode_invariants_hold_over_many_samplings(self):
        ds = _small_dataset()
        rng = streams.stream(3, streams.TRAIN_EPISODES)
        for _ in range(10_000):
            ep = data.sample_episode(ds, 3, 2, 2, rng)
            sup = set(zip(ep.support_labels.tolist(), ep.support_samples.tolist()))
            qry = set(zip(ep.query_labels.tolist(), ep.query_samples.tolist()))
            assert len(sup) == 6 and len(qry) == 6
            assert not sup & qry
            assert list(ep.classes) == sorted(set(ep.classes)) and len(ep.classes) == 3
            for label in range(3):
                assert np.sum(ep.support_labels == label) == 2
                assert np.sum(ep.query_labels == label) == 2

    def test_sampling_is_pure_given_rng_state(self):
        ds = _small_dataset()
        a = data.sample_episode(ds, 3, 1, 2, streams.stream(9, 5))
        b = data.sample_episode(ds, 3, 1, 2, streams.stream(9, 5))
        assert a.classes == b.classes
        np.testing.assert_array_equal(a.support_samples, b.support_samples)
        np.testing.assert_array_equal(a.query_x, b.query_x)

    def test_class_marginal_uniform_chi_square(self):
        # Brute-force frequency count over 100k episodes; chi-square
        # goodness of fit against the uniform marginal at p > 0.01
        # (critical value chi2(df=9, 0.99) = 21.666).
        ds = _small_dataset(classes=10, samples=4, dim=2)
        rng = streams.stream(11, streams.TRAIN_EPISODES)
        counts = np.zeros(10)
        reps = 100_000
        for _ in range(reps):
            ep = data.sample_episode(ds, 2, 1, 1, rng)
            for cid in ep.classes:
                counts[cid] += 1
        expected = reps * 2 / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 21.666


class TestDiskRoundTrip:
    def test_round_trip_is_value_identical(self, tmp_path):
        ds = _small_dataset(seed=5)
        data.save_dataset(ds, tmp_path / "ds")
        loaded = data.load_dataset(tmp_path / "ds")
        assert loaded.feature_dim == ds.feature_dim
        assert loaded.split == ds.split
        assert loaded.class_ids == ds.class_ids
        for a, b in zip(ds.classes, loaded.classes):
            np.testing.assert_array_equal(a.features, b.features)
        assert loaded.generator == ds.generator

    def test_wrong_column_count_is_parse_error(self, tmp_path):
        ds = _small_dataset(classes=2, samples=2)
        data.save_dataset(ds, tmp_path / "ds")
        csv = tmp_path / "ds" / "data.csv"
        lines = csv.read_text().splitlines()
        lines[1] = lines[1] + ",0.5"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DatasetParseError, match="line 2"):
            data.load_dataset(tmp_path / "ds")

    def test_manifest_count_mismatch_is_validation_error(self, tmp_path):
        import json

        ds = _small_dataset(classes=2, samples=2)
        data.save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["per_class_counts"][0] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(data.DatasetParseError, match="promises"):
            data.load_dataset(tmp_path / "ds")

    def test_episode_file_round_trip(self, tmp_path):
        ds = _small_dataset()
        rng = streams.stream(1, streams.ANALYSIS)
        eps = [data.sample_episode(ds, 3, 1, 2, rng) for _ in range(5)]
        data.save_episode_file(eps, tmp_path / "episodes.json")
        loaded = data.load_episode_file(tmp_path / "episodes.json", ds)
        assert len(loaded) == 5
        for a, b in zip(eps, loaded):
            assert a.classes == b.classes
            for name in (
                "support_x", "support_labels", "support_samples",
                "query_x", "query_labels", "query_samples",
            ):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_episode_rows_match_their_pairs_when_classes_are_not_id_ordered(self, tmp_path):
        import json

        ds = _small_dataset(seed=2)
        data.save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        order = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
        manifest["class_ids"] = [manifest["class_ids"][i] for i in order]
        manifest["per_class_counts"] = [manifest["per_class_counts"][i] for i in order]
        manifest_path.write_text(json.dumps(manifest))
        shuffled = data.load_dataset(tmp_path / "ds")
        assert shuffled.class_ids == tuple(order)

        rng = streams.stream(4, streams.TRAIN_EPISODES)
        eps = [data.sample_episode(shuffled, 4, 2, 3, rng) for _ in range(20)]
        data.save_episode_file(eps, tmp_path / "episodes.json")
        entries = json.loads((tmp_path / "episodes.json").read_text())["episodes"]
        reference = {rec.class_id: rec.features for rec in ds.classes}
        for ep, entry in zip(eps, entries):
            for rows, pairs in ((ep.support_x, entry["support"]), (ep.query_x, entry["query"])):
                assert len(rows) == len(pairs)
                for row, (cid, idx) in zip(rows, pairs):
                    np.testing.assert_array_equal(row, reference[cid][idx])
