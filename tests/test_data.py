"""Tests for synthetic dataset generation, episode sampling, and disk IO."""

import hashlib
import json

import numpy as np
import pytest

from episampler import data, streams


def _small_dataset(seed=0, classes=10, samples=20, dim=4):
    return data.generate_synthetic(classes, samples, dim, 3.0, 1.0, seed)


SHUFFLED_ORDER = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]


def _load_shuffled(ds, path):
    """Save ``ds`` with its manifest listing classes in ``SHUFFLED_ORDER``,
    then load it back."""
    data.save_dataset(ds, path)
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["class_ids"] = [manifest["class_ids"][i] for i in SHUFFLED_ORDER]
    manifest["per_class_counts"] = [manifest["per_class_counts"][i] for i in SHUFFLED_ORDER]
    manifest_path.write_text(json.dumps(manifest))
    return data.load_dataset(path)


def _class_rows(ds, cid):
    i = ds.class_ids.index(cid)
    return ds.x[ds.offsets[i] : ds.offsets[i + 1]]


class TestGenerate:
    def test_zero_noise_collapses_to_class_mean(self):
        ds = data.generate_synthetic(4, 6, 3, 2.0, 0.0, seed=1)
        for cid in ds.class_ids:
            rows = _class_rows(ds, cid)
            np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
            assert np.linalg.norm(rows[0]) == pytest.approx(2.0)

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
        assert not np.array_equal(_class_rows(a, 0), _class_rows(b, 0))


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

    def test_explicit_ids_are_sorted_and_keep_their_rows(self):
        ds = _small_dataset(classes=5, samples=3)
        parts = data.split_classes(ds, ([4, 1], [3, 0], [2]))
        assert [p.class_ids for p in parts] == [(1, 4), (0, 3), (2,)]
        for part in parts:
            for cid in part.class_ids:
                np.testing.assert_array_equal(_class_rows(part, cid), _class_rows(ds, cid))

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
        np.testing.assert_array_equal(loaded.offsets, ds.offsets)
        np.testing.assert_array_equal(loaded.x, ds.x)
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_parse_error(self, tmp_path, cell):
        ds = _small_dataset(classes=2, samples=2)
        data.save_dataset(ds, tmp_path / "ds")
        csv = tmp_path / "ds" / "data.csv"
        lines = csv.read_text().splitlines()
        parts = lines[2].split(",")
        parts[2] = cell
        lines[2] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DatasetParseError, match="non-finite.*line 3, field 'f1'"):
            data.load_dataset(tmp_path / "ds")

    def test_manifest_count_mismatch_is_validation_error(self, tmp_path):
        ds = _small_dataset(classes=2, samples=2)
        data.save_dataset(ds, tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["per_class_counts"][0] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(data.DatasetParseError, match="promises"):
            data.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "edits, field",
        [
            ({"feature_dim": "4x"}, "feature_dim"),
            ({"class_ids": ["0x"]}, "class_ids"),
            ({"per_class_counts": ["2x"]}, "per_class_counts"),
            ({"class_ids": [0, 1], "per_class_counts": [2, 0]}, "per_class_counts"),
            ({"class_ids": [], "per_class_counts": []}, "class_ids"),
            ({"class_ids": [0, 0], "per_class_counts": [2, 2]}, "class_ids"),
            ({"generator": "x"}, "generator"),
            ({"generator": 5}, "generator"),
            ({"generator": [["seed", 1]]}, "generator"),
            ({"split": "bogus"}, "split"),
            ({"split": 5}, "split"),
            ({"split": ["train"]}, "split"),
        ],
        ids=[
            "feature_dim", "class_id", "count", "zero_count", "no_classes", "duplicate_id",
            "generator_string", "generator_int", "generator_pairs",
            "split_unknown", "split_int", "split_list",
        ],
    )
    def test_bad_manifest_entry_names_its_field(self, tmp_path, edits, field):
        data.save_dataset(_small_dataset(classes=1, samples=2), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(edits)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(data.DatasetParseError, match=f"field '{field}'"):
            data.load_dataset(tmp_path / "ds")

    def test_written_bytes(self, tmp_path):
        # Literal digests of one dataset and one episode file (classes not in
        # id order); a change to the float format or the JSON layout moves them.
        ds = _small_dataset(seed=2)
        data.save_dataset(ds, tmp_path / "ds")
        shuffled = _load_shuffled(ds, tmp_path / "ds")
        rng = streams.stream(4, streams.TRAIN_EPISODES)
        data.save_episode_file(
            [data.sample_episode(shuffled, 4, 2, 3, rng) for _ in range(20)], tmp_path / "episodes.json"
        )
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("ds/data.csv", "episodes.json")
        }
        assert digests == {
            "ds/data.csv": "8b6d1064a42dc8f840e24ffe18ff865c5057dd02370d6aa553a63c9c85739d13",
            "episodes.json": "2ffbba801d4b02ed99d93e7c12ac9c7fc9cdb9ae3742f1817224fd2dfdb0f537",
        }

    def test_episode_rows_match_their_pairs_when_classes_are_not_id_ordered(self, tmp_path):
        ds = _small_dataset(seed=2)
        shuffled = _load_shuffled(ds, tmp_path / "ds")
        assert shuffled.class_ids == tuple(SHUFFLED_ORDER)

        rng = streams.stream(4, streams.TRAIN_EPISODES)
        eps = [data.sample_episode(shuffled, 4, 2, 3, rng) for _ in range(20)]
        data.save_episode_file(eps, tmp_path / "episodes.json")
        entries = json.loads((tmp_path / "episodes.json").read_text())["episodes"]
        for ep, entry in zip(eps, entries):
            for rows, pairs in ((ep.support_x, entry["support"]), (ep.query_x, entry["query"])):
                assert len(rows) == len(pairs)
                for row, (cid, idx) in zip(rows, pairs):
                    np.testing.assert_array_equal(row, _class_rows(ds, cid)[idx])


def _stream_digest(ds):
    h = hashlib.sha256()
    rng = streams.stream(4, streams.TRAIN_EPISODES)
    for _ in range(50):
        ep = data.sample_episode(ds, 4, 2, 3, rng)
        for arr in (ep.classes, ep.support_samples, ep.query_samples, ep.support_x, ep.query_x):
            h.update(np.asarray(arr).tobytes())
    return h.hexdigest()


class TestEpisodeStream:
    # Literal digests of the first 50 episodes; a change to the draw order,
    # to the dtypes or to which rows are gathered moves them.
    def test_id_ordered_dataset(self):
        digest = "6ca6d0e9a9678bcc88627d82595d7349b1095a397f57e2304655e155d6175415"
        assert _stream_digest(_small_dataset(seed=2)) == digest

    def test_shuffled_manifest(self, tmp_path):
        # Positions are drawn over the manifest order, so storing classes
        # sorted by id would change this stream.
        digest = "63486676131914a3eabcbcfe9d1f4720927c0521de485df8ac12cc87f2f3adc0"
        assert _stream_digest(_load_shuffled(_small_dataset(seed=2), tmp_path / "ds")) == digest


class TestReadOnly:
    def test_dataset_rows_cannot_be_written(self, tmp_path):
        ds = _small_dataset()
        data.save_dataset(ds, tmp_path / "ds")
        for each in (ds, *data.split_classes(ds, (6, 2, 2)), data.load_dataset(tmp_path / "ds")):
            with pytest.raises(ValueError):
                each.x[0, 0] = 1.0

    def test_episode_rows_are_copies(self):
        ds = _small_dataset()
        before = ds.x.copy()
        ep = data.sample_episode(ds, 3, 2, 2, streams.stream(0, streams.TRAIN_EPISODES))
        ep.support_x[:] = 99.0
        ep.query_x[:] = 99.0
        np.testing.assert_array_equal(ds.x, before)
