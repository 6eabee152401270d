"""Tests for synthetic dataset generation, episode sampling, and disk IO."""

import collections
import dataclasses
import hashlib
import json
import re

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


RAGGED_IDS = (4, 0, 5, 1, 3, 2)  # manifest order, not id order
RAGGED_COUNTS = (4, 7, 5, 6, 4, 5)


def _ragged(path, counts=RAGGED_COUNTS, ids=RAGGED_IDS, dim=3):
    """A saved and reloaded dataset whose classes hold ``counts`` samples."""
    offsets = np.cumsum([0, *counts])
    x = streams.stream(0, 99).standard_normal((offsets[-1], dim))
    data.save_dataset(data.BaseDataset(x, tuple(ids), offsets, "train"), path)
    return data.load_dataset(path)


def _reference_episode(ds, n, k, q, rng):
    """The episode of the next uniform block, read off the block definition
    in the ``data`` docstring with plain Python lists and sorts."""
    counts = np.diff(ds.offsets).tolist()
    num_classes, max_count = ds.num_classes, max(counts)
    u = rng.random(num_classes + n * max_count).tolist()
    chosen = sorted(range(num_classes), key=lambda i: u[i])[:n]
    pos = sorted(chosen, key=lambda i: ds.class_ids[i])
    picks = []
    for j, p in enumerate(pos):
        block = u[num_classes + j * max_count :][: counts[p]]
        picks.append(sorted(range(counts[p]), key=lambda i: block[i])[: k + q])  # stable
    support = [s for pick in picks for s in pick[:k]]
    query = [s for pick in picks for s in pick[k:]]
    support_rows = [int(ds.offsets[p]) + s for p, pick in zip(pos, picks) for s in pick[:k]]
    query_rows = [int(ds.offsets[p]) + s for p, pick in zip(pos, picks) for s in pick[k:]]
    return tuple(ds.class_ids[p] for p in pos), support, query, ds.x[support_rows], ds.x[query_rows]


def _assert_same_batch(a, b):
    assert (a.n, a.k, a.q) == (b.n, b.k, b.q) and a.x is b.x
    names = ("x", "labels", "samples", "rows")
    for name in ["classes"] + [f"{part}_{n}" for part in ("support", "query") for n in names]:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


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

    @pytest.mark.parametrize("separation, noise", [(-1.0, 1.0), (3.0, -1.0)])
    def test_negative_separation_or_noise_rejected(self, separation, noise):
        with pytest.raises(data.DatasetError, match="^class_separation and noise_scale must be non-negative$"):
            data.generate_synthetic(3, 3, 4, separation, noise, seed=0)

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
        assert len(ep) == 1 and ep.classes.shape == (1, 5)
        assert ep.support_x.shape == (1, 5, 4)
        assert ep.query_x.shape == (1, 75, 4)
        assert ep.support_labels.shape == (5,) and ep.support_samples.shape == ep.support_rows.shape == (1, 5)
        assert ep.query_labels.shape == (75,) and ep.query_samples.shape == ep.query_rows.shape == (1, 75)

    def test_full_class_set(self):
        ds = _small_dataset(classes=5)
        rng = streams.stream(0, streams.TRAIN_EPISODES)
        ep = data.sample_episode(ds, 5, 2, 2, rng)
        assert tuple(ep.classes[0].tolist()) == ds.class_ids

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
            sup = set(zip(ep.support_labels.tolist(), ep.support_samples[0].tolist()))
            qry = set(zip(ep.query_labels.tolist(), ep.query_samples[0].tolist()))
            assert len(sup) == 6 and len(qry) == 6
            assert not sup & qry
            classes = ep.classes[0].tolist()
            assert classes == sorted(set(classes)) and len(classes) == 3
            for label in range(3):
                assert np.sum(ep.support_labels == label) == 2
                assert np.sum(ep.query_labels == label) == 2

    def test_sampling_is_pure_given_rng_state(self):
        ds = _small_dataset()
        a = data.sample_episode(ds, 3, 1, 2, streams.stream(9, 5))
        b = data.sample_episode(ds, 3, 1, 2, streams.stream(9, 5))
        np.testing.assert_array_equal(a.classes, b.classes)
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
            for cid in ep.classes[0].tolist():
                counts[cid] += 1
        expected = reps * 2 / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 21.666


class TestBlockStream:
    @pytest.fixture(params=["generated", "shuffled", "ragged"])
    def dataset(self, request, tmp_path):
        if request.param == "generated":
            return _small_dataset(seed=2)
        if request.param == "shuffled":
            return _load_shuffled(_small_dataset(seed=2), tmp_path / "ds")
        return _ragged(tmp_path / "ds")

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_batch_equals_single_draws(self, dataset, count):
        a, b = streams.stream(6, streams.TRAIN_EPISODES), streams.stream(6, streams.TRAIN_EPISODES)
        for _ in range(3):
            batch = data.sample_episodes(dataset, 3, 1, 3, a, count)
            assert len(batch) == count
            singles = [data.sample_episode(dataset, 3, 1, 3, b) for _ in range(count)]
            _assert_same_batch(batch, data.concat(singles))
        assert a.random() == b.random()

    def test_matches_the_python_reference(self, dataset):
        rng, ref = streams.stream(8, streams.TRAIN_EPISODES), streams.stream(8, streams.TRAIN_EPISODES)
        batch = data.sample_episodes(dataset, 3, 2, 2, rng, 200)
        batch_support_x, batch_query_x = batch.support_x, batch.query_x
        for i in range(len(batch)):
            classes, support, query, support_x, query_x = _reference_episode(dataset, 3, 2, 2, ref)
            assert tuple(batch.classes[i].tolist()) == classes
            assert batch.support_samples[i].tolist() == support and batch.query_samples[i].tolist() == query
            np.testing.assert_array_equal(batch_support_x[i], support_x)
            np.testing.assert_array_equal(batch_query_x[i], query_x)
        assert rng.random() == ref.random()

    def test_episodes_index_the_datasets_own_rows(self, dataset):
        position = {cid: i for i, cid in enumerate(dataset.class_ids)}
        batch = data.sample_episodes(dataset, 3, 2, 2, streams.stream(8, streams.TRAIN_EPISODES), 50)
        assert batch.x is dataset.x and ", x=" not in repr(batch)
        start = dataset.offsets[[[position[cid] for cid in classes] for classes in batch.classes.tolist()]]
        for rows, labels, samples, x in (
            (batch.support_rows, batch.support_labels, batch.support_samples, batch.support_x),
            (batch.query_rows, batch.query_labels, batch.query_samples, batch.query_x),
        ):
            np.testing.assert_array_equal(rows, start[:, labels] + samples)
            expected = dataset.x[rows]
            assert x.dtype == expected.dtype and x.shape == expected.shape
            assert x.tobytes() == expected.tobytes()

    def test_labels_are_shared_and_read_only(self, dataset):
        a = data.sample_episodes(dataset, 3, 2, 1, streams.stream(0, 1), 2)
        b, c = a[1:], data.sample_episode(dataset, 3, 2, 1, streams.stream(0, 1))
        np.testing.assert_array_equal(a.support_labels, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(a.query_labels, [0, 1, 2])
        assert a.support_labels is b.support_labels is c.support_labels
        for labels in (a.support_labels, a.query_labels):
            with pytest.raises(ValueError):
                labels[0] = 1

    def test_non_positive_count_rejected(self):
        with pytest.raises(data.DatasetError, match="count"):
            data.sample_episodes(_small_dataset(), 3, 1, 1, streams.stream(0, 1), 0)

    def test_class_subsets_uniform_chi_square(self, tmp_path):
        # Each episode's class set is one of C(6, 2) = 15 equally likely
        # subsets; Pearson's statistic over 30k episodes against
        # chi2(df=14, 0.999) = 36.123, a 0.1% false-alarm rate.
        ds = _ragged(tmp_path / "ds")
        episodes = data.sample_episodes(ds, 2, 1, 1, streams.stream(12, streams.TRAIN_EPISODES), 30_000)
        counts = collections.Counter(map(tuple, episodes.classes.tolist()))
        assert len(counts) == 15
        observed = np.array(list(counts.values()))
        expected = len(episodes) / 15
        assert float(((observed - expected) ** 2 / expected).sum()) < 36.123

    def test_within_class_samples_uniform_chi_square(self, tmp_path):
        # Within a chosen class of c samples, the (support, query) pair is
        # one of c * (c - 1) equally likely ordered pairs, independently of
        # the other classes. Summed over the six classes, Pearson's statistic
        # has df = sum(c * (c - 1) - 1) = 130 when each class's number of
        # draws is conditioned on; against chi2(df=130, 0.999) = 185.571, a
        # 0.1% false-alarm rate.
        ds = _ragged(tmp_path / "ds")
        episodes = data.sample_episodes(ds, 2, 1, 1, streams.stream(13, streams.TRAIN_EPISODES), 30_000)
        pairs = {cid: collections.Counter() for cid in ds.class_ids}
        for classes, support, query in zip(
            episodes.classes.tolist(), episodes.support_samples.tolist(), episodes.query_samples.tolist()
        ):
            for cid, s, t in zip(classes, support, query):
                pairs[cid][s, t] += 1
        chi2 = 0.0
        for cid, count in zip(ds.class_ids, np.diff(ds.offsets).tolist()):
            cells = [(s, t) for s in range(count) for t in range(count) if s != t]
            assert set(pairs[cid]) == set(cells)  # no masked slot is ever drawn
            observed = np.array([pairs[cid][cell] for cell in cells])
            expected = observed.sum() / len(cells)
            chi2 += float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 185.571


class TestEpisodeBatch:
    def _batch(self, count=7, dataset=None, k=2):
        dataset = dataset or _small_dataset(seed=2)
        return data.sample_episodes(dataset, 3, k, 2, streams.stream(5, streams.TRAIN_EPISODES), count)

    @pytest.mark.parametrize(
        "index",
        [slice(2, 5), slice(None, None, -2), slice(3, 3), np.array([4, 0, 4]), np.array([], dtype=int)],
        ids=["slice", "reversed_step", "empty_slice", "index_array", "empty_array"],
    )
    def test_indexing_gives_the_matching_episodes(self, index):
        batch = self._batch()
        sub = batch[index]
        chosen = np.arange(len(batch))[index]
        assert len(sub) == len(chosen) and sub.x is batch.x
        assert sub.support_labels is batch.support_labels and sub.query_labels is batch.query_labels
        for name in (
            "classes", "support_samples", "support_rows", "support_x", "query_samples", "query_rows", "query_x"
        ):
            np.testing.assert_array_equal(getattr(sub, name), getattr(batch, name)[chosen], err_msg=name)

    @pytest.mark.parametrize("index", [0, -1, np.int64(2)])
    def test_integer_index_rejected(self, index):
        with pytest.raises(TypeError, match="slice or an index array"):
            self._batch()[index]

    def test_concat_of_a_batch_is_that_batch(self):
        batch = self._batch()
        assert data.concat(batch) is batch
        _assert_same_batch(data.concat([batch[:3], batch[3:4], batch[4:]]), batch)

    def test_concat_rejects_batches_that_do_not_share(self):
        ds = _small_dataset(seed=2)
        batch = self._batch(dataset=ds)
        with pytest.raises(data.DatasetError, match="no episodes to join"):
            data.concat([])
        one_shot = self._batch(count=2, dataset=ds, k=1)
        with pytest.raises(data.DatasetError, match=re.escape("episode shape (3, 1, 2) differs from (3, 2, 2)")):
            data.concat([batch, one_shot])
        with pytest.raises(data.DatasetError, match="different arrays"):
            data.concat([batch, self._batch(dataset=_small_dataset(seed=2))])
        # Permuted labels, and equal labels in another array.
        for labels in (batch.support_labels[::-1].copy(), batch.support_labels.copy()):
            with pytest.raises(data.DatasetError, match="different label arrays"):
                data.concat([batch, dataclasses.replace(batch[:1], support_labels=labels)])
        with pytest.raises(data.DatasetError, match="different label arrays"):
            data.concat([batch, dataclasses.replace(batch[:1], query_labels=batch.query_labels[::-1].copy())])

    def test_episode_file_bytes_of_a_batch_and_of_its_episodes(self, tmp_path):
        batch = self._batch(count=5)
        data.save_episode_file(batch, tmp_path / "batch.json")
        data.save_episode_file([batch[i : i + 1] for i in range(len(batch))], tmp_path / "episodes.json")
        assert (tmp_path / "batch.json").read_bytes() == (tmp_path / "episodes.json").read_bytes()


class TestRaggedClasses:
    def test_samples_stay_inside_their_class(self, tmp_path):
        ds = _ragged(tmp_path / "ds")
        count_of = dict(zip(ds.class_ids, np.diff(ds.offsets).tolist()))
        batch = data.sample_episodes(ds, 4, 2, 2, streams.stream(2, streams.TRAIN_EPISODES), 2000)
        support_x, query_x = batch.support_x, batch.query_x
        for i, classes in enumerate(batch.classes.tolist()):
            for rows, labels, samples in (
                (support_x[i], batch.support_labels, batch.support_samples[i]),
                (query_x[i], batch.query_labels, batch.query_samples[i]),
            ):
                for row, label, s in zip(rows, labels.tolist(), samples.tolist()):
                    cid = classes[label]
                    assert 0 <= s < count_of[cid]
                    np.testing.assert_array_equal(row, _class_rows(ds, cid)[s])

    def test_only_a_chosen_short_class_raises(self, tmp_path):
        # Class 7 (position 2) has 3 samples; the episodes need 4 per class.
        ds = _ragged(tmp_path / "ds", counts=(6, 5, 3, 8), ids=(9, 2, 7, 4))
        rng, ref = streams.stream(5, streams.TRAIN_EPISODES), streams.stream(5, streams.TRAIN_EPISODES)
        outcomes = set()
        for _ in range(40):
            u = ref.random(4 + 2 * 8)
            chosen = 2 in np.argsort(u[:4])[:2]
            if chosen:
                with pytest.raises(data.DatasetError, match="class 7 has 3 samples but the episode needs 4"):
                    data.sample_episode(ds, 2, 2, 2, rng)
            else:
                ep = data.sample_episode(ds, 2, 2, 2, rng)
                assert 7 not in ep.classes
            outcomes.add(chosen)
        assert outcomes == {True, False}
        with pytest.raises(data.DatasetError, match="class 7 has 3 samples"):
            data.sample_episodes(ds, 2, 2, 2, rng, 40)


# Each class_id field in a row of class 1 and the start of the error it
# raises; None where the field equals 1 and the row stays in class 1.
CLASS_ID_FIELDS = {
    "1.0": None,
    "1e0": None,
    "1.5": "1.5 is not a class of",
    "2": "2.0 is not a class of",
    "x": "non-numeric value 'x'",
}


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
        match = f"^{re.escape(str(csv))} line 3 field 'f1': non-finite value '{cell}'$"
        with pytest.raises(data.DatasetParseError, match=match):
            data.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("cell", CLASS_ID_FIELDS)
    def test_class_id_field_reads_as_the_class_it_equals(self, tmp_path, cell):
        ds = _small_dataset(classes=2, samples=2)
        data.save_dataset(ds, tmp_path / "ds")
        csv = tmp_path / "ds" / "data.csv"
        lines = csv.read_text().splitlines()
        lines[4] = cell + lines[4][len("1"):]  # the second row of class 1
        csv.write_text("\n".join(lines) + "\n")
        problem = CLASS_ID_FIELDS[cell]
        if problem is None:
            np.testing.assert_array_equal(data.load_dataset(tmp_path / "ds").x, ds.x)
        else:
            message = f"{csv} line 5 field 'class_id': {problem}"
            with pytest.raises(data.DatasetParseError, match=re.escape(message)):
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
            ({"class_ids": [2**53]}, "class_ids"),
            ({"generator": "x"}, "generator"),
            ({"generator": 5}, "generator"),
            ({"generator": [["seed", 1]]}, "generator"),
            ({"split": "bogus"}, "split"),
            ({"split": 5}, "split"),
            ({"split": ["train"]}, "split"),
        ],
        ids=[
            "feature_dim", "class_id", "count", "zero_count", "no_classes", "duplicate_id", "id_above_2**53",
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
            "episodes.json": "b7be8cd49ca002b1f3bb8ad26ed3466b27955c9428f6fa5ec14f4f7f535ed831",
        }

    def test_episode_rows_match_their_pairs_when_classes_are_not_id_ordered(self, tmp_path):
        ds = _small_dataset(seed=2)
        shuffled = _load_shuffled(ds, tmp_path / "ds")
        assert shuffled.class_ids == tuple(SHUFFLED_ORDER)

        rng = streams.stream(4, streams.TRAIN_EPISODES)
        eps = [data.sample_episode(shuffled, 4, 2, 3, rng) for _ in range(20)]
        data.save_episode_file(eps, tmp_path / "episodes.json")
        entries = json.loads((tmp_path / "episodes.json").read_text())["episodes"]
        for ep, entry in zip(eps, entries, strict=True):
            for rows, pairs in ((ep.support_x[0], entry["support"]), (ep.query_x[0], entry["query"])):
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
        digest = "4a605bd9a7ee844efadf5d43b7f235756aa93cec8232ee394ecc5fe4ac39105d"
        assert _stream_digest(_small_dataset(seed=2)) == digest

    def test_shuffled_manifest(self, tmp_path):
        # The class uniforms go to positions in manifest order, so storing
        # classes sorted by id would change this stream.
        digest = "dce0fb7e67f3901a424ddabeeeb4819e19f0e7afd9c371b0405621221845f27b"
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
