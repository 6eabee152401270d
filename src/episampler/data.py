"""Synthetic base datasets and episode sampling.

A base dataset is a set of classes, each holding feature vectors; episodes
are n-way k-shot tasks subsampled from it, with classes drawn uniformly
without replacement and, within each class, k+q samples drawn uniformly
without replacement (first k to the support set, rest to the query set).

In memory a dataset is one read-only ``(N, d)`` float64 array holding every
class's rows back to back, a class id per block and the block offsets.
An ``EpisodeBatch`` keeps that array itself, never a copy, and per
episode its class ids and the index of each support and query row in it,
grouped by class in label order, as ``(B, ...)`` arrays; ``support_x`` and
``query_x`` gather the rows on read, one ``take`` each. Its read-only label
arrays are every episode's, shared by every batch of the same shape.

Each episode consumes one block of ``L = num_classes + n * max_count``
uniforms from ``rng.random``, ``max_count`` being the largest class size:

- the first ``num_classes`` values belong to the class positions; the
  ``n`` smallest choose the episode's classes, in increasing position.
  ``class_ids`` is strictly increasing, so a class's position is the
  rank of its id and the classes come in increasing id order;
- the rest, as an ``(n, max_count)`` array, gives row ``j`` to the
  ``j``-th chosen class. Slots at or past that class's sample count are
  masked to ``+inf``, and the first ``k + q`` entries of the row's stable
  argsort are the class's sample indices.

Every draw has a batch axis: ``sample_episodes`` takes the blocks of its
``B`` episodes with one ``rng.random((B, L))`` call, and ``sample_episode``
is its ``B = 1`` batch. Philox is counter-based, so that call yields the
same values as ``B`` successive ``rng.random(L)`` calls: ``sample_episodes``
with ``count=B`` returns the ``concat`` of ``B`` ``sample_episode`` calls,
and batching or chunking the draws never changes a stream.

On disk a dataset is a directory with ``manifest.json``, which lists
``class_ids`` in increasing order with ``per_class_counts`` beside them,
and ``data.csv`` (header ``class_id,f0,...,f{d-1}``, one sample per row,
floats written as shortest round-trip decimals so the round trip is
bit-exact).
``load_dataset`` reads both through ``files``, so a bad entry is reported
with its file and its line or field. A ``class_id`` is read as a float and
must equal one of the manifest's ids, so ``1.0`` is class 1. An episode
file is JSON with ``n``, ``k``, ``q`` and, per episode, ``classes`` plus
``support`` and ``query`` lists of ``[class id, sample index]`` pairs,
each derived as ``[classes[label], sample index]``. It records which
samples an analysis used; nothing in the package reads it back.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import files, streams


class DatasetError(Exception):
    """Invalid dataset construction or sampling request."""


class DatasetParseError(DatasetError):
    """Malformed on-disk dataset; the message names the file at fault."""


SPLITS = ("train", "val", "test", "all")


class _DrawTables(NamedTuple):
    """Per-dataset constants of the episode draw, indexed by class position."""

    ids: np.ndarray  # class id per position
    counts: np.ndarray  # samples per position
    min_count: int
    max_count: int


@dataclass(frozen=True, eq=False)
class BaseDataset:
    """Class ``class_ids[i]`` owns rows ``offsets[i]:offsets[i + 1]`` of
    ``x``; ``class_ids`` is strictly increasing."""

    x: np.ndarray  # (N, feature_dim) float64, made read-only
    class_ids: tuple[int, ...]
    offsets: np.ndarray  # (num_classes + 1,) ints from 0 to N, made read-only
    split: str
    generator: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DatasetError(f"unknown split {self.split!r}")
        if any(a >= b for a, b in zip(self.class_ids, self.class_ids[1:])):
            raise DatasetError(f"class ids {self.class_ids} are not strictly increasing")
        self.x.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    @functools.cached_property
    def _draw_tables(self) -> _DrawTables:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows; x, class_ids and offsets never change.
        counts = np.diff(self.offsets)
        return _DrawTables(np.array(self.class_ids), counts, int(counts.min()), int(counts.max()))


_PER_EPISODE = ("classes", "support_samples", "support_rows", "query_samples", "query_rows")


@dataclass(frozen=True, eq=False)
class EpisodeBatch:
    """``B`` n-way k-shot tasks drawn from ``x``, episode ``i`` in row ``i``
    of each ``(B, ...)`` array. Each sample appears once, as its local label
    (the position of its class in the episode's ``classes``), its index
    within its class and its row of ``x``, from which ``support_x`` and
    ``query_x`` gather it on read."""

    n: int
    k: int
    q: int
    x: np.ndarray = field(repr=False)  # (N, d) rows the episodes index
    classes: np.ndarray  # (B, n) class ids, each row sorted
    support_labels: np.ndarray  # (n*k,) local labels in [0, n), every episode's
    support_samples: np.ndarray  # (B, n*k) sample index within the class
    support_rows: np.ndarray  # (B, n*k) row of x
    query_labels: np.ndarray  # (n*q,)
    query_samples: np.ndarray  # (B, n*q)
    query_rows: np.ndarray  # (B, n*q)

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, index) -> EpisodeBatch:
        """The episodes at ``index``, a slice or an index array, as a batch."""
        if not isinstance(index, slice) and np.ndim(index) == 0:
            raise TypeError("index an EpisodeBatch by a slice or an index array")
        return replace(self, **{name: getattr(self, name)[index] for name in _PER_EPISODE})

    @property
    def support_x(self) -> np.ndarray:
        """(B, n*k, d) support rows."""
        return self.x.take(self.support_rows, axis=0)

    @property
    def query_x(self) -> np.ndarray:
        """(B, n*q, d) query rows."""
        return self.x.take(self.query_rows, axis=0)


def concat(batches) -> EpisodeBatch:
    """An ``EpisodeBatch`` as it is, or a list of batches that share ``n``,
    ``k``, ``q``, ``x`` and label arrays joined in order."""
    if isinstance(batches, EpisodeBatch):
        return batches
    if not batches:
        raise DatasetError("no episodes to join")
    first = batches[0]
    shape = (first.n, first.k, first.q)
    for other in batches[1:]:
        if (other.n, other.k, other.q) != shape:
            raise DatasetError(f"episode shape {other.n, other.k, other.q} differs from {shape}")
        if other.x is not first.x:
            raise DatasetError("batches index different arrays")
        if other.support_labels is not first.support_labels or other.query_labels is not first.query_labels:
            raise DatasetError("batches have different label arrays")
    return replace(
        first, **{name: np.concatenate([getattr(b, name) for b in batches]) for name in _PER_EPISODE}
    )


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    feature_dim: int,
    class_separation: float,
    noise_scale: float,
    seed: int,
) -> BaseDataset:
    """Each class mean is uniform on the sphere of radius
    ``class_separation``; samples add isotropic Gaussian noise. The dataset
    is split ``"all"``: ``split_classes`` makes the train, val and test ones."""
    if num_classes <= 0 or samples_per_class <= 0:
        raise DatasetError("num_classes and samples_per_class must be positive")
    if feature_dim < 2:
        raise DatasetError("feature_dim must be at least 2 (sphere sampling is degenerate)")
    if class_separation < 0 or noise_scale < 0:
        raise DatasetError("class_separation and noise_scale must be non-negative")
    rng = streams.stream(seed, streams.DATASET)
    x = np.empty((num_classes, samples_per_class, feature_dim))
    for cid in range(num_classes):
        direction = rng.standard_normal(feature_dim)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.standard_normal(feature_dim)
            norm = np.linalg.norm(direction)
        mean = class_separation * direction / norm
        x[cid] = mean + noise_scale * rng.standard_normal((samples_per_class, feature_dim))
    generator = {
        "num_classes": num_classes,
        "samples_per_class": samples_per_class,
        "feature_dim": feature_dim,
        "class_separation": class_separation,
        "noise_scale": noise_scale,
        "seed": seed,
    }
    offsets = np.arange(num_classes + 1) * samples_per_class
    return BaseDataset(x.reshape(-1, feature_dim), tuple(range(num_classes)), offsets, "all", generator)


def _allocate(ratios, total: int) -> list[int]:
    weights = [float(r) for r in ratios]
    if any(w <= 0 for w in weights):
        raise DatasetError("split ratios must be positive")
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(np.floor(r)) for r in raw]
    remainders = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    return counts


def split_classes(dataset: BaseDataset, ratios) -> tuple[BaseDataset, BaseDataset, BaseDataset]:
    """Partition classes into disjoint train/val/test datasets.

    ``ratios`` is three positive weights, resolved to class counts by
    largest remainder; each split takes the next classes in id order, and
    its rows are a read-only view of the slice of ``dataset.x`` they hold.
    """
    if len(ratios) != 3:
        raise DatasetError("ratios must have exactly three entries")
    ends = np.cumsum([0] + _allocate(ratios, dataset.num_classes)).tolist()
    out = []
    for name, start, end in zip(("train", "val", "test"), ends, ends[1:]):
        if start == end:
            raise DatasetError(f"{name} split is empty")
        offsets = dataset.offsets[start : end + 1]
        out.append(BaseDataset(
            dataset.x[offsets[0] : offsets[-1]], dataset.class_ids[start:end], offsets - offsets[0], name,
            dict(dataset.generator),
        ))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _labels(n: int, per_class: int) -> np.ndarray:
    """Read-only local labels ``[0]*per_class + ... + [n-1]*per_class``,
    shared by every batch of that shape."""
    labels = np.repeat(np.arange(n), per_class)
    labels.setflags(write=False)
    return labels


def sample_episodes(
    dataset: BaseDataset, n: int, k: int, q: int, rng: np.random.Generator, count: int
) -> EpisodeBatch:
    """``count`` episodes, each from its own block of ``rng`` (see the
    module docstring)."""
    if count <= 0:
        raise DatasetError(f"count must be positive, got {count}")
    if n <= 0 or k <= 0 or q <= 0:
        raise DatasetError("n, k and q must be positive")
    num_classes = dataset.num_classes
    if num_classes < n:
        raise DatasetError(f"need {n} classes but dataset has only {num_classes}")
    tables = dataset._draw_tables
    max_count, m = tables.max_count, k + q
    u = rng.random((count, num_classes + n * max_count))
    pos = np.sort(np.argpartition(u[:, :num_classes], n - 1, axis=-1)[:, :n], axis=-1)
    counts = tables.counts[pos]
    if tables.min_count < m:
        short = counts < m
        if short.any():
            first = tuple(np.argwhere(short)[0])
            raise DatasetError(
                f"class {dataset.class_ids[pos[first]]} has {counts[first]} samples "
                f"but the episode needs {m}"
            )
    keys = u[:, num_classes:].reshape((count, n, max_count))
    if tables.min_count < max_count:
        keys = np.where(np.arange(max_count) >= counts[..., None], np.inf, keys)
    samples = np.argsort(keys, axis=-1, kind="stable")[..., :m]
    rows = dataset.offsets[pos][..., None] + samples
    support, support_rows = (a[..., :k].reshape((count, n * k)) for a in (samples, rows))
    query, query_rows = (a[..., k:].reshape((count, n * q)) for a in (samples, rows))
    return EpisodeBatch(
        n, k, q, dataset.x, tables.ids[pos], _labels(n, k), support, support_rows, _labels(n, q),
        query, query_rows,
    )


def sample_episode(
    dataset: BaseDataset, n: int, k: int, q: int, rng: np.random.Generator
) -> EpisodeBatch:
    """The batch of one episode from one block of ``rng``."""
    return sample_episodes(dataset, n, k, q, rng, 1)


def _csv_header(feature_dim: int) -> str:
    return "class_id," + ",".join(f"f{i}" for i in range(feature_dim))


def save_dataset(dataset: BaseDataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "feature_dim": dataset.feature_dim,
        "split": dataset.split,
        "class_ids": list(dataset.class_ids),
        "per_class_counts": np.diff(dataset.offsets).tolist(),
        "generator": dataset.generator,
    }
    files.write_json(path / "manifest.json", manifest)
    lines = [_csv_header(dataset.feature_dim)]
    row_ids = np.repeat(dataset.class_ids, np.diff(dataset.offsets)).tolist()
    for cid, row in zip(row_ids, dataset.x):
        lines.append(f"{cid}," + ",".join(map(repr, row.tolist())))
    files.write_text(path / "data.csv", "\n".join(lines) + "\n")


# Each required manifest field and the values it may hold.
_MANIFEST_FIELDS = {
    "feature_dim": files.positive,
    "split": lambda v: v in SPLITS,
    "class_ids": lambda v: (
        files.list_of(files.integer)(v) and 0 < len(v) and 0 <= v[0] and v[-1] < 2**53
        and all(a < b for a, b in zip(v, v[1:]))
    ),
    "per_class_counts": files.list_of(files.positive),
}


def load_dataset(path) -> BaseDataset:
    """The dataset ``save_dataset`` wrote to ``path``. The manifest must list
    ``class_ids`` in increasing order; rows are grouped by class in that
    order and keep their file order within a class."""
    path = Path(path)
    manifest_path, csv_path = path / "manifest.json", path / "data.csv"
    manifest = files.read_manifest(manifest_path, _MANIFEST_FIELDS, DatasetParseError)
    generator = manifest.get("generator", {})
    if not isinstance(generator, dict):
        raise DatasetParseError(f"{manifest_path} field 'generator': invalid value {generator!r}")
    class_ids, counts = manifest["class_ids"], manifest["per_class_counts"]
    table, lines = files.read_table(csv_path, _csv_header(manifest["feature_dim"]), DatasetParseError)
    # Ids are below 2**53, so a class_id float equals an id only if it is that integer.
    position = {cid: i for i, cid in enumerate(class_ids)}
    pos = [position.get(cid, -1) for cid in table[:, 0].tolist()]
    if -1 in pos:
        row = pos.index(-1)
        raise DatasetParseError(
            f"{csv_path} line {lines[row]} field 'class_id': {table[row, 0].item()!r}"
            f" is not a class of {manifest_path}"
        )
    found = np.bincount(np.array(pos, dtype=int), minlength=len(class_ids)).tolist()
    if found != counts:
        raise DatasetParseError(
            f"{csv_path} has {found} rows of classes {class_ids}, {manifest_path} field 'per_class_counts'"
            f" promises {counts}"
        )
    return BaseDataset(
        table[np.argsort(pos, kind="stable"), 1:],
        tuple(class_ids),
        np.cumsum([0] + counts),
        manifest["split"],
        generator,
    )


def _pairs(classes: np.ndarray, labels: np.ndarray, samples: np.ndarray) -> list:
    return np.stack([classes[:, labels], samples], axis=-1).tolist()


def save_episode_file(episodes, path) -> None:
    """Record which samples ``concat(episodes)`` used: each sample is written
    as its ``(class id, sample index)`` pair, ``(classes[label], sample)``."""
    batch = concat(episodes)
    payload = {
        "n": batch.n, "k": batch.k, "q": batch.q,
        "episodes": [
            {"classes": classes, "support": support, "query": query}
            for classes, support, query in zip(
                batch.classes.tolist(),
                _pairs(batch.classes, batch.support_labels, batch.support_samples),
                _pairs(batch.classes, batch.query_labels, batch.query_samples),
            )
        ],
    }
    # json.dumps takes the C encoder; json.dump to a file never does.
    files.write_text(path, json.dumps(payload) + "\n")
