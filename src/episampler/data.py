"""Synthetic base datasets and episode sampling.

A base dataset is a set of classes, each holding feature vectors; episodes
are n-way k-shot tasks subsampled from it, with classes drawn uniformly
without replacement and, within each class, k+q samples drawn uniformly
without replacement (first k to the support set, rest to the query set).

``sample_episode`` returns an ``Episode`` whose rows are grouped by class
in label order, support and query alike.

On disk a dataset is a directory with ``manifest.json`` and ``data.csv``
(header ``class_id,f0,...,f{d-1}``, one sample per row, floats written as
shortest round-trip decimals so the round trip is bit-exact). An episode
file is JSON with ``n``, ``k``, ``q`` and, per episode, ``classes`` plus
``support`` and ``query`` lists of ``[class id, sample index]`` pairs,
each derived as ``[classes[label], sample index]``; loading it against the
same dataset rebuilds the episodes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams


class DatasetError(Exception):
    """Invalid dataset construction or sampling request."""


class DatasetParseError(DatasetError):
    """Malformed on-disk dataset; carries the file location."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field


SPLITS = ("train", "val", "test", "all")


@dataclass(frozen=True, eq=False)
class ClassRecord:
    class_id: int
    features: np.ndarray  # (count, feature_dim), read-only


@dataclass(frozen=True, eq=False)
class BaseDataset:
    feature_dim: int
    split: str
    classes: tuple[ClassRecord, ...]
    generator: dict = field(default_factory=dict)
    features: dict[int, np.ndarray] = field(init=False, repr=False)  # class id -> rows

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DatasetError(f"unknown split {self.split!r}")
        features = {}
        for rec in self.classes:
            if rec.class_id in features:
                raise DatasetError(f"duplicate class id {rec.class_id}")
            if rec.features.ndim != 2 or rec.features.shape[1] != self.feature_dim:
                raise DatasetError(
                    f"class {rec.class_id}: feature shape {rec.features.shape} "
                    f"does not match feature_dim {self.feature_dim}"
                )
            rec.features.setflags(write=False)
            features[rec.class_id] = rec.features
        object.__setattr__(self, "features", features)

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(rec.class_id for rec in self.classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True, eq=False)
class Episode:
    """One n-way k-shot task with disjoint support and query samples.

    Each sample appears once, as its feature row, its local label (the
    position of its class in ``classes``) and its index within its class.
    """

    n: int
    k: int
    q: int
    classes: tuple[int, ...]  # sorted class ids
    support_x: np.ndarray  # (n*k, d)
    support_labels: np.ndarray  # (n*k,), local labels in [0, n)
    support_samples: np.ndarray  # (n*k,), sample index within the class
    query_x: np.ndarray  # (n*q, d)
    query_labels: np.ndarray  # (n*q,)
    query_samples: np.ndarray  # (n*q,)


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    feature_dim: int,
    class_separation: float,
    noise_scale: float,
    seed: int,
    split: str = "all",
) -> BaseDataset:
    """Each class mean is uniform on the sphere of radius
    ``class_separation``; samples add isotropic Gaussian noise."""
    if num_classes <= 0 or samples_per_class <= 0:
        raise DatasetError("num_classes and samples_per_class must be positive")
    if feature_dim < 2:
        raise DatasetError("feature_dim must be at least 2 (sphere sampling is degenerate)")
    if class_separation < 0:
        raise DatasetError("class_separation must be non-negative")
    rng = streams.stream(seed, streams.DATASET)
    records = []
    for cid in range(num_classes):
        direction = rng.standard_normal(feature_dim)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.standard_normal(feature_dim)
            norm = np.linalg.norm(direction)
        mean = class_separation * direction / norm
        samples = mean + noise_scale * rng.standard_normal((samples_per_class, feature_dim))
        records.append(ClassRecord(cid, samples))
    generator = {
        "num_classes": num_classes,
        "samples_per_class": samples_per_class,
        "feature_dim": feature_dim,
        "class_separation": class_separation,
        "noise_scale": noise_scale,
        "seed": seed,
    }
    return BaseDataset(feature_dim, split, tuple(records), generator)


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

    ``ratios`` is either three positive weights (resolved to counts by
    largest remainder) or three explicit class-id lists.
    """
    if len(ratios) != 3:
        raise DatasetError("ratios must have exactly three entries")
    names = ("train", "val", "test")
    by_id = {rec.class_id: rec for rec in dataset.classes}
    if all(isinstance(r, (list, tuple)) for r in ratios):
        requested = [list(r) for r in ratios]
        flat = [cid for ids in requested for cid in ids]
        if len(set(flat)) != len(flat):
            raise DatasetError("requested class id lists overlap")
        for cid in flat:
            if cid not in by_id:
                raise DatasetError(f"requested class id {cid} not in dataset")
        groups = requested
    else:
        counts = _allocate(ratios, dataset.num_classes)
        ordered = sorted(by_id)
        groups = []
        start = 0
        for c in counts:
            groups.append(ordered[start : start + c])
            start += c
    out = []
    for name, ids in zip(names, groups):
        if not ids:
            raise DatasetError(f"{name} split is empty")
        recs = tuple(by_id[cid] for cid in sorted(ids))
        out.append(BaseDataset(dataset.feature_dim, name, recs, dict(dataset.generator)))
    return tuple(out)


def sample_episode(
    dataset: BaseDataset, n: int, k: int, q: int, rng: np.random.Generator
) -> Episode:
    if n <= 0 or k <= 0 or q <= 0:
        raise DatasetError("n, k and q must be positive")
    if dataset.num_classes < n:
        raise DatasetError(
            f"need {n} classes but dataset has only {dataset.num_classes}"
        )
    ids = dataset.class_ids
    chosen = sorted(int(ids[i]) for i in rng.choice(len(ids), size=n, replace=False))
    rows, picks = [], []
    for cid in chosen:
        feats = dataset.features[cid]
        count = feats.shape[0]
        if count < k + q:
            raise DatasetError(
                f"class {cid} has {count} samples but the episode needs {k + q}"
            )
        pick = rng.choice(count, size=k + q, replace=False)
        rows.append(feats[pick])
        picks.append(pick)
    x = np.stack(rows)  # (n, k+q, d)
    samples = np.stack(picks)  # (n, k+q)
    d = dataset.feature_dim
    return Episode(
        n=n,
        k=k,
        q=q,
        classes=tuple(chosen),
        support_x=np.ascontiguousarray(x[:, :k]).reshape(n * k, d),
        support_labels=np.repeat(np.arange(n), k),
        support_samples=samples[:, :k].reshape(-1),
        query_x=np.ascontiguousarray(x[:, k:]).reshape(n * q, d),
        query_labels=np.repeat(np.arange(n), q),
        query_samples=samples[:, k:].reshape(-1),
    )


def save_dataset(dataset: BaseDataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "feature_dim": dataset.feature_dim,
        "split": dataset.split,
        "class_ids": list(dataset.class_ids),
        "per_class_counts": [int(rec.features.shape[0]) for rec in dataset.classes],
        "generator": dataset.generator,
    }
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    header = "class_id," + ",".join(f"f{i}" for i in range(dataset.feature_dim))
    lines = [header]
    for rec in dataset.classes:
        for row in rec.features:
            lines.append(f"{rec.class_id}," + ",".join(repr(float(v)) for v in row))
    (path / "data.csv").write_text("\n".join(lines) + "\n")


def load_dataset(path) -> BaseDataset:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise DatasetParseError(f"missing manifest.json under {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"manifest.json is not valid JSON: {exc}") from exc
    for key in ("feature_dim", "split", "class_ids", "per_class_counts"):
        if key not in manifest:
            raise DatasetParseError("manifest.json missing key", field=key)
    feature_dim = int(manifest["feature_dim"])
    class_ids = [int(c) for c in manifest["class_ids"]]
    counts = [int(c) for c in manifest["per_class_counts"]]
    if len(class_ids) != len(counts):
        raise DatasetParseError(
            "manifest class_ids and per_class_counts lengths differ", field="per_class_counts"
        )
    rows: dict[int, list[np.ndarray]] = {cid: [] for cid in class_ids}
    csv_path = path / "data.csv"
    if not csv_path.exists():
        raise DatasetParseError(f"missing data.csv under {path}")
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n")
        expected = "class_id," + ",".join(f"f{i}" for i in range(feature_dim))
        if header != expected:
            raise DatasetParseError("unexpected CSV header", line=1, field="header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != feature_dim + 1:
                raise DatasetParseError(
                    f"expected {feature_dim + 1} columns, got {len(parts)}", line=lineno
                )
            try:
                cid = int(parts[0])
            except ValueError:
                raise DatasetParseError("class_id is not an integer", line=lineno, field="class_id")
            if cid not in rows:
                raise DatasetParseError(f"class id {cid} not in manifest", line=lineno, field="class_id")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DatasetParseError("non-numeric feature value", line=lineno)
            rows[cid].append(vec)
    records = []
    for cid, count in zip(class_ids, counts):
        got = len(rows[cid])
        if got != count:
            raise DatasetParseError(
                f"class {cid}: manifest promises {count} samples, CSV has {got}",
                field="per_class_counts",
            )
        records.append(ClassRecord(cid, np.vstack(rows[cid])))
    return BaseDataset(
        feature_dim,
        manifest["split"],
        tuple(records),
        dict(manifest.get("generator", {})),
    )


def _pairs(classes, labels, samples) -> list[list[int]]:
    return [[classes[label], int(sample)] for label, sample in zip(labels, samples)]


def save_episode_file(episodes, path) -> None:
    """Persist episodes for exact reuse: each sample is written as its
    ``(class id, sample index)`` pair, ``(classes[label], sample)``."""
    episodes = list(episodes)
    if not episodes:
        raise DatasetError("no episodes to save")
    first = episodes[0]
    payload = {
        "n": first.n,
        "k": first.k,
        "q": first.q,
        "episodes": [
            {
                "classes": list(ep.classes),
                "support": _pairs(ep.classes, ep.support_labels, ep.support_samples),
                "query": _pairs(ep.classes, ep.query_labels, ep.query_samples),
            }
            for ep in episodes
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _gather(dataset: BaseDataset, classes: tuple[int, ...], pairs):
    pairs = [(int(c), int(i)) for c, i in pairs]
    position = {cid: i for i, cid in enumerate(classes)}
    for c, _ in pairs:
        if c not in position or c not in dataset.features:
            raise DatasetError(f"class id {c} not in the episode's classes or in the dataset")
    x = np.array([dataset.features[c][i] for c, i in pairs])
    labels = np.array([position[c] for c, _ in pairs], dtype=np.int64)
    samples = np.array([i for _, i in pairs], dtype=np.int64)
    return x, labels, samples


def load_episode_file(path, dataset: BaseDataset) -> list[Episode]:
    with open(path) as fh:
        payload = json.load(fh)
    n, k, q = payload["n"], payload["k"], payload["q"]
    episodes = []
    for entry in payload["episodes"]:
        classes = tuple(int(c) for c in entry["classes"])
        sup_x, sup_labels, sup_samples = _gather(dataset, classes, entry["support"])
        qry_x, qry_labels, qry_samples = _gather(dataset, classes, entry["query"])
        episodes.append(
            Episode(
                n=n,
                k=k,
                q=q,
                classes=classes,
                support_x=sup_x,
                support_labels=sup_labels,
                support_samples=sup_samples,
                query_x=qry_x,
                query_labels=qry_labels,
                query_samples=qry_samples,
            )
        )
    return episodes
