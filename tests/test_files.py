"""Tests for the atomic artifact writer and the writers that use it."""

import math

import pytest

from episampler import cli, data, files, learners, streams, training


class _HalfWrittenFile:
    """A text file that writes half of the first text it is given, then
    fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _record(loss):
    return training.TrainRecord(
        iteration=1, episodes=[training.EpisodeStat(0.5, 1.0, loss)], ess=1.0, loss=loss,
        mu=math.nan, sigma2=math.nan, fallback=False,
    )


def _episodes(seed):
    ds = data.generate_synthetic(6, 5, 3, 3.0, 1.0, seed=0)
    return data.sample_episodes(ds, 3, 1, 2, streams.stream(seed, streams.ANALYSIS), 4)


# Each writer, called with a variant number, writes different bytes to one
# or more files under a directory.
WRITERS = {
    "history.csv": lambda d, v: training.write_history_csv([_record(0.25 * v)], d / "history.csv"),
    "episodes.csv": lambda d, v: training.write_episodes_csv([_record(0.25 * v)], d / "episodes.csv"),
    "result.json": lambda d, v: training.write_result_json({"variant": v}, d / "result.json"),
    "checkpoint": lambda d, v: learners.save_checkpoint(
        learners.init_params("anil", 3, 2, hidden_sizes=(4,), embedding_dim=2, seed=v), d / "best"
    ),
    "dataset": lambda d, v: data.save_dataset(data.generate_synthetic(3, 2, 2, 3.0, 1.0, seed=v), d),
    "episode_file": lambda d, v: data.save_episode_file(_episodes(v), d / "episodes.json"),
    "cli_csv": lambda d, v: cli._write_csv(d / "normality.csv", "rejection_rate", [(0.5 * v,)]),
    "json": lambda d, v: files.write_json(d / "config.json", {"seed": v}),
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestWriteText:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "a.txt"
        files.write_text(path, "old\n")
        files.write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        WRITERS[name](tmp_path, 1)
        before = _snapshot(tmp_path)
        WRITERS[name](tmp_path, 2)
        assert _snapshot(tmp_path) != before  # the variants differ
        WRITERS[name](tmp_path, 1)
        assert _snapshot(tmp_path) == before

        # The module-level name shadows the builtin inside files only.
        monkeypatch.setattr(files, "open", lambda *a, **k: _HalfWrittenFile(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            WRITERS[name](tmp_path, 2)
        assert _snapshot(tmp_path) == before  # same names: no temporary file left
