"""Tests for the atomic artifact writer, the writers that use it, and the
table reader."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

TABLES = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 8), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
)

# Each bad field text and the problem read_table names for it.
BAD_FIELDS = {
    "nan": "non-finite", "-inf": "non-finite", "1e999": "non-finite",
    "x": "non-numeric", "": "non-numeric", "0x1": "non-numeric", "1.0.0": "non-numeric",
}


def _write_table(path, table, blank_before=()):
    """``table`` as the package writes it (header ``c0,c1,...`` and ``repr``
    fields), with a blank or whitespace line before each row listed in
    ``blank_before``; returns the header and each row's file line."""
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    lines, numbers = [header], []
    for i, row in enumerate(table.tolist()):
        if i in blank_before:
            lines.append(" " * (i % 2))
        lines.append(",".join(map(repr, row)))
        numbers.append(len(lines))
    files.write_text(path, "\n".join(lines) + "\n")
    return header, numbers


class TestReadTable:
    @settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=TABLES)
    def test_written_table_reads_back_bit_exact(self, tmp_path, table):
        header, numbers = _write_table(tmp_path / "t.csv", table)
        got, lines = files.read_table(tmp_path / "t.csv", header, ValueError)
        assert got.dtype == np.float64 and got.shape == table.shape
        assert got.tobytes() == table.tobytes()
        assert lines == numbers

    @settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        table=TABLES.filter(lambda t: t.size > 0),
        place=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        bad=st.sampled_from([*BAD_FIELDS, "extra"]),
        blank_before=st.sets(st.integers(0, 8)),
    )
    def test_bad_field_is_reported_at_its_line_and_field(self, tmp_path, table, place, bad, blank_before):
        # An empty field alone on its line is a blank line.
        assume(bad != "" or table.shape[1] > 1)
        row, col = int(place[0] * table.shape[0]), int(place[1] * table.shape[1])
        path = tmp_path / "t.csv"
        header, numbers = _write_table(path, table, blank_before)
        lines = path.read_text().split("\n")
        fields = lines[numbers[row] - 1].split(",")
        if bad == "extra":
            fields.append("1.0")
            problem = f": {len(fields)} fields, expected {len(fields) - 1}"
        else:
            fields[col] = bad
            problem = f" field 'c{col}': {BAD_FIELDS[bad]} value {bad!r}"
        lines[numbers[row] - 1] = ",".join(fields)
        path.write_text("\n".join(lines))
        message = f"{path} line {numbers[row]}{problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            files.read_table(path, header, ValueError)

    def test_short_and_long_row_do_not_cancel(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: 1 fields, expected 2")):
            files.read_table(path, "a,b", ValueError)

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(KeyError, match=re.escape(f"{path} line 1: header 'a,b', expected 'a,c'")):
            files.read_table(path, "a,c", KeyError)


class TestMissingFile:
    """Each artifact reader raises its caller's error class for a missing
    file and names the file."""

    @pytest.mark.parametrize(
        "name, error, load",
        [
            ("manifest.json", data.DatasetParseError, data.load_dataset),
            ("data.csv", data.DatasetParseError, data.load_dataset),
            ("best.json", learners.LearnerError, lambda d: learners.load_checkpoint(d / "best")),
            ("best.csv", learners.LearnerError, lambda d: learners.load_checkpoint(d / "best")),
            ("episodes.csv", training.TrainerError, lambda d: training.read_episodes_csv(d / "episodes.csv")),
            (
                "config.json",
                cli.ConfigError,
                lambda d: cli.load_config(str(d / "config.json"), [("dataset.path", str(d))]),
            ),
        ],
    )
    def test_each_artifact_names_its_missing_file(self, tmp_path, name, error, load):
        for write in WRITERS.values():
            write(tmp_path, 1)
        load(tmp_path)  # every artifact is there and reads back
        (tmp_path / name).unlink()
        message = f"cannot read {tmp_path / name}: No such file or directory"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load(tmp_path)
