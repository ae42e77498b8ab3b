"""Property tests of the input formats: AVMF feature files round-trip
exactly, and a changed or cut AVMF file, manifest or ``--config`` file only
ever raises an ``AvparseError`` (CLI exit code 1), never another exception."""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avparse.cli import main as cli_main
from avparse.data import parse_manifest, read_feature_file, write_feature_file
from avparse.errors import AvparseError, FormatError

# derandomized and with no example database: every run tries the same examples
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

feature_arrays = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(width=32, allow_nan=False,
                                                                allow_infinity=False)))

SYNTH_CONFIG = (b"# a small dataset\nvideos = 4\nval = 2\nsegments = 3\nclasses = 3\n"
                b"audio-dim = 4\nvisual-dim = 4\nnoise = 0.1\nseed = 7\n")


@st.composite
def byte_changes(draw, blob: bytes) -> bytes:
    """``blob`` with one byte replaced, inserted or removed, or cut short."""
    kind = draw(st.sampled_from(["replace", "insert", "remove", "cut"]))
    i = draw(st.integers(0, len(blob) - 1))
    if kind == "replace":
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]
    if kind == "insert":
        return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i:]
    return blob[:i] + blob[i + 1:] if kind == "remove" else blob[:i]


@st.composite
def line_changes(draw, blob: bytes) -> bytes:
    """``blob`` with one line removed, repeated, moved or replaced by short text."""
    lines = blob.splitlines(keepends=True)
    kind = draw(st.sampled_from(["remove", "repeat", "move", "replace"]))
    i = draw(st.integers(0, len(lines) - 1))
    line = lines.pop(i)
    if kind == "repeat":
        lines[i:i] = [line, line]
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif kind == "replace":
        text = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=16))
        lines.insert(i, text.encode("utf-8") + b"\n")
    return b"".join(lines)


def changes(blob: bytes):
    return st.one_of(byte_changes(blob), line_changes(blob))


class TestFeatureFiles:
    @PROPERTY
    @given(feature_arrays)
    def test_round_trip_is_exact(self, values):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.avmf")
            write_feature_file(path, values)
            restored = read_feature_file(path)
            assert os.listdir(d) == ["x.avmf"]
        assert restored.shape == values.shape
        assert restored.tobytes() == values.tobytes()  # -0.0 and subnormals included

    @PROPERTY
    @given(st.data())
    def test_a_changed_or_cut_file_raises_only_format_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.avmf")
            write_feature_file(path, np.arange(6.0).reshape(3, 2) - 2.5)
            with open(path, "rb") as fh:
                blob = data.draw(byte_changes(fh.read()))
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                values = read_feature_file(path)
            except FormatError:
                return
        assert np.isfinite(values).all() and len(blob) == 16 + 4 * values.size


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats_data")
    assert cli_main(["synth", "--out", str(root), "--seed", "3", "--videos", "4", "--val",
                     "2", "--segments", "3", "--classes", "3", "--audio-dim", "4",
                     "--visual-dim", "4"]) == 0
    return root


class TestTextInputs:
    @PROPERTY
    @given(st.data())
    def test_a_changed_manifest_raises_only_avparse_errors(self, dataset, data):
        with tempfile.TemporaryDirectory() as d:
            root = os.path.join(d, "data")
            shutil.copytree(dataset, root)
            path = os.path.join(root, "manifest_train.txt")
            with open(path, "rb") as fh:
                blob = data.draw(changes(fh.read()))
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                parse_manifest(path)
            except AvparseError:
                pass
            argv = ["augment", "--data", root, "--out", os.path.join(d, "out"),
                    "--min-count", "1", "--seed", "0"]
            assert cli_main(argv) in (0, 1)  # 2 is an uncaught exception

    @PROPERTY
    @given(changes(SYNTH_CONFIG))
    def test_a_changed_config_file_raises_only_avparse_errors(self, blob):
        with tempfile.TemporaryDirectory() as d:
            config = os.path.join(d, "synth.cfg")
            with open(config, "wb") as fh:
                fh.write(blob)
            argv = ["synth", "--out", os.path.join(d, "out"), "--config", config]
            assert cli_main(argv) in (0, 1)  # 2 is an uncaught exception
