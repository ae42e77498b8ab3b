"""MUGC checkpoints as a file format: property tests of the streaming reader
and writer, and atomic replacement of every output file."""

import os
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avparse.augment import write_cmrc_outputs
from avparse.checkpoint import load_checkpoint, save_checkpoint
from avparse.cli import main as cli_main
from avparse.data import Manifest, write_feature_file, write_label_csv, write_manifest
from avparse.errors import CheckpointError
from avparse.metrics import MetricReport
from avparse.model import AVMambaNet, ModelConfig
from avparse.trainer import EpochStats, TrainLog, load_model, save_model

# derandomized and with no example database: every run tries the same examples
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# every stage that can be switched off is off, so the file is about 2 kB
SMALL_MODEL = ModelConfig(n_segments=2, dim=2, n_classes=2, d_state=1, d_audio_in=2,
                          d_visual_in=2, text_dim=2, use_tsa=False, amf_mode="off",
                          use_mfe=False, use_plsim=False)

names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
shapes = st.lists(st.integers(0, 4), max_size=4).map(tuple)
entries = st.dictionaries(names, shapes.flatmap(lambda shape: arrays(np.float64, shape)),
                          max_size=6)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("small") / "model.mugc"
    save_model(path, AVMambaNet(SMALL_MODEL, seed=0))
    return path.read_bytes()


def header_offsets(blob: bytes) -> list[int]:
    """Offsets of every byte that is not part of a payload."""
    offsets = list(range(12))
    pos = 12
    for _ in range(struct.unpack("<I", blob[8:12])[0]):
        name_len = struct.unpack("<I", blob[pos : pos + 4])[0]
        rank = struct.unpack("<I", blob[pos + 4 + name_len : pos + 8 + name_len])[0]
        end = pos + 8 + name_len + 4 * rank
        dims = struct.unpack(f"<{rank}I", blob[pos + 8 + name_len : end])
        offsets += range(pos, end)
        pos = end + 8 * int(np.prod(dims))
    return offsets


def write_temp(directory: str, blob: bytes) -> str:
    path = os.path.join(directory, "mutated.mugc")
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


class TestProperties:
    @PROPERTY
    @given(entries)
    def test_round_trip_is_exact(self, stored):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.mugc")
            save_checkpoint(path, stored)
            restored = load_checkpoint(path)
            assert os.listdir(d) == ["x.mugc"]
        assert list(restored) == list(stored)
        for name, arr in stored.items():
            assert restored[name].shape == arr.shape
            assert restored[name].tobytes() == arr.tobytes()  # NaN payloads included

    def test_every_truncation_raises_checkpoint_error(self, small_checkpoint):
        with tempfile.TemporaryDirectory() as d:
            for n in range(len(small_checkpoint)):
                path = write_temp(d, small_checkpoint[:n])
                with pytest.raises(CheckpointError):
                    load_model(path)

    @PROPERTY
    @given(st.data())
    def test_header_byte_flips_raise_checkpoint_error(self, small_checkpoint, data):
        offsets = header_offsets(small_checkpoint)
        where = data.draw(st.lists(st.sampled_from(offsets), min_size=1, max_size=3,
                                   unique=True))
        blob = bytearray(small_checkpoint)
        for i in where:
            blob[i] ^= data.draw(st.integers(1, 255))
        with tempfile.TemporaryDirectory() as d:
            path = write_temp(d, bytes(blob))
            try:
                load_checkpoint(path)  # a renamed entry is still a well-formed file
            except CheckpointError:
                pass
            with pytest.raises(CheckpointError):
                load_model(path)

    def test_eval_exits_one_on_mutated_files(self, small_checkpoint, tmp_path, capsys):
        offsets = header_offsets(small_checkpoint)
        mutants = [small_checkpoint[:n] for n in range(0, len(small_checkpoint), 97)]
        for i in offsets[::29]:
            blob = bytearray(small_checkpoint)
            blob[i] ^= 0x41
            mutants.append(bytes(blob))
        for blob in mutants:
            path = write_temp(str(tmp_path), blob)
            assert cli_main(["eval", "--checkpoint", path, "--data", str(tmp_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


def fail_checkpoint(path):
    # the second entry's name cannot be encoded, after the first is written
    save_checkpoint(path, {"w": np.ones(3), "\ud800": np.ones(2)})


def fail_label_csv(path):
    # the vocabulary lacks class 1, which the second segment holds
    write_label_csv(path, {"v1": {"a": np.array([[1.0, 0.0], [0.0, 1.0]])}}, ["dog"], 2)


def fail_report_csv(path):
    MetricReport(*[0.5] * 9, "not a number").write_csv(path)


def fail_train_log(path):
    log = TrainLog(10, [EpochStats(0, 1.0, None, 0.1), EpochStats(1, "nan?", None, 0.1)])
    log.write_csv(path)


def fail_feature_file(path):
    # the magic is written, then T does not fit the header's u32
    write_feature_file(path, np.empty((2**32, 0)))


def fail_manifest(path):
    write_manifest(path, "train", 1, ["dog"], [("\ud800", "a.avmf", "v.avmf", ["dog"])])


def fail_provenance(path):
    # the manifest and pseudo-label CSV are written, then the provenance CSV
    # meets a donor id that cannot be encoded
    donors = Manifest("train", 1, ["dog"], [("a", "a.avmf", "a.avmf", frozenset()),
                                            ("\ud800", "v.avmf", "v.avmf", frozenset())])
    ones = np.ones((1, 1))
    record = SimpleNamespace(video_id="cmrc0", audio_donor="a", visual_donor="\ud800",
                             video_label=np.ones(1), pseudo_a=ones, null_a=ones,
                             pseudo_v=ones, null_v=ones)
    write_cmrc_outputs(str(path.parent), [record], donors, str(path.parent))


# the file each writer targets, if not "out", and the files it completes first
TARGETS = {fail_provenance: ("provenance.csv", ("manifest_cmrc.txt", "pseudo_cmrc.csv"))}


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [fail_checkpoint, fail_label_csv, fail_report_csv,
                                       fail_train_log, fail_feature_file, fail_manifest,
                                       fail_provenance])
    def test_failed_write_keeps_previous_file(self, tmp_path, write):
        name, written_before = TARGETS.get(write, ("out", ()))
        path = tmp_path / name
        path.write_bytes(b"previous contents\n")
        with pytest.raises((UnicodeEncodeError, IndexError, ValueError, struct.error)):
            write(path)
        assert path.read_bytes() == b"previous contents\n"
        assert sorted(os.listdir(tmp_path)) == sorted([name, *written_before])

    def test_successful_write_replaces_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"previous contents\n")
        MetricReport(*[0.5] * 10).write_csv(path)
        assert path.read_text().splitlines()[1] == ",".join(["0.500000"] * 10)
        assert os.listdir(tmp_path) == ["out"]
