"""Feature files, label CSVs, patches, manifests, synthetic generation."""

import csv
import os

import numpy as np
import pytest

from avparse import data
from avparse.errors import FormatError, ParseError, PatchError, ShapeError

VOCAB = ["Dog", "Speech", "Violin"]


def write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestFeatureFiles:
    def test_roundtrip_exact_at_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((10, 128))
        path = tmp_path / "x.avmf"
        data.write_feature_file(path, values)
        back = data.read_feature_file(path)
        assert back.shape == (10, 128)
        assert np.array_equal(back, values.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.avmf"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError, match="bad magic"):
            data.read_feature_file(path)

    def test_zero_dimension(self, tmp_path):
        import struct

        path = tmp_path / "zero.avmf"
        path.write_bytes(b"AVMF" + struct.pack("<III", 1, 0, 4))
        with pytest.raises(FormatError, match="zero dimension"):
            data.read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "trunc.avmf"
        path.write_bytes(b"AVMF" + struct.pack("<III", 1, 2, 3) + b"\x00" * 8)
        with pytest.raises(FormatError, match="payload"):
            data.read_feature_file(path)

    def test_header_shape_parsing(self, tmp_path):
        values = np.zeros((10, 128))
        path = tmp_path / "shaped.avmf"
        data.write_feature_file(path, values)
        assert data.read_feature_file(path).shape == (10, 128)

    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan], ids=str)
    def test_value_not_finite_in_float32_rejected_before_writing(self, tmp_path, value):
        values = np.zeros((3, 4))
        values[1, 2] = value
        with pytest.raises(FormatError, match="finite"):
            data.write_feature_file(tmp_path / "x.avmf", values)
        assert not os.listdir(tmp_path)


class TestLabelCsv:
    def test_one_hot_row(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,0,Speech"])
        table, t_len = data.parse_label_csv(path, VOCAB)
        matrix, null = table["vid1"]["a"]
        assert t_len == 1
        assert np.array_equal(matrix[0], [0, 1, 0])
        assert not null[0]

    def test_null_row_flagged(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,v,3,"])
        table, _ = data.parse_label_csv(path, VOCAB, n_segments=5)
        matrix, null = table["vid1"]["v"]
        assert np.all(matrix[3] == 0)
        assert null[3]
        assert null[0]  # absent rows are null too

    def test_two_hot_row(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,v,0,Dog;Speech"])
        table, _ = data.parse_label_csv(path, VOCAB)
        matrix, _ = table["vid1"]["v"]
        assert np.array_equal(matrix[0], [1, 1, 0])

    def test_unknown_category_names_line(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,0,Laser"])
        with pytest.raises(ParseError, match="line 2"):
            data.parse_label_csv(path, VOCAB)

    def test_segment_out_of_range(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,7,Dog"])
        with pytest.raises(ParseError, match="out of range"):
            data.parse_label_csv(path, VOCAB, n_segments=5)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["video_id,modality,segment,labels",
                           "vid1,a,0,Dog", "vid1,a,0,Speech"])
        with pytest.raises(ParseError, match="duplicate"):
            data.parse_label_csv(path, VOCAB)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["id,mod,seg,lab", "vid1,a,0,Dog"])
        with pytest.raises(ParseError, match="header"):
            data.parse_label_csv(path, VOCAB)

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        t_len = 4
        table = {}
        for vid in ("vid_a", "vid_b"):
            table[vid] = {
                "a": (rng.random((t_len, 3)) < 0.4).astype(float),
                "v": (rng.random((t_len, 3)) < 0.4).astype(float),
            }
        path = tmp_path / "round.csv"
        data.write_label_csv(path, table, VOCAB, t_len)
        back, _ = data.parse_label_csv(path, VOCAB, t_len)
        for vid in table:
            for m in ("a", "v"):
                assert np.array_equal(back[vid][m][0], table[vid][m])

    @staticmethod
    def reference_write(path, table, vocabulary, n_segments):
        """The row-by-row writer that ``write_label_csv`` must match byte for byte."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.LABEL_CSV_HEADER)
            for video_id in sorted(table):
                for modality in ("a", "v"):
                    entry = table[video_id].get(modality)
                    if entry is None:
                        continue
                    matrix, null_mask = entry if isinstance(entry, tuple) else (entry, None)
                    for t in range(n_segments):
                        names = [vocabulary[c] for c in np.flatnonzero(matrix[t])]
                        field = ";".join(names)
                        if not names and null_mask is not None and not null_mask[t]:
                            field = data.EMPTY_TOKEN
                        writer.writerow([video_id, modality, t, field])

    @pytest.mark.parametrize("seed", range(6))
    def test_writer_bytes_equal_row_by_row_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(1, 8))
        table = {}
        for i in range(5):
            entry = {}
            for m in ("a", "v"):
                matrix = (rng.random((t_len, 3)) < rng.choice([0.0, 0.3, 1.0])).astype(float)
                if rng.random() < 0.5:  # a null mask: some rows unannotated, others NONE
                    entry[m] = (matrix, rng.random(t_len) < 0.5)
                else:
                    entry[m] = matrix
            if i == 2:  # one video lacks a modality
                del entry[str(rng.choice(["a", "v"]))]
            table[f"vid{(7 * i) % 5}_{seed}"] = entry
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        data.write_label_csv(got, table, VOCAB, t_len)
        self.reference_write(want, table, VOCAB, t_len)
        assert got.read_bytes() == want.read_bytes()

    def test_writer_rejects_matrix_shorter_than_segments(self, tmp_path):
        with pytest.raises(ShapeError, match="2 label rows, 3 segments"):
            data.write_label_csv(tmp_path / "l.csv", {"v": {"a": np.ones((2, 3))}}, VOCAB, 3)


def make_record(video_id="vid1", t=4, c=3, null_a=(), null_v=()):
    rng = np.random.default_rng(5)
    pseudo_a = (rng.random((t, c)) < 0.4).astype(float)
    pseudo_v = (rng.random((t, c)) < 0.4).astype(float)
    na = np.zeros(t, dtype=bool)
    nv = np.zeros(t, dtype=bool)
    for i in null_a:
        na[i] = True
        pseudo_a[i] = 0.0
    for i in null_v:
        nv[i] = True
        pseudo_v[i] = 0.0
    label = (pseudo_a.any(axis=0) | pseudo_v.any(axis=0)).astype(float)
    return data.VideoRecord(video_id, rng.standard_normal((t, 6)),
                            rng.standard_normal((t, 6)), label,
                            pseudo_a, pseudo_v, na, nv)


class TestAnnotationPatch:
    def test_patch_fills_null_row(self, tmp_path):
        record = make_record(null_v=(1,))
        path = tmp_path / "patch.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,v,1,Speech"])
        data.apply_annotation_patch([record], path, VOCAB)
        assert np.array_equal(record.pseudo_v[1], [0, 1, 0])
        assert not record.null_v[1]

    def test_discard_flags_video(self, tmp_path):
        record = make_record(null_a=(0,))
        path = tmp_path / "patch.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,0,DISCARD"])
        data.apply_annotation_patch([record], path, VOCAB)
        assert record.discard
        assert record.null_a[0]  # the row itself stays null

    def test_patch_on_annotated_row_rejected(self, tmp_path):
        record = make_record()
        path = tmp_path / "patch.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,0,Dog"])
        with pytest.raises(PatchError, match="already annotated"):
            data.apply_annotation_patch([record], path, VOCAB)

    def test_unknown_video_rejected(self, tmp_path):
        path = tmp_path / "patch.csv"
        write_lines(path, ["video_id,modality,segment,labels", "ghost,a,0,Dog"])
        with pytest.raises(PatchError, match="unknown video"):
            data.apply_annotation_patch([make_record()], path, VOCAB)

    def test_null_accounting(self, tmp_path):
        record = make_record(null_a=(0, 2), null_v=(1,))
        before = int(record.null_a.sum() + record.null_v.sum())
        path = tmp_path / "patch.csv"
        write_lines(path, ["video_id,modality,segment,labels", "vid1,a,2,Violin"])
        data.apply_annotation_patch([record], path, VOCAB)
        after = int(record.null_a.sum() + record.null_v.sum())
        assert after == before - 1


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "manifest_train.txt"
        records = [("vid1", "features/vid1.a.avmf", "features/vid1.v.avmf", ["Dog"]),
                   ("vid2", "features/vid2.a.avmf", "features/vid2.v.avmf", [])]
        data.write_manifest(path, "train", 10, VOCAB, records)
        m = data.parse_manifest(path)
        assert m.split == "train"
        assert m.n_segments == 10
        assert m.classes == VOCAB
        assert m.records[0][0] == "vid1"
        assert m.records[0][3] == frozenset({"Dog"})
        assert m.records[1][3] == frozenset()

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "manifest_x.txt"
        records = [("vid1", "a", "v", []), ("vid1", "a2", "v2", [])]
        data.write_manifest(path, "x", 10, VOCAB, records)
        with pytest.raises(ParseError, match="duplicate video ids"):
            data.parse_manifest(path)

    @pytest.mark.parametrize("key, value, message", [
        ("version", "x", "'version' must be a positive integer"),
        ("segments", "x", "'segments' must be a positive integer"),
        ("segments", "0", "'segments' must be a positive integer"),
        ("classes", "Dog;;Speech", "empty category name"),
    ])
    def test_malformed_value_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "m.txt"
        data.write_manifest(path, "train", 10, VOCAB, [("vid1", "a", "v", ["Dog"])])
        lines = path.read_text().splitlines()
        write_lines(path, [f"{key} = {value}" if line.startswith(f"{key} =") else line
                           for line in lines])
        with pytest.raises(ParseError, match=message):
            data.parse_manifest(path)

    @pytest.mark.parametrize("line, message", [
        ("segments = 3", r"m\.txt line 5: repeated manifest key 'segments'"),
        ("segmnets = 9", r"m\.txt line 5: unknown manifest key 'segmnets'"),
    ], ids=["repeated", "unknown"])
    def test_repeated_or_unknown_key_rejected(self, tmp_path, line, message):
        path = tmp_path / "m.txt"
        data.write_manifest(path, "train", 4, VOCAB, [("vid1", "a", "v", ["Dog"])])
        lines = path.read_text().splitlines()
        write_lines(path, lines[:4] + [line] + lines[4:])  # right after 'segments = 4'
        with pytest.raises(ParseError, match=message):
            data.parse_manifest(path)

    def test_nul_in_feature_path_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        data.write_manifest(path, "train", 4, VOCAB, [("vid1", "a\0.avmf", "v", ["Dog"])])
        with pytest.raises(ParseError, match="m\\.txt line 6: feature path holds a NUL"):
            data.parse_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        write_lines(path, ["format = avparse-manifest", "version = 1"])
        with pytest.raises(ParseError, match="missing manifest key"):
            data.parse_manifest(path)


class TestSyntheticDataset:
    def test_same_seed_identical(self):
        cfg = data.SynthConfig(seed=3, n_videos=6, n_val=2)
        a = data.make_synthetic(cfg)
        b = data.make_synthetic(cfg)
        for ra, rb in zip(a.train + a.val, b.train + b.val):
            assert ra.video_id == rb.video_id
            assert np.array_equal(ra.audio, rb.audio)
            assert np.array_equal(ra.visual, rb.visual)
            assert np.array_equal(ra.pseudo_a, rb.pseudo_a)

    def test_video_label_is_union_of_planted_classes(self):
        ds = data.make_synthetic(data.SynthConfig(seed=4, n_videos=10, n_val=0))
        for r in ds.train:
            gt_a, gt_v = ds.gt_train[r.video_id]
            union = (gt_a.any(axis=0) | gt_v.any(axis=0)).astype(float)
            assert np.array_equal(r.video_label, union)

    def test_zero_flip_rate_pseudo_equals_truth(self):
        ds = data.make_synthetic(data.SynthConfig(seed=5, n_videos=8, n_val=0))
        for r in ds.train:
            gt_a, gt_v = ds.gt_train[r.video_id]
            assert np.array_equal(r.pseudo_a, gt_a)
            assert np.array_equal(r.pseudo_v, gt_v)

    def test_flip_rate_corrupts_some_rows(self):
        cfg = data.SynthConfig(seed=6, n_videos=20, n_val=0, flip_rate=0.5)
        ds = data.make_synthetic(cfg)
        diffs = sum(int(not np.array_equal(r.pseudo_a, ds.gt_train[r.video_id][0]))
                    for r in ds.train)
        assert diffs > 0

    def test_correlation_mirrors_events(self):
        cfg = data.SynthConfig(seed=8, n_videos=40, n_val=0, correlation=1.0)
        ds = data.make_synthetic(cfg)
        # with full correlation every visual event also appears in audio
        for r in ds.train:
            gt_a, gt_v = ds.gt_train[r.video_id]
            assert np.all(gt_a[gt_v == 1] == 1)

    def test_every_video_has_events_in_both_modalities(self):
        ds = data.make_synthetic(data.SynthConfig(seed=9, n_videos=25, n_val=0))
        for r in ds.train:
            gt_a, gt_v = ds.gt_train[r.video_id]
            assert gt_a.any() and gt_v.any()


class TestDatasetDirectory:
    def test_write_then_load_roundtrip(self, tmp_path):
        cfg = data.SynthConfig(seed=12, n_videos=5, n_val=3, d_audio=8, d_visual=6)
        ds = data.generate_synthetic_dataset(cfg, str(tmp_path))
        loaded = data.load_split(str(tmp_path), "train")
        assert loaded.classes == ds.classes
        assert len(loaded.records) == 5
        by_id = {r.video_id: r for r in ds.train}
        for r in loaded.records:
            src = by_id[r.video_id]
            assert np.array_equal(r.audio, src.audio.astype(np.float32).astype(np.float64))
            assert np.array_equal(r.pseudo_a, src.pseudo_a)
            assert np.array_equal(r.video_label, src.video_label)
        val = data.load_split(str(tmp_path), "val")
        assert val.gt is not None and len(val.gt) == 3
        for vid, (ga, gv) in val.gt.items():
            assert np.array_equal(ga, ds.gt_val[vid][0])
            assert np.array_equal(gv, ds.gt_val[vid][1])

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="no manifest"):
            data.load_split(str(tmp_path), "train")

    def test_generated_tree_is_byte_deterministic(self, tmp_path):
        cfg = data.SynthConfig(seed=13, n_videos=4, n_val=2, d_audio=8, d_visual=8)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        data.generate_synthetic_dataset(cfg, str(dir_a))
        data.generate_synthetic_dataset(cfg, str(dir_b))
        files_a = sorted(os.path.relpath(os.path.join(root, f), dir_a)
                         for root, _, fs in os.walk(dir_a) for f in fs)
        files_b = sorted(os.path.relpath(os.path.join(root, f), dir_b)
                         for root, _, fs in os.walk(dir_b) for f in fs)
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel
