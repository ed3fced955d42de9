import os
import struct
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import rand
from wavfusion.config import ExperimentConfig
from wavfusion.data import (ManifestEntry, RatioSplit, SynthSpec, generate_synthetic,
                            load_dataset, read_feature, read_manifest, split, write_atomic,
                            write_feature, write_manifest)
from wavfusion.errors import ConfigError, DataError, FormatError
from wavfusion.train import train


def reference_read_feature(path):
    """The buffered whole-file read that preceded the open/fstat/read path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != b"WFTF":
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0 in {path}")
    if len(blob) < 16:
        raise FormatError(f"truncated header at offset {len(blob)} in {path}")
    version, rows, cols = struct.unpack_from("<III", blob, 4)
    if version != 1 or rows < 1 or cols < 1 or len(blob) != 16 + 4 * rows * cols:
        raise FormatError(f"malformed feature file {path}")
    return np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=16).reshape(rows, cols).copy()


def reference_load_dataset(root):
    """The pathlib loader with an ``exists()`` check per feature file."""
    root = Path(root)
    samples, dims = [], {}
    for e in read_manifest(root / "manifest.tsv"):
        feats = {}
        for m, rel in e.paths.items():
            fpath = root / rel
            if not fpath.exists():
                raise DataError(f"{root}: sample {e.uid} references missing file {rel}")
            feats[m] = reference_read_feature(fpath)
            dims[m] = feats[m].shape[1]
        samples.append((e.uid, e.label, feats))
    return samples, dims


def tree_bytes(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(str(p.relative_to(root)), p.read_bytes()) for p in files]


class TestFeatureFiles:
    def test_minimal_roundtrip(self, tmp_path):
        path = tmp_path / "one.wftf"
        write_feature(path, np.array([[0.0]], dtype=np.float32))
        npt.assert_array_equal(read_feature(path), np.array([[0.0]], dtype=np.float32))

    def test_roundtrip_bit_exact(self, tmp_path):
        mat = rand((3, 5), seed=1).astype(np.float32)
        first = tmp_path / "a.wftf"
        second = tmp_path / "b.wftf"
        write_feature(first, mat)
        assert first.read_bytes()[:4] == b"WFTF"
        back = read_feature(first)
        npt.assert_array_equal(back, mat)
        write_feature(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_by_one_byte(self, tmp_path):
        path = tmp_path / "t.wftf"
        write_feature(path, rand((2, 3), seed=2).astype(np.float32))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="offset 16"):
            read_feature(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wftf"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError, match="offset 0"):
            read_feature(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.wftf"
        write_feature(path, np.ones((1, 1), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_feature(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.wftf"
        write_feature(path, np.ones((1, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_feature(path)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "big.wftf"
        path.write_bytes(b"WFTF" + struct.pack("<III", 1, 2 ** 20, 2 ** 10) + b"\x00" * 4)
        assert path.stat().st_size == 20
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="offset 16"):
                read_feature(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_file_grown_after_fstat_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "grown.wftf"
        write_feature(path, np.ones((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        real_fstat = os.fstat

        def fstat_before_growth(fd):    # the size the file had when fstat ran
            return SimpleNamespace(st_mode=real_fstat(fd).st_mode, st_size=32)

        monkeypatch.setattr(os, "fstat", fstat_before_growth)
        with pytest.raises(FormatError, match="expected 32 bytes total, found 33"):
            read_feature(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_rejected_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "pipe.wftf"
        os.mkfifo(path)
        raised = []

        def read():
            try:
                read_feature(path)
            except DataError as exc:
                raised.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "read_feature blocked opening a FIFO"
        assert raised and "not a regular file" in str(raised[0])

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_feature(tmp_path / "n.wftf", np.array([[np.inf]], dtype=np.float32))

    def test_empty_matrix_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_feature(tmp_path / "e.wftf", np.zeros((0, 3), dtype=np.float32))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [ManifestEntry("u0", 0, {"a": "features/u0.a.wftf"}),
                   ManifestEntry("u1", 2, {"a": "features/u1.a.wftf", "t": "features/u1.t.wftf"})]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, entries)
        back = read_manifest(path)
        assert [(e.uid, e.label, e.paths) for e in back] == \
            [(e.uid, e.label, e.paths) for e in entries]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("u0\t0\t\t\t\nu0\t1\t\t\t\n")
        with pytest.raises(DataError, match="duplicate"):
            read_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("u0\tx\t\t\t\n")
        with pytest.raises(DataError):
            read_manifest(path)

    def test_missing_file_rejected_at_load(self, tmp_path):
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("u0", 0, {"a": "features/u0.a.wftf"})])
        with pytest.raises(DataError, match="missing"):
            load_dataset(tmp_path)

    def test_directory_in_place_of_file_rejected_at_load(self, tmp_path):
        (tmp_path / "features" / "u0.a.wftf").mkdir(parents=True)
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("u0", 0, {"a": "features/u0.a.wftf"})])
        with pytest.raises(DataError, match=r"sample u0 references features/u0\.a\.wftf, "
                                            r"which is not a regular file"):
            load_dataset(tmp_path)

    def test_label_range_checked_at_load(self, tmp_path):
        (tmp_path / "features").mkdir()
        write_feature(tmp_path / "features/u0.a.wftf", np.ones((2, 3), dtype=np.float32))
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("u0", 5, {"a": "features/u0.a.wftf"})])
        with pytest.raises(DataError, match=r"\[0, 3\)"):
            load_dataset(tmp_path, num_classes=3)


class TestLoaderParity:
    def test_matches_reference_loader(self, tmp_path):
        generate_synthetic(SynthSpec(classes=3, per_class=5, seed=17), tmp_path)
        ds = load_dataset(str(tmp_path))
        samples, dims = reference_load_dataset(tmp_path)
        assert [(s.uid, s.label) for s in ds.samples] == [(uid, label) for uid, label, _ in samples]
        assert ds.feature_dims == dims
        for got, (_, _, feats) in zip(ds.samples, samples):
            assert got.features.keys() == feats.keys()
            for m, mat in feats.items():
                arr = got.features[m]
                npt.assert_array_equal(arr, mat)
                assert arr.dtype == np.dtype("<f4") and arr.flags.c_contiguous
                assert arr.flags.writeable and arr.flags.owndata    # no view of the read bytes


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.txt"
        write_atomic(path, "first\n")
        assert path.read_bytes() == b"first\n"

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)    # after the new bytes reached the temp file
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, "second\n")
        assert path.read_bytes() == b"first\n"
        assert os.listdir(tmp_path) == ["report.txt"]


class TestSyntheticGenerator:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        spec = SynthSpec(classes=3, per_class=4, seed=42)
        generate_synthetic(spec, tmp_path / "one")
        generate_synthetic(SynthSpec(classes=3, per_class=4, seed=42), tmp_path / "two")
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")

    def test_different_seed_differs(self, tmp_path):
        generate_synthetic(SynthSpec(classes=2, per_class=2, seed=1), tmp_path / "one")
        generate_synthetic(SynthSpec(classes=2, per_class=2, seed=2), tmp_path / "two")
        assert tree_bytes(tmp_path / "one") != tree_bytes(tmp_path / "two")

    def test_manifest_record_count(self, tmp_path):
        spec = SynthSpec(classes=5, per_class=7, seed=3)
        generate_synthetic(spec, tmp_path)
        assert len(read_manifest(tmp_path / "manifest.tsv")) == 35

    def test_loadable_and_balanced(self, tmp_path):
        generate_synthetic(SynthSpec(classes=3, per_class=4, seed=4), tmp_path)
        ds = load_dataset(tmp_path)
        assert ds.num_classes == 3
        labels = [s.label for s in ds.samples]
        assert all(labels.count(k) == 4 for k in range(3))
        assert set(ds.feature_dims) == {"a", "t", "v"}

    def test_sequence_lengths_vary_within_ranges(self, tmp_path):
        spec = SynthSpec(classes=2, per_class=10, seed=8)
        generate_synthetic(spec, tmp_path)
        ds = load_dataset(tmp_path)
        for m, (lo, hi) in spec.seq_len.items():
            lengths = {s.features[m].shape[0] for s in ds.samples}
            assert lengths <= set(range(lo, hi + 1))
            assert len(lengths) > 1  # actually variable

    def test_mean_groups_share_class_means(self, tmp_path):
        spec = SynthSpec(classes=4, per_class=2, sigma=0.0, rho=0.0, seed=5,
                         mean_groups={"a": [[0, 1], [2, 3]]})
        generate_synthetic(spec, tmp_path)
        ds = load_dataset(tmp_path)
        by_class = {}
        for s in ds.samples:
            by_class.setdefault(s.label, s.features["a"][0])
        npt.assert_array_equal(by_class[0], by_class[1])
        npt.assert_array_equal(by_class[2], by_class[3])
        assert not np.array_equal(by_class[0], by_class[2])

    def test_invalid_specs_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic(SynthSpec(classes=0), tmp_path)
        with pytest.raises(ConfigError):
            generate_synthetic(SynthSpec(rho=1.5), tmp_path)
        with pytest.raises(ConfigError):
            generate_synthetic(SynthSpec(classes=3, mean_groups={"a": [[0, 1]]}), tmp_path)

    @pytest.mark.parametrize("overrides,message", [
        ({"mu": float("nan")}, "mu must be finite"), ({"mu": float("inf")}, "mu must be finite"),
        ({"sigma": float("inf")}, "sigma must be finite"),
        ({"sigma": float("nan")}, "sigma must be finite"),
        ({"mu_scale": {"v": float("nan")}}, r"mu_scale\['v'\] must be finite"),
        ({"mu_scale": {"t": -float("inf")}}, r"mu_scale\['t'\] must be finite"),
        ({"dims": {"a": 3}, "seq_len": {}}, "seq_len has no length range for modality 'a'"),
    ], ids=["mu-nan", "mu-inf", "sigma-inf", "sigma-nan", "mu_scale-nan", "mu_scale-inf",
            "no-seq_len"])
    def test_unusable_scales_and_lengths_rejected_before_writing(self, tmp_path, overrides,
                                                                 message):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(SynthSpec(**overrides), out)
        assert not out.exists()

    def test_no_signal_data_trains_to_chance(self, tmp_path):
        # mu = 0, rho = 0: features carry no class information at all
        generate_synthetic(SynthSpec(classes=4, per_class=25, mu=0.0, rho=0.0,
                                     sigma=1.0, seed=6), tmp_path / "noise")
        accs = []
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=2,
                                   epochs=2, batch_size=10, seed=seed, balance=0.0,
                                   train_frac=0.5, val_frac=0.0, test_frac=0.5,
                                   data_dir=str(tmp_path / "noise"))
            result = train(cfg, write_artifacts=False)
            accs.append(result.report.test_acc)
        assert abs(float(np.mean(accs)) - 0.25) <= 0.1


class TestSplit:
    def test_ratio_sizes(self):
        items = list(range(10))
        train_set, val_set, test_set = split(items, RatioSplit(0.8, 0.1, 0.1, seed=0))
        assert (len(train_set), len(val_set), len(test_set)) == (8, 1, 1)
        assert sorted(train_set + val_set + test_set) == items

    def test_ratio_partition_property(self):
        items = list(range(37))
        train_set, val_set, test_set = split(items, RatioSplit(0.7, 0.2, 0.1, seed=3))
        joined = train_set + val_set + test_set
        assert sorted(joined) == items and len(joined) == len(set(joined))

    def test_seed_determinism_and_sensitivity(self):
        items = list(range(100))
        one = split(items, RatioSplit(0.8, 0.1, 0.1, seed=5))
        two = split(items, RatioSplit(0.8, 0.1, 0.1, seed=5))
        other = split(items, RatioSplit(0.8, 0.1, 0.1, seed=6))
        assert one == two
        assert one != other

    def test_fractions_must_sum_to_one(self):
        # train is no remainder: 0.5 beside 0.1 and 0.1 would train on 80%
        with pytest.raises(ConfigError, match=r"train_frac=0.5 \+ val_frac=0.1 \+ test_frac=0.1"):
            split(list(range(100)), RatioSplit(0.5, 0.1, 0.1))

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ConfigError):
            split(list(range(4)), RatioSplit(0.0, 0.5, 0.5, seed=0))
