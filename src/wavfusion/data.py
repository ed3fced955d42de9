"""Feature-file format, manifests, dataset splits, and the seeded synthetic
multimodal generator that stands in for pretrained feature extractors; also
the UTF-8 text reads of input files and the atomic writes of run artifacts.

Feature file layout (little-endian):

    magic   4 bytes  b"WFTF"
    version u32      currently 1
    T, D    u32 each
    payload T*D float32, row-major

Dataset directory layout: ``manifest.tsv`` plus ``features/<id>.<modality>.wftf``.
Manifest lines are tab-separated: id, integer label, then the audio, text and
visual feature paths relative to the dataset directory (empty field = modality
absent).
"""

from __future__ import annotations

import os
import stat
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .model import MODALITIES
from .rng import Prng

FEATURE_MAGIC = b"WFTF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIII")    # magic, version, T, D
# O_NONBLOCK: opening a FIFO must not wait for a writer; fstat then rejects it
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_NONBLOCK", 0)


# -- files -----------------------------------------------------------------------


def read_text(path, error=DataError) -> str:
    """The UTF-8 text of ``path``; bytes that are not UTF-8 raise ``error``
    naming the file, the line and the byte offset."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: invalid UTF-8 at byte offset {exc.start}") from None


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or str as UTF-8) through a temporary file in the
    same directory and ``os.replace``: a write that fails partway leaves the
    previous file intact and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- feature files ---------------------------------------------------------------


def write_feature(path, matrix) -> None:
    arr = np.asarray(matrix, dtype="<f4")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"feature matrix must be [T x D] with T, D >= 1; got shape {list(arr.shape)}")
    if not np.isfinite(arr).all():
        raise DataError("feature matrix contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_feature(path) -> np.ndarray:
    """The [T x D] float32 matrix in ``path``: one open, fstat and read. The
    file size is checked against the header before anything is sized from
    it; a path that is not a regular file raises ``DataError``."""
    fd = os.open(path, _OPEN_FLAGS)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise DataError(f"{path} is not a regular file")
        blob = os.read(fd, st.st_size + 1)    # one byte more shows a file that grew
    finally:
        os.close(fd)
    if not blob.startswith(FEATURE_MAGIC):
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0 in {path}; expected {FEATURE_MAGIC!r}")
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated header at offset {len(blob)} in {path}; need 16 bytes")
    _, version, rows, cols = _HEADER.unpack_from(blob)
    if version != FEATURE_VERSION:
        raise FormatError(f"unsupported feature version {version} at offset 4 in {path}")
    if rows < 1 or cols < 1:
        raise FormatError(f"invalid dimensions {rows} x {cols} at offset 8 in {path}")
    expect = _HEADER.size + 4 * rows * cols
    if len(blob) != expect:
        raise FormatError(f"payload size mismatch at offset 16 in {path}: "
                          f"expected {expect} bytes total, found {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(rows, cols).copy()


# -- manifest --------------------------------------------------------------------


@dataclass
class ManifestEntry:
    uid: str
    label: int
    paths: dict  # modality -> relative path (present modalities only)


@dataclass
class UtteranceSample:
    uid: str
    label: int
    features: dict  # modality -> [T x D] float array


def write_manifest(path, entries) -> None:
    lines = []
    for e in entries:
        cells = [e.uid, str(e.label)] + [e.paths.get(m, "") for m in MODALITIES]
        lines.append("\t".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    seen = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 2 + len(MODALITIES):
            raise DataError(f"{path}:{lineno}: expected {2 + len(MODALITIES)} fields, got {len(cells)}")
        uid, label_text = cells[0], cells[1]
        if uid in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {uid!r}")
        seen.add(uid)
        try:
            label = int(label_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: label {label_text!r} is not an integer") from None
        if label < 0:
            raise DataError(f"{path}:{lineno}: negative label {label}")
        paths = {m: cell for m, cell in zip(MODALITIES, cells[2:]) if cell}
        entries.append(ManifestEntry(uid, label, paths))
    return entries


@dataclass
class Dataset:
    samples: list
    num_classes: int
    feature_dims: dict = field(default_factory=dict)


def load_dataset(root, num_classes: int | None = None) -> Dataset:
    """Load every sample referenced by ``<root>/manifest.tsv``; verifies that
    referenced files exist and are regular files, and that labels fit in
    [0, num_classes)."""
    root = Path(root)
    entries = read_manifest(root / "manifest.tsv")
    if not entries:
        raise DataError(f"{root}: manifest is empty")
    base = os.fspath(root)
    samples = []
    dims: dict = {}
    for e in entries:
        feats = {}
        for m, rel in e.paths.items():
            try:
                mat = read_feature(os.path.join(base, rel))
            except FileNotFoundError:
                raise DataError(f"{root}: sample {e.uid} references missing file {rel}") from None
            except DataError:
                raise DataError(f"{root}: sample {e.uid} references {rel}, "
                                f"which is not a regular file") from None
            if m in dims and dims[m] != mat.shape[1]:
                raise DataError(f"{root}: modality {m!r} width {mat.shape[1]} of {e.uid} "
                                f"conflicts with {dims[m]}")
            dims[m] = mat.shape[1]
            feats[m] = mat
        samples.append(UtteranceSample(e.uid, e.label, feats))
    max_label = max(s.label for s in samples)
    if num_classes is None:
        num_classes = max_label + 1
    elif max_label >= num_classes:
        raise DataError(f"{root}: label {max_label} outside [0, {num_classes})")
    return Dataset(samples, num_classes, dims)


# -- synthetic generator -------------------------------------------------------------

LATENT_DIM = 8    # width of the per-utterance latent that the modalities share


@dataclass
class SynthSpec:
    """Knobs of the synthetic multimodal dataset.

    Per modality, each class gets a mean vector drawn once from seeded noise
    and scaled by ``mu`` (times the per-modality ``mu_scale``); a sample's
    sequence rows are that mean plus ``rho`` times a per-sample latent shared
    across modalities (through fixed per-modality projections) plus
    independent noise scaled by ``sigma``. ``mean_groups`` lets several
    classes share one mean in a given modality, so that modality alone
    carries only partial class signal.
    """
    classes: int = 4
    per_class: int = 20
    dims: dict = field(default_factory=lambda: {"a": 12, "t": 10, "v": 8})
    seq_len: dict = field(default_factory=lambda: {"a": (6, 10), "t": (4, 8), "v": (3, 6)})
    mu: float = 2.0
    rho: float = 0.5
    sigma: float = 1.0
    seed: int = 0
    mean_groups: dict = field(default_factory=dict)   # modality -> list of class groups
    mu_scale: dict = field(default_factory=dict)      # modality -> factor (default 1.0)

    def validate(self):
        if self.classes < 1 or self.per_class < 1:
            raise ConfigError("synthetic spec needs at least one class and one sample per class")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1]; got {self.rho}")
        for name, scale in (("mu", self.mu), ("sigma", self.sigma)):
            if not 0.0 <= scale < np.inf:
                raise ConfigError(f"{name} must be finite and non-negative; got {scale}")
        for m, factor in self.mu_scale.items():
            if not np.isfinite(factor):
                raise ConfigError(f"mu_scale[{m!r}] must be finite; got {factor}")
        for name, keys in (("dims", self.dims), ("mean_groups", self.mean_groups),
                           ("mu_scale", self.mu_scale)):
            unknown = sorted(set(keys) - set(MODALITIES))
            if unknown:
                raise ConfigError(f"{name}: unknown modalities {unknown}; "
                                  f"expected some of {list(MODALITIES)}")
        for m, dim in self.dims.items():
            if dim < 1:
                raise ConfigError(f"feature width of modality {m!r} must be at least 1; got {dim}")
            if m not in self.seq_len:
                raise ConfigError(f"seq_len has no length range for modality {m!r}")
            lo, hi = self.seq_len[m]
            if lo < 1 or hi < lo:
                raise ConfigError(f"bad sequence length range {lo}..{hi} for {m!r}")
        for m, groups in self.mean_groups.items():
            flat = sorted(c for g in groups for c in g)
            if flat != list(range(self.classes)):
                raise ConfigError(f"mean_groups[{m!r}] must partition range({self.classes})")


def _class_group(spec: SynthSpec, modality: str, klass: int) -> int:
    groups = spec.mean_groups.get(modality)
    if not groups:
        return klass
    for gi, group in enumerate(groups):
        if klass in group:
            return gi
    raise ConfigError(f"class {klass} missing from mean_groups[{modality!r}]")


@np.errstate(over="ignore", invalid="ignore")    # overflow is an error below, not a warning
def generate_synthetic(spec: SynthSpec, out_dir) -> Path:
    """Write a complete dataset directory; identical spec => identical bytes.
    A spec rejected for a knob, or for features that overflow float32
    (``ConfigError``), writes no file or directory."""
    spec.validate()
    root = Prng(spec.seed)
    modality_list = sorted(spec.dims)
    means = {}
    projections = {}
    for mi, m in enumerate(modality_list):
        dim = spec.dims[m]
        scale = spec.mu * spec.mu_scale.get(m, 1.0)
        mean_rng = root.child(1000 + mi)
        group_means = {}
        for klass in range(spec.classes):
            gi = _class_group(spec, m, klass)
            if gi not in group_means:
                group_means[gi] = mean_rng.child(gi).normal(dim) * scale
            means[(m, klass)] = group_means[gi]
        proj = root.child(2000 + mi).normal(LATENT_DIM * dim)
        projections[m] = proj.reshape(LATENT_DIM, dim) / np.sqrt(LATENT_DIM)

    entries, files = [], []
    for idx in range(spec.classes * spec.per_class):
        klass = idx // spec.per_class
        uid = f"utt{idx:05d}"
        srng = root.child(idx)
        latent = srng.child(0).normal(LATENT_DIM)
        paths = {}
        for mi, m in enumerate(modality_list):
            mrng = srng.child(1 + mi)
            lo, hi = spec.seq_len[m]
            t_len = mrng.randint(lo, hi + 1)
            noise = mrng.normal(t_len * spec.dims[m]).reshape(t_len, spec.dims[m])
            rows = (means[(m, klass)] + spec.rho * (latent @ projections[m])
                    + spec.sigma * noise).astype("<f4")
            if not np.isfinite(rows).all():
                raise ConfigError(f"synthetic {m!r} features overflow float32; "
                                  f"lower --mu, --sigma or --mu-scale")
            paths[m] = f"features/{uid}.{m}.wftf"
            files.append((paths[m], rows))
        entries.append(ManifestEntry(uid, klass, paths))

    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    for rel, rows in files:
        write_feature(out_dir / rel, rows)
    write_manifest(out_dir / "manifest.tsv", entries)
    return out_dir


# -- splits -----------------------------------------------------------------------


@dataclass
class RatioSplit:
    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def check(self) -> None:
        """Raise ``ConfigError`` unless each fraction lies in [0, 1] and the
        three sum to 1 (within 1e-9)."""
        fracs = (self.train, self.val, self.test)
        if not all(0.0 <= f <= 1.0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"train_frac, val_frac and test_frac must lie in [0, 1] and sum to 1; "
                              f"got train_frac={self.train} + val_frac={self.val} + "
                              f"test_frac={self.test} = {sum(fracs)}",
                              ("train_frac", "val_frac", "test_frac"))


def split(items: list, policy: RatioSplit):
    """Partition ``items`` into (train, val, test); deterministic under seed."""
    policy.check()
    n = len(items)
    order = Prng(policy.seed, stream=7).permutation(n)
    n_val = int(round(policy.val * n))
    n_test = int(round(policy.test * n))
    if n_val + n_test >= n:
        raise ConfigError(f"split fractions leave no training data for {n} samples")
    test = [items[i] for i in order[:n_test]]
    val = [items[i] for i in order[n_test:n_test + n_val]]
    train = [items[i] for i in order[n_test + n_val:]]
    return train, val, test
