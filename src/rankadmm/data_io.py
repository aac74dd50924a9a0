"""Dataset ingestion: sparse text format, dense CSV, synthetic generation,
splits, and train-statistics standardization."""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError, InvalidParameterError, check_int, to_float

if TYPE_CHECKING:
    import scipy.sparse as sp

_DENSIFY_LIMIT = 64


def issparse(x) -> bool:
    """``scipy.sparse.issparse(x)``, without importing scipy.sparse.

    A scipy sparse matrix cannot exist before scipy.sparse is imported, so
    while it is not in ``sys.modules`` the answer is False.  The package
    imports it only in :func:`load_libsvm` and the matrix-free w-step
    (d > 2000), so dense data never pays its load time.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


@dataclass
class RawDataset:
    """Loaded data with labels normalized to {-1, +1}."""

    X: np.ndarray | sp.spmatrix
    y: np.ndarray

    @property
    def sample_count(self) -> int:
        return self.X.shape[0]

    def subset(self, idx: np.ndarray) -> "RawDataset":
        return RawDataset(self.X[idx], self.y[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    informative_fraction: float = 0.5
    class_sep: float = 1.0
    flip_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InvalidParameterError("need n >= 1 and d >= 1")
        if not (0.0 <= self.flip_fraction < 0.5):
            raise InvalidParameterError("flip_fraction must be in [0, 0.5)")
        if not (0.0 < self.informative_fraction <= 1.0):
            raise InvalidParameterError("informative_fraction must be in (0, 1]")
        if not math.isfinite(self.class_sep):
            raise InvalidParameterError(f"class_sep must be finite, got {self.class_sep}")
        if self.seed is not None:  # None: a plan cell's, which takes the run's seed
            check_int("seed", self.seed, 0)


def _normalize_labels(raw: np.ndarray, context: str) -> np.ndarray:
    values = set(np.unique(raw).tolist())
    if values <= {-1.0, 1.0}:
        return raw.astype(float)
    if values <= {0.0, 1.0}:
        return np.where(raw > 0, 1.0, -1.0)
    raise DataFormatError(f"{context}: labels must be in {{0,1}} or {{-1,+1}}, saw {sorted(values)}")


def _open_text(path) -> io.StringIO:
    """The file's UTF-8 text with universal newlines, as ``open`` reads it.
    Bytes that are not valid UTF-8 raise with the number of their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"bytes that are not valid UTF-8 ({exc.reason})", line=line) from None


def load_libsvm(path) -> RawDataset:
    """Parse ``label index:value ...`` lines with 1-based indices into a
    CSR matrix.  Malformed content, a feature index given twice on one line
    included, raises with the offending line number.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    labels: list[float] = []
    max_col = 0
    with _open_text(path) as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise DataFormatError(f"bad label {parts[0]!r}", line=lineno) from None
            row = len(labels)
            labels.append(label)
            seen: set[int] = set()
            for tok in parts[1:]:
                idx_str, _, val_str = tok.partition(":")
                if not _:
                    raise DataFormatError(f"missing ':' in feature {tok!r}", line=lineno)
                try:
                    col = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise DataFormatError(f"bad feature {tok!r}", line=lineno) from None
                if col < 1:
                    raise DataFormatError(f"feature index {col} must be >= 1", line=lineno)
                if not np.isfinite(val):
                    raise DataFormatError(f"non-finite value in {tok!r}", line=lineno)
                # the CSR conversion would sum the values of a repeated index
                if col in seen:
                    raise DataFormatError(f"feature index {col} repeated", line=lineno)
                seen.add(col)
                rows.append(row)
                cols.append(col - 1)
                vals.append(val)
                max_col = max(max_col, col)
    if not labels:
        raise DataFormatError(f"no samples in {path}")
    n = len(labels)
    import scipy.sparse as sp

    X = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n, max(max_col, 1)), dtype=float
    )
    y = _normalize_labels(np.asarray(labels), str(path))
    return RawDataset(X, y)


def load_csv(path) -> RawDataset:
    """Dense CSV with header ``y,f1,...,fd``.  Every row holds as many
    fields as the first; the first row that does not raises with its line
    number, and a header naming another number of fields raises at line 1."""
    path = Path(path)
    with _open_text(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("y"):
            raise DataFormatError("csv header must start with 'y'", line=1)
        data = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DataFormatError(f"bad row {line!r}", line=lineno) from None
            if data and len(row) != len(data[0]):
                raise DataFormatError(
                    f"row has {len(row)} fields, the first row {len(data[0])}", line=lineno
                )
            data.append(row)
    if not data:
        raise DataFormatError(f"no samples in {path}")
    named = len(header.split(","))
    if named != len(data[0]):
        raise DataFormatError(f"header names {named} fields, the rows {len(data[0])}", line=1)
    arr = np.asarray(data)
    if arr.shape[1] < 2:
        raise DataFormatError("rows must all have a label plus >= 1 feature")
    if not np.all(np.isfinite(arr)):
        raise DataFormatError("non-finite entries in csv")
    y = _normalize_labels(arr[:, 0], str(path))
    return RawDataset(arr[:, 1:].copy(), y)


def generate_synthetic(spec: SyntheticSpec) -> RawDataset:
    """Two Gaussian clouds at +/- class_sep along a hidden unit direction
    supported on the informative coordinates, with optional label noise.
    Deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    k = max(1, round(spec.informative_fraction * spec.d))
    direction = np.zeros(spec.d)
    u = rng.standard_normal(k)
    direction[:k] = u / np.linalg.norm(u)
    y = rng.choice([-1.0, 1.0], size=spec.n)
    X = rng.standard_normal((spec.n, spec.d))
    X += np.outer(y * spec.class_sep, direction)
    if spec.flip_fraction > 0:
        flips = rng.random(spec.n) < spec.flip_fraction
        y = np.where(flips, -y, y)
    return RawDataset(X, y)


def split_fractions(fractions) -> tuple[float, ...]:
    """The fractions of a split as floats: nonnegative, summing to 1."""
    fractions = tuple(to_float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidParameterError(f"fractions sum to {sum(fractions)}, expected 1")
    if any(f < 0 for f in fractions):
        raise InvalidParameterError("fractions must be nonnegative")
    return fractions


def split(
    dataset: RawDataset, fractions: tuple[float, ...], seed: int = 0
) -> tuple[RawDataset, ...]:
    """Seeded shuffle then contiguous slices sized by the fractions."""
    fractions = split_fractions(fractions)
    check_int("seed", seed, 0)
    n = dataset.sample_count
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.floor(np.cumsum(fractions) * n + 0.5).astype(int)
    bounds[-1] = n
    out = []
    start = 0
    for b in bounds:
        out.append(dataset.subset(perm[start:b]))
        start = b
    return tuple(out)


def standardize(train: RawDataset, *others: RawDataset) -> tuple[RawDataset, ...]:
    """Center and scale every split by the training mean and deviation.

    Zero-variance features are centered only.  Sparse inputs are
    densified (centering destroys sparsity); refuse absurdly large ones.
    """
    if train.sample_count == 0:
        raise InvalidParameterError("training split is empty")

    def dense(ds: RawDataset) -> np.ndarray:
        if issparse(ds.X):
            if ds.X.shape[0] * ds.X.shape[1] > 5 * 10**7 and ds.X.shape[1] > _DENSIFY_LIMIT:
                raise InvalidParameterError(
                    "standardizing would densify a very large sparse matrix"
                )
            return np.asarray(ds.X.todense(), dtype=float)
        return np.asarray(ds.X, dtype=float)

    Xt = dense(train)
    mean = Xt.mean(axis=0)
    std = Xt.std(axis=0, ddof=0)
    scale = np.where(std > 0, std, 1.0)
    result = [RawDataset((Xt - mean) / scale, train.y.copy())]
    for ds in others:
        Xo = dense(ds)
        result.append(RawDataset((Xo - mean) / scale, ds.y.copy()))
    return tuple(result)
