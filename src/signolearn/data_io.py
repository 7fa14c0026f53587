"""Data ingestion, positivity scaling, splits, and model persistence.

Signomials need strictly positive inputs, so features are min-max scaled
into the positive interval [1, 10] before training. Splits are
stratified and fully determined by their seed. Persisted models are JSON
with an explicit schema version, written atomically.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadConfigError,
    ClassTooSmallError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    SchemaVersionError,
    SignolearnError,
)
from .signomial import numeric_array

MODEL_SCHEMA_VERSION = 1

# numpy's Philox generator, which every fit is seeded with, takes keys below 2**128
SEED_LIMIT = 2**128


def _is_int(value) -> bool:
    """True for a Python or numpy integer, False for a bool: 2.5 or True would
    pass a range check, then fail in numpy or act as 2 or 1 without a word."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed: int, what: str = "seed") -> None:
    """Raise BadConfigError unless seed is an integer with 0 <= seed < SEED_LIMIT."""
    if not (_is_int(seed) and 0 <= seed < SEED_LIMIT):
        raise BadConfigError(f"{what} must be an integer in [0, 2**128), got {seed!r}")


def check_count(value: int, what: str) -> None:
    """Raise BadConfigError unless value is an integer >= 1."""
    if not (_is_int(value) and value >= 1):
        raise BadConfigError(f"{what} must be an integer >= 1, got {value!r}")


@dataclass
class Dataset:
    """Feature matrix plus target vector and naming metadata."""

    X: np.ndarray
    y: np.ndarray | None  # None when the CSV was read without a target
    feature_names: list[str]
    class_names: list[str] | None = None  # None for regression targets

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def m(self) -> int:
        return int(self.X.shape[1])

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            X=self.X[idx],
            y=self.y[idx],
            feature_names=list(self.feature_names),
            class_names=None if self.class_names is None else list(self.class_names),
        )


# --- scaling -----------------------------------------------------------------


class Scaler:
    """Min-max scaler into the fixed interval [lo, hi] = [1, 10].

    Unseen data is clamped into [lo, hi] after scaling; a feature that was
    constant at fit time maps to lo. Inputs that are not real numbers raise
    DataFormatError, as does fitting no rows, and a row or batch of rows
    with another number of features than the fit saw raises
    DimensionMismatchError.
    """

    lo = 1.0
    hi = 10.0

    def __init__(self):
        self.mins: np.ndarray | None = None
        self.maxs: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Scaler":
        X = numeric_array(X)
        if X.ndim != 2 or X.size == 0:
            raise DataFormatError(f"need a non-empty 2-D feature matrix, got shape {X.shape}")
        self.mins = X.min(axis=0)
        self.maxs = X.max(axis=0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mins is None:
            raise DataFormatError("scaler used before fit")
        X = numeric_array(X)
        if X.ndim not in (1, 2) or X.shape[-1] != len(self.mins):
            raise DimensionMismatchError(
                f"inputs have shape {X.shape}, expected (N, {len(self.mins)}) or "
                f"({len(self.mins)},)"
            )
        span = self.maxs - self.mins
        scaled = np.where(
            span == 0,
            self.lo,
            self.lo + (self.hi - self.lo) * (X - self.mins) / np.where(span == 0, 1.0, span),
        )
        return np.clip(scaled, self.lo, self.hi)

    def to_dict(self) -> dict:
        # steps and stepParams are part of the model-file format; no scaler has any
        return {
            "lo": self.lo,
            "hi": self.hi,
            "steps": [],
            "stepParams": [],
            "mins": None if self.mins is None else self.mins.tolist(),
            "maxs": None if self.maxs is None else self.maxs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scaler":
        """Rebuild a scaler from `to_dict`'s payload.

        A payload with another range, any preprocessing step, or bounds that
        `fit` cannot give is a DataFormatError: one of mins and maxs without
        the other, bounds that are not two equal-length lists of finite JSON
        numbers ("1" must not decode as 1.0, nor true as 1.0), or a min
        above its max, which would invert the scaling. A min equal to its
        max is a constant feature.
        """
        fixed = {k: data.get(k) for k in ("lo", "hi", "steps", "stepParams")}
        if fixed != {"lo": cls.lo, "hi": cls.hi, "steps": [], "stepParams": []}:
            raise DataFormatError(
                f"scaler must be [{cls.lo}, {cls.hi}] with empty steps and stepParams, "
                f"got {fixed}"
            )
        sc = cls()
        mins, maxs = data.get("mins"), data.get("maxs")
        if mins is None and maxs is None:
            return sc
        if mins is None or maxs is None:
            raise DataFormatError("scaler needs both mins and maxs, or neither")
        if not all(type(b) is list and all(type(v) in (int, float) for v in b)
                   for b in (mins, maxs)):
            raise DataFormatError("scaler mins and maxs must be lists of numbers")
        sc.mins, sc.maxs = numeric_array(mins), numeric_array(maxs)
        if sc.mins.shape != sc.maxs.shape:
            raise DataFormatError(
                f"scaler mins {sc.mins.shape} and maxs {sc.maxs.shape} must be equal-length lists"
            )
        if not (np.isfinite(sc.mins).all() and np.isfinite(sc.maxs).all()):
            raise DataFormatError("scaler bounds must be finite")
        if (sc.mins > sc.maxs).any():
            j = int(np.argmax(sc.mins > sc.maxs))
            raise DataFormatError(
                f"scaler bound of feature {j} has min {sc.mins[j]} above max {sc.maxs[j]}"
            )
        return sc


# --- splitting ---------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    val_fraction: float = 0.0  # fraction of the training side, carved after test
    seed: int = 0


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _take_per_class(fraction, rng, pool_by_class):
    taken, remaining = [], {}
    for c, pool in pool_by_class.items():
        if len(pool) < 2:
            raise ClassTooSmallError(
                f"class {c} has {len(pool)} sample(s); need at least 2 to split"
            )
        n_take = _round_half_up(fraction * len(pool))
        n_take = min(max(n_take, 1), len(pool) - 1)
        order = rng.permutation(len(pool))
        taken.extend(pool[order[:n_take]])
        remaining[c] = pool[order[n_take:]]
    return np.array(sorted(taken), dtype=int), remaining


def split(
    data: Dataset, spec: SplitSpec
) -> tuple[Dataset, Dataset] | tuple[Dataset, Dataset, Dataset]:
    """Seeded holdout split; stratified when the target is categorical.

    Returns (train, test), or (train, test, val) when spec.val_fraction > 0.
    Per-class test counts stay within one sample of the exact proportion and
    every class lands on both sides; a regression target is split as one class.
    """
    if not 0 < spec.test_fraction < 1:
        raise BadConfigError(f"test fraction must be in (0, 1), got {spec.test_fraction}")
    if not 0 <= spec.val_fraction < 1:
        raise BadConfigError(f"validation fraction must be in [0, 1), got {spec.val_fraction}")
    check_seed(spec.seed, "split seed")
    rng = np.random.default_rng(spec.seed)
    if data.class_names is None:
        pools = {0: np.arange(data.n)}
    else:
        pools = {int(c): np.flatnonzero(data.y == c) for c in np.unique(data.y)}
    test_idx, rest = _take_per_class(spec.test_fraction, rng, pools)
    if spec.val_fraction > 0:
        val_idx, rest = _take_per_class(spec.val_fraction, rng, rest)
    train_idx = np.array(sorted(np.concatenate(list(rest.values()))), dtype=int)
    parts = (data.subset(train_idx), data.subset(test_idx))
    return (*parts, data.subset(val_idx)) if spec.val_fraction > 0 else parts


def split_and_scale(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset, Scaler]:
    """(train, val, test, scaler): split, fit the Scaler on train, scale all three."""
    if not 0 < spec.val_fraction < 1:
        raise BadConfigError(f"validation fraction must be in (0, 1), got {spec.val_fraction}")
    train, test, val = split(data, spec)
    scaler = Scaler().fit(train.X)
    scaled = [Dataset(scaler.transform(d.X), d.y, d.feature_names, d.class_names)
              for d in (train, val, test)]
    return (*scaled, scaler)


# --- CSV ---------------------------------------------------------------------


def load_csv(
    path: str, target: str | None, task: str = "classify",
    features: Sequence[str] | None = None,
) -> Dataset:
    """Load a headered CSV into a Dataset; the package's one CSV parser.

    The feature columns are every non-target column, or with `features` a
    model's columns: picked by name in that order when the header has them
    all, else the non-target columns in file order when their count matches
    (the Dataset then carries the model's names).
    Only feature and target cells are parsed, so other columns may hold
    anything. Classification targets are label-encoded in order of first
    appearance; regression targets must parse as floats; without a target
    the Dataset has no labels (y is None). Blank rows are skipped. Any other
    malformation (undecodable bytes, duplicate headers, ragged rows, empty,
    non-numeric or non-finite cells) is a DataFormatError naming the file;
    a missing file is an OSError.
    """
    if task not in ("classify", "regress"):
        raise DataFormatError(f"unknown task {task!r}")
    try:
        # utf-8-sig drops the byte-order mark spreadsheet programs write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}: duplicate column names in header")
    if target is not None and target not in header:
        raise DataFormatError(f"{path}: no column named {target!r}")
    names = [h for h in header if h != target]
    features = names if features is None else list(features)
    if set(features) <= set(names):
        cols = [header.index(name) for name in features]
    elif len(features) == len(names):
        cols = [header.index(name) for name in names]
    else:
        raise DataFormatError(f"{path}: data has columns {names}, model expects {features}")
    t_pos = None if target is None else header.index(target)

    values, targets = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
            )
        values.append([_number(path, line_no, header[i], row[i]) for i in cols])
        if t_pos is not None:
            t = row[t_pos]
            targets.append(t.strip() if task == "classify" else _number(path, line_no, target, t))
    if not values:
        raise DataFormatError(f"{path}: no data rows")

    X = np.array(values, dtype=float)
    if target is None:
        return Dataset(X=X, y=None, feature_names=features)
    if task == "regress":
        return Dataset(X=X, y=np.array(targets, dtype=float), feature_names=features)
    seen: dict[str, int] = {}
    for t in targets:
        seen.setdefault(t, len(seen))
    y = np.array([seen[t] for t in targets], dtype=int)
    return Dataset(X=X, y=y, feature_names=features, class_names=list(seen))


def _number(path: str, line_no: int, column: str, cell: str) -> float:
    """One numeric cell; empty, non-numeric and non-finite cells are rejected."""
    cell = cell.strip()
    if not cell:
        raise DataFormatError(f"{path}: row {line_no} column {column!r} is empty")
    try:
        v = float(cell)
    except ValueError:
        raise DataFormatError(
            f"{path}: column {column!r} is not numeric (row {line_no}: {cell!r})"
        ) from None
    if not math.isfinite(v):
        raise DataFormatError(
            f"{path}: column {column!r} has non-finite value at row {line_no}"
        )
    return v


# --- persistence -------------------------------------------------------------


def write_json_atomic(payload: dict, path: str) -> None:
    """Serialize deterministically (sorted keys) and rename into place."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(payload: dict, path: str) -> None:
    """Write a model payload as versioned JSON (atomic temp-then-rename)."""
    body = dict(payload)
    body["version"] = MODEL_SCHEMA_VERSION
    write_json_atomic(body, path)


def name_list(payload: dict, key: str) -> list[str] | None:
    """payload[key] when it is a JSON list of strings, or None when absent.

    CSV columns and labels are matched to these names; a string would
    otherwise read as one name per character. Anything else is a TypeError.
    """
    names = payload.get(key)
    if names is not None and not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise TypeError(f"{key} must be a list of strings, got {names!r}")
    return names


def read_json(path: str, error: type[SignolearnError] = DataFormatError):
    """Parse a JSON input file; malformed JSON raises error naming the file.

    utf-8-sig drops a leading byte-order mark, as load_csv does.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc


def load_model(path: str) -> dict:
    """Read a versioned model payload, validating schema version."""
    data = read_json(path, CorruptModelError)
    if not isinstance(data, dict) or "version" not in data:
        raise CorruptModelError(f"{path}: missing schema version")
    # the JSON integer 1: true and 1.0 compare equal to it in Python
    if type(data["version"]) is not int or data["version"] != MODEL_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema version {data['version']!r}, supported: {MODEL_SCHEMA_VERSION}"
        )
    return data
