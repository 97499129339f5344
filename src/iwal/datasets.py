"""Dataset ingestion: dense CSV and sparse svmlight-style files.

CSV rows are `label,feature,feature,...`; svmlight rows are
`label index:value ...` with 1-based indices, in any order, none repeated
on a line. Labels are mapped to -1/+1 by sign (nonpositive raw labels
become -1); a NaN label has no sign and is rejected. Features must be
finite: NaN and infinite values are rejected. Parse failures report the
1-based line number, as does an svmlight file whose dense matrix would
exceed `_MAX_DENSE_CELLS`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DatasetFormatError

FORMATS = ("csv", "svmlight")
# most cells an svmlight file's dense matrix may have: 800 MB of floats
_MAX_DENSE_CELLS = 10**8


def _map_label(raw: str, line_number: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_number}: bad label {raw!r}", line_number
        ) from None
    if math.isnan(value):
        raise DatasetFormatError(f"line {line_number}: NaN label", line_number)
    return 1.0 if value > 0 else -1.0


def _load_csv(lines) -> tuple[np.ndarray, np.ndarray]:
    rows, labels = [], []
    width = None
    for number, line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise DatasetFormatError(
                f"line {number}: expected label and at least one feature", number
            )
        labels.append(_map_label(parts[0], number))
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            raise DatasetFormatError(
                f"line {number}: non-numeric feature", number
            ) from None
        if not all(map(math.isfinite, row)):
            raise DatasetFormatError(
                f"line {number}: non-finite feature", number
            )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DatasetFormatError(
                f"line {number}: expected {width} features, got {len(row)}", number
            )
        rows.append(row)
    return np.array(rows, dtype=float), np.array(labels, dtype=float)


def _load_svmlight(lines) -> tuple[np.ndarray, np.ndarray]:
    entries, labels = [], []
    max_index = widest = 0
    for number, line in lines:
        parts = line.split()
        labels.append(_map_label(parts[0], number))
        row = {}
        for token in parts[1:]:
            try:
                index_text, value_text = token.split(":", 1)
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise DatasetFormatError(
                    f"line {number}: bad feature token {token!r}", number
                ) from None
            if index < 1:
                raise DatasetFormatError(
                    f"line {number}: indices are 1-based, got {index}", number
                )
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"line {number}: non-finite feature {token!r}", number
                )
            if index - 1 in row:
                raise DatasetFormatError(
                    f"line {number}: feature index {index} repeated", number
                )
            row[index - 1] = value
            if index > max_index:
                max_index, widest = index, number
        entries.append(row)
    if max_index == 0:
        raise DatasetFormatError("no line has a feature")
    if len(entries) * max_index > _MAX_DENSE_CELLS:
        raise DatasetFormatError(
            f"line {widest}: feature index {max_index} needs a dense {len(entries)} x "
            f"{max_index} matrix, over the {_MAX_DENSE_CELLS} cell limit", widest)
    X = np.zeros((len(entries), max_index), dtype=float)
    for i, row in enumerate(entries):
        for j, value in row.items():
            X[i, j] = value
    return X, np.array(labels, dtype=float)


def load_dataset(path, fmt: str = "csv") -> tuple[np.ndarray, np.ndarray]:
    """Parse a labeled dataset; returns (X, y) with y in {-1, +1}."""
    if fmt not in FORMATS:
        raise DatasetFormatError(f"unknown dataset format {fmt!r}")
    numbered = []
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                numbered.append((number, line))
    if not numbered:
        raise DatasetFormatError(f"{path}: empty dataset")
    if fmt == "csv":
        return _load_csv(numbered)
    return _load_svmlight(numbered)
