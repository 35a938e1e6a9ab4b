"""Tabular ingestion, validation, and design-matrix transforms.

A Dataset is an immutable table of features (with a leading intercept column
of ones), one or more named target vectors, a categorical group label per
row, opaque row ids, and a train/tune/holdout split tag per row. Columns can
be removed by regex, and the feature block can be orthonormalized with a
column-pivoted QR that pins the intercept and drops rank-deficient columns.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

INTERCEPT_NAME = "intercept"
SPLIT_VALUES = ("train", "tune", "holdout")
# Columns with a fixed role in the CSV layout; they are never features.
RESERVED_COLUMNS = ("row_id", "group", "split")

# Columns with pivot magnitude below this fraction of the largest pivot are
# treated as collinear and dropped.
PIVOT_DROP_REL_TOL = 1e-10


class DataError(Exception):
    """Base class for ingestion and validation failures."""


class SchemaError(DataError):
    """The header does not fit the CSV layout: it is missing or
    unreadable, repeats a name, lacks a target or the group column, or has
    no feature column or one named ``intercept``."""


class ParseError(DataError):
    """A cell could not be parsed; carries the first offending row."""

    def __init__(self, message: str, row_index: int, bad_count: int):
        super().__init__(message)
        self.row_index = row_index
        self.bad_count = bad_count


class EmptyDesignError(DataError):
    """All feature columns were removed."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/target/group table.

    Attributes
    ----------
    feature_names : tuple of str
        Names for the feature columns; position 0 is always ``intercept``.
    features : ndarray, shape (n, d+1)
        Design matrix including the intercept column of ones.
    target_names : tuple of str
    targets : ndarray, shape (n, K)
    groups : ndarray of str, shape (n,)
    row_ids : tuple of str
    split_tags : ndarray of str, shape (n,)
        Each entry is one of ``train``, ``tune``, ``holdout``.
    """

    feature_names: tuple[str, ...]
    features: NDArray[np.float64]
    target_names: tuple[str, ...]
    targets: NDArray[np.float64]
    groups: NDArray
    row_ids: tuple[str, ...]
    split_tags: NDArray

    def __post_init__(self):
        n, p = self.features.shape
        if n < 2:
            raise DataError(f"need at least 2 rows, got {n}")
        if len(self.feature_names) != p:
            raise DataError("feature_names length does not match features")
        if self.feature_names[0] != INTERCEPT_NAME:
            raise DataError("feature column 0 must be the intercept")
        if self.targets.shape != (n, len(self.target_names)):
            raise DataError("targets shape does not match target_names")
        if len(self.target_names) < 1:
            raise DataError("need at least one target")
        for arr, what in ((self.features, "features"), (self.targets, "targets")):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in {what}")
        col0 = self.features[:, 0]
        # Ones on ingestion; the orthonormalized design carries 1/sqrt(n).
        if col0[0] <= 0 or not np.allclose(col0, col0[0]):
            raise DataError("intercept column must be a positive constant")
        if len(self.row_ids) != n or self.groups.shape[0] != n or self.split_tags.shape[0] != n:
            raise DataError("row-aligned columns must all have length n")
        bad = set(self.split_tags.tolist()) - set(SPLIT_VALUES)
        if bad:
            raise DataError(f"unknown split tags: {sorted(bad)}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def target(self, name: str) -> NDArray[np.float64]:
        try:
            j = self.target_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown target {name!r}; have {self.target_names}") from None
        return self.targets[:, j]

    def group_mask(self, label: str) -> NDArray[np.bool_]:
        return self.groups == label

    def split_masks(self) -> "tuple[NDArray[np.bool_], ...]":
        """The (train, tune, holdout) row masks: models fit on train, freeze
        their scaling on tune and are analyzed on holdout.

        Raises
        ------
        ValueError
            If a split has no rows; the first empty one is named.
        """
        masks = tuple(self.split_tags == tag for tag in SPLIT_VALUES)
        for tag, m in zip(SPLIT_VALUES, masks):
            if not m.any():
                raise ValueError(f"split {tag!r} has no rows")
        return masks

    def subset(self, mask: NDArray[np.bool_]) -> "Dataset":
        """Row subset in original order."""
        mask = np.asarray(mask, dtype=bool)
        return dataclasses.replace(
            self,
            features=self.features[mask],
            targets=self.targets[mask],
            groups=self.groups[mask],
            row_ids=tuple(r for r, m in zip(self.row_ids, mask) if m),
            split_tags=self.split_tags[mask],
        )


def assign_splits(row_ids: "tuple[str, ...] | list[str]", seed: int) -> NDArray:
    """Deterministic 1/3 train/tune/holdout assignment by hash of row id.

    The hash covers the seed, so different seeds give different partitions
    while any one (seed, row_id) pair is stable across platforms and runs.
    """
    tags = np.empty(len(row_ids), dtype="<U7")
    for i, rid in enumerate(row_ids):
        digest = hashlib.sha256(f"{seed}:{rid}".encode()).digest()
        tags[i] = SPLIT_VALUES[int.from_bytes(digest[:8], "big") % 3]
    return tags


def _parse_numeric_block(rows, header_index, names, kind, path):
    """Parse named columns to float, one column at a time; on a bad cell,
    name the first offending row and count the rows with any."""
    cols = [header_index[name] for name in names]
    out = np.empty((len(rows), len(cols)), dtype=np.float64)
    try:
        for j, c in enumerate(cols):
            out[:, j] = [float(row[c]) for row in rows]
    except ValueError:
        bad_rows = [i for i, row in enumerate(rows) if not all(_is_float(row[c]) for c in cols)]
        raise ParseError(
            f"{path}: {len(bad_rows)} row(s) with missing or non-numeric {kind} cells; "
            f"first at data row {bad_rows[0]}",
            row_index=bad_rows[0],
            bad_count=len(bad_rows),
        ) from None
    return out


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# NumPy strips these four ASCII separators around a number as whitespace,
# but float() refuses such a cell, so a body holding one is read row by row.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _read_body(body: str, header, features, targets, path) -> np.ndarray:
    """Parse the data rows into a structured array with one field per
    header column, ``f0``, ``f1``, ... in header order: float64 for the
    feature and target columns, str objects for the reserved ones.

    One ``np.loadtxt`` call reads most tables in the grammar ``load_csv``
    documents. The rest go row by row through ``csv.reader`` and
    ``float()``: a body NumPy refuses, an empty one, and one holding a
    ``_NUMPY_ONLY_SPACE`` separator or a cell over csv's field limit.
    That path also accepts ``1_000``, Unicode digits and lone ``\\r``
    line ends, and it names the first bad row of a body no reader accepts.
    """
    dtype = np.dtype(
        [(f"f{j}", object if name in RESERVED_COLUMNS else np.float64) for j, name in enumerate(header)]
    )
    if body.strip() and not any(ch in body for ch in _NUMPY_ONLY_SPACE) and not _long_stretch(body):
        try:
            table = np.loadtxt(
                io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        except ValueError:
            pass
        else:
            # A quoted reserved cell may hold commas: check its parsed length.
            # With no quote, every cell is a comma-free stretch, and
            # ``_long_stretch`` already sent any over the limit row by row.
            limit = csv.field_size_limit()
            reserved = [f"f{j}" for j, name in enumerate(header) if name in RESERVED_COLUMNS]
            if '"' not in body or not any(len(cell) > limit for f in reserved for cell in table[f]):
                _check_row_count(len(table), path)
                return table

    rows, refused = [], []
    reader = csv.reader(io.StringIO(body, newline=""))
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:  # such as a cell over csv's field limit
            refused.append((len(rows) + len(refused), exc))
            continue  # the reader resumes at the next row
        if row is None:
            break
        if row:
            rows.append(row)
    if refused:
        raise ParseError(
            f"{path}: {len(refused)} row(s) the csv reader refuses ({refused[0][1]}); "
            f"first at data row {refused[0][0]}",
            row_index=refused[0][0],
            bad_count=len(refused),
        )
    short = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if short:
        raise ParseError(
            f"{path}: {len(short)} row(s) with wrong field count; first at data row {short[0]}",
            row_index=short[0],
            bad_count=len(short),
        )
    _check_row_count(len(rows), path)
    header_index = {name: j for j, name in enumerate(header)}
    table = np.empty(len(rows), dtype)
    for names, kind in ((features, "feature"), (targets, "target")):
        block = _parse_numeric_block(rows, header_index, names, kind, path)
        for j, name in enumerate(names):
            table[f"f{header_index[name]}"] = block[:, j]
    for name in RESERVED_COLUMNS:
        if name in header_index:
            table[f"f{header_index[name]}"] = [row[header_index[name]] for row in rows]
    return table


def _long_stretch(body: str) -> bool:
    """Whether ``body`` may hold a comma-free stretch, such as a cell NumPy
    parses as a number (it may span lines), over csv's field limit: any
    such stretch covers an aligned block of half the limit with no comma."""
    size = max(1, csv.field_size_limit() // 2)
    return any(body.find(",", i, i + size) < 0 for i in range(0, len(body) - size + 1, size))


def _check_row_count(n: int, path) -> None:
    if n < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {n}")


def load_csv(path, targets) -> Dataset:
    """Load a UTF-8 CSV with a header row into a Dataset.

    The header names each column once. The named targets are outcomes;
    ``row_id``, ``group`` and ``split`` are reserved; every other column
    is a feature. A ``group`` column is required. Without a ``split``
    column the split tags are ``assign_splits(row_ids, 0)``; without a
    ``row_id`` column the row ids are the row positions.

    Cells are separated by commas. A cell may be quoted with ``"``, and a
    quote inside a quoted cell is doubled. ``#`` is data, never a comment.
    A leading byte-order mark is dropped and blank lines are skipped.
    Feature and target cells take Python ``float()`` syntax; a split cell
    must be exactly ``train``, ``tune`` or ``holdout``.

    Parameters
    ----------
    path : str or Path
    targets : sequence of str
        Names of the target columns.

    Raises
    ------
    SchemaError
        ``targets`` repeats a name; or the csv reader refuses the header
        (a name over its field limit), or the header is missing, repeats a
        name, lacks a target or the group column, or has no feature column
        or one named ``intercept``; or a target is a reserved column.
    ParseError
        A row has the wrong number of fields or the csv reader refuses it,
        a feature or target cell is empty or non-numeric, or a group cell
        is blank; the error names the first offending data row and the
        total count of bad rows.
    DataError
        The table has fewer than two data rows, or a split cell is not
        one of the three tags.
    """
    targets = tuple(targets)
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise SchemaError(f"target name(s) {repeated} repeat in {targets}")
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8"
    # exports put before the first header name.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:  # such as a name over csv's field limit
            raise SchemaError(f"{path}: the csv reader refuses the header ({exc})") from None
        if header is None:
            raise SchemaError(f"{path}: empty file")
        body = fh.read()

    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaError(f"{path}: column name(s) {repeated} repeat in the header")
    missing = [t for t in targets if t not in header]
    if missing:
        raise SchemaError(f"{path}: target column(s) {missing} not in header")
    reserved = [t for t in targets if t in RESERVED_COLUMNS]
    if reserved:
        raise SchemaError(f"{path}: target column(s) {reserved} are reserved {RESERVED_COLUMNS}")
    if "group" not in header:
        raise SchemaError(f"{path}: expected a 'group' column")
    features = tuple(c for c in header if c not in targets and c not in RESERVED_COLUMNS)
    if not features:
        raise SchemaError(f"{path}: no feature columns left after reserving {RESERVED_COLUMNS}")
    if INTERCEPT_NAME in features:
        raise SchemaError(f"{path}: {INTERCEPT_NAME!r} is a reserved feature name")

    table = _read_body(body, header, features, targets, path)
    n = len(table)
    column = {name: table[f"f{j}"] for j, name in enumerate(header)}

    groups = np.array(column["group"], dtype=object)
    blank_groups = np.flatnonzero(groups == "").tolist()
    if blank_groups:
        raise ParseError(
            f"{path}: {len(blank_groups)} row(s) with blank group; "
            f"first at data row {blank_groups[0]}",
            row_index=blank_groups[0],
            bad_count=len(blank_groups),
        )

    if "row_id" in column:
        row_ids = tuple(column["row_id"].tolist())
    else:
        row_ids = tuple(str(i) for i in range(n))

    if "split" in column:
        # Check the cells before the fixed-width tag array could cut one
        # down to a valid tag.
        unknown = sorted(set(column["split"].tolist()) - set(SPLIT_VALUES))
        if unknown:
            raise DataError(f"{path}: unknown split tags: {unknown}")
        split_tags = column["split"].astype("<U7")
    else:
        split_tags = assign_splits(row_ids, 0)

    return Dataset(
        feature_names=(INTERCEPT_NAME,) + features,
        features=np.column_stack([np.ones(n)] + [column[name] for name in features]),
        target_names=targets,
        targets=np.column_stack([column[name] for name in targets]),
        groups=groups,
        row_ids=row_ids,
        split_tags=split_tags,
    )


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV in the layout load_csv expects.

    The intercept column is omitted (load_csv re-adds it), so loading the
    file with ``ds.target_names`` is the identity on contents for ingested
    tables. An orthonormalized design reloads with a unit intercept in
    place of its scaled constant column.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["row_id"]
            + list(ds.feature_names[1:])
            + list(ds.target_names)
            + ["group", "split"]
        )
        for i in range(ds.n):
            writer.writerow(
                [ds.row_ids[i]]
                + [repr(float(v)) for v in ds.features[i, 1:]]
                + [repr(float(v)) for v in ds.targets[i]]
                + [ds.groups[i], ds.split_tags[i]]
            )


def drop_columns_matching(ds: Dataset, patterns) -> Dataset:
    """Remove feature columns whose name matches any regex in patterns.

    Matching uses ``re.search``. The intercept is never dropped. Targets and
    groups are untouched.
    """
    compiled = [re.compile(p) for p in patterns]
    keep = [0] + [
        j
        for j in range(1, len(ds.feature_names))
        if not any(c.search(ds.feature_names[j]) for c in compiled)
    ]
    if len(keep) == 1:
        raise EmptyDesignError("all non-intercept feature columns removed")
    return dataclasses.replace(
        ds,
        feature_names=tuple(ds.feature_names[j] for j in keep),
        features=ds.features[:, keep],
    )


def orthonormalize(ds: Dataset) -> Dataset:
    """Orthonormalize the design with the intercept pinned first.

    Runs a column-pivoted QR (:func:`_pivot_order`) on the non-intercept
    columns after projecting out the intercept direction. Columns whose
    pivot magnitude falls below ``PIVOT_DROP_REL_TOL`` times the largest
    pivot are dropped as collinear. Returns the transformed Dataset, whose
    features satisfy X^T X = I.
    """
    X = ds.features
    n, p = X.shape
    sqrt_n = np.sqrt(float(n))
    q0 = X[:, :1] / sqrt_n

    if p == 1:
        raise EmptyDesignError("design has no non-intercept columns")

    rest = X[:, 1:]
    rest_proj = rest - q0 @ (q0.T @ rest)

    # Column-pivoted QR orders columns by residual norm, exposing collinear
    # ones at the tail of the R diagonal.
    piv, diag = _pivot_order(rest_proj)
    largest = max(float(diag.max(initial=0.0)), sqrt_n)
    keep_count = int(np.sum(diag >= PIVOT_DROP_REL_TOL * largest))
    rank = keep_count + 1

    # The design is the Q factor of one QR of the intercept and the kept
    # columns in pivot order, so it is orthonormal to rounding however
    # close a kept pivot sits to the drop threshold. Signs make R's
    # diagonal positive.
    Q, R = np.linalg.qr(np.column_stack([X[:, 0], rest[:, piv[:keep_count]]]))
    X_orth = Q * np.where(np.diag(R) < 0, -1.0, 1.0)
    # Column 0 comes out as 1/sqrt(n) up to rounding: constant, so still a
    # valid intercept direction, just rescaled.
    X_orth[:, 0] = 1.0 / sqrt_n
    new_names = (INTERCEPT_NAME,) + tuple(f"q{j}" for j in range(1, rank))
    return dataclasses.replace(
        ds,
        feature_names=new_names,
        features=X_orth,
    )


def _pivot_order(A: NDArray[np.float64]) -> "tuple[NDArray[np.intp], NDArray[np.float64]]":
    """Column order and pivot magnitudes |R[j, j]| of a column-pivoted QR.

    Gram-Schmidt with column pivoting: each step takes the remaining column
    of largest residual norm, recomputed from the residuals rather than
    downdated, the first of equal norms winning as LAPACK's ``idamax``
    picks, and projects its direction out of the columns still to come.
    """
    R = np.array(A, dtype=np.float64)
    k = R.shape[1]
    piv = np.arange(k)
    diag = np.zeros(min(R.shape))
    for j in range(diag.shape[0]):
        norms = np.linalg.norm(R[:, j:], axis=0)
        q = j + int(np.argmax(norms))
        diag[j] = norms[q - j]
        if diag[j] == 0:
            break
        R[:, [j, q]] = R[:, [q, j]]
        piv[[j, q]] = piv[[q, j]]
        u = R[:, j] / diag[j]
        # Reduced column by column, so equal columns stay equal and tie.
        R[:, j + 1 :] -= np.outer(u, np.einsum("i,ij->j", u, R[:, j + 1 :]))
    return piv, diag
