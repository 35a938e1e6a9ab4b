import csv
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topkflip import dataset
from topkflip.cli import EXIT_DATA, main
from topkflip.dataset import (
    RESERVED_COLUMNS,
    DataError,
    Dataset,
    EmptyDesignError,
    ParseError,
    SchemaError,
    assign_splits,
    drop_columns_matching,
    load_csv,
    orthonormalize,
    write_csv,
)
from topkflip.linear_fit import fit_ols
from topkflip.synth import generate


@pytest.fixture
def table(tmp_path):
    ds = generate(n=80, b=0.3, seed=5)
    path = tmp_path / "t.csv"
    write_csv(ds, path)
    return ds, path


def test_csv_round_trip(table):
    ds, path = table
    back = load_csv(path, ds.target_names)
    assert back.feature_names == ds.feature_names
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.targets, ds.targets)
    assert tuple(back.groups) == tuple(ds.groups)
    assert tuple(back.split_tags) == tuple(ds.split_tags)
    assert tuple(back.row_ids) == tuple(ds.row_ids)


def test_load_ignores_a_byte_order_mark(table, tmp_path):
    # Spreadsheet "CSV UTF-8" exports start the file with one.
    ds, path = table
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain, back = load_csv(path, ds.target_names), load_csv(marked, ds.target_names)
    assert back.feature_names == plain.feature_names
    assert back.row_ids == plain.row_ids
    for name in ("features", "targets", "groups", "split_tags"):
        np.testing.assert_array_equal(getattr(back, name), getattr(plain, name))


def test_written_tables_parse_in_one_bulk_call(table, monkeypatch):
    ds, path = table
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    def cell_by_cell(*args):
        raise AssertionError("the row-by-row parser ran")

    monkeypatch.setattr(np, "loadtxt", counted)
    monkeypatch.setattr(dataset, "_parse_numeric_block", cell_by_cell)
    back = load_csv(path, ds.target_names)
    assert len(calls) == 1
    np.testing.assert_array_equal(back.features, ds.features)


def test_written_cells_are_plain_floats(table):
    # numpy scalar reprs ("np.float64(...)") must never reach the file
    _, path = table
    text = path.read_text()
    assert "np.float64" not in text


def test_load_requires_group_column(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("row_id,x,y\n0,1.0,2.0\n1,2.0,3.0\n")
    with pytest.raises(SchemaError):
        load_csv(p, ("y",))


@pytest.mark.parametrize(
    "header, message",
    [
        # Each name must pick one column; a repeat is refused, not resolved
        # to one of its columns.
        ("x,x,y,group", r"\['x'\] repeat"),
        ("row_id,x,y,group,row_id", r"\['row_id'\] repeat"),
        ("x,z,group", r"target column\(s\) \['y'\] not in header"),
        ("row_id,y,group,split", "no feature columns left"),
        ("intercept,y,group", "'intercept' is a reserved feature name"),
        pytest.param(
            f"x,{'n' * 200_000},y,group", r"the csv reader refuses the header \(field larger",
            id="name-over-the-csv-field-limit",
        ),
    ],
)
def test_header_must_fit_the_layout(tmp_path, header, message):
    p = tmp_path / "h.csv"
    row = ",".join(["1"] * len(header.split(",")))
    p.write_text(f"{header}\n{row}\n{row}\n")
    with pytest.raises(SchemaError, match=message):
        load_csv(p, ("y",))


@pytest.mark.parametrize("name", ["row_id", "group", "split"])
def test_load_refuses_a_reserved_column_as_a_target(tmp_path, name):
    # A reserved column holds labels, not outcomes: it would reach the
    # targets array as text.
    p = tmp_path / "r.csv"
    p.write_text("row_id,x,y,group,split\n0,1,2,a,train\n1,4,5,b,tune\n")
    with pytest.raises(SchemaError, match=rf"target column\(s\) \['{name}'\] are reserved"):
        load_csv(p, ("y", name))


def test_load_refuses_repeated_targets(tmp_path):
    # A repeated target would blend an outcome with itself; the header
    # itself is fine, so the target list is what the layout refuses.
    p = tmp_path / "t.csv"
    p.write_text("x,y,z,group\n1,2,3,a\n4,5,6,b\n")
    with pytest.raises(SchemaError, match=r"\['y'\] repeat"):
        load_csv(p, ("y", "z", "y"))


def test_load_rejects_non_numeric_cells(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,group\n1.0,2.0,a\noops,3.0,a\n")
    with pytest.raises(ParseError):
        load_csv(p, ("y",))


@pytest.mark.parametrize(
    "cells, kind, row_index, bad_count",
    [
        # Feature cells are checked first; a row counts once however many
        # of its named cells are bad.
        ({(4, "x2"): "", (2, "x1"): "1e", (4, "x1"): "n/a"}, "feature", 2, 2),
        ({(5, "x1"): " ", (1, "x2"): "--1", (3, "group"): "7"}, "feature", 1, 2),
        ({(0, "y"): "", (3, "x2"): "?"}, "feature", 3, 1),
        ({(3, "y"): "two", (1, "y"): ""}, "target", 1, 2),
        # Cells outside the feature and target columns are not parsed.
        ({(2, "row_id"): "x", (4, "y"): "1,0"}, "target", 4, 1),
    ],
)
def test_parse_errors_name_the_first_bad_row_and_count_bad_rows(
    tmp_path, cells, kind, row_index, bad_count
):
    header = ["x1", "row_id", "x2", "y", "group"]
    rows = [[str(i), "ok", str(i / 3), str(2.5 * i), "g"] for i in range(6)]
    for (i, name), cell in cells.items():
        rows[i][header.index(name)] = cell
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(",".join(f'"{c}"' for c in row) for row in [header] + rows) + "\n")
    with pytest.raises(ParseError, match=f"non-numeric {kind} cells") as err:
        load_csv(p, ("y",))
    assert (err.value.row_index, err.value.bad_count) == (row_index, bad_count)
    assert str(err.value).endswith(f"first at data row {row_index}")
    assert str(err.value).startswith(f"{p}: {bad_count} row(s) ")


_ROWS = ("r0,0.5,1,a,train", "r1,1.5,2,b,tune", "r2,2.5,3,a,holdout", "r3,3.5,4,b,train")


def _body(**edits):
    """The four rows above, with row ``i`` replaced by ``edits[f"r{i}"]``."""
    return "".join(edits.get(row[:2], row) + "\n" for row in _ROWS)


@pytest.mark.parametrize(
    "body, error, message, row_index, bad_count",
    [
        pytest.param(
            _body(r1="r1,1.5,2,b,tune,EXTRA", r3="r3,3.5,4,b,train,"),
            ParseError, "wrong field count; first at data row 1", 1, 2, id="extra-field",
        ),
        pytest.param(
            _body(r2="r2,2.5,3,a"), ParseError, "wrong field count; first at data row 2", 2, 1,
            id="missing-trailing-field",
        ),
        pytest.param(
            _body(r0="r0,0.5,1,,train", r2="r2,2.5,3,,holdout"),
            ParseError, "2 row\\(s\\) with blank group; first at data row 0", 0, 2, id="blank-group",
        ),
        pytest.param(
            _body(r1="r1,1.5,2,b,valid"), DataError, r"unknown split tags: \[.*'valid'", None, None,
            id="unknown-split",
        ),
        # A 1_000 cell sends the body row by row, where csv's field limit
        # refuses the two rows with a long id and the reader goes on.
        pytest.param(
            _body(r1="r1,1_000,2,b,tune", r2=f"{'r' * 200_000},2.5,3,a,holdout", r3=f"{'r' * 200_000}"),
            ParseError, r"2 row\(s\) the csv reader refuses \(field larger than field limit "
            r"\(131072\)\); first at data row 2", 2, 2, id="long-cell",
        ),
        pytest.param("", DataError, "need at least 2 data rows, got 0", None, None, id="header-only"),
        pytest.param(
            _ROWS[0] + "\n", DataError, "need at least 2 data rows, got 1", None, None, id="one-row",
        ),
    ],
)
def test_loader_refusals(tmp_path, capsys, body, error, message, row_index, bad_count):
    p = tmp_path / "refused.csv"
    p.write_text("row_id,x,y,group,split\n" + body)
    # Any warning, such as NumPy's on an empty body, fails the test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message) as err:
            load_csv(p, ("y",))
        code = main(["fit", "--data", str(p), "--targets", "y", "--out", str(tmp_path / "o.json")])
    assert type(err.value) is error
    assert getattr(err.value, "row_index", None) == row_index
    assert getattr(err.value, "bad_count", None) == bad_count
    assert code == EXIT_DATA
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == error.__name__
    assert doc["error"]["message"] == str(err.value)


_LONG = 200_000


@pytest.mark.parametrize(
    "row0",
    [
        pytest.param(f"{'r' * _LONG},0.5,1,a,train", id="row-id"),
        pytest.param(f"r0,{' ' * _LONG}0.5,1,a,train", id="padded-number"),
        pytest.param(f'r0,0.5,1,"{"a" * (_LONG // 2)}\n{"a" * (_LONG // 2)}",train', id="two-line-group"),
        pytest.param(f'r0,0.5,1,"{"a," * (_LONG // 4)}\n{"a," * (_LONG // 4)}",train', id="group-with-commas"),
        pytest.param(f'r0,"{" " * (_LONG // 2)}\n{" " * (_LONG // 2)}0.5",1,a,train', id="two-line-number"),
    ],
)
@pytest.mark.parametrize("row1", ["r1,1.5,2,b,tune", "r1,1_000,2,b,tune"], ids=["bulk", "row-by-row"])
def test_cells_over_the_field_limit_are_refused_on_either_path(tmp_path, capsys, row0, row1):
    """Whether a cell over csv's field limit is refused does not depend on
    which path reads the rest of the table."""
    p = tmp_path / "long.csv"
    p.write_text(f"row_id,x,y,group,split\n{row0}\n{row1}\n")
    message = (
        "1 row(s) the csv reader refuses (field larger than field limit (131072)); "
        "first at data row 0"
    )
    with pytest.raises(ParseError) as err:
        load_csv(p, ("y",))
    assert str(err.value) == f"{p}: {message}"
    assert (err.value.row_index, err.value.bad_count) == (0, 1)
    assert main(["fit", "--data", str(p), "--targets", "y", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"]["message"] == f"{p}: {message}"


@pytest.mark.parametrize("row1", ["r1,1.5,2,b,tune", "r1,1_000,2,b,tune"], ids=["bulk", "row-by-row"])
def test_cells_under_the_field_limit_load_on_either_path(tmp_path, row1):
    p = tmp_path / "long.csv"
    group = '"' + "a," * 50_000 + '"'
    p.write_text(f"row_id,x,y,group,split\n{'r' * 100_000},0.5,1,{group},train\n{row1}\n")
    ds = load_csv(p, ("y",))
    assert (len(ds.row_ids[0]), len(ds.groups[0])) == (100_000, 100_000)


@pytest.mark.parametrize("tag", ["holdout_old", "trainXYZ"])
def test_split_cells_are_checked_in_full(tmp_path, tag):
    p = tmp_path / "split.csv"
    p.write_text("row_id,x,y,group,split\n" + _body(r2=f"r2,2.5,3,a,{tag}"))
    with pytest.raises(DataError, match=rf"unknown split tags: \['{tag}'\]$"):
        load_csv(p, ("y",))


def test_numeric_cells_parse_as_python_floats(tmp_path):
    cells = ["1", " 2.5 ", "-3e2", "1_000", "4.", ".5"]
    p = tmp_path / "ok.csv"
    p.write_text("x,y,group\n" + "".join(f"{c},{i},g\n" for i, c in enumerate(cells)))
    ds = load_csv(p, ("y",))
    np.testing.assert_array_equal(ds.features[:, 1], [float(c) for c in cells])
    np.testing.assert_array_equal(ds.targets[:, 0], np.arange(len(cells), dtype=float))


def _reference_load(path, targets):
    """The loader as a ``csv.reader`` loop with ``float()`` on every cell,
    checking in the same order: field count, row count, feature cells,
    target cells, group cells, split cells."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    short = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if short:
        raise ParseError(
            f"{path}: {len(short)} row(s) with wrong field count; first at data row {short[0]}",
            short[0], len(short),
        )
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    features = tuple(c for c in header if c not in targets and c not in RESERVED_COLUMNS)

    def numeric(names, kind):
        out, bad = [], []
        for i, row in enumerate(rows):
            try:
                out.append([float(row[header.index(c)]) for c in names])
            except ValueError:
                bad.append(i)
        if bad:
            raise ParseError(
                f"{path}: {len(bad)} row(s) with missing or non-numeric {kind} cells; "
                f"first at data row {bad[0]}",
                bad[0], len(bad),
            )
        return np.array(out, dtype=np.float64).reshape(len(rows), len(names))

    raw_features = numeric(features, "feature")
    target_values = numeric(targets, "target")

    def cells(name):
        return [row[header.index(name)] for row in rows]

    blank = [i for i, g in enumerate(cells("group")) if g == ""]
    if blank:
        raise ParseError(
            f"{path}: {len(blank)} row(s) with blank group; first at data row {blank[0]}",
            blank[0], len(blank),
        )
    row_ids = tuple(cells("row_id")) if "row_id" in header else tuple(map(str, range(len(rows))))
    if "split" in header:
        unknown = sorted(set(cells("split")) - {"train", "tune", "holdout"})
        if unknown:
            raise DataError(f"{path}: unknown split tags: {unknown}")
        split_tags = np.array(cells("split"), dtype="<U7")
    else:
        split_tags = assign_splits(row_ids, 0)
    return Dataset(
        feature_names=("intercept",) + features,
        features=np.hstack([np.ones((len(rows), 1)), raw_features]),
        target_names=targets,
        targets=target_values,
        groups=np.array(cells("group"), dtype=object),
        row_ids=row_ids,
        split_tags=split_tags,
    )


# Numeric cells NumPy and float() both read, cells only float() reads,
# and cells neither reads ("\x1c1" NumPy alone would read as 1.0).
_NUMBERS = ("1", "-2.5", " 3 ", "\t4", "1e-320", "-0", "+1E3", "4.", ".5", '"7"', '" 8 "',
            "9\u3000")
_FLOAT_ONLY = ("1_000", "\u0661\u0662", "\uff13", "2_5.0_1")
_NOT_NUMBERS = ("", "0x1p3", "1e", "n/a", '"1,0"', "\x1c1", "--1", "1 2", "1d5")
_TEXTS = ("a", "b c", '"x,y"', '"say ""hi"""', "#c", "a#b", " pad ", "\u00fcn\u00ef", '"#q"',
          "r\\1", '"two\nlines"', "\x0b")
_SPLITS = ("train", "tune", "holdout")
_DEFECTS = (None,) * 7 + ("extra field", "missing field", "space line", "blank group",
                          "bad split", "non-finite", "few rows")


def _hostile_table(rng):
    """One CSV text: shuffled columns, quoting, ``#`` in cells, a BOM, odd
    line ends, blank lines, numeric cells of one of three kinds, and at
    most one other defect."""
    header = ["x1", "x2", "y", "group"] + [c for c in ("row_id", "split") if rng.random() < 0.7]
    rng.shuffle(header)
    numbers = rng.choice([_NUMBERS, _NUMBERS, _NUMBERS + _FLOAT_ONLY, _NUMBERS + _NOT_NUMBERS])
    defect = rng.choice(_DEFECTS)
    n = rng.choice([0, 1] if defect == "few rows" else [2, 3, 5, 8, 13])
    bad = rng.randrange(n) if n else None
    lines = [",".join(header)]
    for i in range(n):
        row = {name: rng.choice(numbers) for name in ("x1", "x2", "y")}
        row.update(group=rng.choice(_TEXTS), row_id=rng.choice(_TEXTS + ("",)) + str(i),
                   split=rng.choice(_SPLITS))
        if i == bad and defect == "blank group":
            row["group"] = ""
        elif i == bad and defect == "bad split":
            row["split"] = rng.choice(["holdout_old", "trainXYZ", "Train", " tune"])
        elif i == bad and defect == "non-finite":
            row["x1"] = rng.choice(["nan", "1e400", "-inf"])
        cells = [row[name] for name in header]
        if i == bad and defect == "extra field":
            cells.append("extra")
        elif i == bad and defect == "missing field":
            cells.pop()
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")
        if i == bad and defect == "space line":
            lines.append(rng.choice([" ", "\t", "  "]))
    end = rng.choice(["\n", "\r\n", "\r\n", "\r"])
    text = ("\ufeff" if rng.random() < 0.2 else "") + end.join(lines)
    return text + (end if rng.random() < 0.8 else "")


def _outcome(load, path):
    try:
        return load(path, ("y",))
    except DataError as exc:
        return exc


def test_loader_matches_the_cell_by_cell_reference(tmp_path):
    rng = random.Random(20240117)
    kinds = []
    for k in range(400):
        p = tmp_path / f"t{k}.csv"
        p.write_bytes(_hostile_table(rng).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load_csv, p)
        want = _outcome(_reference_load, p)
        assert type(got) is type(want), (p.read_bytes(), got, want)
        kinds.append(type(want).__name__)
        if isinstance(want, DataError):
            assert str(got) == str(want)
            for attr in ("row_index", "bad_count"):
                assert getattr(got, attr, None) == getattr(want, attr, None)
            continue
        assert (got.feature_names, got.target_names) == (want.feature_names, want.target_names)
        assert got.row_ids == want.row_ids
        for name in ("features", "targets", "groups", "split_tags"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            # Bytes, so -0.0 and 0.0 differ; str objects compare by value.
            assert a.tobytes() == b.tobytes() if a.dtype != object else a.tolist() == b.tolist()
    # The corpus reaches every outcome.
    assert {"Dataset", "ParseError", "DataError"} <= set(kinds)
    assert kinds.count("Dataset") >= 100


def test_missing_split_column_assigns_deterministically(tmp_path):
    """A table without a split column takes the seed-0 partition of its
    row ids, the one fixed default."""
    p = tmp_path / "ns.csv"
    rows = "\n".join(f"{i},{i / 10},{i / 5},g" for i in range(30))
    p.write_text("row_id,x,y,group\n" + rows + "\n")
    ds = load_csv(p, ("y",))
    assert ds.split_tags.tolist() == assign_splits(ds.row_ids, 0).tolist()
    assert set(ds.split_tags) == {"train", "tune", "holdout"}


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_assign_splits_is_a_pure_function_of_seed_and_id(seed):
    ids = tuple(str(i) for i in range(40))
    one = assign_splits(ids, seed)
    two = assign_splits(tuple(reversed(ids)), seed)
    # tag depends on the id alone, not its position
    assert tuple(one) == tuple(reversed(tuple(two)))


def test_orthonormalize_design_and_rank_preservation(table):
    ds, _ = table
    q = orthonormalize(ds)
    G = q.features.T @ q.features
    np.testing.assert_allclose(G, np.eye(q.features.shape[1]), atol=1e-10)
    # fitted values are basis-independent, so score order survives
    for name in ds.target_names:
        y = ds.target(name)
        h_orig, *_ = np.linalg.lstsq(ds.features, y, rcond=None)
        h_q, *_ = np.linalg.lstsq(q.features, y, rcond=None)
        np.testing.assert_allclose(ds.features @ h_orig, q.features @ h_q, atol=1e-8)


def test_orthonormalize_keeps_a_near_collinear_column_orthonormal():
    # b repeats a up to 1e-9 noise: its pivot sits just above the drop
    # threshold, so b is kept and must still come out orthonormal.
    rng = np.random.default_rng(3)
    n = 300
    a, c = rng.normal(size=n), rng.normal(size=n)
    b = a + 1e-9 * rng.normal(size=n)
    y = a + c + rng.normal(size=n)
    ds = Dataset(
        feature_names=("intercept", "a", "b", "c"),
        features=np.column_stack([np.ones(n), a, b, c]),
        target_names=("y",),
        targets=y[:, None],
        groups=np.array(["g"] * n),
        row_ids=tuple(str(i) for i in range(n)),
        split_tags=np.array(["holdout"] * n),
    )
    q = orthonormalize(ds)
    assert q.features.shape == (n, 4)
    np.testing.assert_allclose(q.features.T @ q.features, np.eye(4), atol=1e-12)
    fit_ols(q.features, y)


def test_pivot_order_matches_lapack_pivoted_qr():
    """The NumPy pivoting picks LAPACK's columns: on seeded designs with
    collinear columns (exact combinations, a 1e-9 near repeat, one-decimal
    rounding), the kept pivot order and the kept count under
    ``PIVOT_DROP_REL_TOL`` equal ``scipy.linalg.qr(..., pivoting=True)``'s,
    and the kept pivot magnitudes agree to 1e-8."""
    import scipy.linalg

    rng = np.random.default_rng(11)
    for trial in range(200):
        n, k = int(rng.integers(5, 200)), int(rng.integers(1, 12))
        A = rng.normal(size=(n, k)) * rng.uniform(0.01, 100.0, size=k)
        if k > 2 and trial % 2:
            A[:, k - 1] = 2 * A[:, 0] - A[:, 1]
        if k > 3 and trial % 3 == 0:
            A[:, 2] = 3 * A[:, 1] + A[:, 0]
        if k > 4 and trial % 7 == 0:
            A[:, 4] = A[:, 3] + 1e-9 * rng.normal(size=n)
        if trial % 5 == 0:
            A = np.round(A, 1)
        A -= A.mean(axis=0)
        R, want_piv = scipy.linalg.qr(A, mode="r", pivoting=True)
        want = np.abs(np.diag(R))
        piv, got = dataset._pivot_order(A)

        def kept(diag):
            largest = max(float(diag.max(initial=0.0)), np.sqrt(n))
            return int(np.sum(diag >= dataset.PIVOT_DROP_REL_TOL * largest))

        keep = kept(want)
        assert kept(got) == keep, trial
        assert piv[:keep].tolist() == want_piv[:keep].tolist(), trial
        np.testing.assert_allclose(got[:keep], want[:keep], rtol=1e-8)


def test_column_filters(table):
    ds, _ = table
    dropped = drop_columns_matching(ds, ["visits"])
    assert "visits" not in dropped.feature_names
    assert dropped.feature_names[0] == "intercept"
    with pytest.raises(EmptyDesignError, match="all non-intercept feature columns removed"):
        drop_columns_matching(ds, ["age", "visits"])  # nothing but the intercept left


def test_subset_masks(table):
    ds, _ = table
    m = ds.split_masks()[1]
    sub = ds.subset(m)
    assert sub.n == int(m.sum())
    assert all(tag == "tune" for tag in sub.split_tags)
    # unknown labels give an empty mask; emptiness checks live with callers
    assert not ds.group_mask("never-a-group").any()
