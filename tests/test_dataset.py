import numpy as np
import pytest
from hypothesis import given, strategies as st

from topkflip.dataset import (
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
from topkflip.synth import SynthConfig, generate


@pytest.fixture
def table(tmp_path):
    ds = generate(SynthConfig(n=80, b=0.3, seed=5))
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
    ],
)
def test_header_must_fit_the_layout(tmp_path, header, message):
    p = tmp_path / "h.csv"
    row = ",".join(["1"] * len(header.split(",")))
    p.write_text(f"{header}\n{row}\n{row}\n")
    with pytest.raises(SchemaError, match=message):
        load_csv(p, ("y",))


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
    assert str(err.value).startswith(f"{bad_count} row(s) ")


def test_numeric_cells_parse_as_python_floats(tmp_path):
    cells = ["1", " 2.5 ", "-3e2", "1_000", "4.", ".5"]
    p = tmp_path / "ok.csv"
    p.write_text("x,y,group\n" + "".join(f"{c},{i},g\n" for i, c in enumerate(cells)))
    ds = load_csv(p, ("y",))
    np.testing.assert_array_equal(ds.features[:, 1], [float(c) for c in cells])
    np.testing.assert_array_equal(ds.targets[:, 0], np.arange(len(cells), dtype=float))


def test_missing_split_column_assigns_deterministically(tmp_path):
    p = tmp_path / "ns.csv"
    rows = "\n".join(f"{i},{i / 10},{i / 5},g" for i in range(30))
    p.write_text("row_id,x,y,group\n" + rows + "\n")
    a = load_csv(p, ("y",), split_seed=3)
    b = load_csv(p, ("y",), split_seed=3)
    assert tuple(a.split_tags) == tuple(b.split_tags)
    assert set(a.split_tags) <= {"train", "tune", "holdout"}


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


def test_column_filters(table):
    ds, _ = table
    dropped = drop_columns_matching(ds, ["visits"])
    assert "visits" not in dropped.feature_names
    assert dropped.feature_names[0] == "intercept"
    with pytest.raises(EmptyDesignError, match="all non-intercept feature columns removed"):
        drop_columns_matching(ds, ["age", "visits"])  # nothing but the intercept left


def test_subset_masks(table):
    ds, _ = table
    m = ds.split_mask("tune")
    sub = ds.subset(m)
    assert sub.n == int(m.sum())
    assert all(tag == "tune" for tag in sub.split_tags)
    # unknown labels give an empty mask; emptiness checks live with callers
    assert not ds.group_mask("never-a-group").any()
    with pytest.raises(ValueError):
        ds.split_mask("validation")
