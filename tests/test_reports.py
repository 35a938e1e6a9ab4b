import json

import numpy as np
import pytest

import topkflip
from topkflip.reports import (
    FlipReport,
    meta_record,
    read_csv_with_meta,
    write_csv_with_meta,
    write_reports_jsonl,
)


def test_meta_record_fields():
    meta = meta_record(command="x", seed=3, skipme=None)
    assert meta["kind"] == "meta"
    assert meta["software"] == "topkflip"
    assert "version" in meta and "timestamp" in meta
    assert meta["command"] == "x" and meta["seed"] == 3
    assert "skipme" not in meta  # None-valued fields are dropped


def test_meta_records_the_package_version():
    assert meta_record(command="x")["version"] == topkflip.__version__


def test_flip_report_validation():
    with pytest.raises(ValueError):
        FlipReport(row_id="0", baseline_rank=1, min_rank=5, max_rank=2, flippable=False, method="mip_certified")
    with pytest.raises(ValueError):
        FlipReport(row_id="0", baseline_rank=1, min_rank=1, max_rank=2, flippable=False, method="guessed")


def test_jsonl_round_trip(tmp_path):
    reports = [
        FlipReport(row_id="a", baseline_rank=2, min_rank=1, max_rank=4, flippable=True,
                   method="mip_certified", witness=np.array([0.3, 0.7]), witness_kind="alpha"),
        FlipReport(row_id="b", baseline_rank=9, min_rank=8, max_rank=9, flippable=False,
                   method="pruned_unflippable"),
    ]
    p = tmp_path / "r.jsonl"
    write_reports_jsonl(reports, p, meta_record(command="t"))
    meta, *back = (json.loads(line) for line in p.read_text().splitlines())
    assert meta["kind"] == "meta" and meta["command"] == "t"
    assert [r["row_id"] for r in back] == ["a", "b"]
    assert back[0]["flippable"] is True and back[1]["flippable"] is False
    assert back[0]["witness_alpha"] == [0.3, 0.7]
    assert "witness_alpha" not in back[1]


def _record_line(rep):
    """A report line as ``json.dumps`` of its record dict."""
    rec = {
        "row_id": rep.row_id,
        "baseline_rank": rep.baseline_rank,
        "min_rank": rep.min_rank,
        "max_rank": rep.max_rank,
        "flippable": rep.flippable,
        "method": rep.method,
    }
    if rep.witness_kind == "alpha" and rep.witness is not None:
        rec["witness_alpha"] = [float(a) for a in rep.witness]
    return json.dumps(rec)


def test_report_lines_are_json_dumps_of_their_records(tmp_path):
    cases = [  # flippable, method, witness, witness_kind
        (True, "mip_certified", np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.0]), "alpha"),
        (False, "pruned_unflippable", None, None),
        (None, "undetermined", np.array([0.1, 1 / 3, 1e300, 123456789.0]), "alpha"),
        (True, "closed_form_flip", np.array([np.nan, np.inf, -np.inf]), "alpha"),
        (True, "closed_form_flip", np.array([1.0, 2.0]), "coef"),
        (False, "mip_certified", np.array([]), "alpha"),
    ]
    row_ids = ["plain", 'q"uote', "back\\slash", "caf\u00e9 \u2028 \U0001f600", "tab\tnul\x00", ""]
    reports = [
        FlipReport(row_id=row_id, baseline_rank=i + 1, min_rank=1, max_rank=1000 + j,
                   flippable=flippable, method=method, witness=witness, witness_kind=kind)
        for i, row_id in enumerate(row_ids)
        for j, (flippable, method, witness, kind) in enumerate(cases)
    ]
    meta = meta_record(command="t", note='\u00fc"')
    p = tmp_path / "r.jsonl"
    write_reports_jsonl(reports, p, meta)
    want = "".join(line + "\n" for line in [json.dumps(meta)] + [_record_line(r) for r in reports])
    assert p.read_bytes() == want.encode("utf-8")


def test_coef_witness_not_serialized(tmp_path):
    rep = FlipReport(row_id="c", baseline_rank=1, min_rank=1, max_rank=3, flippable=True,
                     method="closed_form_flip", witness=np.array([1.0, 2.0]), witness_kind="coef")
    p = tmp_path / "c.jsonl"
    write_reports_jsonl([rep], p, meta_record())
    line = json.loads(p.read_text().splitlines()[1])
    assert "witness_alpha" not in line


def test_csv_meta_round_trip(tmp_path):
    p = tmp_path / "m.csv"
    meta = meta_record(command="curve", kappa=7)
    write_csv_with_meta(p, meta, ["a", "b"], [[1, "x"], [2, "y"]])
    got, columns, rows = read_csv_with_meta(p)
    assert got["command"] == "curve" and got["kappa"] == "7"
    assert columns == ["a", "b"]
    assert rows == [["1", "x"], ["2", "y"]]
    # the kind marker is header-only, it never appears as a comment line
    assert "# kind=" not in p.read_text()


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["line-feed", "carriage-return"])
def test_csv_meta_refuses_a_line_break(tmp_path, brk):
    """A line break would end its comment line early and leave the rest of
    the value as a stray line; the writer refuses it before the file exists."""
    p = tmp_path / "m.csv"
    meta = meta_record(command="curve", drop_regex=f"^zz{brk}q")
    with pytest.raises(ValueError, match="'drop_regex' holds a line break"):
        write_csv_with_meta(p, meta, ["a"], [[1]])
    assert not p.exists()


def test_csv_meta_is_read_only_above_the_header(tmp_path):
    p = tmp_path / "m.csv"
    write_csv_with_meta(p, meta_record(command="curve"), ["a", "b"], [["# a=b", 1], ["x", 2]])
    got, columns, rows = read_csv_with_meta(p)
    assert "a" not in got and got["command"] == "curve"
    assert columns == ["a", "b"]
    assert rows == [["# a=b", "1"], ["x", "2"]]
