"""In-process CLI exercises via main(argv)."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from topkflip import cli, fairness, index_model, metrics, rashomon_single, solver
from topkflip.cli import EXIT_BUDGET, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from topkflip.dataset import assign_splits, load_csv, orthonormalize, write_csv
from topkflip.linear_fit import fit_ols, make_ball
from topkflip.oracle import angle_sweep_single
from topkflip.ranking import resolve_kappa
from topkflip.reports import read_csv_with_meta, write_reports_jsonl
from topkflip.synth import generate, generate_clinical

from conftest import fail_lps_after_the_first


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.csv"
    assert main(["synth", "--n", "240", "--b", "0.5", "--seed", "7", "--out", str(path)]) == EXIT_OK
    return path


def _read_jsonl(path):
    """A JSON-lines output's meta record and its report records."""
    meta, *records = (json.loads(line) for line in path.read_text().splitlines())
    assert meta["kind"] == "meta"
    return meta, records


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("# timestamp=")
    )


def test_synth_repeat_bytes(table, tmp_path):
    again = tmp_path / "again.csv"
    assert main(["synth", "--n", "240", "--b", "0.5", "--seed", "7", "--out", str(again)]) == EXIT_OK
    assert again.read_bytes() == table.read_bytes()


def test_fit_writes_models(table, tmp_path):
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(table), "--targets", "y1,y2", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert [m["target"] for m in doc["models"]] == ["y1", "y2"]
    assert doc["models"][0]["feature_names"][0] == "intercept"
    assert len(doc["models"][0]["coef"]) == 3


def test_ambiguity_single_curve(table, tmp_path):
    out = tmp_path / "c.csv"
    code = main([
        "ambiguity-single", "--data", str(table), "--target", "y1",
        "--kappa", "10%", "--epsilons", "0.01,0.05,0.1", "--out", str(out),
    ])
    assert code == EXIT_OK
    meta, columns, rows = read_csv_with_meta(out)
    assert columns == ["epsilon", "ambiguity_all", "ambiguity_top", "target"]
    assert len(rows) == 3
    fracs = [float(r[1]) for r in rows]
    assert fracs == sorted(fracs)
    assert meta["kappa"] == "10%" and "epsilon_mode" not in meta


def test_epsilon_zero_single_row(table, tmp_path):
    out = tmp_path / "z.csv"
    assert main([
        "ambiguity-single", "--data", str(table), "--target", "y1",
        "--kappa", "5", "--epsilons", "0", "--out", str(out),
    ]) == EXIT_OK
    _, _, rows = read_csv_with_meta(out)
    assert rows == [["0.0", "0.0", "0.0", "y1"]]


def test_mode_column_filter(table, tmp_path, capsys):
    """The curve always carries both fractions: no flag filters its columns."""
    out = tmp_path / "top.csv"
    assert main([
        "ambiguity-single", "--data", str(table), "--target", "y2",
        "--kappa", "8", "--epsilons", "0.05", "--mode", "top", "--out", str(out),
    ]) == EXIT_USAGE
    assert "unrecognized arguments: --mode top" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not out.exists()


def test_ambiguity_multi_reports(table, tmp_path):
    out = tmp_path / "m.jsonl"
    assert main([
        "ambiguity-multi", "--data", str(table), "--targets", "y1,y2",
        "--kappa", "10%", "--out", str(out),
    ]) == EXIT_OK
    meta, reports = _read_jsonl(out)
    assert "standardization" not in meta
    assert len(reports) == int(meta["n"])
    for rep in reports:
        assert rep["flippable"] == (rep["min_rank"] <= int(meta["kappa_resolved"]) < rep["max_rank"])


def test_a_table_without_a_split_column_takes_the_seed_0_partition(table, tmp_path):
    """Without a split column the rows are tagged ``assign_splits(row_ids,
    0)``, and the blend family reports exactly the rows tagged holdout."""
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    unsplit = tmp_path / "unsplit.csv"
    with open(unsplit, "w", newline="") as fh:
        writer = csv.DictWriter(fh, [c for c in rows[0] if c != "split"], extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "m.jsonl"
    assert main([
        "ambiguity-multi", "--data", str(unsplit), "--targets", "y1,y2",
        "--kappa", "10%", "--out", str(out),
    ]) == EXIT_OK
    _, reports = _read_jsonl(out)
    row_ids = [row["row_id"] for row in rows]
    tags = assign_splits(row_ids, 0)
    assert [rep["row_id"] for rep in reports] == [r for r, t in zip(row_ids, tags) if t == "holdout"]
    assert set(tags) == {"train", "tune", "holdout"}


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--targets", "y1,y2"],
        ["ambiguity-single", "--target", "y1", "--kappa", "5", "--epsilons", "0.1"],
        ["ambiguity-multi", "--targets", "y1,y2", "--kappa", "5"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--kappa-sweep", "5"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5"],
    ],
    ids=["fit", "ambiguity-single", "ambiguity-multi", "stable-points-rashomon", "stable-points-index"],
)
def test_every_analysis_command_needs_each_split(table, tmp_path, capsys, argv):
    """A table whose tune rows are retagged as train is refused with the
    data error fairness-range gives, before any output is written; no
    command falls back to fitting and reporting on every row."""
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["split"] == "tune":
            row["split"] = "train"
    no_tune = tmp_path / "no_tune.csv"
    with open(no_tune, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(no_tune), "--out", str(out)]) == EXIT_DATA
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "split 'tune' has no rows"
    assert not out.exists()


def _blend_preds(path, targets):
    """Standardized holdout predictions and ids of the blend family that
    the commands analyse on a table tagged train, tune and holdout."""
    ds = load_csv(path, targets)
    train, tune, holdout = ds.split_masks()
    Y = np.column_stack([ds.target(t) for t in targets])
    ensemble = index_model.build_ensemble(
        ds.features[train], Y[train], ds.features[tune], target_names=targets
    )
    row_ids = tuple(r for r, m in zip(ds.row_ids, holdout) if m)
    return ensemble.predictions(ds.features[holdout]), row_ids


@pytest.mark.parametrize("flags", [[], ["--certify"]], ids=["plain", "--certify"])
def test_ambiguity_multi_writes_the_library_search(table, tmp_path, flags):
    """The command's report lines are those of the library's status-mode
    search on the blend family's standardized predictions, with or without
    --certify."""
    out = tmp_path / "m.jsonl"
    assert main([
        "ambiguity-multi", "--data", str(table), "--targets", "y1,y2",
        "--kappa", "10%", *flags, "--out", str(out),
    ]) == EXIT_OK
    meta, _ = _read_jsonl(out)
    preds, row_ids = _blend_preds(table, ("y1", "y2"))
    reports = index_model.flip_search_multi(preds, meta["kappa_resolved"], row_ids=row_ids)
    expected = tmp_path / "lib.jsonl"
    write_reports_jsonl(reports, expected, meta)
    assert out.read_text() == expected.read_text()


def _count_calls(monkeypatch, fn, *modules):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def test_certify_smoke(table, tmp_path, monkeypatch):
    # small enough for both oracle cross-checks to actually run; the
    # single-target design keeps two columns once y2 is dropped too
    small = tmp_path / "s.csv"
    main(["synth", "--n", "150", "--b", "0.4", "--seed", "3", "--out", str(small)])
    assert main([
        "ambiguity-multi", "--data", str(small), "--targets", "y1,y2",
        "--kappa", "8", "--certify", "--out", str(tmp_path / "cm.jsonl"),
    ]) == EXIT_OK
    # The curve's status-mode pass per epsilon is what the CSV holds; the
    # check adds one exact-mode search and one sweep per epsilon.
    modes = []
    search = rashomon_single.flip_search

    def recording(*args, **kwargs):
        modes.append(kwargs.get("rank_mode", "status"))
        return search(*args, **kwargs)

    for mod in (metrics, cli):
        monkeypatch.setattr(mod, "flip_search", recording)
    sweeps = []
    exact, cap = cli.ORACLES["ball", 2]

    def sweep(*args):
        sweeps.append(1)
        return exact(*args)

    monkeypatch.setitem(cli.ORACLES, ("ball", 2), (sweep, cap))
    assert main([
        "ambiguity-single", "--data", str(small), "--target", "y1", "--kappa", "8",
        "--epsilons", "0.02,0.1", "--certify", "--drop-regex", "visits|y2",
        "--out", str(tmp_path / "cs.csv"),
    ]) == EXIT_OK
    assert modes == ["status", "status", "exact", "exact"]
    assert len(sweeps) == 2


def test_certify_reaches_the_disc_sweeps_crossing_angles(tmp_path, capsys):
    """The CI table's intercept-and-age design has a fitted slope of about
    -5. The epsilon 0.02 ball (radius 0.33) holds only negative slopes, so
    every model ranks the rows alike. The radius at epsilon 5 is 5.19, so
    its boundary circle reaches positive slopes and every pair of rows
    ties at two of its angles: the sweep's crossing branch runs, and every
    row can cross the cut."""
    data = tmp_path / "t.csv"
    assert main(["synth", "--n", "60", "--b", "0.5", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "c.csv"
    assert main([
        "ambiguity-single", "--data", str(data), "--target", "y1", "--kappa", "5%",
        "--epsilons", "0.02,5,20", "--drop-regex", "^(visits|y2)$", "--certify",
        "--out", str(out),
    ]) == EXIT_OK
    assert capsys.readouterr().err == (
        "certify: angle_sweep_single checked rank ranges at 3 epsilons on 20 rows\n"
    )
    _, _, rows = read_csv_with_meta(out)
    assert [(r[1], r[2]) for r in rows] == [("0.0", "0.0"), ("1.0", "1.0"), ("1.0", "1.0")]


def test_certify_says_what_it_checked(tmp_path, capsys):
    small = tmp_path / "s.csv"
    main(["synth", "--n", "150", "--b", "0.4", "--seed", "3", "--out", str(small)])
    capsys.readouterr()
    assert main([
        "ambiguity-multi", "--data", str(small), "--targets", "y1,y2",
        "--kappa", "8", "--certify", "--out", str(tmp_path / "cm.jsonl"),
    ]) == EXIT_OK
    n = int(_read_jsonl(tmp_path / "cm.jsonl")[0]["n"])
    assert n <= cli.ORACLES["blend", 2][1]
    assert capsys.readouterr().err == f"certify: simplex_sweep_k2 checked rank ranges on {n} rows\n"
    # With y2 left in, the single-target design has three columns.
    assert main([
        "ambiguity-single", "--data", str(small), "--target", "y1", "--kappa", "8",
        "--epsilons", "0.1", "--certify", "--drop-regex", "visits",
        "--out", str(tmp_path / "cs.csv"),
    ]) == EXIT_OK
    assert capsys.readouterr().err == (
        "certify: no oracle applies (3 design columns; the disc sweep takes 2)\n"
    )


def _three_target_table(tmp_path):
    """A clinical table whose holdout and tune splits fit under the
    three-target sweep's cap; returns it and its path."""
    ds = generate_clinical(n=50)
    tune_rows = np.flatnonzero(ds.split_masks()[1])
    keep = np.ones(ds.n, dtype=bool)
    keep[tune_rows[cli.ORACLES["blend", 3][1] - 2:]] = False
    ds = ds.subset(keep)
    data = tmp_path / "clinical.csv"
    write_csv(ds, data)
    return ds, data


def test_certify_runs_the_three_target_sweep(tmp_path, capsys):
    """Three targets on a small clinical table: both the rank ranges and the
    group count range are checked against the three-target sweep."""
    ds, data = _three_target_table(tmp_path)
    targets = ",".join(ds.target_names)
    _, tune, holdout = (int(m.sum()) for m in ds.split_masks())
    assert max(holdout, tune) <= cli.ORACLES["blend", 3][1]
    assert main([
        "ambiguity-multi", "--data", str(data), "--targets", targets,
        "--kappa", "3", "--certify", "--out", str(tmp_path / "m.jsonl"),
    ]) == EXIT_OK
    assert capsys.readouterr().err == f"certify: simplex_sweep_k3 checked rank ranges on {holdout} rows\n"
    assert main([
        "fairness-range", "--data", str(data), "--targets", targets, "--group", "black",
        "--kappa", "20%", "--certify", "--out", str(tmp_path / "f.json"),
    ]) == EXIT_OK
    assert capsys.readouterr().err == (
        f"certify: simplex_sweep_k3 checked the group count range on {tune} rows\n"
    )
    # Above the cap the sweep is skipped, and the run says so.
    big = tmp_path / "big.csv"
    write_csv(generate_clinical(n=80), big)
    assert main([
        "ambiguity-multi", "--data", str(big), "--targets", targets,
        "--kappa", "3", "--certify", "--out", str(tmp_path / "b.jsonl"),
    ]) == EXIT_OK
    assert capsys.readouterr().err == (
        "certify: no oracle applies (21 rows, over the 20-row cap of simplex_sweep_k3)\n"
    )


def test_certify_checks_a_seventeen_row_tie_class(tmp_path, capsys):
    """``visits`` is a count, so at some blend 17 of the 40-row table's
    tune rows tie on the cut. The three-target sweep counts that class's
    group extremes in closed form, checks the range, and the run writes
    what it writes without --certify."""
    data = tmp_path / "t40.csv"
    assert main(["synth", "--n", "40", "--b", "0.5", "--out", str(data)]) == EXIT_OK
    argv = [
        "fairness-range", "--data", str(data), "--targets", "y1,y2,visits",
        "--group", "protected", "--kappa", "20%", "--direction", "both",
    ]
    assert main(argv + ["--out", str(tmp_path / "f.json")]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--certify", "--out", str(tmp_path / "cf.json")]) == EXIT_OK
    assert capsys.readouterr().err == (
        "certify: simplex_sweep_k3 checked the group count range on 17 rows\n"
    )
    plain, checked = (json.loads((tmp_path / f).read_text()) for f in ("f.json", "cf.json"))
    assert checked.pop("meta")["certify"] is True
    plain.pop("meta")
    assert checked == plain
    plain_table, checked_table = (
        [ln for ln in (tmp_path / f).read_text().splitlines() if not ln.startswith("#")]
        for f in ("f_models.csv", "cf_models.csv")
    )
    assert checked_table == plain_table


def test_a_target_in_tiny_units_gives_the_same_curve(tmp_path):
    """The ball's tie band is relative to the ball's own scale. Under a
    floor of 1e-9 it was absolute below unit scale, as wide as the scores
    themselves for a target times 1e-9, and a certified verdict at
    epsilon 0.2 came out flippable where it is not: the curve read
    0.0292 / 0.611 instead of 0.0274 / 0.556 and the run exited 4."""
    ds = generate_clinical(1800)
    k = ds.target_names.index("gagne_sum_t")
    curves = []
    for c in (1.0, 1e-9):
        targets = ds.targets.copy()
        targets[:, k] *= c
        data, out = tmp_path / f"t{c}.csv", tmp_path / f"c{c}.csv"
        write_csv(dataclasses.replace(ds, targets=targets), data)
        assert main([
            "ambiguity-single", "--data", str(data), "--target", "gagne_sum_t",
            "--drop-regex", "^cost(_avoidable)?_t$", "--kappa", "3%",
            "--epsilons", "0.02,0.06,0.2", "--out", str(out),
        ]) == EXIT_OK
        curves.append(read_csv_with_meta(out)[2])
    assert curves[1] == curves[0]
    assert curves[0][2][1:3] == ["0.0274442538593482", "0.5555555555555556"]


def test_a_target_in_tiny_units_certifies_the_disc_sweep(tmp_path, capsys):
    """The disc sweep's tie tolerance and its test for covering the origin
    are relative to the disc's own scale. Under a floor of 1 and an
    absolute origin slack, a target times 1e-9 tied every row and
    --certify failed with a false mismatch: "min rank at epsilon=0.02,
    row 0 mismatch: solver [2, 2] vs sweep 1"."""
    ds = generate(n=60, b=0.5, seed=0)
    k = ds.target_names.index("y1")
    drop = "^(visits|y2)$"
    results = {}
    for e in range(-12, 13, 3):
        c = 10.0**e
        targets = ds.targets.copy()
        targets[:, k] *= c
        data, out = tmp_path / f"t{c}.csv", tmp_path / f"c{c}.csv"
        write_csv(dataclasses.replace(ds, targets=targets), data)
        q = cli._orthonormal_analysis(cli._load_table(data, ("y1",), drop))
        kappa = resolve_kappa("5%", q.n)
        ranges = []
        for point in metrics.ambiguity_curve(q.features, q.target("y1"), kappa, [0.02, 0.04, 5.0]):
            swept = angle_sweep_single(q.features, point.ball.center, point.ball.radius)
            exact = rashomon_single.flip_search(q.features, point.ball, kappa, rank_mode="exact")
            ranges.append((
                [r.tolist() for r in swept],
                [(r.min_rank, r.max_rank) for r in exact],
            ))
        assert main([
            "ambiguity-single", "--data", str(data), "--target", "y1", "--kappa", "5%",
            "--epsilons", "0.02,0.04,5", "--drop-regex", drop, "--certify", "--out", str(out),
        ]) == EXIT_OK
        assert capsys.readouterr().err.startswith("certify: angle_sweep_single checked ")
        results[e] = (ranges, read_csv_with_meta(out)[2])
    assert all(r == results[0] for r in results.values())


def _four_target_table(tmp_path):
    """A clinical table with a fourth target; returns its path and targets."""
    ds = generate_clinical(n=90)
    extra = ds.features[:, 1] + np.random.default_rng(4).normal(size=ds.n)
    ds = dataclasses.replace(
        ds,
        target_names=ds.target_names + ("mix_t",),
        targets=np.column_stack([ds.targets, extra]),
    )
    data = tmp_path / "four.csv"
    write_csv(ds, data)
    return data, ",".join(ds.target_names)


def test_four_targets_run_the_lp_geometry_end_to_end(tmp_path, capsys, monkeypatch):
    """Four targets leave no sweep to check against, so the search's own
    invariants are checked: each range brackets the baseline and decides
    ``flippable``, every witness lies on the simplex, and the group count
    range holds every one-hot count. Both commands must reach the
    feasibility LPs."""
    data, targets = _four_target_table(tmp_path)
    lp_calls = []
    linprog = solver.linprog

    def counting_linprog(*args, **kwargs):
        lp_calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(solver, "linprog", counting_linprog)

    def on_simplex(alpha):
        alpha = np.asarray(alpha)
        return alpha.shape == (4,) and alpha.min() >= -1e-9 and abs(alpha.sum() - 1.0) <= 1e-9

    note = "certify: no oracle applies (4 targets; the blend sweeps take 2 or 3)\n"
    kappa = 5
    assert main([
        "ambiguity-multi", "--data", str(data), "--targets", targets,
        "--kappa", str(kappa), "--certify", "--out", str(tmp_path / "m.jsonl"),
    ]) == EXIT_OK
    assert capsys.readouterr().err == note
    assert lp_calls
    _, reports = _read_jsonl(tmp_path / "m.jsonl")
    assert reports and any(rep["flippable"] for rep in reports)
    assert any(rep["method"] == "mip_certified" for rep in reports)
    for rep in reports:
        assert rep["method"] != "undetermined"
        assert rep["min_rank"] <= rep["baseline_rank"] <= rep["max_rank"]
        assert rep["flippable"] == (rep["min_rank"] <= kappa < rep["max_rank"])
        witness = rep.get("witness_alpha")
        assert (witness is not None) == rep["flippable"]
        assert witness is None or on_simplex(witness)

    lp_calls.clear()
    out = tmp_path / "f.json"
    assert main([
        "fairness-range", "--data", str(data), "--targets", targets, "--group", "black",
        "--kappa", "20%", "--certify", "--out", str(out),
    ]) == EXIT_OK
    assert capsys.readouterr().err == note
    assert lp_calls
    rep = json.loads(out.read_text())["report"]["tune_report"]
    assert rep["status_min"] == rep["status_max"] == "optimal"
    assert all(rep["min_count"] <= c <= rep["max_count"] for c in rep["one_hot_counts"])
    assert on_simplex(rep["alpha_at_min"]) and on_simplex(rep["alpha_at_max"])


def test_failed_lps_exit_4_not_0(tmp_path, monkeypatch):
    """A feasibility LP that HiGHS fails on settles nothing, so the rows
    whose searches meet one are not certified and the run exits 4."""
    data, targets = _four_target_table(tmp_path)
    fail_lps_after_the_first(monkeypatch)
    assert main([
        "ambiguity-multi", "--data", str(data), "--targets", targets,
        "--kappa", "5", "--out", str(tmp_path / "m.jsonl"),
    ]) == EXIT_BUDGET


@pytest.mark.parametrize(
    "command, flag",
    [
        (["synth", "--n", "20", "--b", "0.5"], ["--workers", "2"]),
        (["synth", "--n", "20", "--b", "0.5"], ["--drop-regex", "x"]),
        (["fit", "--targets", "y1"], ["--node-budget", "5"]),
        (
            ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5"],
            ["--certify"],
        ),
        (
            ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5,10"],
            ["--workers", "2"],
        ),
        (["ambiguity-multi", "--targets", "y1,y2", "--kappa", "5"], ["--seed", "3"]),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(table, tmp_path, capsys, command, flag):
    data = [] if command[0] == "synth" else ["--data", str(table)]
    out = tmp_path / "o"
    assert main(command + data + flag + ["--out", str(out)]) == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert f"unrecognized arguments: {' '.join(flag)}" in err["error"]["message"]
    assert not out.exists()


def test_fairness_range_outputs(table, tmp_path):
    out = tmp_path / "f.json"
    assert main([
        "fairness-range", "--data", str(table), "--targets", "y1,y2",
        "--group", "protected", "--kappa", "20%", "--out", str(out),
    ]) == EXIT_OK
    doc = json.loads(out.read_text())
    rep = doc["report"]["tune_report"]
    assert rep["min_count"] <= min(rep["one_hot_counts"])
    assert rep["max_count"] >= max(rep["one_hot_counts"])
    side = tmp_path / "f_models.csv"
    _, columns, rows = read_csv_with_meta(side)
    assert columns[0] == "model" and len(rows) == 3


def test_fairness_json_is_strict_when_no_group_row_is_in_holdout(tmp_path):
    ds = generate(n=120, b=0.5, seed=3)
    moved = (ds.groups == "protected") & (ds.split_tags == "holdout")
    table = tmp_path / "t.csv"
    write_csv(dataclasses.replace(ds, split_tags=np.where(moved, "tune", ds.split_tags)), table)
    out = tmp_path / "f.json"
    assert main([
        "fairness-range", "--data", str(table), "--targets", "y1,y2",
        "--group", "protected", "--kappa", "20%", "--out", str(out),
    ]) == EXIT_OK

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert [ev["group_capture"] for ev in doc["report"]["evaluations"]] == [None] * 3


def test_stable_points_sweep(table, tmp_path):
    out = tmp_path / "st.csv"
    assert main([
        "stable-points", "--data", str(table), "--family", "rashomon",
        "--target", "y1", "--epsilon", "0.05", "--kappa-sweep", "5,10",
        "--out", str(out),
    ]) == EXIT_OK
    _, columns, rows = read_csv_with_meta(out)
    assert columns == ["kappa", "stable_fraction", "family"]
    assert [r[0] for r in rows] == ["5", "10"]


STABLE_FAMILY_FLAGS = {
    "rashomon": ["--family", "rashomon", "--target", "y1", "--epsilon", "0.05"],
    "index": ["--family", "index", "--targets", "y1,y2"],
}


@pytest.mark.parametrize("family", ["rashomon", "index"])
def test_stable_points_screens_once_per_sweep(table, tmp_path, monkeypatch, family):
    """The screen's bounds hold for every kappa, so a sweep screens its
    family once, and its rows are those of a fresh fit, screen and search
    per kappa."""
    calls = []
    for name in ("screen_ball", "_screen_simplex"):
        original = getattr(solver, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(solver, name, counting)
    out = tmp_path / "st.csv"
    assert main([
        "stable-points", "--data", str(table), *STABLE_FAMILY_FLAGS[family],
        "--kappa-sweep", "5,10,15", "--out", str(out),
    ]) == EXIT_OK
    assert len(calls) == 1
    monkeypatch.undo()

    if family == "rashomon":
        ds = load_csv(table, ("y1",))
        q = orthonormalize(ds.subset(ds.split_masks()[2]))
        y = q.target("y1")
        ball = make_ball(fit_ols(q.features, y), q.features, y, 0.05)
        sets = [
            metrics.stable_points(rashomon_single.flip_search(q.features, ball, k), k, family)
            for k in (5, 10, 15)
        ]
    else:
        preds, _ = _blend_preds(table, ("y1", "y2"))
        sets = [
            metrics.stable_points(index_model.flip_search_multi(preds, k), k, family)
            for k in (5, 10, 15)
        ]
    _, _, rows = read_csv_with_meta(out)
    assert rows == [[str(cell) for cell in row] for row in metrics.stable_rows(sets)]


def test_repeat_run_identical_modulo_timestamp(table, tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        main([
            "ambiguity-single", "--data", str(table), "--target", "y1",
            "--kappa", "6", "--epsilons", "0.02,0.08", "--out", str(out),
        ])
        outs.append(_strip_timestamp(out.read_text()))
    assert outs[0] == outs[1]


# Every option string of every command. A new option is a setting that
# tests and benchmarks must cover, so it changes this table on purpose.
CLI_SURFACE = {
    "fit": ["--data", "--drop-regex", "--help", "--out", "--targets", "-h"],
    "ambiguity-single": [
        "--certify", "--data", "--drop-regex", "--epsilons", "--help", "--kappa",
        "--node-budget", "--out", "--target", "--time-budget", "-h",
    ],
    "ambiguity-multi": [
        "--certify", "--data", "--drop-regex", "--help", "--kappa", "--node-budget", "--out",
        "--targets", "--time-budget", "-h",
    ],
    "fairness-range": [
        "--certify", "--data", "--direction", "--drop-regex", "--group", "--help", "--kappa",
        "--node-budget", "--out", "--targets", "--time-budget", "-h",
    ],
    "stable-points": [
        "--data", "--drop-regex", "--epsilon", "--family", "--help", "--kappa-sweep",
        "--node-budget", "--out", "--target", "--targets", "--time-budget", "-h",
    ],
    "synth": ["--b", "--help", "--n", "--out", "--seed", "-h"],
}


def test_cli_surface():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


_SHARED_FLAGS = [
    "--node-budget", "500", "--time-budget", "60.0", "--drop-regex", "^visits$",
]


@pytest.mark.parametrize(
    "flags",
    [
        ["fit", "--targets", "y1,y2", "--drop-regex", "^visits$"],
        [
            "ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.02,0.05",
            "--certify", *_SHARED_FLAGS,
        ],
        [
            "ambiguity-multi", "--targets", "y1,y2", "--kappa", "10%", "--certify",
            *_SHARED_FLAGS,
        ],
        [
            "fairness-range", "--targets", "y1,y2", "--group", "protected", "--kappa", "10%",
            "--direction", "min", "--certify", *_SHARED_FLAGS,
        ],
        [
            "stable-points", "--family", "rashomon", "--target", "y1", "--epsilon", "0.05",
            "--kappa-sweep", "5,10", *_SHARED_FLAGS,
        ],
        [
            "stable-points", "--family", "index", "--targets", "y1,y2",
            "--kappa-sweep", "5,10", *_SHARED_FLAGS,
        ],
    ],
    ids=[
        "fit", "ambiguity-single", "ambiguity-multi", "fairness-range",
        "stable-points-rashomon", "stable-points-index",
    ],
)
def test_meta_records_every_flag_given(table, tmp_path, flags):
    """A file says how to replay the run that wrote it: every flag that
    changes results is in its meta, or, for the fitted targets and the
    tolerances, in the rows themselves."""
    command = flags[0]
    suffix = {"fit": ".json", "ambiguity-multi": ".jsonl", "fairness-range": ".json"}
    out = tmp_path / f"o{suffix.get(command, '.csv')}"
    assert main(flags + ["--data", str(table), "--out", str(out)]) in (EXIT_OK, EXIT_BUDGET)
    if command == "ambiguity-multi":
        recorded, _ = _read_jsonl(out)
    elif out.suffix == ".json":
        doc = json.loads(out.read_text())
        recorded = doc["meta"]
        if command == "fit":
            recorded["targets"] = ",".join(m["target"] for m in doc["models"])
    else:
        recorded, _, rows = read_csv_with_meta(out)
        if command == "ambiguity-single":
            recorded["epsilons"] = ",".join(row[0] for row in rows)
    given = {}
    for flag, value in zip(flags[1:], flags[2:] + [None]):
        if flag.startswith("--"):
            given[flag] = "True" if value is None or value.startswith("--") else value
    given["--data"] = str(table)
    for flag, value in given.items():
        key = flag[2:].replace("-", "_")
        assert str(recorded.get(key)) == value, (flag, recorded)


def test_usage_error(table, capsys):
    code = main(["ambiguity-single", "--data", str(table), "--target", "y1"])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == EXIT_USAGE


def test_data_errors(tmp_path, capsys):
    missing = main(["fit", "--data", str(tmp_path / "nope.csv"), "--targets", "y", "--out", str(tmp_path / "o.json")])
    assert missing == EXIT_DATA

    bad = tmp_path / "bad.csv"
    bad.write_text("row_id,x,y\n0,1.0,2.0\n")  # no group column
    assert main(["fit", "--data", str(bad), "--targets", "y", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert "group" in err["error"]["message"]

    # Two columns named x: neither may stand in for the other.
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("x,x,y,group\n" + "".join(f"{i},{-i},{i % 3},g\n" for i in range(6)))
    assert main(["fit", "--data", str(repeated), "--targets", "y", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaError"
    assert "['x'] repeat" in err["error"]["message"]

    # A header name over csv's field limit is refused, not a traceback.
    long_name = tmp_path / "long.csv"
    long_name.write_text(f"x,{'n' * 200_000},y,group\n" + "".join(f"{i},{-i},{i % 3},g\n" for i in range(6)))
    assert main(["fit", "--data", str(long_name), "--targets", "y", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaError"
    assert "field limit" in err["error"]["message"]


@pytest.mark.parametrize(
    "row, problem",
    [
        ("abc,1.0,g", "missing or non-numeric feature cells"),
        ("1.0,abc,g", "missing or non-numeric target cells"),
        ("1.0,g", "wrong field count"),
    ],
    ids=["feature", "target", "short"],
)
def test_loader_errors_name_the_file(tmp_path, capsys, row, problem):
    data = tmp_path / "cells.csv"
    data.write_text("x,y,group\n" + "".join(f"{i},{i % 3},g\n" for i in range(6)) + row + "\n")
    assert main(["fit", "--data", str(data), "--targets", "y", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith(f"{data}: 1 row(s) with {problem}; first at data row 6")


@pytest.mark.parametrize(
    "case, refusal",
    [
        ("data-is-a-directory", "IsADirectoryError"),
        ("out-is-a-directory", "IsADirectoryError"),
        ("data-under-a-file", "NotADirectoryError"),
    ],
)
def test_a_path_the_os_refuses_is_a_data_error(table, tmp_path, capsys, case, refusal):
    data, out = str(table), str(tmp_path / "m.json")
    if case == "data-is-a-directory":
        data = str(tmp_path)
    elif case == "out-is-a-directory":
        out = str(tmp_path)
    else:
        data = str(table / "x")
    assert main(["fit", "--data", data, "--targets", "y1", "--out", out]) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == refusal
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("blocked", ["f.json", "f_models.csv"])
def test_a_refused_fairness_output_leaves_no_file(table, tmp_path, capsys, blocked):
    """Either output path being a directory refuses the run before the
    other file is written, and the refused run adds no file."""
    (tmp_path / blocked).mkdir()
    assert main([
        "fairness-range", "--data", str(table), "--targets", "y1,y2", "--group", "protected",
        "--kappa", "10%", "--out", str(tmp_path / "f.json"),
    ]) == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "IsADirectoryError"
    assert sorted(p.name for p in tmp_path.iterdir()) == [blocked]


def test_a_refused_fairness_output_keeps_an_existing_table(table, tmp_path, capsys):
    (tmp_path / "f.json").mkdir()
    (tmp_path / "f_models.csv").write_text("earlier\n")
    assert main([
        "fairness-range", "--data", str(table), "--targets", "y1,y2", "--group", "protected",
        "--kappa", "10%", "--out", str(tmp_path / "f.json"),
    ]) == EXIT_DATA
    capsys.readouterr()
    assert (tmp_path / "f_models.csv").read_text() == "earlier\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["fit", "--targets", "group"],
        ["ambiguity-single", "--target", "split", "--kappa", "5", "--epsilons", "0.02"],
    ],
    ids=["fit-group", "single-split"],
)
def test_a_reserved_column_named_as_a_target_is_a_data_error(table, tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert main(flags + ["--data", str(table), "--out", str(out)]) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "SchemaError"
    assert f"['{flags[2]}'] are reserved" in err["message"]
    assert not out.exists()


def test_split_cells_are_checked_in_full(table, tmp_path, capsys):
    # Split cells used to be cut to seven characters before the check.
    bad = tmp_path / "split.csv"
    text = table.read_text()
    bad.write_text(text.replace(",holdout\n", ",holdout_old\n", 1))
    assert bad.read_text() != text
    assert main(["fit", "--data", str(bad), "--targets", "y1", "--out", str(tmp_path / "o.json")]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DataError"
    assert err["message"].endswith("unknown split tags: ['holdout_old']")


def test_budget_exhaustion_still_writes(table, tmp_path):
    out = tmp_path / "p.jsonl"
    code = main([
        "ambiguity-multi", "--data", str(table), "--targets", "y1,y2",
        "--kappa", "10%", "--node-budget", "3", "--out", str(out),
    ])
    assert code == EXIT_BUDGET
    _, reports = _read_jsonl(out)
    assert len(reports) > 0
    assert any(r["method"] == "undetermined" for r in reports)


def test_undecided_ball_nodes_exit_4_not_1(table, tmp_path, monkeypatch):
    """A ball node that no certificate settles ends its query undecided;
    the curve is still written and the run exits 4 instead of raising."""
    monkeypatch.setattr(solver, "nnls", lambda A, b, start: (np.zeros(A.shape[1]), 0.0))
    monkeypatch.setattr(
        solver, "lsq_linear", lambda A, b, **kw: SimpleNamespace(x=np.zeros(A.shape[1]))
    )
    out = tmp_path / "c.csv"
    code = main([
        "ambiguity-single", "--data", str(table), "--target", "y1",
        "--kappa", "10%", "--epsilons", "0.01,0.05,0.1", "--out", str(out),
    ])
    assert code == EXIT_BUDGET
    _, _, rows = read_csv_with_meta(out)
    assert [r[0] for r in rows] == ["0.01", "0.05", "0.1"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A table whose holdout and tune splits fit under the two-target sweeps' cap."""
    path = tmp_path_factory.mktemp("small") / "s.csv"
    assert main(["synth", "--n", "150", "--b", "0.4", "--seed", "3", "--out", str(path)]) == EXIT_OK
    return path


def test_certify_brackets_budget_stopped_rank_ranges(tmp_path, capsys):
    """Undetermined rows carry outer bounds, which must contain the sweep's
    exact ranges; the run then exits 4, not 1."""
    data = tmp_path / "m.csv"
    main(["synth", "--n", "120", "--b", "0.5", "--seed", "7", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "m.jsonl"
    assert main([
        "ambiguity-multi", "--data", str(data), "--targets", "y1,y2", "--kappa", "10%",
        "--certify", "--node-budget", "2", "--out", str(out),
    ]) == EXIT_BUDGET
    meta, reports = _read_jsonl(out)
    assert any(rep["method"] == "undetermined" for rep in reports)
    assert capsys.readouterr().err == f"certify: simplex_sweep_k2 checked rank ranges on {meta['n']} rows\n"


def test_certify_brackets_budget_stopped_group_counts(tmp_path, capsys):
    data = tmp_path / "f.csv"
    main(["synth", "--n", "150", "--b", "0.5", "--seed", "3", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "f.json"
    assert main([
        "fairness-range", "--data", str(data), "--targets", "y1,y2", "--group", "protected",
        "--kappa", "10%", "--certify", "--node-budget", "2", "--out", str(out),
    ]) == EXIT_BUDGET
    doc = json.loads(out.read_text())["report"]
    assert "budget_exhausted" in (doc["tune_report"]["status_min"], doc["tune_report"]["status_max"])
    assert capsys.readouterr().err == (
        f"certify: simplex_sweep_k2 checked the group count range on {doc['n_tune']} rows\n"
    )


@pytest.mark.parametrize("direction", ["min", "max"])
def test_certify_checks_the_sides_a_direction_solves(small, tmp_path, capsys, direction):
    out = tmp_path / "f.json"
    assert main([
        "fairness-range", "--data", str(small), "--targets", "y1,y2", "--group", "protected",
        "--kappa", "10%", "--direction", direction, "--certify", "--out", str(out),
    ]) == EXIT_OK
    n_tune = json.loads(out.read_text())["report"]["n_tune"]
    assert capsys.readouterr().err == f"certify: simplex_sweep_k2 checked the group count range on {n_tune} rows\n"


def test_certify_single_without_an_oracle_runs_in_status_mode(table, tmp_path, monkeypatch):
    """No oracle reads exact ranges of a three-column design, so --certify
    makes the plain run's solves and writes its CSV, which only its meta
    line ``certify=True`` tells apart."""
    solves = _count_calls(monkeypatch, solver.solve, rashomon_single)
    texts, counts = [], []
    for extra in ([], ["--certify"]):
        out = tmp_path / f"c{len(extra)}.csv"
        solves.clear()
        assert main([
            "ambiguity-single", "--data", str(table), "--target", "y1", "--kappa", "5%",
            "--epsilons", "0.05,0.1", "--drop-regex", "visits", "--out", str(out), *extra,
        ]) == EXIT_OK
        texts.append(_strip_timestamp(out.read_text()))
        counts.append(len(solves))
    assert counts[0] == counts[1] > 0
    assert texts[1].replace("# certify=True\n", "") == texts[0] != texts[1]


_SINGLE = ["ambiguity-single", "--target", "y1", "--epsilons", "0.02,0.1", "--drop-regex", "visits|y2"]
_MULTI = ["ambiguity-multi", "--targets", "y1,y2"]


@pytest.mark.parametrize(
    "data, command, note",
    [
        ("small", _SINGLE + ["--kappa", "8"], "angle_sweep_single checked"),
        ("small", _MULTI + ["--kappa", "8"], "simplex_sweep_k2 checked"),
        ("three", ["ambiguity-multi", "--targets", "cost_t,cost_avoidable_t,gagne_sum_t",
                   "--kappa", "3"], "simplex_sweep_k3 checked"),
        ("table", _SINGLE + ["--kappa", "10%"], "no oracle applies"),
        ("table", _MULTI + ["--kappa", "10%"], "no oracle applies"),
    ],
    ids=["disc", "k2", "k3", "single-over-cap", "multi-over-cap"],
)
def test_certify_only_checks(request, tmp_path, capsys, monkeypatch, data, command, note):
    """--certify changes no byte of an ambiguity output but the timestamp
    and its own meta entry, whether an oracle checks the run or not, and
    solves exact ranges only for an oracle to check."""
    if data == "three":
        path = _three_target_table(tmp_path)[1]
    else:
        path = request.getfixturevalue(data)
    solves = _count_calls(monkeypatch, solver.solve, rashomon_single)
    texts, counts = [], []
    for extra in ([], ["--certify"]):
        out = tmp_path / f"o{len(extra)}"
        solves.clear()
        assert main(command + ["--data", str(path), *extra, "--out", str(out)]) == EXIT_OK
        texts.append(out.read_text())
        counts.append(len(solves))
    assert capsys.readouterr().err.startswith(f"certify: {note}")
    assert (counts[1] > counts[0]) == note.endswith("checked")
    assert counts[1] >= counts[0]
    if command[0] == "ambiguity-multi":
        (plain_meta, plain), (checked_meta, checked) = (t.split("\n", 1) for t in texts)
        plain_meta, checked_meta = json.loads(plain_meta), json.loads(checked_meta)
        assert checked_meta.pop("certify") is True
        assert {**plain_meta, "timestamp": None} == {**checked_meta, "timestamp": None}
    else:
        plain, checked = (_strip_timestamp(t) for t in texts)
        checked = checked.replace("# certify=True\n", "")
    assert plain == checked and plain.count("\n") > 1


def _corrupt_status_search(search, pick, change):
    """``search`` with one report of each status-mode call changed: the
    first that ``pick`` accepts gets the fields ``change`` returns."""

    def corrupted(*args, **kwargs):
        reports = search(*args, **kwargs)
        if kwargs.get("rank_mode", "status") == "status":
            i = next(i for i, rep in enumerate(reports) if pick(rep))
            reports[i] = dataclasses.replace(reports[i], **change(reports[i]))
        return reports

    return corrupted


@pytest.mark.parametrize(
    "module, name, command, pick, change",
    [
        (
            metrics, "flip_search", _SINGLE + ["--kappa", "8"],
            lambda rep: rep.flippable is not None,
            lambda rep: {"flippable": not rep.flippable},
        ),
        (
            cli, "flip_search_multi", _MULTI + ["--kappa", "8"],
            lambda rep: rep.flippable,
            lambda rep: {"min_rank": rep.baseline_rank, "max_rank": rep.baseline_rank},
        ),
    ],
    ids=["single-flippable", "multi-rank-range"],
)
def test_certify_checks_the_written_reports(
    small, tmp_path, capsys, monkeypatch, module, name, command, pick, change
):
    """One corrupted report in the output a run writes fails the check,
    though the exact-mode search it also runs is sound."""
    monkeypatch.setattr(module, name, _corrupt_status_search(getattr(module, name), pick, change))
    assert main(command + ["--data", str(small), "--certify", "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "CertifyError"
    assert "mismatch" in err["message"]


@pytest.mark.parametrize(
    "key, shift, command",
    [
        (
            ("ball", 2),
            lambda ranks: (ranks[0] + 1, ranks[1]),
            ["ambiguity-single", "--target", "y1", "--kappa", "8", "--epsilons", "0.02,0.1",
             "--drop-regex", "visits|y2"],
        ),
        (
            ("blend", 2),
            lambda sweep: dataclasses.replace(sweep, min_ranks=sweep.min_ranks + 1),
            ["ambiguity-multi", "--targets", "y1,y2", "--kappa", "8"],
        ),
        (
            ("blend", 2),
            lambda sweep: dataclasses.replace(sweep, group_max=sweep.group_max + 1),
            ["fairness-range", "--targets", "y1,y2", "--group", "protected", "--kappa", "10%"],
        ),
    ],
    ids=["single", "multi", "fairness"],
)
def test_certify_holds_certified_values_to_equality(
    small, tmp_path, capsys, monkeypatch, key, shift, command
):
    """An oracle value one past a certified one, on the side a bound would
    allow, still fails the check."""
    exact, cap = cli.ORACLES[key]
    monkeypatch.setitem(cli.ORACLES, key, (lambda *a, **kw: shift(exact(*a, **kw)), cap))
    assert main(command + ["--data", str(small), "--certify", "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CertifyError"
    assert "mismatch" in err["error"]["message"]


def test_workflow_input_errors_exit_3(table, tmp_path, capsys):
    no_tune = tmp_path / "no_tune.csv"
    no_tune.write_text(table.read_text().replace(",tune\n", ",train\n"))
    for data, group in ((table, "nosuch"), (no_tune, "protected")):
        assert main([
            "fairness-range", "--data", str(data), "--targets", "y1,y2", "--group", group,
            "--kappa", "10%", "--out", str(tmp_path / "f.json"),
        ]) == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"


def test_a_kappa_too_large_for_holdout_fails_before_the_search(tmp_path, capsys, monkeypatch):
    """Kappa resolves against the tune and holdout sizes before anything
    is fitted, and the error names the split it does not fit."""
    data = tmp_path / "clinical.csv"
    write_csv(generate_clinical(1800), data)  # 594 tune rows, 583 holdout

    def searched(*args, **kwargs):
        raise AssertionError("the tune search ran")

    monkeypatch.setattr(fairness, "group_rate_extremes", searched)
    assert main([
        "fairness-range", "--data", str(data), "--targets", "cost_t,gagne_sum_t",
        "--group", "black", "--kappa", "590", "--out", str(tmp_path / "f.json"),
    ]) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == "holdout split: kappa 590 out of range for n=583"
    assert not (tmp_path / "f.json").exists()


def test_other_workflow_failures_still_raise(table, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken fit")

    monkeypatch.setattr(fairness, "build_ensemble", broken)
    with pytest.raises(RuntimeError, match="^broken fit$"):
        main([
            "fairness-range", "--data", str(table), "--targets", "y1,y2", "--group", "protected",
            "--kappa", "10%", "--out", str(tmp_path / "f.json"),
        ])


def test_interrupts_inside_a_workflow_phase_pass_through(table, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(fairness, "build_ensemble", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([
            "fairness-range", "--data", str(table), "--targets", "y1,y2", "--group", "protected",
            "--kappa", "10%", "--out", str(tmp_path / "f.json"),
        ])


@pytest.mark.parametrize(
    "flags",
    [
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "nan"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "inf"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01,nan"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--kappa-sweep", "5",
         "--epsilon", "nan"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "-0.1"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.06,0.02"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--kappa-sweep", "5",
         "--epsilon", "-1"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--node-budget", "0"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--time-budget", "0"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--time-budget", "-1"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--time-budget", "nan"],
        ["ambiguity-single", "--target", "y1", "--kappa", "0", "--epsilons", "0.01"],
        ["ambiguity-multi", "--targets", "y1,y2", "--kappa", "0%"],
        ["ambiguity-multi", "--targets", "y1,y2", "--kappa", "top 3%"],
        ["fairness-range", "--targets", "y1,y2", "--group", "protected", "--kappa", "abc%"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5,0"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--drop-regex", "("],
        ["fit", "--targets", "y1,y2,y1"],
        ["ambiguity-multi", "--targets", "y1,y1", "--kappa", "10%"],
        ["fairness-range", "--targets", "y1, y1", "--group", "protected", "--kappa", "10%"],
        ["stable-points", "--family", "index", "--targets", "y2,y1,y2", "--kappa-sweep", "5"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--target", "y1",
         "--epsilon", "5", "--kappa-sweep", "5,10"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5",
         "--epsilon-mode", "absolute"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--targets", "y1,y2",
         "--kappa-sweep", "5"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--kappa-sweep", "5",
         "--standardize", "zscore"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--epsilon-mode", "relative"],
        ["ambiguity-multi", "--targets", "y1,y2", "--kappa", "10%", "--standardize", "zscore"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--kappa-sweep", "5",
         "--epsilon-mode", "relative"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5",
         "--standardize", "zscore"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--drop-regex", "^zz\nq"],
        ["ambiguity-single", "--target", "y1", "--kappa", "10%", "--epsilons", "0.01",
         "--drop-regex", "^zz\rq"],
    ],
    ids=["nan", "inf", "trailing-nan", "stable-nan", "negative", "descending",
         "stable-negative", "node-budget-zero", "time-budget-zero", "time-budget-negative",
         "time-budget-nan", "kappa-zero", "kappa-zero-percent", "kappa-top-prefix", "kappa-garbled",
         "sweep-kappa-zero", "bad-regex", "repeated-target-fit", "repeated-target-multi",
         "repeated-target-fairness", "repeated-target-stable", "index-target-epsilon",
         "index-epsilon-mode", "rashomon-targets", "rashomon-standardize",
         "single-epsilon-mode", "multi-standardize", "rashomon-epsilon-mode",
         "index-standardize", "drop-regex-line-feed", "drop-regex-carriage-return"],
)
def test_bad_tolerances_and_workers_are_usage_errors(table, tmp_path, capsys, flags):
    out = tmp_path / "o.csv"
    assert main(flags + ["--data", str(table), "--out", str(out)]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["ambiguity-single", "--target", "y1", "--kappa", "5", "--epsilons", "0.05"],
        ["fairness-range", "--targets", "y1,y2", "--group", "protected", "--kappa", "10%"],
        ["stable-points", "--family", "index", "--targets", "y1,y2", "--kappa-sweep", "5"],
    ],
    ids=["ambiguity-single", "fairness-range", "stable-points"],
)
def test_a_meta_value_with_a_line_break_is_a_data_error(tmp_path, capsys, flags):
    """A line break in a CSV meta value would end its ``# key=value`` line
    early, so the run exits 3, names the key, and writes no file."""
    folder = tmp_path / "two\nlines"
    folder.mkdir()
    data = folder / "t.csv"
    assert main(["synth", "--n", "60", "--b", "0.5", "--out", str(data)]) == EXIT_OK
    out = tmp_path / "o.json"
    assert main(flags + ["--data", str(data), "--out", str(out)]) == EXIT_DATA
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("meta value of 'data' holds a line break")
    assert sorted(p.name for p in tmp_path.iterdir()) == [folder.name]


@pytest.mark.parametrize(
    "flags",
    [
        ["ambiguity-single", "--target", "y1", "--kappa", "5", "--epsilons", "0.01,1e308"],
        ["stable-points", "--family", "rashomon", "--target", "y1", "--epsilon", "1e308",
         "--kappa-sweep", "5"],
    ],
    ids=["ambiguity-single", "stable-points"],
)
def test_overflowing_tolerance_is_a_data_error(tmp_path, capsys, flags):
    """A finite relative tolerance whose ball radius overflows is refused,
    named, before any screen or search runs."""
    data = tmp_path / "s.csv"
    assert main(["synth", "--n", "60", "--b", "0.5", "--out", str(data)]) == EXIT_OK
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(flags + ["--data", str(data), "--out", str(out)])
    assert not caught
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "epsilon 1e+308 gives a ball radius that overflows to inf"
    assert not out.exists()


@pytest.mark.parametrize(
    "n, b, message",
    [("5", "0.5", "need n >= 10, got 5"), ("60", "nan", "b must be finite"), ("60", "inf", "b must be finite")],
    ids=["small-n", "nan-b", "inf-b"],
)
def test_bad_synth_flags_are_usage_errors(tmp_path, capsys, n, b, message):
    out = tmp_path / "t.csv"
    assert main(["synth", "--n", n, "--b", b, "--out", str(out)]) == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["exit_code"] == EXIT_USAGE
    assert error["message"].startswith(f"--n {n} --b {float(b)}: {message}")
    assert not out.exists()


_NO_SCIPY_SCRIPT = """
import sys

from topkflip import solver
from topkflip.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
projections = []
nnls = solver.nnls
solver.nnls = lambda *a, **k: projections.append(1) or nnls(*a, **k)
data, out = sys.argv[1], sys.argv[2]
targets = "cost_t,cost_avoidable_t,gagne_sum_t"
runs = [
    ["ambiguity-single", "--target", "gagne_sum_t", "--drop-regex", "^cost(_avoidable)?_t$",
     "--kappa", "10%", "--epsilons", "0.02,0.1", "--out", out + "/c.csv"],
    ["ambiguity-multi", "--targets", targets, "--kappa", "10%", "--out", out + "/b.jsonl"],
    ["fairness-range", "--targets", targets, "--group", "black", "--kappa", "10%",
     "--direction", "both", "--out", out + "/f.json"],
]
for argv in runs:
    assert main(argv[:1] + ["--data", data] + argv[1:]) == 0, argv[0]
    assert not scipy_modules(), (argv[0], scipy_modules())
assert projections  # the curve ran ball projections
"""


def test_workload_commands_never_import_scipy(tmp_path):
    """SciPy serves only the BVLS fallback and blends of four or more
    targets. A fresh interpreter that imports the CLI, then runs the ball
    curve with a dropped column, a three-target blend and a group range,
    loads no scipy module at any point."""
    data = tmp_path / "clinical.csv"
    write_csv(generate_clinical(n=400), data)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(data), str(tmp_path)],
        env=env, check=True, timeout=300,
    )
