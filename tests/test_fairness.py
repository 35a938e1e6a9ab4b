import itertools

import numpy as np
import pytest

from topkflip.fairness import (
    evaluate_selection,
    fairness_workflow,
    group_rate_extremes,
    write_fairness_csv,
    write_fairness_json,
)
from topkflip.oracle import simplex_sweep_k2, simplex_sweep_k3
from topkflip.ranking import rank_descending
from topkflip.reports import meta_record, read_csv_with_meta
from topkflip.solver import SolverConfig
from topkflip.synth import generate


def test_extremes_match_sweep_k2(rng):
    for _ in range(6):
        P = rng.normal(size=(18, 2))
        mask = rng.random(18) < 0.3
        if not mask.any():
            mask[0] = True
        kappa = 5
        rep = group_rate_extremes(P, kappa, mask)
        sweep = simplex_sweep_k2(P, kappa, group_mask=mask)
        assert rep.min_count == int(sweep.group_min)
        assert rep.max_count == int(sweep.group_max)


def _largest_cut_tie(P, kappa):
    """The most rows that tie exactly across the cut at any one-hot blend,
    a candidate every sweep scores."""
    largest = 0
    for s in P.T:
        cut = np.sort(s)[::-1][kappa - 1]
        above, tied = int(np.sum(s > cut)), int(np.sum(s == cut))
        if above + tied > kappa:
            largest = max(largest, tied)
    return largest


def test_extremes_match_the_sweeps_on_tie_heavy_predictions():
    """Count-valued and one-decimal predictions tie many rows at the cut.
    Every certified side must equal the sweep's count, including where a
    tie class on the cut has more than 6 rows."""
    rng = np.random.default_rng(7)
    sweeps = {2: simplex_sweep_k2, 3: simplex_sweep_k3}
    largest = 0
    for K, decimals, _ in itertools.product((2, 3), (0, 1), range(4)):
        n = int(rng.integers(8, 16))
        if decimals:
            P = np.round(rng.normal(scale=0.2, size=(n, K)), 1)
        else:
            P = rng.poisson(0.6, size=(n, K)).astype(float)
        kappa = int(rng.integers(2, n - 1))
        mask = rng.random(n) < 0.5
        mask[0] = True
        rep = group_rate_extremes(P, kappa, mask)
        sweep = sweeps[K](P, kappa, group_mask=mask)
        if rep.status_min == "optimal":
            assert rep.min_count == sweep.group_min, (K, decimals, n, kappa)
        if rep.status_max == "optimal":
            assert rep.max_count == sweep.group_max, (K, decimals, n, kappa)
        largest = max(largest, _largest_cut_tie(P, kappa))
    assert largest > 6


def test_one_hots_sit_inside_the_range(rng):
    P = rng.normal(size=(25, 3))
    mask = rng.random(25) < 0.4
    rep = group_rate_extremes(P, 7, mask)
    for c in rep.one_hot_counts:
        assert rep.min_count <= c <= rep.max_count
    assert rep.min_rate == rep.min_count / 7
    assert rep.max_rate == rep.max_count / 7


def test_budget_exhausted_sides_still_bracket_the_one_hots(rng):
    cfg = SolverConfig(node_budget=1)
    stopped = 0
    for _ in range(8):
        P = rng.normal(size=(30, 3))
        mask = rng.random(30) < 0.4
        rep = group_rate_extremes(P, 8, mask, config=cfg)
        stopped += (rep.status_min, rep.status_max).count("budget_exhausted")
        for c in rep.one_hot_counts:
            assert rep.min_count <= c <= rep.max_count
        assert rep.bound_min <= rep.min_count and rep.max_count <= rep.bound_max
    assert stopped  # the budget really cut some side short


def test_witness_blends_realize_their_counts(rng):
    P = rng.normal(size=(20, 2))
    mask = rng.random(20) < 0.35
    if not mask.any():
        mask[3] = True
    rep = group_rate_extremes(P, 6, mask)
    for alpha, count in ((rep.alpha_at_min, rep.min_count), (rep.alpha_at_max, rep.max_count)):
        flags = rank_descending(P @ alpha) <= 6
        assert int(np.count_nonzero(flags & mask)) == count


def test_witness_prefers_one_hot_when_one_attains(rng):
    # make the second target the unambiguous maximizer: group rows top it
    P = rng.normal(size=(15, 2))
    mask = np.zeros(15, dtype=bool)
    mask[:5] = True
    P[:5, 1] += 50.0
    rep = group_rate_extremes(P, 5, mask, direction="max")
    assert rep.max_count == 5
    np.testing.assert_array_equal(rep.alpha_at_max, [0.0, 1.0])


def test_direction_flag_skips_the_other_side(rng):
    P = rng.normal(size=(12, 2))
    mask = np.zeros(12, dtype=bool)
    mask[[0, 4]] = True
    rep = group_rate_extremes(P, 4, mask, direction="min")
    assert rep.min_count is not None and rep.max_count is None
    assert rep.status_max is None
    with pytest.raises(ValueError):
        group_rate_extremes(P, 4, mask, direction="widest")


def test_evaluate_selection_arithmetic():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    mask = np.array([True, False, True, False, False])
    Y = np.array([[10.0], [20.0], [30.0], [40.0], [0.0]])
    ev = evaluate_selection(scores, 2, mask, Y, "m", (1.0,))
    assert ev.group_count == 1
    assert ev.group_share == 0.5
    assert ev.group_capture == 0.5
    assert ev.concentration[0] == pytest.approx(30.0 / 100.0)


def test_concentration_nan_on_zero_total():
    ev = evaluate_selection(
        np.array([2.0, 1.0]), 1, np.array([True, False]), np.zeros((2, 1)), "m", (1.0,)
    )
    assert np.isnan(ev.concentration[0])


@pytest.fixture(scope="module")
def synth_table():
    return generate(n=300, b=0.6, seed=11)


def test_workflow_end_to_end(synth_table):
    bundle = fairness_workflow(
        synth_table, ("y1", "y2"), "protected", "15%", direction="both"
    )
    assert bundle.kappa_tune >= 1 and bundle.kappa_holdout >= 1
    assert bundle.n_train + bundle.n_tune + bundle.n_holdout == 300
    labels = [ev.label for ev in bundle.evaluations]
    assert labels == ["index", "y1", "y2"]
    # the audited blend is a point of the simplex
    a = np.array(bundle.alpha_star)
    assert np.all(a >= -1e-9) and float(a.sum()) == pytest.approx(1.0, abs=1e-6)
    rep = bundle.tune_report
    assert rep.min_count <= min(rep.one_hot_counts)
    assert rep.max_count >= max(rep.one_hot_counts)


def test_workflow_needs_all_three_splits(synth_table):
    import dataclasses

    crippled = dataclasses.replace(
        synth_table, split_tags=np.array(["train"] * 300, dtype=synth_table.split_tags.dtype)
    )
    with pytest.raises(ValueError, match="^split 'tune' has no rows$"):
        fairness_workflow(crippled, ("y1", "y2"), "protected", 10)


def test_workflow_single_group_rate_is_one(synth_table):
    import dataclasses

    all_in = dataclasses.replace(
        synth_table, groups=np.array(["only"] * 300, dtype=synth_table.groups.dtype)
    )
    bundle = fairness_workflow(all_in, ("y1", "y2"), "only", 10, direction="both")
    assert bundle.tune_report.max_rate == 1.0
    assert bundle.tune_report.min_rate == 1.0


def test_fairness_files_round_trip(tmp_path, synth_table):
    bundle = fairness_workflow(synth_table, ("y1", "y2"), "protected", 10)
    meta = meta_record(command="audit")
    jp = tmp_path / "f.json"
    cp = tmp_path / "f.csv"
    write_fairness_json(jp, meta, bundle)
    write_fairness_csv(cp, meta, bundle)
    import json

    doc = json.loads(jp.read_text())
    assert doc["report"]["alpha_star"] == list(bundle.alpha_star)
    got_meta, columns, rows = read_csv_with_meta(cp)
    assert got_meta["command"] == "audit"
    assert columns[0] == "model"
    assert len(rows) == 3
