import numpy as np
import pytest

from topkflip.linear_fit import fit_ols, make_ball
from topkflip.metrics import (
    ambiguity_curve,
    curve_rows,
    stable_points,
    stable_rows,
)
from topkflip.rashomon_single import flip_search
from topkflip.index_model import flip_search_multi

from conftest import assert_reports_equal, random_design


def test_curve_nondecreasing_on_random_instances(rng):
    for _ in range(5):
        X = random_design(rng, 30, 3)
        y = rng.normal(size=30)
        curve = ambiguity_curve(X, y, 6, [0.01, 0.05, 0.1, 0.3])
        fracs = [pt.ambiguity_all for pt in curve]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert all(pt.n_undetermined == 0 for pt in curve)


def test_curve_starts_at_zero_for_zero_epsilon(rng):
    X = random_design(rng, 20, 2)
    y = rng.normal(size=20)
    curve = ambiguity_curve(X, y, 5, [0.0, 0.2])
    assert curve[0].ambiguity_all == 0.0
    assert curve[0].ambiguity_top == 0.0


def test_curve_requires_sorted_epsilons(rng):
    X = random_design(rng, 15, 2)
    y = rng.normal(size=15)
    with pytest.raises(ValueError):
        ambiguity_curve(X, y, 4, [0.1, 0.05])


@pytest.mark.parametrize("eps", [[float("nan")], [0.01, float("nan")], [0.01, float("inf")]])
def test_curve_requires_finite_epsilons(rng, eps):
    X = random_design(rng, 15, 2)
    y = rng.normal(size=15)
    with pytest.raises(ValueError, match="finite"):
        ambiguity_curve(X, y, 4, eps)


def test_curve_matches_pointwise_reports(rng):
    # witness reuse across nested balls must not change any verdict
    X = random_design(rng, 25, 2)
    y = rng.normal(size=25)
    eps = [0.02, 0.1, 0.4]
    curve = ambiguity_curve(X, y, 5, eps)
    for e, pt in zip(eps, curve):
        reports = flip_search(X, make_ball(fit_ols(X, y), X, y, e), 5)
        flips = sum(1 for r in reports if r.flippable)
        assert pt.ambiguity_all == pytest.approx(flips / 25)


def test_curve_passes_equal_independent_searches(rng):
    """One screen for all tolerances changes no report: each point equals
    a search over its own ball that screens for itself and gets the same
    carried witnesses. Duplicated rows make exact ties."""
    Q = random_design(rng, 20, 3)
    X = np.vstack([Q, Q]) / np.sqrt(2.0)
    y = X @ np.array([0.0, 3.0, -2.0]) + rng.normal(size=40)
    eps = [0.0, 0.01, 0.05, 0.05, 0.2]
    curve = ambiguity_curve(X, y, 8, eps)
    model = fit_ols(X, y)
    carried = []
    for e, pt in zip(eps, curve):
        ball = make_ball(model, X, y, e)
        reports = flip_search(X, ball, 8, extra_models=carried or None)
        assert_reports_equal(pt.reports, reports)
        carried += [rep.witness for rep in reports if rep.witness is not None]
    assert curve[0].ambiguity_all == 0.0 < curve[-1].ambiguity_all


def test_stable_points_split(rng):
    X = random_design(rng, 20, 2)
    y = rng.normal(size=20)
    reports = flip_search(X, make_ball(fit_ols(X, y), X, y, 0.1), 5)
    st = stable_points(reports, 5, "rashomon")
    assert len(st.stable_selected) + len(st.stable_unselected) + len(
        st.undetermined
    ) + sum(1 for r in reports if r.flippable) == 20
    for rid in st.stable_selected:
        rep = next(r for r in reports if r.row_id == rid)
        assert rep.max_rank <= 5
    assert 0.0 <= st.stable_fraction <= 1.0


def test_stable_points_zero_epsilon_fraction_is_one(rng):
    X = random_design(rng, 18, 2)
    y = rng.normal(size=18)
    reports = flip_search(X, make_ball(fit_ols(X, y), X, y, 0.0), 4)
    st = stable_points(reports, 4, "rashomon")
    assert st.stable_fraction == 1.0


def test_stable_points_identical_targets_fraction_is_one(rng):
    col = rng.normal(size=22)
    P = np.column_stack([col, col])
    reports = flip_search_multi(P, 6)
    st = stable_points(reports, 6, "index")
    assert st.stable_fraction == 1.0


def test_undetermined_rows_claim_neither_side(rng):
    from topkflip.solver import SolverConfig

    X = random_design(rng, 35, 4)
    y = rng.normal(size=35)
    ball = make_ball(fit_ols(X, y), X, y, 1.0)
    reports = flip_search(X, ball, 9, config=SolverConfig(node_budget=1))
    st = stable_points(reports, 9, "rashomon")
    assert len(st.undetermined) > 0
    assert not (set(st.undetermined) & set(st.stable_selected))


def test_stable_points_count_rows_their_bounds_decide(rng):
    """A row whose search stopped short still counts as stable when its
    bounds decide the verdict: stable_points reads ``flippable``, not
    the method."""
    from topkflip.solver import SolverConfig

    P = rng.normal(size=(30, 3))
    reports = flip_search_multi(P, 6, rank_mode="exact", config=SolverConfig(node_budget=8))
    decided = [r.row_id for r in reports if r.method == "undetermined" and r.flippable is False]
    assert decided
    st = stable_points(reports, 6, "index")
    assert set(st.undetermined) == {r.row_id for r in reports if r.flippable is None}
    assert set(decided) <= set(st.stable_selected) | set(st.stable_unselected)
    for rep in reports:
        if rep.row_id in st.stable_selected:
            assert rep.flippable is False and rep.max_rank <= 6
        if rep.row_id in st.stable_unselected:
            assert rep.flippable is False and rep.min_rank > 6


def test_row_formatters(rng):
    X = random_design(rng, 15, 2)
    y = rng.normal(size=15)
    curve = ambiguity_curve(X, y, 4, [0.01, 0.1])
    rows = curve_rows(curve, "cost")
    assert len(rows) == 2 and rows[0][3] == "cost"
    assert float(rows[1][0]) == 0.1

    reports = flip_search(X, make_ball(fit_ols(X, y), X, y, 0.05), 4)
    st = stable_points(reports, 4, "rashomon")
    srows = stable_rows([st])
    assert srows[0][0] == 4 and srows[0][2] == "rashomon"
    assert float(srows[0][1]) == st.stable_fraction
