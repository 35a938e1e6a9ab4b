import numpy as np
import pytest

from topkflip.index_model import flip_search_multi, prune_never_top_multi
from topkflip.linear_fit import RashomonBall, fit_ols, make_ball
from topkflip.oracle import angle_sweep_single
from topkflip.ranking import rank_descending
from topkflip.rashomon_single import (
    ENVELOPE_BLOCK,
    _pool_rank_envelope,
    ambiguity_single,
    flip_reports_single,
    flip_search,
    prune_unflippable,
    witness_pool,
)
from topkflip.solver import SolverConfig

from conftest import random_design


def test_screen_bounds_hold_at_sampled_ball_points(rng):
    X = random_design(rng, 15, 3)
    center = rng.normal(size=3)
    radius = 0.5
    kappa = 4
    pr = prune_unflippable(X, center, radius, kappa)
    for _ in range(300):
        u = rng.normal(size=3)
        u *= radius * rng.random() ** (1 / 3) / np.linalg.norm(u)
        ranks = rank_descending(X @ (center + u), kappa).ranks
        assert np.all(pr.outer_min <= ranks) and np.all(ranks <= pr.outer_max)


def test_prune_is_sound_against_the_sweep(rng):
    for _ in range(10):
        X = random_design(rng, 20, 2)
        y = rng.normal(size=20)
        model = fit_ols(X, y)
        ball = make_ball(model, X, y, 0.1, "relative")
        kappa = 5
        pruned = prune_unflippable(X, ball.center, ball.radius, kappa)
        lo, hi = angle_sweep_single(X, ball.center, ball.radius)
        for i in np.flatnonzero(pruned.always_top):
            assert hi[i] <= kappa
        for i in np.flatnonzero(pruned.never_top):
            assert lo[i] > kappa
        # outer bounds bracket the exact range
        assert np.all(pruned.outer_min <= lo) and np.all(pruned.outer_max >= hi)


def _envelope_by_column(X, pool, kappa):
    """Reference envelope: rank every pool column on its own."""
    scores = X @ pool.T
    enter = np.full(X.shape[0], -1)
    exit_ = np.full(X.shape[0], -1)
    for col in range(scores.shape[1]):
        ranks = rank_descending(scores[:, col], kappa).ranks
        enter[(enter < 0) & (ranks <= kappa)] = col
        exit_[(exit_ < 0) & (ranks > kappa)] = col
    return enter, exit_


@pytest.mark.parametrize("width", [ENVELOPE_BLOCK - 1, ENVELOPE_BLOCK, 2 * ENVELOPE_BLOCK + 3])
def test_pool_envelope_matches_per_column_ranking(width, rng):
    """Blockwise top-kappa selection equals index-tie-break ranking, also
    where many rows tie at the cut."""
    n = 40
    base = np.round(rng.normal(size=(n - 12, 3)), 1)
    X = np.vstack([base, base[:8], np.zeros((4, 3))])[rng.permutation(n)]
    rounded = np.round(rng.normal(size=(width, 3)), 1)
    integral = rng.integers(-1, 2, size=(width, 3)).astype(float)
    late = rounded.copy()
    late[:-5] = late[0]  # most rows first change side in the last columns
    for pool in (rounded, integral, late):
        for kappa in (1, n // 2, n):
            got = _pool_rank_envelope(X, pool, kappa)
            want = _envelope_by_column(X, pool, kappa)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
    # Unrounded data of the curve workload's shape: 11 columns and a ball
    # pool of 2n + 1 columns spanning several blocks, where blockwise
    # products must rank like the whole-matrix product.
    n = 200 + width
    X = rng.normal(size=(n, 11))
    pool = witness_pool(X, rng.normal(size=11), 0.3)
    assert pool.shape[0] == 2 * n + 1 > 3 * ENVELOPE_BLOCK
    for kappa in (1, 3 * n // 100, n // 2, n):
        got = _pool_rank_envelope(X, pool, kappa)
        want = _envelope_by_column(X, pool, kappa)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_pool_envelope_rejects_non_finite_scores(rng):
    X = rng.normal(size=(10, 2))
    pool = rng.normal(size=(5, 2))
    pool[3, 1] = np.nan
    with pytest.raises(ValueError):
        _pool_rank_envelope(X, pool, 3)


def test_flip_search_agrees_with_sweep_exact_mode(rng):
    X = random_design(rng, 18, 2)
    y = rng.normal(size=18)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 0.3, "relative")
    reports = flip_search(X, ball, 4, rank_mode="exact")
    lo, hi = angle_sweep_single(X, ball.center, ball.radius)
    for i, rep in enumerate(reports):
        assert (rep.min_rank, rep.max_rank) == (int(lo[i]), int(hi[i]))
        assert rep.flippable == (rep.min_rank <= 4 < rep.max_rank)


def test_exactly_duplicated_rows_stay_solvable(rng):
    """Duplicate design rows make exactly tied pairs at every model.

    The tied pair's gap vector is numerically zero after the QR pass;
    these used to poison the feasibility cone and flip verdicts away
    from the sweep's.
    """
    age = np.concatenate([rng.uniform(20, 80, size=14), [50.0, 50.0]])
    A = np.column_stack([np.ones(16), age])
    Q, R = np.linalg.qr(A)
    X = Q * np.sign(np.diag(R))
    y = -X[:, 1] + rng.normal(0, 0.3, size=16)
    model = fit_ols(X, y)
    for eps in (0.01, 0.1, 1.0):
        ball = make_ball(model, X, y, eps, "relative")
        reports = flip_search(X, ball, 5, rank_mode="exact")
        lo, hi = angle_sweep_single(X, ball.center, ball.radius)
        for i, rep in enumerate(reports):
            assert (rep.min_rank, rep.max_rank) == (int(lo[i]), int(hi[i]))


def test_status_mode_matches_exact_verdicts(rng):
    X = random_design(rng, 25, 3)
    y = rng.normal(size=25)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 0.2, "relative")
    fast = flip_search(X, ball, 6)
    slow = flip_search(X, ball, 6, rank_mode="exact")
    for f, s in zip(fast, slow):
        assert f.flippable == s.flippable
        # status-mode ranges are certified outer bounds
        assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank


def test_witnesses_live_in_the_ball_and_realize_flips(rng):
    """Pool witnesses realize the flip outright; MIP witnesses certify the
    extreme rank under optimistic tie counting, so only membership is
    promised for them."""
    X = random_design(rng, 20, 3)
    y = rng.normal(size=20)
    reports, ball = flip_reports_single(X, y, 0.3, 5)
    base_flags = rank_descending(X @ ball.center, 5).top_flags
    seen_closed_form = 0
    for i, rep in enumerate(reports):
        if rep.witness is None or rep.witness_kind != "coef":
            continue
        assert ball.contains(rep.witness, tol=1e-9)
        if rep.method == "closed_form_flip":
            seen_closed_form += 1
            assert rank_descending(X @ rep.witness, 5).top_flags[i] != base_flags[i]
    assert seen_closed_form > 0


def test_zero_epsilon_nothing_flips(rng):
    X = random_design(rng, 15, 2)
    y = rng.normal(size=15)
    reports, ball = flip_reports_single(X, y, 0.0, 4)
    assert ball.radius == 0.0
    assert not any(rep.flippable for rep in reports)


def test_ambiguity_counts():
    reports, _ = flip_reports_single(
        np.linalg.qr(np.column_stack([np.ones(12), np.arange(12.0)]))[0],
        np.arange(12.0) + 0.01 * np.sin(np.arange(12)),
        0.5,
        3,
    )
    amb = ambiguity_single(reports, 3)
    assert amb.all_fraction == pytest.approx(amb.n_flippable / 12)
    assert 0.0 <= amb.top_fraction <= 1.0
    assert amb.n_undetermined == 0


def test_budget_exhaustion_leaves_undetermined(rng):
    X = random_design(rng, 40, 4)
    y = rng.normal(size=40)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 1.0, "relative")
    reports = flip_search(X, ball, 10, config=SolverConfig(node_budget=1))
    assert any(rep.method == "undetermined" for rep in reports)
    for rep in reports:
        if rep.method == "undetermined":
            assert rep.flippable is None or isinstance(rep.flippable, bool)
            assert rep.min_rank <= rep.max_rank


def _always_top_edge_instance(rng, family):
    """Rows built so that a crossing pair has outer_max = kappa + 1:
    kappa - 1 rows sit above both of them and the rest below both over
    the whole region, with two of the rows below duplicated."""
    kappa = int(rng.integers(1, 5))
    n_below = int(rng.integers(3, 8))
    offsets = np.concatenate([rng.uniform(3, 6, kappa - 1), rng.uniform(-6, -3, n_below)])
    ball = None
    if family == "ball":
        d = int(rng.integers(2, 4))
        unit = rng.normal(size=d)
        unit /= np.linalg.norm(unit)
        radius = float(rng.uniform(0.3, 0.8))
        ball = RashomonBall(
            center=2.0 * unit, epsilon=radius**2, epsilon_input=radius**2,
            epsilon_mode="absolute", rss0=1.0,
        )
        # The pair differs mostly across the center direction, so its
        # order flips inside the ball.
        u = rng.normal(size=d)
        u -= (u @ unit) * unit
        u *= 0.1 / np.linalg.norm(u)
        u += 0.01 * unit
        mid = rng.normal(size=d)
        far = mid + offsets[:, None] * unit + rng.uniform(-0.1, 0.1, size=(offsets.size, d))
        rows = np.vstack([far, mid + u, mid - u])
    else:
        K = int(rng.integers(2, 4))
        first = 0.3 * rng.normal(size=K)
        step = rng.normal(size=K)
        step[0], step[1] = abs(step[0]) + 0.1, -abs(step[1]) - 0.1
        far = offsets[:, None] + rng.uniform(-0.1, 0.1, size=(offsets.size, K))
        rows = np.vstack([far, first, first + step])
    rows = np.vstack([rows, rows[kappa - 1 : kappa + 1]])
    return rows[rng.permutation(rows.shape[0])], ball, kappa


@pytest.mark.parametrize("family", ["ball", "simplex"])
def test_status_matches_exact_next_to_the_always_top_bound(family, rng):
    """A flippable row whose screen bound is outer_max = kappa + 1 must
    not be settled as always selected."""
    at_edge = 0
    for _ in range(10):
        V, ball, kappa = _always_top_edge_instance(rng, family)
        if family == "ball":
            pr = prune_unflippable(V, ball.center, ball.radius, kappa)
            fast = flip_search(V, ball, kappa)
            slow = flip_search(V, ball, kappa, rank_mode="exact")
        else:
            pr = prune_never_top_multi(V, kappa)
            fast = flip_search_multi(V, kappa)
            slow = flip_search_multi(V, kappa, rank_mode="exact")
        for i, (f, s) in enumerate(zip(fast, slow)):
            assert f.flippable == s.flippable, (family, i)
            assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank
            at_edge += bool(s.flippable and pr.outer_max[i] == kappa + 1)
    assert at_edge == 20  # both rows of every crossing pair
