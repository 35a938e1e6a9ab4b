import numpy as np
import pytest

from topkflip import rashomon_single
from topkflip.index_model import flip_search_multi, prune_never_top_multi, witness_pool_alphas
from topkflip.linear_fit import fit_ols, make_ball
from topkflip.metrics import ambiguity_curve, stable_points
from topkflip.oracle import angle_sweep_single
from topkflip.ranking import rank_descending
from topkflip.rashomon_single import (
    ENVELOPE_BLOCK,
    _certify_rows,
    _pool_rank_envelope,
    flip_search,
    witness_pool,
)
from topkflip.solver import BallRegion, PruneResult, SimplexRegion, SolverConfig, screen_membership

from conftest import assert_reports_equal, random_design, rank_attained, stacked_design


def test_screen_bounds_hold_at_sampled_ball_points(rng):
    X = random_design(rng, 15, 3)
    center = rng.normal(size=3)
    radius = 0.5
    kappa = 4
    pr = screen_membership(BallRegion(center, radius), X)
    for _ in range(300):
        u = rng.normal(size=3)
        u *= radius * rng.random() ** (1 / 3) / np.linalg.norm(u)
        ranks = rank_descending(X @ (center + u))
        assert np.all(pr.outer_min <= ranks) and np.all(ranks <= pr.outer_max)


def test_prune_is_sound_against_the_sweep(rng):
    for _ in range(10):
        X = random_design(rng, 20, 2)
        y = rng.normal(size=20)
        model = fit_ols(X, y)
        ball = make_ball(model, X, y, 0.1)
        kappa = 5
        pruned = screen_membership(ball, X)
        lo, hi = angle_sweep_single(X, ball.center, ball.radius)
        for i in np.flatnonzero(pruned.always_top(kappa)):
            assert hi[i] <= kappa
        for i in np.flatnonzero(pruned.never_top(kappa)):
            assert lo[i] > kappa
        # outer bounds bracket the exact range
        assert np.all(pruned.outer_min <= lo) and np.all(pruned.outer_max >= hi)


def _envelope_by_column(X, pool, kappa, in_top):
    """Reference envelope: rank every pool column on its own."""
    scores = X @ pool.T
    cols = np.full(X.shape[0], -1)
    for col in range(scores.shape[1]):
        moved = (rank_descending(scores[:, col]) <= kappa) != in_top
        cols[(cols < 0) & moved] = col
    return cols


def _sides(n):
    """Baseline memberships to test the envelope against: all out, all
    in, and mixed."""
    return np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.arange(n) % 3 == 1


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
            for in_top in _sides(n):
                got = _pool_rank_envelope(X, pool, kappa, in_top)
                np.testing.assert_array_equal(got, _envelope_by_column(X, pool, kappa, in_top))
    # Unrounded data of the curve workload's shape: 11 columns and a ball
    # pool of 2n + 1 columns spanning several blocks, where blockwise
    # products must rank like the whole-matrix product.
    n = 200 + width
    X = rng.normal(size=(n, 11))
    pool = witness_pool(X, rng.normal(size=11), 0.3)
    assert pool.shape[0] == 2 * n + 1 > 3 * ENVELOPE_BLOCK
    for kappa in (1, 3 * n // 100, n // 2, n):
        for in_top in _sides(n):
            got = _pool_rank_envelope(X, pool, kappa, in_top)
            np.testing.assert_array_equal(got, _envelope_by_column(X, pool, kappa, in_top))


def test_pool_envelope_rejects_non_finite_scores(rng):
    X = rng.normal(size=(10, 2))
    pool = rng.normal(size=(5, 2))
    pool[3, 1] = np.nan
    with pytest.raises(ValueError):
        _pool_rank_envelope(X, pool, 3, np.zeros(10, dtype=bool))


def test_flip_search_agrees_with_sweep_exact_mode(rng):
    X = random_design(rng, 18, 2)
    y = rng.normal(size=18)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 0.3)
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
        ball = make_ball(model, X, y, eps)
        reports = flip_search(X, ball, 5, rank_mode="exact")
        lo, hi = angle_sweep_single(X, ball.center, ball.radius)
        for i, rep in enumerate(reports):
            assert (rep.min_rank, rep.max_rank) == (int(lo[i]), int(hi[i]))


def test_status_mode_matches_exact_verdicts(rng):
    X = random_design(rng, 25, 3)
    y = rng.normal(size=25)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 0.2)
    fast = flip_search(X, ball, 6)
    slow = flip_search(X, ball, 6, rank_mode="exact")
    for f, s in zip(fast, slow):
        assert f.flippable == s.flippable
        # status-mode ranges are certified outer bounds
        assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank


def test_witnesses_live_in_the_ball_and_realize_flips(rng):
    """Pool witnesses realize the flip outright under the baseline's own
    product. MIP witnesses, in status and exact mode, move their row
    across the cut once scores tied at the witness are ordered in the
    row's favour, the optimistic tie counting the search uses. The
    stacked designs put near ties where the envelope's blocked product
    and the baseline's can disagree; the blend family goes through the
    same staging."""
    X = random_design(rng, 20, 3)
    y = rng.normal(size=20)
    cases = [
        (X, y, 0.3, 5),
        (*stacked_design(1, 21, 2), 0.0, 21),
        (*stacked_design(46, 21, 3), 0.3, 21),
    ]
    seen = {"closed_form_flip": 0, "mip_certified": 0}

    def check(V, baseline, reports, kappa, kind):
        base_flags = rank_descending(V @ baseline) <= kappa
        for i, rep in enumerate(reports):
            if not rep.flippable or rep.method not in seen:
                continue
            assert rep.witness is not None and rep.witness_kind == kind
            seen[rep.method] += 1
            if rep.method == "closed_form_flip":
                assert (rank_descending(V @ rep.witness)[i] <= kappa) != base_flags[i]
            elif base_flags[i]:
                assert rank_attained(V, rep.witness, i, "max", kappa + 1)
            else:
                assert rank_attained(V, rep.witness, i, "min", kappa)

    for X, y, eps, kappa in cases:
        P = X[:, 1:]
        for mode in ("status", "exact"):
            ball = make_ball(fit_ols(X, y), X, y, eps)
            reports = flip_search(X, ball, kappa, rank_mode=mode)
            for rep in reports:
                if rep.witness is not None:
                    delta = rep.witness - ball.center
                    assert delta @ delta <= ball.radius**2 + 1e-9
            check(X, ball.center, reports, kappa, "coef")
            reports = flip_search_multi(P, kappa, rank_mode=mode)
            check(P, np.full(P.shape[1], 1 / P.shape[1]), reports, kappa, "alpha")
    assert seen["closed_form_flip"] > 0 and seen["mip_certified"] > 0


def test_zero_epsilon_nothing_flips(rng):
    X = random_design(rng, 15, 2)
    y = rng.normal(size=15)
    ball = make_ball(fit_ols(X, y), X, y, 0.0)
    reports = flip_search(X, ball, 4)
    assert ball.radius == 0.0
    assert not any(rep.flippable for rep in reports)


def test_ambiguity_counts():
    X = np.linalg.qr(np.column_stack([np.ones(12), np.arange(12.0)]))[0]
    y = np.arange(12.0) + 0.01 * np.sin(np.arange(12))
    reports = flip_search(X, make_ball(fit_ols(X, y), X, y, 0.5), 3)
    (pt,) = ambiguity_curve(X, y, 3, [0.5])
    assert pt.ambiguity_all == sum(1 for rep in reports if rep.flippable) / 12
    top_exits = sum(1 for rep in reports if rep.flippable and rep.baseline_rank <= 3)
    assert pt.ambiguity_top == top_exits / 3
    assert 0.0 <= pt.ambiguity_top <= 1.0
    assert pt.n_undetermined == 0


def test_budget_exhaustion_leaves_undetermined(rng):
    X = random_design(rng, 40, 4)
    y = rng.normal(size=40)
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, 1.0)
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
        ball = BallRegion(center=2.0 * unit, radius=radius)
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
            pr = screen_membership(ball, V)
            fast = flip_search(V, ball, kappa)
            slow = flip_search(V, ball, kappa, rank_mode="exact")
        else:
            pr = prune_never_top_multi(V)
            fast = flip_search_multi(V, kappa)
            slow = flip_search_multi(V, kappa, rank_mode="exact")
        for i, (f, s) in enumerate(zip(fast, slow)):
            assert f.flippable == s.flippable, (family, i)
            assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank
            at_edge += bool(s.flippable and pr.outer_max[i] == kappa + 1)
    assert at_edge == 20  # both rows of every crossing pair


def _one_question_instances(rng):
    """(family, rows, kappa, search): seeded balls, two- and three-target
    blends; ``rows`` maps rows to score coefficients."""
    for epsilon in (0.01, 0.03, 0.1) * 2:
        X = random_design(rng, 24, 3)
        y = rng.normal(size=24)
        model = fit_ols(X, y)
        ball = make_ball(model, X, y, epsilon)
        yield "ball", X, 6, lambda mode, X=X, ball=ball: flip_search(X, ball, 6, rank_mode=mode)
    for K in (2, 3):
        for _ in range(6):
            P = rng.normal(size=(20, K))
            yield "simplex", P, 5, lambda mode, P=P: flip_search_multi(P, 5, rank_mode=mode)


def _moves_across_the_cut(V, w, i, kappa, baseline_rank):
    """Whether scores ``V @ w`` put row i on the other side of the cut
    from its baseline rank, ties breaking in its favour."""
    if baseline_rank <= kappa:
        return rank_attained(V, w, i, "max", kappa + 1)
    return rank_attained(V, w, i, "min", kappa)


def test_status_mode_asks_one_question_per_row(rng, monkeypatch):
    """A certified row costs one verdict query in status mode: the max
    rank of a baseline-top row, the min rank of any other, decided against
    kappa. That side is an outer bound of exact mode's on the same side of
    kappa, the other field bounds it from outside, a flip witness moves
    its row across the cut, and every verdict and stable set is exact
    mode's. Witnesses may differ from exact mode's: a verdict query stops
    at the first incumbent across the cut."""
    calls = []
    original = rashomon_single.solve

    def recording(inst, config=None):
        calls.append((inst.focal, inst.sense, inst.kappa))
        return original(inst, config)

    monkeypatch.setattr(rashomon_single, "solve", recording)
    senses = set()
    for family, V, kappa, search in _one_question_instances(rng):
        slow = search("exact")
        calls.clear()
        fast = search("status")
        want = []
        for i, (f, s) in enumerate(zip(fast, slow)):
            assert s.method == "mip_certified"
            assert (f.flippable, f.witness_kind) == (s.flippable, s.witness_kind)
            assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank
            if f.method == "mip_certified":
                sense = "max" if f.baseline_rank <= kappa else "min"
                want.append((i, sense, kappa))
                senses.add(sense)
                if sense == "max":
                    assert (f.max_rank > kappa) == (s.max_rank > kappa) == f.flippable
                else:
                    assert (f.min_rank <= kappa) == (s.min_rank <= kappa) == f.flippable
            if f.flippable:
                assert _moves_across_the_cut(V, f.witness, i, kappa, f.baseline_rank), (family, i)
        assert calls == want
        tag = "rashomon" if family == "ball" else "index"
        a, b = stable_points(fast, kappa, tag), stable_points(slow, kappa, tag)
        assert (a.stable_selected, a.stable_unselected, a.undetermined) == (
            b.stable_selected, b.stable_unselected, b.undetermined
        )
    assert senses == {"min", "max"}


@pytest.mark.parametrize("family", ["ball", "simplex"])
def test_stopped_exact_search_keeps_its_flip_witness(family, rng):
    """An exact-mode row whose search stops short but holds an incumbent
    across the cut is flippable, and that incumbent is its witness."""
    cfg = SolverConfig(node_budget=8)
    if family == "ball":
        V = random_design(rng, 30, 3)
        y = rng.normal(size=30)
        ball = make_ball(fit_ols(V, y), V, y, 0.3)
        reports = flip_search(V, ball, 6, rank_mode="exact", config=cfg)
    else:
        V = rng.normal(size=(30, 3))
        reports = flip_search_multi(V, 6, rank_mode="exact", config=cfg)
    stopped = [i for i, r in enumerate(reports) if r.method == "undetermined" and r.flippable]
    assert stopped
    for i in stopped:
        rep = reports[i]
        assert rep.witness_kind == ("coef" if family == "ball" else "alpha")
        assert _moves_across_the_cut(V, rep.witness, i, 6, rep.baseline_rank), i


def _tie_heavy_certify_args(rng, family, n, kappa):
    """``_certify_rows`` arguments on one-decimal rows, a quarter of them
    duplicated."""
    dim = int(rng.integers(2, 5 if family == "ball" else 4))
    V = np.round(rng.normal(size=(n, dim)), 1)
    V[rng.permutation(n)[: n // 4]] = V[rng.integers(0, n, size=n // 4)]
    if family == "ball":
        center = np.round(rng.normal(size=dim), 1)
        radius = float(rng.choice([0.0, 0.2, 0.6]))
        region = BallRegion(center=center, radius=radius)
        baseline, pool = center, witness_pool(V, center, radius)
    else:
        region = SimplexRegion(dim=dim)
        baseline, pool = np.full(dim, 1.0 / dim), witness_pool_alphas(dim)
    return V, region, baseline, screen_membership(region, V), pool, kappa


class _UnfixedScreen(PruneResult):
    """The screen's outer bounds with no row's membership fixed."""

    def never_top(self, kappa):
        return np.zeros(self.outer_min.shape, dtype=bool)

    always_top = never_top


@pytest.mark.parametrize("family", ["ball", "simplex"])
def test_open_row_envelope_matches_the_full_envelope(family, rng, monkeypatch):
    """Status mode ranks only the rows the screen leaves open, with kappa
    reduced by the always-top count. Every open row's report equals that
    of a run which ranks all rows under every pool column with the
    per-column reference ranking, also where the always-top rows leave no
    room."""
    partly_open = no_room = 0
    for n in (1, 7, 18, 31):
        for kappa in sorted({1, max(1, n // 7), n}):
            for _ in range(3):
                args = _tie_heavy_certify_args(rng, family, n, kappa)
                V, region, baseline, prune, pool, kappa = args
                got = _certify_rows(*args, None, "status", None)
                with monkeypatch.context() as m:
                    m.setattr(
                        rashomon_single,
                        "_pool_rank_envelope",
                        lambda X, pool, kappa, in_top: _envelope_by_column(X, pool, kappa, in_top),
                    )
                    unfixed = _UnfixedScreen(prune.outer_min, prune.outer_max)
                    full = _certify_rows(
                        V, region, baseline, unfixed, pool, kappa, None, "status", None
                    )
                fixed = prune.never_top(kappa) | prune.always_top(kappa)
                assert all(got[i].method == "pruned_unflippable" for i in np.flatnonzero(fixed))
                open_rows = np.flatnonzero(~fixed)
                assert_reports_equal([got[i] for i in open_rows], [full[i] for i in open_rows])
                partly_open += 0 < open_rows.size < n
                no_room += kappa == np.count_nonzero(prune.always_top(kappa))
    assert partly_open >= 5 and no_room > 0


def _count_envelope_calls(monkeypatch):
    calls = []
    original = rashomon_single._pool_rank_envelope

    def counting(V, pool, kappa, in_top):
        calls.append(V.shape[0])
        return original(V, pool, kappa, in_top)

    monkeypatch.setattr(rashomon_single, "_pool_rank_envelope", counting)
    return calls


def test_exact_mode_forms_no_envelope(rng, monkeypatch):
    """Only status mode reads the pool columns: exact mode skips the
    envelope, status mode forms it once per search, over the open rows."""
    calls = _count_envelope_calls(monkeypatch)
    X = random_design(rng, 30, 3)
    y = X @ np.array([0.0, 2.0, -1.0]) + rng.normal(size=30)
    ball = make_ball(fit_ols(X, y), X, y, 0.05)
    P = rng.normal(size=(20, 3))
    searches = [
        (lambda mode: flip_search(X, ball, 6, rank_mode=mode), screen_membership(ball, X), 6),
        (lambda mode: flip_search_multi(P, 5, rank_mode=mode), prune_never_top_multi(P), 5),
    ]
    for search, prune, kappa in searches:
        search("exact")
        assert calls == []
        search("status")
        search("status")
        n_open = int(np.count_nonzero(~(prune.never_top(kappa) | prune.always_top(kappa))))
        assert 0 < n_open < prune.outer_min.shape[0]
        assert calls == [n_open, n_open]
        calls.clear()
