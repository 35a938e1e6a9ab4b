import numpy as np
import pytest

from topkflip.index_model import (
    build_ensemble,
    flip_search_multi,
    prune_never_top_multi,
    witness_pool_alphas,
)
from topkflip.linear_fit import fit_on_rows
from topkflip.oracle import simplex_sweep_k2, simplex_sweep_k3
from topkflip.ranking import rank_descending


def _random_preds(rng, n, K):
    return rng.normal(size=(n, K))


def test_ensemble_zscores_on_the_reference_rows(rng):
    X_tr = rng.normal(size=(50, 3))
    Y_tr = rng.normal(5.0, 2.0, size=(50, 3))
    ens = build_ensemble(X_tr, Y_tr, X_tr, target_names=("a", "b", "c"))
    raw = np.column_stack([X_tr @ w for w in ens.models])
    np.testing.assert_array_equal(ens.means, raw.mean(axis=0))
    np.testing.assert_array_equal(ens.sds, raw.std(axis=0))
    Z = ens.predictions(X_tr)
    np.testing.assert_array_equal(Z, (raw - ens.means) / ens.sds)
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_ensemble_refuses_constant_predictions(rng):
    X = np.column_stack([np.ones(20), rng.normal(size=20)])
    Y = np.column_stack([rng.normal(size=20), np.full(20, 3.0)])
    with pytest.raises(ValueError, match="'flatline' has zero-variance predictions"):
        build_ensemble(X, Y, X, target_names=("ok", "flatline"))


def test_ensemble_freezes_scaling_on_reference(rng):
    X_tr = rng.normal(size=(60, 3))
    Y_tr = rng.normal(size=(60, 2))
    X_ref = rng.normal(size=(40, 3))
    ens = build_ensemble(X_tr, Y_tr, X_ref, target_names=("u", "v"))
    Z_ref = ens.predictions(X_ref)
    np.testing.assert_allclose(Z_ref.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(Z_ref.std(axis=0), 1.0, atol=1e-10)
    # other rows are scaled by the same frozen parameters, not their own
    Z_new = ens.predictions(X_tr)
    assert abs(float(Z_new.mean())) > 1e-6 or abs(float(Z_new.std() - 1.0)) > 1e-6


def test_index_variable_equals_blended_predictions(rng):
    # linearity of least squares: fit-then-blend == blend-then-fit
    X = rng.normal(size=(50, 4))
    Y = rng.normal(size=(50, 3))
    X_new = rng.normal(size=(20, 4))
    alpha = np.array([0.2, 0.5, 0.3])
    iv = fit_on_rows(X, Y @ alpha)
    ens = build_ensemble(X, Y, X, target_names=("a", "b", "c"))
    blended = np.column_stack([X_new @ w for w in ens.models]) @ alpha
    np.testing.assert_allclose(X_new @ iv, blended, atol=1e-8)


def test_screen_bounds_hold_at_dirichlet_blends(rng):
    P = _random_preds(rng, 12, 3)
    kappa = 4
    pr = prune_never_top_multi(P)
    for _ in range(200):
        ranks = rank_descending(P @ rng.dirichlet(np.ones(3)))
        assert np.all(pr.outer_min <= ranks) and np.all(ranks <= pr.outer_max)


def test_prune_multi_sound_against_sweep(rng):
    for _ in range(8):
        P = _random_preds(rng, 16, 2)
        kappa = 4
        pr = prune_never_top_multi(P)
        sweep = simplex_sweep_k2(P, kappa)
        for i in np.flatnonzero(pr.always_top(kappa)):
            assert sweep.max_ranks[i] <= kappa
        for i in np.flatnonzero(pr.never_top(kappa)):
            assert sweep.min_ranks[i] > kappa


def test_flip_search_multi_exact_equals_sweep(rng):
    P = _random_preds(rng, 20, 2)
    kappa = 5
    reports = flip_search_multi(P, kappa, rank_mode="exact")
    sweep = simplex_sweep_k2(P, kappa)
    for i, rep in enumerate(reports):
        assert rep.min_rank == int(sweep.min_ranks[i])
        assert rep.max_rank == int(sweep.max_ranks[i])
        assert rep.flippable == (rep.min_rank <= kappa < rep.max_rank)


@pytest.mark.parametrize("K", [2, 3])
def test_status_mode_matches_exact_verdicts(K, rng):
    """Status-mode staging over the simplex, on predictions with many exact
    ties: one-decimal values and duplicated rows."""
    kappa = 6
    seen_closed_form = 0
    for _ in range(8):
        base = np.round(rng.normal(size=(16, K)), 1)
        P = np.vstack([base, base[:6]])[rng.permutation(22)]
        fast = flip_search_multi(P, kappa)
        slow = flip_search_multi(P, kappa, rank_mode="exact")
        base_flags = rank_descending(P @ np.full(K, 1.0 / K)) <= kappa
        for i, (f, s) in enumerate(zip(fast, slow)):
            assert f.flippable == s.flippable
            # status-mode ranges are certified outer bounds
            assert f.min_rank <= s.min_rank and f.max_rank >= s.max_rank
            if f.method == "closed_form_flip":
                seen_closed_form += 1
                assert (rank_descending(P @ f.witness)[i] <= kappa) != base_flags[i]
    assert seen_closed_form > 0


@pytest.mark.parametrize("K", [2, 3])
def test_status_mode_matches_the_sweep(K):
    """Status-mode staging against the blend sweep on random predictions,
    half of them one-decimal with duplicated rows: every row is decided,
    its verdict is the sweep's, ``min <= kappa < max``, and its written
    range contains the sweep's extremes. Some rows reach the verdict
    search, so this checks that search's bounds as well as the screen's
    and the pool's."""
    rng = np.random.default_rng(31 + K)
    sweep_of = simplex_sweep_k2 if K == 2 else simplex_sweep_k3
    searched = 0
    for trial in range(12):
        n = int(rng.integers(10, 17))
        P = rng.normal(size=(n, K))
        if trial % 2:
            P = np.round(P, 1)
            P[rng.permutation(n)[:3]] = P[rng.integers(0, n, size=3)]
        kappa = int(rng.integers(2, n // 2 + 1))
        sweep = sweep_of(P, kappa)
        for i, rep in enumerate(flip_search_multi(P, kappa)):
            lo, hi = int(sweep.min_ranks[i]), int(sweep.max_ranks[i])
            where = (trial, i, rep.method)
            assert rep.min_rank <= lo and hi <= rep.max_rank, where
            assert rep.flippable is not None, where
            assert rep.flippable == (lo <= kappa < hi), where
            searched += rep.method == "mip_certified"
    assert searched > 0


def test_identical_targets_pin_every_rank(rng):
    col = rng.normal(size=25)
    P = np.column_stack([col, col, col])
    reports = flip_search_multi(P, 6, rank_mode="exact")
    assert not any(rep.flippable for rep in reports)
    for rep in reports:
        assert rep.min_rank == rep.max_rank


def test_alpha_witnesses_on_simplex(rng):
    P = _random_preds(rng, 18, 3)
    reports = flip_search_multi(P, 5)
    for rep in reports:
        if rep.witness_kind == "alpha":
            a = rep.witness
            assert np.all(a >= -1e-9)
            assert float(a.sum()) == pytest.approx(1.0, abs=1e-6)


def test_witness_pool_covers_vertices_and_uniform():
    pool = witness_pool_alphas(3)
    rows = {tuple(np.round(r, 6)) for r in pool}
    assert (1.0, 0.0, 0.0) in rows
    assert tuple(np.round([1 / 3] * 3, 6)) in rows
    assert all(abs(float(r.sum()) - 1.0) < 1e-9 for r in pool)


def test_ambiguity_multi_counts(rng):
    """Status mode flags the same rows flippable as the exact ranges do."""
    P = _random_preds(rng, 30, 2)
    flips = [r.row_id for r in flip_search_multi(P, 8) if r.flippable]
    exact = flip_search_multi(P, 8, rank_mode="exact")
    assert flips == [r.row_id for r in exact if r.min_rank <= 8 < r.max_rank]
    assert 0 < len(flips) < 30
