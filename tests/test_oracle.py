"""The low-dimensional oracles are the ground truth the solver is audited
against, so they get their own independent check: dense brute force over
the parameter space, which can only under-cover extremes, never invent
them."""

import itertools

import numpy as np
import pytest

from topkflip.oracle import (
    angle_sweep_single,
    group_count_range,
    simplex_sweep_k2,
    simplex_sweep_k3,
)
from topkflip.ranking import rank_descending

from conftest import random_design


def _brute_ranks_ball(X, center, radius, m=20000, rng=None):
    rng = rng or np.random.default_rng(99)
    n = X.shape[0]
    lo = np.full(n, n + 1, dtype=int)
    hi = np.zeros(n, dtype=int)
    thetas = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    # extremes live on the boundary circle; interior adds nothing for ranks
    for t in thetas:
        w = center + radius * np.array([np.cos(t), np.sin(t)])
        r = rank_descending(X @ w)
        lo = np.minimum(lo, r)
        hi = np.maximum(hi, r)
    r0 = rank_descending(X @ center)
    return np.minimum(lo, r0), np.maximum(hi, r0)


def test_angle_sweep_contains_center_ranks(rng):
    X = random_design(rng, 15, 2)
    center = rng.normal(size=2)
    lo, hi = angle_sweep_single(X, center, 0.4)
    base = rank_descending(X @ center)
    assert np.all(lo <= base) and np.all(base <= hi)


def test_angle_sweep_brackets_dense_boundary_grid(rng):
    """Soundness direction only. The sweep counts ties optimistically, so
    near tie-line crossings it reaches ranks a deterministic-tie-break
    grid cannot realize; tightness is audited by the independent MIP
    route instead."""
    for trial in range(5):
        X = random_design(rng, 12, 2)
        center = rng.normal(size=2)
        radius = 0.2 + 0.3 * trial / 4
        lo, hi = angle_sweep_single(X, center, radius)
        blo, bhi = _brute_ranks_ball(X, center, radius)
        assert np.all(lo <= blo) and np.all(hi >= bhi)


def test_ball_containing_origin_ties_everything(rng):
    # at w = 0 all scores coincide; optimistically everyone can be first,
    # pessimistically everyone can be last
    X = random_design(rng, 10, 2)
    center = rng.normal(size=2)
    center *= 0.1 / np.linalg.norm(center)
    lo, hi = angle_sweep_single(X, center, 0.5)
    assert np.all(lo == 1)
    assert np.all(hi == 10)


def test_angle_sweep_zero_radius(rng):
    X = random_design(rng, 10, 2)
    center = rng.normal(size=2)
    lo, hi = angle_sweep_single(X, center, 0.0)
    base = rank_descending(X @ center)
    np.testing.assert_array_equal(lo, base)
    np.testing.assert_array_equal(hi, base)


def test_angle_sweep_rejects_wrong_width(rng):
    with pytest.raises(ValueError):
        angle_sweep_single(rng.normal(size=(8, 3)), rng.normal(size=3), 0.5)


def test_simplex_sweep_vs_dense_grid(rng):
    for _ in range(5):
        P = rng.normal(size=(14, 2))
        kappa = 4
        sweep = simplex_sweep_k2(P, kappa)
        n = P.shape[0]
        lo = np.full(n, n + 1, dtype=int)
        hi = np.zeros(n, dtype=int)
        for t in np.linspace(0.0, 1.0, 8001):
            r = rank_descending(P @ np.array([t, 1 - t]))
            lo = np.minimum(lo, r)
            hi = np.maximum(hi, r)
        assert np.all(sweep.min_ranks <= lo) and np.all(sweep.max_ranks >= hi)
        assert np.max(lo - sweep.min_ranks) <= 1
        assert np.max(sweep.max_ranks - hi) <= 1


def test_simplex_sweep_group_counts(rng):
    P = rng.normal(size=(16, 2))
    mask = np.zeros(16, dtype=bool)
    mask[::3] = True
    sweep = simplex_sweep_k2(P, 5, group_mask=mask)
    counts = set()
    for t in np.linspace(0.0, 1.0, 8001):
        flags = rank_descending(P @ np.array([t, 1 - t])) <= 5
        counts.add(int(np.count_nonzero(flags & mask)))
    assert sweep.group_min <= min(counts)
    assert sweep.group_max >= max(counts)
    assert sweep.group_max - max(counts) <= 1 and min(counts) - sweep.group_min <= 1


def test_simplex_sweep_vertices_are_included(rng):
    # t = 0 and t = 1 are the one-hot models; their ranks must be covered
    P = rng.normal(size=(12, 2))
    sweep = simplex_sweep_k2(P, 3)
    for col in (0, 1):
        r = rank_descending(P[:, col])
        assert np.all(sweep.min_ranks <= r) and np.all(r <= sweep.max_ranks)


def test_simplex_sweep_k3_reduces_to_k2_on_a_repeated_target(rng):
    # a third target equal to the first spans the same family of scorings
    for _ in range(4):
        P = rng.normal(size=(13, 2))
        mask = rng.random(13) < 0.4
        two = simplex_sweep_k2(P, 4, group_mask=mask)
        three = simplex_sweep_k3(np.column_stack([P, P[:, 0]]), 4, group_mask=mask)
        np.testing.assert_array_equal(three.min_ranks, two.min_ranks)
        np.testing.assert_array_equal(three.max_ranks, two.max_ranks)
        assert (three.group_min, three.group_max) == (two.group_min, two.group_max)


def test_simplex_sweep_k3_brackets_dirichlet_sample(rng):
    """Soundness direction only, as for the disc sweep: sampled blends can
    miss narrow cells and never see ties."""
    for _ in range(3):
        P = rng.normal(size=(12, 3))
        mask = rng.random(12) < 0.4
        sweep = simplex_sweep_k3(P, 4, group_mask=mask)
        lo = np.full(12, 13, dtype=int)
        hi = np.zeros(12, dtype=int)
        counts = set()
        for alpha in np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=4000)]):
            ranks = rank_descending(P @ alpha)
            lo = np.minimum(lo, ranks)
            hi = np.maximum(hi, ranks)
            counts.add(int(np.count_nonzero((ranks <= 4) & mask)))
        assert np.all(sweep.min_ranks <= lo) and np.all(sweep.max_ranks >= hi)
        assert sweep.group_min <= min(counts) and sweep.group_max >= max(counts)


def test_simplex_sweep_k3_rejects_wrong_width(rng):
    with pytest.raises(ValueError):
        simplex_sweep_k3(rng.normal(size=(6, 2)), 2)


def _tournament_losses(m):
    """Each row's in-class losses under every tournament on m rows: one
    row per tournament, 2^C(m, 2) of them."""
    pairs = list(itertools.combinations(range(m), 2))
    bits = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1  # 1: i wins
    losses = np.zeros((bits.shape[0], m), dtype=np.int64)
    for p, (i, j) in enumerate(pairs):
        losses[:, j] += bits[:, p]
        losses[:, i] += 1 - bits[:, p]
    return losses


def test_group_count_range_matches_tournament_enumeration():
    """One tie class of m rows, g of them in the group, between one row
    above and one below: the closed-form extremes equal the fewest and
    most group rows that lose at most a = kappa - 2 in-class comparisons,
    over every tournament on the class."""
    for m in range(1, 7):
        losses = _tournament_losses(m)
        scores = np.concatenate([[2.0], np.ones(m), [0.0]])
        for a in range(-1, m + 1):
            selected = losses <= a
            for g in range(m + 1):
                mask = np.zeros(m + 2, dtype=bool)
                mask[1 : g + 1] = True
                counts = selected[:, :g].sum(axis=1)
                expected = (int(counts.min()), int(counts.max()))
                assert group_count_range(scores, a + 2, mask, 0.0) == expected, (m, g, a)


def test_group_count_range_on_a_seventeen_row_tie():
    """All 17 rows tie, 9 of them in the group. At kappa 3 (a = 2) at most
    2a + 1 = 5 group rows fit; at kappa 15 (a = 14) at most
    2(m - a) - 3 = 3 group rows can miss the cut."""
    mask = np.zeros(17, dtype=bool)
    mask[::2] = True
    scores = np.full(17, 0.3)
    assert group_count_range(scores, 3, mask, 0.0) == (0, 5)
    assert group_count_range(scores, 15, mask, 0.0) == (6, 9)
    assert group_count_range(scores, 17, mask, 0.0) == (9, 9)
