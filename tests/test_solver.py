"""Direct exercises of the branch-and-bound core.

Tiny instances are checked against dense parameter sampling, which is an
independent (if only probabilistic) route to the same extremes; the
exact-oracle comparisons live with the acceptance checks.
"""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from topkflip import solver
from topkflip.index_model import prune_never_top_multi
from topkflip.oracle import angle_sweep_single
from topkflip.ranking import rank_descending
from topkflip.rashomon_single import _pool_rank_envelope, prune_unflippable, witness_pool
from topkflip.solver import (
    SCREEN_BLOCK,
    BallRegion,
    MipInstance,
    SimplexRegion,
    SolverConfig,
    dump_instance,
    group_query,
    load_instance,
    rank_query,
    screen_membership,
    solve,
)

from conftest import random_design


def _sampled_rank_range(V, centers, focal, kappa=None):
    """Realized rank extremes of one row over a parameter sample."""
    lo, hi = 10**9, -(10**9)
    for w in centers:
        r = int(rank_descending(V @ w, V.shape[0]).ranks[focal])
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


def _ball_sample(center, radius, rng, m=4000):
    d = center.shape[0]
    u = rng.normal(size=(m, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    scale = rng.random(m) ** (1.0 / d)
    return center + radius * (u * scale[:, None])


def test_rank_query_brackets_sampled_ranks(rng):
    V = random_design(rng, 12, 3)
    center = rng.normal(size=3)
    region = BallRegion(center=center, radius=0.4)
    sample = _ball_sample(center, 0.4, rng)
    for focal in (0, 5, 11):
        lo = solve(rank_query("min", region, V, focal)).value
        hi = solve(rank_query("max", region, V, focal)).value
        slo, shi = _sampled_rank_range(V, sample, focal)
        assert lo <= slo and hi >= shi
        # sampling nearly saturates the range on instances this small
        assert slo - lo <= 1 and hi - shi <= 1


def test_rank_query_witness_realizes_value(rng):
    V = random_design(rng, 10, 3)
    region = BallRegion(center=rng.normal(size=3), radius=0.3)
    for sense in ("min", "max"):
        sol = solve(rank_query(sense, region, V, 4))
        assert sol.status == "optimal"
        realized = int(rank_descending(V @ sol.witness, 10).ranks[4])
        if sense == "min":
            assert realized <= sol.value  # optimistic tie counting
        else:
            assert realized >= sol.value or realized == sol.value
        # witness stays inside the region
        assert np.linalg.norm(sol.witness - region.center) <= region.radius + 1e-9


def test_group_query_over_simplex_matches_dense_grid(rng):
    n, K = 14, 2
    P = rng.normal(size=(n, K))
    mask = np.zeros(n, dtype=bool)
    mask[[1, 3, 4, 8, 13]] = True
    kappa = 5
    region = SimplexRegion(dim=K)
    counts = []
    for t in np.linspace(0.0, 1.0, 4001):
        flags = rank_descending(P @ np.array([t, 1 - t]), kappa).top_flags
        counts.append(int(np.count_nonzero(flags & mask)))
    gmin = solve(group_query("min", region, P, np.flatnonzero(mask), kappa))
    gmax = solve(group_query("max", region, P, np.flatnonzero(mask), kappa))
    assert gmin.value <= min(counts)
    assert gmax.value >= max(counts)
    assert gmax.value - max(counts) <= 1 and min(counts) - gmin.value <= 1


def _unreduced_group_query(sense, region, V, group_rows, kappa):
    """Group-count instance with every pair that touches a group row and no
    presolve: the formulation the reduced builder must agree with."""
    n = V.shape[0]
    in_group = np.zeros(n, dtype=bool)
    in_group[list(group_rows)] = True
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if in_group[a] or in_group[b]]
    above = np.array([a for a, _ in pairs], dtype=np.int64)
    below = np.array([b for _, b in pairs], dtype=np.int64)
    return MipInstance(
        sense=sense,
        objective="group_count",
        region=region,
        gaps=V[above] - V[below],
        above=above,
        below=below,
        n_rows=n,
        group_rows=tuple(int(g) for g in group_rows),
        kappa=int(kappa),
    )


@pytest.mark.parametrize("family", ["simplex2", "simplex3", "ball"])
def test_group_presolve_matches_unreduced_instance(family, rng):
    """The settled-membership reduction keeps (status, value) on both sides,
    with and without exact ties."""
    reduced_some = 0
    for trial in range(60):
        n = int(rng.integers(6, 11) if family == "ball" else rng.integers(8, 15))
        if family == "ball":
            d = int(rng.integers(2, 4))
            V = random_design(rng, n, d)
            region = BallRegion(center=rng.normal(size=d), radius=float(rng.uniform(0.1, 0.8)))
        else:
            K = 2 if family == "simplex2" else 3
            V = rng.normal(size=(n, K))
            region = SimplexRegion(dim=K)
        if trial % 2:
            V = np.round(V, 1)  # exact ties between rows and across targets
        kappa = int(rng.integers(1, n // 2 + 1))
        group = np.flatnonzero(rng.random(n) < 0.4)
        for sense in ("min", "max"):
            reduced = group_query(sense, region, V, group, kappa)
            full = _unreduced_group_query(sense, region, V, group, kappa)
            a, b = solve(reduced), solve(full)
            assert (a.status, a.value) == (b.status, b.value), (family, trial, sense)
            reduced_some += reduced.gaps.shape[0] < full.gaps.shape[0]
    assert reduced_some  # the presolve really dropped pairs


def _two_column_ball_solves():
    """Every rank extreme of the seed-2 and seed-3 two-column ball
    instances, checked against the angle sweep; every witness lies in the
    ball. Returns the total node count and the number of solves."""
    nodes = solves = 0
    for seed, radius in ((2, 1.0), (3, 0.6)):
        rng = np.random.default_rng(seed)
        V = random_design(rng, 16, 2)
        center = rng.normal(size=2)
        region = BallRegion(center=center, radius=radius)
        lo, hi = angle_sweep_single(V, center, radius)
        for focal in range(V.shape[0]):
            for sense, want in (("min", lo), ("max", hi)):
                sol = solve(rank_query(sense, region, V, focal))
                assert sol.status == "optimal"
                assert sol.value == int(want[focal]), (seed, focal, sense)
                assert np.linalg.norm(sol.witness - center) <= radius + 1e-10
                nodes += sol.nodes
                solves += 1
    return nodes, solves


def _counting(monkeypatch, name):
    """Wrap ``solver.<name>`` so each call is recorded before it runs."""
    calls = []
    target = getattr(solver, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return target(*args, **kwargs)

    monkeypatch.setattr(solver, name, counting)
    return calls


def test_ball_children_inherit_the_parent_witness(monkeypatch):
    """A child that its parent's certified witness already satisfies skips
    the projection, so far fewer than one projection per non-root node
    runs, with ranks unchanged and every witness inside the ball."""
    calls = _counting(monkeypatch, "nnls")
    nodes, solves = _two_column_ball_solves()
    assert nodes > 10 * solves  # the searches really branch
    assert len(calls) < 0.75 * nodes


def _nnls_hits_its_cap(A, b):
    raise RuntimeError("Maximum number of iterations reached.")


def _nnls_certifies_nothing(A, b):
    return np.zeros(A.shape[1]), float(np.linalg.norm(b))


@pytest.mark.parametrize("broken", [_nnls_hits_its_cap, _nnls_certifies_nothing])
def test_ball_projection_falls_back_to_bvls(broken, monkeypatch):
    """When NNLS stops at its iteration cap, or returns multipliers that
    certify neither side, BVLS settles the node and the ranks stay exact."""
    monkeypatch.setattr(solver, "nnls", broken)
    calls = _counting(monkeypatch, "lsq_linear")
    _two_column_ball_solves()
    assert calls


def test_zero_radius_ball_pins_the_center_ranking(rng):
    V = random_design(rng, 9, 2)
    center = rng.normal(size=2)
    region = BallRegion(center=center, radius=0.0)
    base = rank_descending(V @ center, 9).ranks
    for focal in range(9):
        lo = solve(rank_query("min", region, V, focal)).value
        hi = solve(rank_query("max", region, V, focal)).value
        assert lo <= base[focal] <= hi
        assert hi - lo <= 1  # only exact ties can move a degenerate ball's rank


def test_budget_exhaustion_reports_bounds(rng):
    V = random_design(rng, 30, 4)
    region = BallRegion(center=rng.normal(size=4), radius=1.0)
    sol = solve(rank_query("min", region, V, 7), SolverConfig(node_budget=2))
    assert sol.status == "budget_exhausted"
    assert sol.bound is not None
    full = solve(rank_query("min", region, V, 7))
    assert full.status == "optimal"
    assert sol.bound <= full.value
    if sol.value is not None:  # incumbent, if any, is achievable
        assert sol.value >= full.value


def test_determinism(rng):
    V = random_design(rng, 16, 3)
    region = BallRegion(center=rng.normal(size=3), radius=0.6)
    a = solve(rank_query("max", region, V, 3))
    b = solve(rank_query("max", region, V, 3))
    assert a.value == b.value and a.nodes == b.nodes
    np.testing.assert_array_equal(a.witness, b.witness)


def test_instance_round_trip(tmp_path, rng):
    V = random_design(rng, 8, 3)
    inst = rank_query("min", BallRegion(center=rng.normal(size=3), radius=0.5), V, 2)
    p = tmp_path / "inst.json"
    dump_instance(inst, p)
    back = load_instance(p)
    assert back.sense == inst.sense and back.objective == inst.objective
    np.testing.assert_allclose(back.gaps, inst.gaps)
    assert solve(back).value == solve(inst).value

    sim = group_query("max", SimplexRegion(dim=3), rng.normal(size=(7, 3)), [0, 2], 3)
    dump_instance(sim, p)
    again = load_instance(p)
    assert solve(again).value == solve(sim).value

    # Older dumps also carry a blend-total lower edge and per-pair link
    # constants; loading ignores them.
    doc = json.loads(p.read_text())
    doc["region"]["sum_lower"] = 0.1
    for pair in doc["pairs"]:
        pair["big_m_above"] = pair["big_m_below"] = 1.0
    p.write_text(json.dumps(doc))
    legacy = load_instance(p)
    assert legacy.region == sim.region
    np.testing.assert_array_equal(legacy.gaps, sim.gaps)
    assert solve(legacy).value == solve(sim).value


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SolverConfig(node_budget=0)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=-1.0)


def _dense_gap_sup(region, V):
    """Reference: the whole matrix of region suprema of score(i) - score(j),
    formed at once as the dense ball and simplex screens did."""
    if isinstance(region, BallRegion):
        scores = V @ region.center
        return scores[:, None] - scores[None, :] + region.radius * cdist(V, V)
    diffs = V[:, None, :] - V[None, :, :]
    return diffs.max(axis=2)


def _dense_prune(sup_gap, kappa):
    """Reference: outer rank bounds from a dense suprema matrix, with the
    tolerance scaled by its largest entry."""
    n = sup_gap.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(sup_gap))))
    strictly_below = sup_gap < -tol
    outer_min = 1 + strictly_below.sum(axis=1).astype(np.int64)
    outer_max = (n - strictly_below.sum(axis=0)).astype(np.int64)
    return outer_min > kappa, outer_max <= kappa, outer_min, outer_max


@pytest.mark.parametrize(
    "n", [1, SCREEN_BLOCK - 1, SCREEN_BLOCK, SCREEN_BLOCK + 1, 2 * SCREEN_BLOCK + 1]
)
def test_blockwise_screen_matches_the_dense_screen(n, rng):
    """Same bounds as the dense screens across block edges, on rows with
    one-decimal ties and duplicates, and the group-count builder keeps
    exactly the pairs touching a changeable group row, in (a, b) order."""
    regions = [
        BallRegion(center=rng.normal(size=3), radius=0.0),
        BallRegion(center=rng.normal(size=3), radius=0.3),
        SimplexRegion(dim=2),
        SimplexRegion(dim=3),
        SimplexRegion(dim=5),
    ]
    for region in regions:
        dim = region.dim
        V = np.round(rng.normal(size=(n, dim)), 1)
        V[rng.permutation(n)[: n // 4]] = V[rng.integers(0, n, size=n // 4)]
        sup = _dense_gap_sup(region, V)
        for kappa in sorted({1, max(1, n // 7), n}):
            got = screen_membership(region, V, kappa)
            want = _dense_prune(sup, kappa)
            for name, w in zip(("never_top", "always_top", "outer_min", "outer_max"), want):
                g = getattr(got, name)
                assert g.dtype == w.dtype and np.array_equal(g, w), (region, n, kappa, name)

            group = np.flatnonzero(rng.random(n) < 0.3)
            inst = group_query("max", region, V, group, kappa)
            changeable = np.zeros(n, dtype=bool)
            changeable[group] = True
            changeable &= ~(want[0] | want[1])
            above, below = np.nonzero(np.triu(changeable[:, None] | changeable[None, :], k=1))
            assert np.array_equal(inst.above, above) and np.array_equal(inst.below, below)
            assert np.array_equal(inst.gaps, V[above] - V[below])
            assert inst.group_rows == tuple(int(g) for g in group if not want[0][g])


def test_screen_memory_stays_linear_in_rows():
    """Cohort-sized screens run in row blocks: the dense (n, n, K) tensor
    for 12,000 rows and 3 targets alone would take about 3.5 GB."""
    rng = np.random.default_rng(5)
    n = 12_000
    P = rng.normal(size=(n, 3))
    X = rng.normal(size=(n, 11))
    center = rng.normal(size=11)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        multi = prune_never_top_multi(P, 360)
        _, peak_multi = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        single = prune_unflippable(X, center, 0.05, 360)
        _, peak_single = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert multi.outer_min.shape == single.outer_max.shape == (n,)
    assert peak_multi < 100e6 and peak_single < 100e6, (peak_multi, peak_single)


def test_pool_envelope_memory_stays_linear_in_rows():
    """The envelope forms scores one pool block at a time: the whole
    10,000 x 20,001 score matrix of a cohort-sized ball pool alone would
    take 1.6 GB."""
    rng = np.random.default_rng(6)
    n = 10_000
    X = rng.normal(size=(n, 11))
    pool = witness_pool(X, rng.normal(size=11), 0.05)
    assert pool.shape == (2 * n + 1, 11)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        enter, exit_ = _pool_rank_envelope(X, pool, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enter.shape == exit_.shape == (n,)
    assert peak < 100e6, peak


def _pinned_grid():
    """Fixed seeded instances over every geometry, both objectives and both
    senses; odd cases use one-decimal rows with duplicates, so exact ties
    and wild pairs (identical score vectors) occur."""
    for case, family in enumerate(("ball", "ball", "interval", "interval", "polygon", "polygon", "lp", "lp")):
        rng = np.random.default_rng(100 + case)
        if family == "ball":
            n, d = 12, 2 + case % 2
            V = random_design(rng, n, d)
            region = BallRegion(center=rng.normal(size=d), radius=float(rng.uniform(0.5, 1.0)))
        else:
            K = {"interval": 2, "polygon": 3, "lp": 4}[family]
            n = 9 if family == "lp" else 16
            V = rng.normal(size=(n, K))
            region = SimplexRegion(dim=K)
        if case % 2:
            V = np.round(V, 1)
            V[rng.permutation(n)[:3]] = V[rng.integers(0, n, size=3)]
        kappa = int(rng.integers(2, n // 2 + 1))
        group = np.flatnonzero(rng.random(n) < 0.4)
        focal = int(rng.integers(0, n))
        for sense in ("min", "max"):
            yield (case, family, "rank", sense), rank_query(sense, region, V, focal)
            yield (case, family, "group", sense), group_query(sense, region, V, group, kappa)


# (status, value, bound, nodes, presolve_fixed, free_pairs) per grid case.
PINNED_SEARCH = {
    (0, 'ball', 'rank', 'min'): ('optimal', 1, 1, 23, 0, 11),
    (0, 'ball', 'group', 'min'): ('optimal', 0, 0, 91, 0, 56),
    (0, 'ball', 'rank', 'max'): ('optimal', 12, 12, 23, 0, 11),
    (0, 'ball', 'group', 'max'): ('optimal', 7, 7, 169, 0, 56),
    (1, 'ball', 'rank', 'min'): ('optimal', 1, 1, 23, 0, 11),
    (1, 'ball', 'group', 'min'): ('budget_exhausted', 1, 0, 300, 6, 15),
    (1, 'ball', 'rank', 'max'): ('optimal', 12, 12, 17, 0, 11),
    (1, 'ball', 'group', 'max'): ('optimal', 1, 1, 25, 6, 15),
    (2, 'interval', 'rank', 'min'): ('optimal', 2, 2, 3, 10, 5),
    (2, 'interval', 'group', 'min'): ('optimal', 4, 4, 71, 40, 44),
    (2, 'interval', 'rank', 'max'): ('optimal', 4, 4, 9, 10, 5),
    (2, 'interval', 'group', 'max'): ('optimal', 4, 4, 71, 40, 44),
    (3, 'interval', 'rank', 'min'): ('optimal', 4, 4, 9, 8, 7),
    (3, 'interval', 'group', 'min'): ('optimal', 1, 1, 45, 32, 43),
    (3, 'interval', 'rank', 'max'): ('optimal', 6, 6, 7, 8, 7),
    (3, 'interval', 'group', 'max'): ('optimal', 2, 2, 63, 32, 43),
    (4, 'polygon', 'rank', 'min'): ('optimal', 5, 5, 19, 3, 12),
    (4, 'polygon', 'group', 'min'): ('optimal', 0, 0, 5, 9, 45),
    (4, 'polygon', 'rank', 'max'): ('optimal', 16, 16, 9, 3, 12),
    (4, 'polygon', 'group', 'max'): ('optimal', 2, 2, 59, 9, 45),
    (5, 'polygon', 'rank', 'min'): ('optimal', 5, 5, 19, 5, 10),
    (5, 'polygon', 'group', 'min'): ('budget_exhausted', 3, 0, 300, 23, 76),
    (5, 'polygon', 'rank', 'max'): ('optimal', 11, 11, 17, 5, 10),
    (5, 'polygon', 'group', 'max'): ('budget_exhausted', 5, 9, 300, 23, 76),
    (6, 'lp', 'rank', 'min'): ('optimal', 1, 1, 1, 0, 8),
    (6, 'lp', 'group', 'min'): ('budget_exhausted', 1, 0, 300, 3, 18),
    (6, 'lp', 'rank', 'max'): ('optimal', 9, 9, 7, 0, 8),
    (6, 'lp', 'group', 'max'): ('optimal', 3, 3, 5, 3, 18),
    (7, 'lp', 'rank', 'min'): ('optimal', 1, 1, 9, 0, 8),
    (7, 'lp', 'group', 'min'): ('optimal', 0, 0, 1, 0, 30),
    (7, 'lp', 'rank', 'max'): ('optimal', 8, 8, 17, 0, 8),
    (7, 'lp', 'group', 'max'): ('budget_exhausted', 2, 5, 300, 0, 30),
}


def test_search_counters_are_pinned():
    """Node order, bounds and presolve counts of the search stay fixed."""
    cfg = SolverConfig(node_budget=300, time_budget=1e9)
    got = {}
    for key, inst in _pinned_grid():
        s = solve(inst, cfg)
        got[key] = (s.status, s.value, s.bound, s.nodes, s.presolve_fixed, s.free_pairs)
    assert got == PINNED_SEARCH


def test_repeated_group_rows_solve_like_distinct_ones(rng):
    """A group row listed twice still counts once: every solution field
    matches the de-duplicated query."""
    cfg = SolverConfig(node_budget=300, time_budget=1e9)
    for trial in range(20):
        n, K = int(rng.integers(8, 13)), 2 + trial % 2
        V = rng.normal(size=(n, K))
        if trial % 4 >= 2:
            V = np.round(V, 1)
        group = np.flatnonzero(rng.random(n) < 0.5)
        repeated = np.concatenate([group, group[: 1 + trial % 3]])
        kappa = int(rng.integers(1, n // 2 + 1))
        for sense in ("min", "max"):
            a = solve(group_query(sense, SimplexRegion(dim=K), V, group, kappa), cfg)
            b = solve(group_query(sense, SimplexRegion(dim=K), V, repeated, kappa), cfg)
            assert (a.status, a.value, a.bound, a.nodes, a.presolve_fixed, a.free_pairs) == (
                b.status, b.value, b.bound, b.nodes, b.presolve_fixed, b.free_pairs
            ), (trial, sense)
            np.testing.assert_array_equal(a.witness, b.witness)
