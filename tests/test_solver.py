"""Direct exercises of the branch-and-bound core.

Tiny instances are checked against dense parameter sampling, which is an
independent (if only probabilistic) route to the same extremes; the
exact-oracle comparisons live with the acceptance checks.
"""

import decimal
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from topkflip import solver
from topkflip.index_model import prune_never_top_multi
from topkflip.oracle import angle_sweep_single, simplex_sweep_k2, simplex_sweep_k3
from topkflip.ranking import rank_descending
from topkflip.rashomon_single import _pool_rank_envelope, witness_pool
from topkflip.solver import (
    SCREEN_BLOCK,
    BallRegion,
    MipInstance,
    SimplexRegion,
    SolverConfig,
    group_query,
    rank_query,
    screen_ball,
    screen_membership,
    solve,
)

from conftest import fail_lps_after_the_first, random_design, rank_attained, stacked_design


def _sampled_rank_range(V, centers, focal, kappa=None):
    """Realized rank extremes of one row over a parameter sample."""
    lo, hi = 10**9, -(10**9)
    for w in centers:
        r = int(rank_descending(V @ w)[focal])
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
        realized = int(rank_descending(V @ sol.witness)[4])
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
        flags = rank_descending(P @ np.array([t, 1 - t])) <= kappa
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


@pytest.mark.parametrize("K", [2, 3])
def test_dropping_settled_pairs_keeps_group_counts_exact(K):
    """Small kappa and a large group share settle rows early in the search,
    so many open pairs join two settled rows and are dropped. Every side
    the search certifies equals the blend sweep's count."""
    rng = np.random.default_rng(230 + K)
    sweep_of = simplex_sweep_k2 if K == 2 else simplex_sweep_k3
    cfg = SolverConfig(node_budget=20_000, time_budget=1e9)
    certified = 0
    for trial in range(30):
        n = int(rng.integers(8, 13))
        P = rng.normal(size=(n, K))
        if trial % 2:
            P = np.round(P, 1)  # exact ties between rows and across targets
        kappa = int(rng.integers(1, 4))
        mask = rng.random(n) < 0.6
        sweep = sweep_of(P, kappa, group_mask=mask)
        for sense, want in (("min", sweep.group_min), ("max", sweep.group_max)):
            sol = solve(group_query(sense, SimplexRegion(dim=K), P, np.flatnonzero(mask), kappa), cfg)
            if sol.status == "optimal":
                assert sol.value == want, (trial, sense)
                certified += 1
    assert certified >= 50


@pytest.mark.parametrize("group, counts, nodes", [((3, 4), (0, 0), 1), ((1, 3, 4), (0, 1), 3)])
def test_pairs_between_settled_rows_are_never_branched(group, counts, nodes):
    """Row 0 tops both targets and rows 3 and 4 sit below every other row,
    so with kappa 2 group rows 3 and 4 are out at the root. Their crossing
    pair has the widest gap range and comes first in the branch order,
    but it cannot change the count. Without group row 1 it is the only
    free pair and the root is a leaf. With row 1, whose crossing with
    row 2 decides the count, only that pair is branched: the root and
    its two children, where branching on the settled pair first made
    five nodes for max."""
    P = np.array([[10.0, 10.0], [0.0, 1.0], [1.0, 0.0], [-6.0, -4.0], [-4.0, -6.0]])
    mask = np.isin(np.arange(5), group)
    sweep = simplex_sweep_k2(P, 2, group_mask=mask)
    assert (sweep.group_min, sweep.group_max) == counts
    for sense, want in zip(("min", "max"), counts):
        sol = solve(_unreduced_group_query(sense, SimplexRegion(dim=2), P, group, 2))
        assert (sol.status, sol.value, sol.bound, sol.nodes) == ("optimal", want, want, nodes), sense


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


def _nnls_hits_its_cap(A, b, start):
    raise RuntimeError("Maximum number of iterations reached.")


def _nnls_certifies_nothing(A, b, start):
    return np.zeros(A.shape[1]), float(np.linalg.norm(b))


@pytest.mark.parametrize("broken", [_nnls_hits_its_cap, _nnls_certifies_nothing])
def test_ball_projection_falls_back_to_bvls(broken, monkeypatch):
    """When NNLS stops at its iteration cap, or returns multipliers that
    certify neither side, BVLS settles the node and the ranks stay exact."""
    monkeypatch.setattr(solver, "nnls", broken)
    calls = _counting(monkeypatch, "lsq_linear")
    _two_column_ball_solves()
    assert calls


def _nnls_problems(rng):
    """Seeded NNLS problems at scales 1e-3 to 1e3: wide ones, and tall ones
    with more rows than columns; some repeat a column, some end in a zero
    column."""
    for trial in range(300):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 30))
        if trial % 2:
            m = n + int(rng.integers(1, 8))
        A = rng.normal(size=(m, n)) * 10.0 ** int(rng.integers(-3, 4))
        if n > 2 and trial % 3 == 0:
            A[:, 1] = A[:, 0]
        if trial % 5 == 0:
            A[:, -1] = 0.0
        yield A, rng.normal(size=m)


def test_nnls_matches_scipy(rng):
    """The NumPy Lawson-Hanson NNLS projects as SciPy's does, from a cold
    start and from any start: ``A @ x`` agrees within 1e-10 of the
    problem's scale ``| |b| + |A| x |``, which is ``|b|``'s order on the
    tall problems."""
    from scipy.optimize import nnls as scipy_nnls

    for A, b in _nnls_problems(rng):
        want, _ = scipy_nnls(A, b)
        scale = np.linalg.norm(np.abs(b) + np.abs(A) @ want)
        n = A.shape[1]
        some = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
        for start in ((), some, np.flatnonzero(want > 0).tolist()):
            x, rnorm = solver.nnls(A, b, start)
            assert x.shape == want.shape and (x >= 0).all()
            assert np.linalg.norm(A @ x - A @ want) <= 1e-10 * scale
            assert abs(rnorm - np.linalg.norm(A @ x - b)) <= 1e-12 * scale


def test_nnls_fails_only_with_runtime_error(monkeypatch):
    """Rank-deficient passive sets are never solved: a column dependent on
    the set is passed over, so singular problems still project, and what
    cannot be solved raises RuntimeError, the one error the ball's BVLS
    fallback catches, never LinAlgError."""
    from scipy.optimize import nnls as scipy_nnls

    b = np.array([1.0, 2.0, 3.0])
    rank_one = np.outer(np.array([1.0, 2.0, 2.5]), np.array([1.0, 2.0, 2.0, 3.0]))
    for A in (np.zeros((3, 4)), np.ones((3, 5)), rank_one, np.hstack([np.eye(3), np.eye(3)])):
        x, _ = solver.nnls(A, b, ())
        assert np.allclose(A @ x, A @ scipy_nnls(A, b)[0], rtol=0, atol=1e-12)
    # Four unit columns spanning the plane need more than one solve.
    A = np.array([[1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 1.0, 1.0]])
    monkeypatch.setattr(solver, "NNLS_SOLVES_PER_COLUMN", 0.25)
    with pytest.raises(RuntimeError):
        solver.nnls(A, np.array([1.0, 3.0]), ())


def _exact_cap_range(g, a, center, r):
    """The gap g's range over the ball around ``center`` of radius r cut by
    a . w <= 0, from the closed form evaluated in 50 decimal digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = [list(map(decimal.Decimal, map(float, v))) for v in (g, a, center)]
        g, a, c = D
        r = decimal.Decimal(float(r))

        def dot(u, v):
            return sum(x * y for x, y in zip(u, v))

        a_norm = dot(a, a).sqrt()
        b = -dot(a, c) / a_norm
        gamma = dot(g, a) / a_norm
        g_norm = dot(g, g).sqrt()
        s = max(dot(g, g) - gamma * gamma, decimal.Decimal(0)).sqrt()
        rho = max(r * r - b * b, decimal.Decimal(0)).sqrt()
        mid = dot(g, c)
        hi = mid + (r * g_norm if r * gamma <= b * g_norm else gamma * b + s * rho)
        lo = mid - (r * g_norm if -r * gamma <= b * g_norm else -gamma * b + s * rho)
        return float(lo), float(hi)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_cap_ranges_contain_the_brute_force_extremes(dim):
    """A ball node cut by one halfspace bounds each gap by its range over
    the cap. The range contains the gap's extremes over the cap, found by
    brute force over the cap's extreme points (sampled points of its
    sphere inside the halfspace and of the rim of its cut), and is tight
    up to the sampling. Tangent cuts (b = +-r, the whole ball or a single
    point) and gaps parallel to the cut's normal are included."""
    rng = np.random.default_rng(20 + dim)
    if dim == 2:
        t = np.linspace(0.0, 2 * np.pi, 20_001)
        sphere = np.column_stack([np.cos(t), np.sin(t)])
    else:
        k = np.arange(40_000) + 0.5  # a Fibonacci lattice on the sphere
        z = 1 - 2 * k / k.shape[0]
        t = np.pi * (1 + 5**0.5) * k
        sphere = np.column_stack([np.sqrt(1 - z * z) * np.cos(t), np.sqrt(1 - z * z) * np.sin(t), z])
    for trial in range(40):
        r = float(rng.uniform(0.2, 2.0))
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        b = {0: r, 1: -r}.get(trial % 5, float(rng.uniform(-0.95, 0.95)) * r)
        perp = rng.normal(size=dim)
        perp -= (perp @ a) * a
        center = -b * a + perp * rng.uniform(0.0, 3.0)
        G = rng.normal(size=(10, dim))
        G[0] = 1.7 * a  # parallel to the normal, against it, and nearly so
        G[1] = -0.4 * a
        G[2] = a + 1e-8 * perp / max(np.linalg.norm(perp), 1e-300)
        G = np.vstack([G, a])  # the halfspace a . w <= 0 is pair 10's
        geom = solver._BallGeom(BallRegion(center=center, radius=r), G)
        cut = geom.child(geom.root(), 10, 1.0, center)
        lo, hi = cut.lo, cut.hi
        # The closed form in 50 digits is the exact range: the float one
        # must contain it, near-parallel rows and near-tangent cuts included.
        for g, g_lo, g_hi in zip(G, lo, hi):
            want_lo, want_hi = _exact_cap_range(g, a, center, r)
            assert g_lo <= want_lo and g_hi >= want_hi, trial
        # Extreme points of the cap, as offsets x from the center.
        rho = np.sqrt(max(r * r - b * b, 0.0))
        rim_dirs = np.linalg.svd(a[None, :])[2][1:]  # orthonormal, normal to a
        if dim == 2:
            rim = b * a + rho * np.array([rim_dirs[0], -rim_dirs[0]])
        else:
            u = np.linspace(0.0, 2 * np.pi, 4_001)
            rim = b * a + rho * (np.outer(np.cos(u), rim_dirs[0]) + np.outer(np.sin(u), rim_dirs[1]))
        inside = r * sphere[r * sphere @ a <= b]
        vals = (center + np.vstack([rim, inside])) @ G.T
        scale = np.abs(G @ center) + r * np.linalg.norm(G, axis=1)
        assert (lo <= vals.min(axis=0)).all() and (hi >= vals.max(axis=0)).all(), trial
        assert (vals.min(axis=0) - lo <= 1e-4 * scale).all(), trial
        assert (hi - vals.max(axis=0) <= 1e-4 * scale).all(), trial


def _certify_nothing(monkeypatch):
    """Make both projections return all-zero multipliers, so a node whose
    cone excludes the ball's center has no certificate either way."""
    monkeypatch.setattr(solver, "nnls", _nnls_certifies_nothing)
    monkeypatch.setattr(
        solver, "lsq_linear", lambda A, b, **kw: SimpleNamespace(x=np.zeros(A.shape[1]))
    )


def test_undecided_ball_nodes_never_raise(monkeypatch):
    """A node no certificate settles yields no incumbent and is not
    branched. Under zero multipliers the only certified point is the
    center, so every value is the focal rank there, and the query is
    ``optimal`` only when that incumbent prunes the undecided bounds."""
    rng = np.random.default_rng(5)
    V = random_design(rng, 12, 3)
    center = rng.normal(size=3)
    region = BallRegion(center=center, radius=0.5)
    queries = [(sense, focal) for focal in range(12) for sense in ("min", "max")]
    exact = {q: solve(rank_query(q[0], region, V, q[1])) for q in queries}
    at_center = {
        q: solve(rank_query(q[0], BallRegion(center=center, radius=0.0), V, q[1])).value
        for q in queries
    }
    _certify_nothing(monkeypatch)
    undecided = 0
    for sense, focal in queries:
        sol = solve(rank_query(sense, region, V, focal))
        truth = exact[sense, focal].value
        np.testing.assert_array_equal(sol.witness, center)
        assert sol.value == at_center[sense, focal]
        if sol.status == "optimal":
            assert sol.value == sol.bound == truth
        else:
            assert sol.status == "undecided"
            undecided += 1
            # The bound is admissible: it brackets the optimum from outside.
            assert (sol.bound <= truth) if sense == "min" else (sol.bound >= truth)
    assert undecided > len(queries) // 2


def test_failed_lps_leave_the_query_undecided(monkeypatch):
    """An LP node HiGHS fails on is undecided, not empty: the query does
    not claim its incumbent as the optimum, and its bound still brackets
    the true optimum."""
    V = np.random.default_rng(3).normal(size=(9, 4))
    inst = rank_query("max", SimplexRegion(dim=4), V, 0)
    assert solve(inst).value == 9
    fail_lps_after_the_first(monkeypatch)
    sol = solve(inst)
    assert sol.status == "undecided"
    assert sol.bound >= 9


def test_zero_radius_ball_pins_the_center_ranking(rng):
    V = random_design(rng, 9, 2)
    center = rng.normal(size=2)
    region = BallRegion(center=center, radius=0.0)
    base = rank_descending(V @ center)
    for focal in range(9):
        lo = solve(rank_query("min", region, V, focal)).value
        hi = solve(rank_query("max", region, V, focal)).value
        assert lo <= base[focal] <= hi
        assert hi - lo <= 1  # only exact ties can move a degenerate ball's rank


def test_a_tiny_time_budget_still_expands_the_root():
    """The clock is read only after the root, so even a time budget the
    presolve alone overruns leaves a witness."""
    V = np.random.default_rng(3).normal(size=(9, 4))[:, :3]
    sol = solve(rank_query("max", SimplexRegion(dim=3), V, 0), SolverConfig(time_budget=1e-12))
    assert sol.witness is not None and sol.value is not None
    assert sol.nodes >= 1


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


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SolverConfig(node_budget=0)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=float("nan"))


def _dense_gap_sup(region, V):
    """Reference: the whole matrix of region suprema of score(i) - score(j),
    formed at once as the dense ball and simplex screens did."""
    if isinstance(region, BallRegion):
        scores = V @ region.center
        return scores[:, None] - scores[None, :] + region.radius * cdist(V, V)
    diffs = V[:, None, :] - V[None, :, :]
    return diffs.max(axis=2)


def _dense_prune(sup_gap):
    """Reference: outer rank bounds from a dense suprema matrix, with the
    tolerance scaled by its largest entry."""
    n = sup_gap.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(sup_gap))))
    strictly_below = sup_gap < -tol
    outer_min = 1 + strictly_below.sum(axis=1).astype(np.int64)
    outer_max = (n - strictly_below.sum(axis=0)).astype(np.int64)
    return {"outer_min": outer_min, "outer_max": outer_max}


def _assert_bounds_equal(got, want, *where):
    for name, w in want.items():
        g = getattr(got, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), (*where, name)


def _assert_membership_follows_bounds(got, kappa):
    """``never_top`` and ``always_top`` apply the cut to the outer bounds."""
    assert np.array_equal(got.never_top(kappa), got.outer_min > kappa)
    assert np.array_equal(got.always_top(kappa), got.outer_max <= kappa)


@pytest.mark.parametrize(
    "n",
    [1, 63, 64, 65, 129, SCREEN_BLOCK - 1, SCREEN_BLOCK, SCREEN_BLOCK + 1, 2 * SCREEN_BLOCK + 1],
)
def test_blockwise_screen_matches_the_dense_screen(n, rng):
    """Same bounds as the dense screens across block and bitset-word
    edges, on rows with one-decimal ties and duplicates; a ball screen
    over several radii equals the one-radius screens; membership at each
    kappa follows the bounds; and the group-count builder keeps exactly
    the pairs touching a changeable group row, in (a, b) order."""
    regions = [
        BallRegion(center=rng.normal(size=3), radius=0.0),
        BallRegion(center=rng.normal(size=3), radius=0.3),
        SimplexRegion(dim=2),
        SimplexRegion(dim=3),
        SimplexRegion(dim=5),
    ]
    for region in regions:
        dim = region.center.shape[0] if isinstance(region, BallRegion) else region.dim
        V = np.round(rng.normal(size=(n, dim)), 1)
        V[rng.permutation(n)[: n // 4]] = V[rng.integers(0, n, size=n // 4)]
        want = _dense_prune(_dense_gap_sup(region, V))
        got = screen_membership(region, V)
        _assert_bounds_equal(got, want, region, n)
        if isinstance(region, BallRegion):
            radii = (0.0, 0.05, region.radius, 1.7)
            for radius, multi in zip(radii, screen_ball(V, region.center, radii)):
                one = screen_membership(BallRegion(region.center, radius), V)
                _assert_bounds_equal(multi, vars(one), radius, n)
        for kappa in sorted({1, max(1, n // 7), n}):
            _assert_membership_follows_bounds(got, kappa)
            never_top = want["outer_min"] > kappa
            always_top = want["outer_max"] <= kappa

            group = np.flatnonzero(rng.random(n) < 0.3)
            inst = group_query("max", region, V, group, kappa)
            changeable = np.zeros(n, dtype=bool)
            changeable[group] = True
            changeable &= ~(never_top | always_top)
            above, below = np.nonzero(np.triu(changeable[:, None] | changeable[None, :], k=1))
            assert np.array_equal(inst.above, above) and np.array_equal(inst.below, below)
            assert np.array_equal(inst.gaps, V[above] - V[below])
            assert inst.group_rows == tuple(int(g) for g in group if not never_top[g])


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_simplex_screen_cuts_exactly_at_the_tolerance(K, rng):
    """Pairs whose per-target gap sits exactly at -tol or one ulp to
    either side are counted as the per-pair rule counts them. The
    reference forms every pair's largest per-target gap and compares it
    with the production tolerance ``PRUNE_REL_TOL * max(1, spread)``;
    rows of all 0 and all 10 fix the spread. A low row of 0 makes the
    gap exactly minus the high row's value; other low rows put the gap
    on the ulp grid of their own value around -tol."""
    tol = solver.PRUNE_REL_TOL * 10.0
    rows, pairs = [np.zeros(K), np.full(K, 10.0)], []
    for a in (0.0, 0.0, 3.0, 6.1, 9.5):
        for steps in ([1] * K, [0] * K, [-1] * K, *rng.integers(-1, 2, size=(6, K))):
            low = np.full(K, a)
            high = low + tol
            for k, step in enumerate(steps):
                for _ in range(abs(step)):
                    high[k] = np.nextafter(high[k], np.inf * step)
            pairs.append((len(rows), len(rows) + 1))
            rows += [low, high]
    V = np.array(rows)
    lo, hi = np.array(pairs).T
    edge = V[lo] - V[hi]
    for gap in (np.nextafter(-tol, -np.inf), -tol, np.nextafter(-tol, np.inf)):
        assert (edge == gap).any(), gap
    V = V[rng.permutation(V.shape[0])]

    n = V.shape[0]
    assert solver.PRUNE_REL_TOL * max(1.0, float(V.max() - V.min())) == tol
    strictly_below = (V[:, None, :] - V[None, :, :]).max(axis=2) < -tol
    outer_min = 1 + strictly_below.sum(axis=1).astype(np.int64)
    outer_max = (n - strictly_below.sum(axis=0)).astype(np.int64)
    got = screen_membership(SimplexRegion(dim=K), V)
    _assert_bounds_equal(got, {"outer_min": outer_min, "outer_max": outer_max}, K)
    for kappa in (1, n // 3, n):
        _assert_membership_follows_bounds(got, kappa)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_screen_refuses_non_finite_rows(bad, rng):
    """A non-finite score has no place in a total order; both screens
    refuse it and name the first row that holds one."""
    V = rng.normal(size=(6, 3))
    V[4, 2] = bad
    V[5, 0] = bad
    for region in (SimplexRegion(dim=3), BallRegion(center=rng.normal(size=3), radius=0.2)):
        with pytest.raises(ValueError, match="non-finite .* row 4$"):
            screen_membership(region, V)


def test_ball_screen_scales_its_tolerance_per_radius():
    """Each radius judges strictness against its own ball's score spread.
    Rows 0 and 1 are 1e-11 apart along the center; at radius 0.5 their
    supremum gap is -5e-12, inside the tolerance that row 2's reach of
    500 sets, so they count as ordered only at radius 0."""
    V = np.array([[0.0, 0.0], [1e-11, 0.0], [0.0, 1000.0]])
    center = np.array([1.0, 0.0])
    radii = (0.0, 0.5)
    got = screen_ball(V, center, radii)
    for radius, multi in zip(radii, got):
        one = screen_membership(BallRegion(center, radius), V)
        _assert_bounds_equal(multi, vars(one), radius)
    assert got[0].outer_min.tolist() == [2, 1, 2]
    assert got[1].outer_min.tolist() == [1, 1, 1]


def _dense_ball_rule(V, center, radius):
    """Reference: every pair's ``fl(radius * cdist) + gap`` against the
    production tolerance ``PRUNE_REL_TOL * max(1, spread)``, formed as one
    dense matrix."""
    n = V.shape[0]
    scores = V @ center
    reach = radius * np.linalg.norm(V, axis=1)
    tol = solver.PRUNE_REL_TOL * max(1.0, float(np.max(scores + reach) - np.min(scores - reach)))
    strictly_below = np.multiply(cdist(V, V), radius) + (scores[:, None] - scores[None, :]) < -tol
    outer_min = 1 + strictly_below.sum(axis=1).astype(np.int64)
    outer_max = (n - strictly_below.sum(axis=0)).astype(np.int64)
    return {"outer_min": outer_min, "outer_max": outer_max}


def _assert_ball_screen_is_dense(V, center, radii, kappas):
    for radius, got in zip(radii, screen_ball(V, center, radii)):
        _assert_bounds_equal(got, _dense_ball_rule(V, center, radius), radius)
        for kappa in kappas:
            _assert_membership_follows_bounds(got, kappa)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize(
    "n", [1, 2, solver.BALL_BLOCK - 1, solver.BALL_BLOCK + 1, 5 * solver.BALL_BLOCK + 3]
)
def test_band_screen_matches_the_dense_rule(n, scale, rng):
    """The score-sorted band screen orders exactly the pairs the dense rule
    orders, across block edges, on one-decimal rows with duplicates,
    scaled by 10^-6 to 10^6, at radius 0, at radii given out of order,
    and at a radius so wide that no pair is ordered by its center gap
    alone."""
    V = np.round(rng.normal(size=(n, 4)), 1)
    V[rng.permutation(n)[: n // 3]] = V[rng.integers(0, n, size=n // 3)]
    V *= scale
    center = rng.normal(size=4)
    radii = (0.3, 0.0, 1e6, 0.02, 1.5)
    _assert_ball_screen_is_dense(V, center, radii, sorted({1, max(1, n // 5), n}))
    # At the wide radius a distance outweighs any center gap.
    wide = screen_ball(V, center, (1e6,))[0]
    assert (wide.outer_min == 1).all() and (wide.outer_max == n).all()


def test_band_screen_decides_near_duplicates_on_exact_distances(rng, monkeypatch):
    """Near-duplicate rows put distances near zero, where the BLAS
    product's distances are only about sqrt(eps) accurate and the rule's
    edge lies within that error. Those comparisons are made again on the
    exact distance, so every count still equals the dense ``cdist`` rule's:
    on one-decimal rows repeated with a 1e-9 jitter, and on the stacked
    design, whose copies of a row differ by QR rounding alone."""
    calls = _counting(monkeypatch, "_row_distances")
    V = np.round(rng.normal(size=(3 * solver.BALL_BLOCK, 4)), 1)
    V[::3] = V[1::3] + 1e-9 * rng.normal(size=V[1::3].shape)
    center = rng.normal(size=4)
    _assert_ball_screen_is_dense(V, center, (0.0, 1e-9, 0.02, 0.3), (1, 10, V.shape[0]))
    Q, y = stacked_design(0, 60, 4)
    center = Q.T @ y
    _assert_ball_screen_is_dense(Q, center, (0.0, 0.01, 0.5), (1, 12, 60))
    assert calls  # the exact path ran


def test_band_screen_cuts_exactly_at_the_tolerance(rng):
    """Pairs on the edge of either rule are counted as the dense rule
    counts them, with each edge pair split across two blocks so that only
    the band decides it. One feature and a unit center make the scores
    the feature itself.

    * Center gaps exactly at -tol or one ulp to either side, at radius 0
      and near it; rows of 0 and 10 fix the spread at radius 0.
    * Rows of -1 and +1, whose distance is exactly the sum of their
      norms, with a center gap a few parts in 10^5 of tol on either side
      of radius * distance + tol: the bound ``h`` is tight there.
    """
    B = solver.BALL_BLOCK
    tol = solver.PRUNE_REL_TOL * 10.0
    x = list(np.linspace(0.0, 0.4, B - 1))
    for j in range(12):
        a = 0.5 + 0.75 * j
        high = a + tol
        for _ in range(j % 3):
            high = np.nextafter(high, np.inf if j % 2 else -np.inf)
        x += [a, high] + list(np.linspace(a + 0.1, a + 0.65, B - 2))
    x.append(10.0)
    V = np.array(x)[rng.permutation(len(x)), None]
    assert np.diff(np.sort(V[:, 0]))[B - 1 :: B][:12].max() < 2 * tol  # pairs straddle blocks
    _assert_ball_screen_is_dense(V, np.array([1.0]), (0.0, 1e-13, 1e-3), (1, B))

    V = np.repeat([[-1.0], [1.0]], B + 8, axis=0)
    radius = 1.0
    for shift in (-1e-3, -1e-5, 0.0, 1e-5, 1e-3):
        # tol is 1e-12 times the spread, about 4 * radius.
        center = np.array([radius + 2e-12 * (1 + shift)])
        _assert_ball_screen_is_dense(V, center, (radius,), (1, B))


def test_cdist_is_symmetric_bit_for_bit(rng):
    """The ball screen reads each pair's distance from one row's scan only
    and re-forms a distance near the rule's edge exactly, so it relies on
    that exact distance equalling ``cdist``'s bit for bit, on
    ``cdist(A, B) == cdist(B, A).T`` bit for bit, and on each entry not
    depending on the other rows of the call."""
    for dim in (1, 3, 11, 40):
        A = rng.normal(size=(37, dim)) * 10.0 ** rng.integers(-6, 7, size=(37, 1))
        B = rng.normal(size=(29, dim))
        assert np.array_equal(cdist(A, B), cdist(B, A).T)
        assert np.array_equal(cdist(A, A)[5:20, 11:30], cdist(A[5:20], A[11:30]))
        i, j = (g.ravel() for g in np.indices((37, 29)))
        assert np.array_equal(solver._row_distances(A[i], B[j]).reshape(37, 29), cdist(A, B))
        assert np.array_equal(solver._row_distances(B[j], A[i]).reshape(37, 29), cdist(A, B))


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
        multi = prune_never_top_multi(P)
        _, peak_multi = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        single = screen_membership(BallRegion(center, 0.05), X)
        _, peak_single = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        curve = screen_ball(X, center, (0.02, 0.04, 0.06))
        _, peak_curve = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert multi.outer_min.shape == single.outer_max.shape == (n,)
    assert [c.outer_min.shape for c in curve] == [(n,)] * 3
    peaks = (peak_multi, peak_single, peak_curve)
    assert max(peaks) < 100e6, peaks


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
        cols = _pool_rank_envelope(X, pool, 300, np.arange(n) % 3 == 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.shape == (n,)
    assert peak < 100e6, peak


def _verdict_instances():
    """Seeded rank instances over every geometry: (V, region, focal)."""
    for family in ("ball", "interval", "polygon", "lp"):
        rng = np.random.default_rng({"ball": 11, "interval": 12, "polygon": 13, "lp": 14}[family])
        for trial in range(3):
            if family == "ball":
                d = 2 + trial % 2
                V = random_design(rng, 14, d)
                region = BallRegion(center=rng.normal(size=d), radius=float(rng.uniform(0.3, 1.0)))
            else:
                K = {"interval": 2, "polygon": 3, "lp": 4}[family]
                V = rng.normal(size=(9 if family == "lp" else 16, K))
                region = SimplexRegion(dim=K)
            if trial == 2:
                V = np.round(V, 1)
            for focal in rng.choice(V.shape[0], size=3, replace=False):
                yield family, V, region, int(focal)


def test_verdict_queries_decide_like_exact_queries():
    """A rank query with kappa set answers whether the row crosses the cut
    in the sense's direction. Its verdict is the one the exact optimum
    gives, its witness attains its value, its bound brackets the exact
    optimum from kappa's side, and it never visits more nodes."""
    verdicts = set()
    nodes = {"exact": 0, "verdict": 0}
    for family, V, region, focal in _verdict_instances():
        for sense in ("min", "max"):
            inst = rank_query(sense, region, V, focal)
            exact = solve(inst)
            assert exact.status == "optimal"
            opt = exact.value
            for kappa in sorted({opt - 1, opt, opt + 1} & set(range(1, V.shape[0] + 1))):
                sol = solve(replace(inst, kappa=kappa))
                key = (family, focal, sense, kappa)
                crosses = opt > kappa if sense == "max" else opt <= kappa
                assert sol.status == "optimal", key
                assert (sol.value > kappa if sense == "max" else sol.value <= kappa) == crosses, key
                assert (sol.bound > kappa if sense == "max" else sol.bound <= kappa) == crosses, key
                if sense == "max":
                    assert sol.value <= opt <= sol.bound, key
                else:
                    assert sol.bound <= opt <= sol.value, key
                assert rank_attained(V, sol.witness, focal, sense, sol.value), key
                assert sol.nodes <= exact.nodes, key
                verdicts.add((family, sense, crosses))
                nodes["exact"] += exact.nodes
                nodes["verdict"] += sol.nodes
    assert len(verdicts) == 16  # both answers for both senses on every geometry
    assert nodes["verdict"] < nodes["exact"]


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
    (0, 'ball', 'group', 'min'): ('optimal', 0, 0, 71, 0, 56),
    (0, 'ball', 'rank', 'max'): ('optimal', 12, 12, 23, 0, 11),
    (0, 'ball', 'group', 'max'): ('optimal', 7, 7, 143, 0, 56),
    (1, 'ball', 'rank', 'min'): ('optimal', 1, 1, 11, 0, 11),
    (1, 'ball', 'group', 'min'): ('optimal', 0, 0, 5, 6, 15),
    (1, 'ball', 'rank', 'max'): ('optimal', 12, 12, 9, 0, 11),
    (1, 'ball', 'group', 'max'): ('optimal', 1, 1, 3, 6, 15),
    (2, 'interval', 'rank', 'min'): ('optimal', 2, 2, 3, 10, 5),
    (2, 'interval', 'group', 'min'): ('optimal', 4, 4, 15, 40, 44),
    (2, 'interval', 'rank', 'max'): ('optimal', 4, 4, 9, 10, 5),
    (2, 'interval', 'group', 'max'): ('optimal', 4, 4, 15, 40, 44),
    (3, 'interval', 'rank', 'min'): ('optimal', 4, 4, 7, 8, 7),
    (3, 'interval', 'group', 'min'): ('optimal', 1, 1, 7, 32, 43),
    (3, 'interval', 'rank', 'max'): ('optimal', 6, 6, 5, 8, 7),
    (3, 'interval', 'group', 'max'): ('optimal', 2, 2, 17, 32, 43),
    (4, 'polygon', 'rank', 'min'): ('optimal', 5, 5, 9, 3, 12),
    (4, 'polygon', 'group', 'min'): ('optimal', 0, 0, 5, 9, 45),
    (4, 'polygon', 'rank', 'max'): ('optimal', 16, 16, 5, 3, 12),
    (4, 'polygon', 'group', 'max'): ('optimal', 2, 2, 25, 9, 45),
    (5, 'polygon', 'rank', 'min'): ('optimal', 5, 5, 9, 5, 10),
    (5, 'polygon', 'group', 'min'): ('optimal', 2, 2, 285, 23, 76),
    (5, 'polygon', 'rank', 'max'): ('optimal', 11, 11, 11, 5, 10),
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


# (status, value, bound, nodes) of the grid's rank queries asked as verdict
# queries, at a node budget small enough that some stop short.
PINNED_VERDICTS = {
    (0, 'ball', 'min', 1): ('budget_exhausted', 8, 1, 5),
    (0, 'ball', 'min', 2): ('budget_exhausted', 8, 1, 5),
    (0, 'ball', 'min', 4): ('budget_exhausted', 8, 1, 5),
    (0, 'ball', 'min', 6): ('budget_exhausted', 8, 1, 5),
    (0, 'ball', 'min', 11): ('optimal', 11, 1, 1),
    (0, 'ball', 'max', 1): ('optimal', 11, 12, 1),
    (0, 'ball', 'max', 2): ('optimal', 11, 12, 1),
    (0, 'ball', 'max', 4): ('optimal', 11, 12, 1),
    (0, 'ball', 'max', 6): ('optimal', 11, 12, 1),
    (0, 'ball', 'max', 11): ('budget_exhausted', 11, 12, 5),
    (1, 'ball', 'min', 1): ('budget_exhausted', 2, 1, 5),
    (1, 'ball', 'min', 2): ('optimal', 2, 1, 5),
    (1, 'ball', 'min', 4): ('optimal', 4, 1, 3),
    (1, 'ball', 'min', 6): ('optimal', 4, 1, 3),
    (1, 'ball', 'min', 11): ('optimal', 9, 1, 1),
    (1, 'ball', 'max', 1): ('optimal', 9, 12, 1),
    (1, 'ball', 'max', 2): ('optimal', 9, 12, 1),
    (1, 'ball', 'max', 4): ('optimal', 9, 12, 1),
    (1, 'ball', 'max', 6): ('optimal', 9, 12, 1),
    (1, 'ball', 'max', 11): ('optimal', 12, 12, 5),
    (2, 'interval', 'min', 1): ('optimal', 2, 2, 3),
    (2, 'interval', 'min', 2): ('optimal', 2, 2, 2),
    (2, 'interval', 'min', 5): ('optimal', 3, 1, 1),
    (2, 'interval', 'min', 8): ('optimal', 3, 1, 1),
    (2, 'interval', 'min', 15): ('optimal', 3, 1, 1),
    (2, 'interval', 'max', 1): ('optimal', 3, 6, 1),
    (2, 'interval', 'max', 2): ('optimal', 3, 6, 1),
    (2, 'interval', 'max', 5): ('optimal', 3, 4, 3),
    (2, 'interval', 'max', 8): ('optimal', 3, 6, 1),
    (2, 'interval', 'max', 15): ('optimal', 3, 6, 1),
    (3, 'interval', 'min', 1): ('optimal', 4, 2, 1),
    (3, 'interval', 'min', 2): ('optimal', 4, 3, 5),
    (3, 'interval', 'min', 5): ('optimal', 4, 2, 1),
    (3, 'interval', 'min', 8): ('optimal', 4, 2, 1),
    (3, 'interval', 'min', 15): ('optimal', 4, 2, 1),
    (3, 'interval', 'max', 1): ('optimal', 4, 9, 1),
    (3, 'interval', 'max', 2): ('optimal', 4, 9, 1),
    (3, 'interval', 'max', 5): ('optimal', 6, 8, 2),
    (3, 'interval', 'max', 8): ('optimal', 6, 7, 3),
    (3, 'interval', 'max', 15): ('optimal', 4, 9, 1),
    (4, 'polygon', 'min', 1): ('optimal', 14, 4, 1),
    (4, 'polygon', 'min', 2): ('optimal', 14, 4, 1),
    (4, 'polygon', 'min', 5): ('optimal', 5, 5, 5),
    (4, 'polygon', 'min', 8): ('optimal', 8, 5, 2),
    (4, 'polygon', 'min', 15): ('optimal', 14, 4, 1),
    (4, 'polygon', 'max', 1): ('optimal', 14, 16, 1),
    (4, 'polygon', 'max', 2): ('optimal', 14, 16, 1),
    (4, 'polygon', 'max', 5): ('optimal', 14, 16, 1),
    (4, 'polygon', 'max', 8): ('optimal', 14, 16, 1),
    (4, 'polygon', 'max', 15): ('optimal', 16, 16, 3),
    (5, 'polygon', 'min', 1): ('optimal', 10, 3, 1),
    (5, 'polygon', 'min', 2): ('optimal', 10, 3, 1),
    (5, 'polygon', 'min', 5): ('optimal', 5, 4, 5),
    (5, 'polygon', 'min', 8): ('optimal', 7, 3, 2),
    (5, 'polygon', 'min', 15): ('optimal', 10, 3, 1),
    (5, 'polygon', 'max', 1): ('optimal', 10, 13, 1),
    (5, 'polygon', 'max', 2): ('optimal', 10, 13, 1),
    (5, 'polygon', 'max', 5): ('optimal', 10, 13, 1),
    (5, 'polygon', 'max', 8): ('optimal', 10, 13, 1),
    (5, 'polygon', 'max', 15): ('optimal', 10, 13, 1),
    (6, 'lp', 'min', 1): ('optimal', 1, 1, 1),
    (6, 'lp', 'min', 2): ('optimal', 1, 1, 1),
    (6, 'lp', 'min', 3): ('optimal', 1, 1, 1),
    (6, 'lp', 'min', 4): ('optimal', 1, 1, 1),
    (6, 'lp', 'min', 8): ('optimal', 1, 1, 1),
    (6, 'lp', 'max', 1): ('optimal', 4, 9, 2),
    (6, 'lp', 'max', 2): ('optimal', 4, 9, 2),
    (6, 'lp', 'max', 3): ('optimal', 4, 9, 2),
    (6, 'lp', 'max', 4): ('optimal', 9, 9, 4),
    (6, 'lp', 'max', 8): ('optimal', 9, 9, 4),
    (7, 'lp', 'min', 1): ('optimal', 1, 1, 5),
    (7, 'lp', 'min', 2): ('optimal', 2, 1, 2),
    (7, 'lp', 'min', 3): ('optimal', 2, 1, 2),
    (7, 'lp', 'min', 4): ('optimal', 4, 1, 1),
    (7, 'lp', 'min', 8): ('optimal', 4, 1, 1),
    (7, 'lp', 'max', 1): ('optimal', 3, 9, 1),
    (7, 'lp', 'max', 2): ('optimal', 3, 9, 1),
    (7, 'lp', 'max', 3): ('optimal', 7, 9, 2),
    (7, 'lp', 'max', 4): ('optimal', 7, 9, 2),
    (7, 'lp', 'max', 8): ('budget_exhausted', 8, 9, 5),
}


def test_verdict_search_counters_are_pinned():
    """Pruning against kappa, the stop at the first crossing incumbent and
    the reported bound of a verdict search stay fixed."""
    cfg = SolverConfig(node_budget=5, time_budget=1e9)
    got = {}
    for (case, family, objective, sense), inst in _pinned_grid():
        if objective != "rank":
            continue
        n = inst.n_rows
        for kappa in sorted({1, 2, n // 3, n // 2, n - 1}):
            s = solve(replace(inst, kappa=kappa), cfg)
            got[case, family, sense, kappa] = (s.status, s.value, s.bound, s.nodes)
    assert got == PINNED_VERDICTS


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
