"""Branch and bound over pairwise ordering indicators.

An instance asks for the extreme rank of one row, or the extreme number of
group rows selected into the top kappa, as a scoring parameter varies over
a region: a Euclidean ball of coefficient vectors, or the simplex of blend
weights. Each pair of rows contributes a binary orientation; fixing the
orientation imposes one closed halfspace (the pairwise score gap has a
definite sign), and the objective depends only on orientations. The search
branches on orientations, checking region nonemptiness exactly:

* ball: distance from the center to the intersection of homogeneous
  halfspaces via a compiled nonnegative least-squares projection onto the
  polar cone (bounded-variable least squares as the fallback), with a
  Farkas-style certificate when infeasible; a child whose new halfspace
  its parent's certified witness already meets inherits that witness and
  skips the projection;
* two-target simplex: an interval in the first blend weight;
* three targets: polygon clipping;
* more targets: small feasibility LPs.

After the root presolve fixes the sign-definite pairs, the search runs on
a compact state: the free pairs only, permuted once into the static
branch order, and one loss count per objective row (the focal row, or
each distinct group row) plus a catch-all slot that nothing reads. Rank
and group queries differ only in their value and bound formulas and in
one sign, whether a loss on an objective row helps the sense.

Bounds are admissible counting arguments, incumbents come from feasibility
witnesses with a safety margin so a reported value is always attainable,
and the whole search is deterministic for a fixed node budget.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import linprog, lsq_linear, nnls
from scipy.spatial.distance import cdist

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_TIME_BUDGET = 60.0

# Simplex feasibility slack and witness safety margin, both relative to
# the instance's gap scale.
FEAS_TOL = 1e-9
MARGIN = 1e-9


@dataclass(frozen=True)
class BallRegion:
    """Closed ball of coefficient vectors."""

    center: NDArray[np.float64]
    radius: float

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class SimplexRegion:
    """Blend weights: alpha >= 0 summing to 1 over ``dim`` targets."""

    dim: int


@dataclass(frozen=True)
class MipInstance:
    """One extremal ordering query.

    ``gaps[p] @ param`` is the score gap (above minus below) of pair p.
    Orientation 1 means ``above[p]`` outranks ``below[p]`` and charges a
    loss to ``below[p]``; orientation 0 is the reverse. For a rank query
    every pair has ``below == focal`` and the objective is
    1 + (losses of focal). For a group query the objective is the number
    of ``group_rows`` whose rank 1 + losses is at most ``kappa``.
    """

    sense: str  # "min" | "max"
    objective: str  # "rank" | "group_count"
    region: "BallRegion | SimplexRegion"
    gaps: NDArray[np.float64]
    above: NDArray[np.int64]
    below: NDArray[np.int64]
    n_rows: int
    focal: int | None = None
    group_rows: "tuple[int, ...] | None" = None
    kappa: int | None = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        if self.objective == "rank":
            if self.focal is None:
                raise ValueError("rank objective needs a focal row")
        elif self.objective == "group_count":
            if self.group_rows is None or self.kappa is None:
                raise ValueError("group_count objective needs group_rows and kappa")
        else:
            raise ValueError(f"unknown objective {self.objective!r}")
        P = self.gaps.shape[0]
        if self.above.shape != (P,) or self.below.shape != (P,):
            raise ValueError("above/below must align with gaps")


@dataclass(frozen=True)
class SolverConfig:
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET

    def __post_init__(self):
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if self.time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")


@dataclass(frozen=True)
class MipSolution:
    """Outcome of one query.

    ``value`` is in final units (a rank, or a selected-group count) and is
    attained by ``witness``; ``bound`` is the proven limit on the optimum
    (equal to ``value`` when status is ``optimal``).
    """

    status: str  # "optimal" | "infeasible" | "budget_exhausted"
    value: int | None
    bound: int | None
    witness: NDArray[np.float64] | None
    nodes: int
    presolve_fixed: int
    free_pairs: int

    def __post_init__(self):
        if self.status not in ("optimal", "infeasible", "budget_exhausted"):
            raise ValueError(f"unknown status {self.status!r}")


def rank_query(
    sense: str,
    region: "BallRegion | SimplexRegion",
    row_vectors: NDArray[np.float64],
    focal: int,
) -> MipInstance:
    """Build the extreme-rank instance for one row.

    ``row_vectors`` maps each row to its score coefficients (design row for
    a ball region, per-target predictions for a simplex region).
    """
    V = np.asarray(row_vectors, dtype=np.float64)
    n = V.shape[0]
    others = np.delete(np.arange(n, dtype=np.int64), focal)
    return MipInstance(
        sense=sense,
        objective="rank",
        region=region,
        gaps=V[others] - V[focal],
        above=others,
        below=np.full(others.shape[0], focal, dtype=np.int64),
        n_rows=n,
        focal=focal,
    )


def group_query(
    sense: str,
    region: "BallRegion | SimplexRegion",
    row_vectors: NDArray[np.float64],
    group_rows,
    kappa: int,
) -> MipInstance:
    """Build the extreme selected-group-count instance.

    Pairs between two non-group rows carry no indicator: they influence no
    group row's rank and no term of the objective, so omitting them loses
    nothing.

    Group rows whose membership :func:`screen_membership` fixes over the
    whole region are settled before the search: a never-top row leaves
    ``group_rows``, and an always-top row stays with no pairs, so it
    always counts. Only the pairs (a, b), a < b, that touch a group row
    whose membership can still change are built, in lexicographic order.
    This is exact: the objective reads the losses of the changeable rows
    only, every pair touching them is kept, and a blend that realizes the
    kept orientations also orients the dropped pairs.
    """
    V = np.asarray(row_vectors, dtype=np.float64)
    n = V.shape[0]
    group_rows = tuple(int(g) for g in group_rows)
    kappa = int(kappa)
    screen = screen_membership(region, V, kappa)
    changeable = np.zeros(n, dtype=bool)
    changeable[list(group_rows)] = True
    changeable &= ~(screen.never_top | screen.always_top)
    # Row a pairs with every later row when it is changeable, else with
    # every later changeable row.
    C = np.flatnonzero(changeable)
    rows = np.arange(n)
    first_later = np.searchsorted(C, rows, side="right")
    counts = np.where(changeable, n - 1 - rows, C.shape[0] - first_later)
    above = np.repeat(rows, counts)
    step = np.arange(above.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    below = above + 1 + step
    fixed = ~changeable[above]
    below[fixed] = C[first_later[above[fixed]] + step[fixed]]
    return MipInstance(
        sense=sense,
        objective="group_count",
        region=region,
        gaps=V[above] - V[below],
        above=above,
        below=below,
        n_rows=n,
        group_rows=tuple(r for r in group_rows if not screen.never_top[r]),
        kappa=kappa,
    )


def gap_ranges(
    region: "BallRegion | SimplexRegion", gaps: NDArray[np.float64]
) -> "tuple[NDArray[np.float64], NDArray[np.float64]]":
    """Exact per-pair range of the gap over the whole region.

    Ball: center value plus or minus radius times the gap norm. Simplex:
    the gap is linear, so the extremes sit at vertices, which are the
    one-hot weights.
    """
    G = np.asarray(gaps, dtype=np.float64)
    if isinstance(region, BallRegion):
        mid = G @ region.center
        spread = region.radius * np.linalg.norm(G, axis=1)
        return mid - spread, mid + spread
    if isinstance(region, SimplexRegion):
        # Column by column: far faster than reducing many short rows.
        return functools.reduce(np.minimum, G.T), functools.reduce(np.maximum, G.T)
    raise TypeError(f"unknown region type {type(region)!r}")


# ---------------------------------------------------------------------------
# Fixed-membership screen.

# Rows per screen block: each block holds a few (SCREEN_BLOCK, n) arrays.
SCREEN_BLOCK = 256
PRUNE_REL_TOL = 1e-12


@dataclass(frozen=True)
class PruneResult:
    """Certified outer rank bounds from pairwise gap bounds alone.

    ``outer_min[i] <= true min rank`` and ``outer_max[i] >= true max rank``
    for every row; ``never_top`` and ``always_top`` mark rows whose top
    membership is fixed across the whole region.
    """

    never_top: NDArray[np.bool_]
    always_top: NDArray[np.bool_]
    outer_min: NDArray[np.int64]
    outer_max: NDArray[np.int64]


def screen_membership(
    region: "BallRegion | SimplexRegion", V: NDArray[np.float64], kappa: int
) -> PruneResult:
    """Rows whose top-kappa membership the whole region fixes.

    ``V`` maps rows to score coefficients over ``region``. Row j is
    strictly above row i everywhere when the region supremum of
    score(i) - score(j) is below ``-PRUNE_REL_TOL * max(1, spread)``; the
    spread, the highest score over the region minus the lowest, bounds
    every such supremum. The supremum is the center gap plus the radius
    times the row distance over a ball, and the largest per-target gap
    over the simplex (a linear gap peaks at a one-hot vertex). It is
    formed for ``SCREEN_BLOCK`` rows at a time against every row.

    A row with at least kappa rows strictly above it can never enter the
    top; one with at least n - kappa rows strictly below it can never
    leave.
    """
    V = np.asarray(V, dtype=np.float64)
    n = V.shape[0]
    if isinstance(region, BallRegion):
        scores = V @ region.center
        reach = region.radius * np.linalg.norm(V, axis=1)
        spread = np.max(scores + reach) - np.min(scores - reach)
    elif isinstance(region, SimplexRegion):
        spread = V.max() - V.min()
    else:
        raise TypeError(f"unknown region type {type(region)!r}")
    tol = PRUNE_REL_TOL * max(1.0, float(spread))
    count_above = np.zeros(n, dtype=np.int64)
    count_below = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n, SCREEN_BLOCK):
        rows = slice(r0, r0 + SCREEN_BLOCK)
        if isinstance(region, BallRegion):
            sup = cdist(V[rows], V)
            sup *= region.radius
            sup += scores[rows, None] - scores[None, :]
        else:
            sup = V[rows, 0, None] - V[None, :, 0]
            for k in range(1, V.shape[1]):
                np.maximum(sup, V[rows, k, None] - V[None, :, k], out=sup)
        strictly_below = sup < -tol  # [i, j]: row i always below row j
        count_above[rows] = strictly_below.sum(axis=1)
        count_below += strictly_below.sum(axis=0)
    outer_min = 1 + count_above
    outer_max = n - count_below
    return PruneResult(
        never_top=outer_min > kappa,
        always_top=outer_max <= kappa,
        outer_min=outer_min,
        outer_max=outer_max,
    )


# ---------------------------------------------------------------------------
# Region state: immutable per-node geometry with an exact feasibility test.


class _BallGeom:
    """Ball state: the imposed halfspace rows plus, when known, a certified
    point of the region they cut (inherited from the parent node)."""

    def __init__(self, region: BallRegion):
        self.center = np.asarray(region.center, dtype=np.float64)
        self.radius = float(region.radius)
        # Halfspace slack in normalized-gap units; one tie-tolerance band.
        self.ktol = 1e-9 * max(1.0, float(np.linalg.norm(self.center)) + self.radius)

    def root(self):
        return (), self.center

    def child(self, state, halfspace_row, witness):
        """The parent's rows plus one more. The parent's certified witness
        stays certified when it meets the new halfspace within the tie
        band ``_certify`` accepts. Sibling halfspaces are opposite, so at
        least one of the two always inherits."""
        rows, _ = state
        norm = float(np.linalg.norm(halfspace_row))
        slack = float((halfspace_row / norm) @ witness) if norm > 0 else 0.0
        return rows + (halfspace_row,), (witness if slack <= self.ktol else None)

    def _certify(self, An, lam):
        """Try both one-sided certificates for a candidate multiplier.

        Returns True/False when one holds, None when neither does. The
        feasible side exhibits a ball point satisfying every halfspace
        within the tie band (the projection is pulled back to the sphere
        if it overshoots, so borderline distances still certify). The
        infeasible side is a Farkas argument that q separates the ball
        from the halfspaces, run on sum-normalized multipliers with the
        float error of forming q budgeted in.
        """
        q = An @ lam
        qnorm = float(np.linalg.norm(q))
        shrink = 1.0 if qnorm <= self.radius else self.radius / qnorm
        p = self.center - shrink * q
        viol = float(np.max(An.T @ p))
        if viol <= self.ktol:
            return True, p
        total = float(lam.sum())
        if total > 0:
            qn = q / total
            margin = float(qn @ self.center) - self.radius * float(np.linalg.norm(qn))
            fp_err = 64.0 * np.finfo(np.float64).eps * (
                float(np.linalg.norm(self.center)) + self.radius
            )
            if margin > max(fp_err, self.ktol):
                return False, None
        return None, None

    def feasible(self, state):
        """Ball-cone intersection test via polar projection, certified.

        An inherited witness answers at once. Otherwise columns are
        normalized so the multipliers stay tame and the compiled
        Lawson-Hanson NNLS projects the center onto the polar cone. BVLS
        is the fallback when NNLS hits its iteration cap or its multipliers
        certify neither side. Either way the answer is accepted only with
        its certificate, and a cone that defeats both solvers raises
        instead of guessing.
        """
        rows, witness = state
        if witness is not None:
            return True, witness
        A_T = np.column_stack(rows)  # (p, m)
        norms = np.linalg.norm(A_T, axis=0)
        An = A_T / np.where(norms > 0, norms, 1.0)
        try:
            lam, _ = nnls(An, self.center)
        except RuntimeError:  # iteration cap
            verdict = None
        else:
            verdict, point = self._certify(An, lam)
        if verdict is None:
            res = lsq_linear(An, self.center, bounds=(0.0, np.inf), method="bvls", tol=1e-14)
            verdict, point = self._certify(An, np.maximum(res.x, 0.0))
        if verdict is None:
            raise RuntimeError(
                "ball-cone feasibility could not be certified either way; "
                "the halfspace system is numerically degenerate"
            )
        return verdict, point

    def free_ranges(self, state, gaps):
        return None  # no cheap exact refinement inside the cone


class _IntervalGeom:
    """Two-target simplex as an interval in the first blend weight."""

    PARAM_TOL = 1e-12  # slack in blend-weight units, distinct from gap units

    def __init__(self, region: SimplexRegion, tol_gap: float):
        self.tol_gap = tol_gap

    def root(self):
        return (0.0, 1.0)

    def child(self, state, halfspace_row, witness):
        lo, hi = state
        g0, g1 = float(halfspace_row[0]), float(halfspace_row[1])
        a = g0 - g1  # halfspace: a * t + g1 <= 0
        if a > 1e-300:
            hi = min(hi, -g1 / a)
        elif a < -1e-300:
            lo = max(lo, -g1 / a)
        elif g1 > self.tol_gap:
            return (1.0, -1.0)  # constant violated constraint
        return (lo, hi)

    def feasible(self, state):
        lo, hi = state
        if lo > hi + self.PARAM_TOL:
            return False, None
        mid = min(1.0, max(0.0, 0.5 * (lo + hi)))
        return True, np.array([mid, 1.0 - mid])

    def free_ranges(self, state, gaps):
        lo, hi = state
        lo = max(0.0, lo)
        hi = min(1.0, hi)
        a = gaps[:, 0] - gaps[:, 1]
        v_lo = a * lo + gaps[:, 1]
        v_hi = a * hi + gaps[:, 1]
        return np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)


class _PolyGeom:
    """Three-target simplex as a polygon in the first two weights."""

    def __init__(self, region: SimplexRegion, tol: float):
        self.tol = tol

    def root(self):
        return ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    @staticmethod
    def _coeffs(halfspace_row):
        g = halfspace_row
        # value at (a1, a2): c1*a1 + c2*a2 + c0 with a3 = 1 - a1 - a2
        return g[0] - g[2], g[1] - g[2], g[2]

    def child(self, state, halfspace_row, witness):
        c1, c2, c0 = self._coeffs(halfspace_row)
        verts = state
        out = []
        m = len(verts)
        vals = [c1 * v[0] + c2 * v[1] + c0 for v in verts]
        for i in range(m):
            j = (i + 1) % m
            vi, vj = vals[i], vals[j]
            if vi <= self.tol:
                out.append(verts[i])
            if (vi <= self.tol) != (vj <= self.tol):
                t = vi / (vi - vj)
                out.append(
                    (
                        verts[i][0] + t * (verts[j][0] - verts[i][0]),
                        verts[i][1] + t * (verts[j][1] - verts[i][1]),
                    )
                )
        return tuple(out)

    def feasible(self, state):
        if not state:
            return False, None
        a1 = sum(v[0] for v in state) / len(state)
        a2 = sum(v[1] for v in state) / len(state)
        return True, np.array([a1, a2, 1.0 - a1 - a2])

    def free_ranges(self, state, gaps):
        if not state:
            return None
        V = np.asarray(state)  # (m, 2)
        c1 = gaps[:, 0] - gaps[:, 2]
        c2 = gaps[:, 1] - gaps[:, 2]
        c0 = gaps[:, 2]
        vals = V @ np.vstack([c1, c2]) + c0  # (m, P)
        return vals.min(axis=0), vals.max(axis=0)


class _LPGeom:
    """General simplex via feasibility linear programs."""

    def __init__(self, region: SimplexRegion, tol: float):
        self.K = region.dim
        self.tol = tol

    def root(self):
        return ()

    def child(self, state, halfspace_row, witness):
        return state + (halfspace_row,)

    def feasible(self, state):
        A_eq = np.ones((1, self.K))
        if state:
            A_ub = np.stack(state)
            b_ub = np.full(len(state), self.tol)
        else:
            A_ub = None
            b_ub = None
        res = linprog(
            c=np.zeros(self.K),
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=np.array([1.0]),
            bounds=[(0.0, 1.0)] * self.K,
            method="highs",
        )
        if res.status == 0:
            return True, np.asarray(res.x)
        return False, None

    def free_ranges(self, state, gaps):
        return None


def _make_geom(region, tol):
    """The region's geometry; ``tol`` is the simplex constraint slack in
    gap units (the ball keeps its own tie band)."""
    if isinstance(region, BallRegion):
        return _BallGeom(region)
    if isinstance(region, SimplexRegion):
        if region.dim == 2:
            return _IntervalGeom(region, tol)
        if region.dim == 3:
            return _PolyGeom(region, tol)
        return _LPGeom(region, tol)
    raise TypeError(f"unknown region type {type(region)!r}")


# ---------------------------------------------------------------------------
# Search.


@dataclass
class _Node:
    assign: NDArray[np.int8]  # per free pair in branch order: -1 open, else orientation
    losses: NDArray[np.int64]  # per objective slot, then the catch-all slot
    region_state: object


def solve(inst: MipInstance, config: SolverConfig | None = None) -> MipSolution:
    """Run the query to optimality or budget exhaustion.

    Deterministic for a fixed node budget; the time budget is a coarse
    safety valve checked every few hundred nodes.
    """
    cfg = config or SolverConfig()
    sense = inst.sense
    rank = inst.objective == "rank"
    # Snap rounding-noise gap components (exactly tied pairs seen through
    # upstream factorizations) to zero: an exact tie then stays exact
    # instead of cutting an ill-conditioned sliver of the region.
    G = np.asarray(inst.gaps, dtype=np.float64).copy()
    P = G.shape[0]
    if P:
        g_scale = float(np.max(np.abs(G)))
        if g_scale > 0:
            G[np.abs(G) <= 1e-13 * g_scale] = 0.0
    glo, ghi = gap_ranges(inst.region, G)
    scale = max(1.0, float(np.max(np.abs(glo), initial=0.0)), float(np.max(np.abs(ghi), initial=0.0)))
    tol_forced = 1e-12 * scale
    mtol = MARGIN * scale
    geom = _make_geom(inst.region, FEAS_TOL * scale)

    # Losses are kept per objective row only: slot 0 is the focal row, or
    # slots 0..m-1 are the distinct group rows; slot m takes every other
    # row's losses and is never read.
    obj_rows = [inst.focal] if rank else sorted(set(inst.group_rows))
    m = len(obj_rows)
    slot = np.full(inst.n_rows, m, dtype=np.int64)
    slot[obj_rows] = np.arange(m)
    s_above = slot[inst.above]
    s_below = slot[inst.below]
    # The one place the objectives differ in sign: whether a loss on an
    # objective row moves the value toward the sense.
    loss_helps = (sense == "max") == rank

    def count(slots) -> NDArray[np.int64]:
        return np.bincount(slots, minlength=m + 1)

    # Root presolve: orientations forced by a sign-definite gap range.
    forced1 = glo > tol_forced
    forced0 = ghi < -tol_forced
    gap_norm = np.max(np.abs(G), axis=1) if P else np.zeros(0)
    wild = gap_norm <= 1e-12 * scale  # identical score vectors; never constrains
    free = ~(forced1 | forced0)
    # A wild pair touching exactly one objective row is greedy: its loss
    # goes onto that row when a loss helps, else onto the other end. Wild
    # pairs between two group rows are genuinely combinatorial and stay.
    greedy = free & wild & ((s_above < m) != (s_below < m))
    onto = np.where((s_above < m) == loss_helps, s_above, s_below)
    base_losses = count(s_below[forced1]) + count(s_above[forced0]) + count(onto[greedy])
    free &= ~greedy

    # Static branch order: most evenly split gap range first, then larger
    # reach, then index for determinism. The search runs on the free pairs
    # permuted into this order, so the first open pair is the branch pair.
    free_idx = np.flatnonzero(free)
    F = free_idx.shape[0]
    fr_lo = glo[free_idx]
    fr_hi = ghi[free_idx]
    span = fr_hi - fr_lo
    # Zero-span (wild) pairs carry no geometry; branch them last.
    fracdev = np.where(
        span > 1e-12 * scale,
        np.abs(fr_hi / np.where(span > 0, span, 1.0) - 0.5),
        np.inf,
    )
    order = free_idx[np.lexsort((free_idx, -np.abs(fr_hi), fracdev))]
    G = G[order]
    wild = wild[order]
    s_above = s_above[order]
    s_below = s_below[order]
    # The child searched first puts the loss on a pair's lone objective end
    # when a loss helps, and on its other end when not; a pair with both
    # or neither end on an objective row tries orientation 0 first.
    a_obj = s_above < m
    preferred = np.where(a_obj != (s_below < m), a_obj != loss_helps, False).astype(np.int8)

    incumbent_value: int | None = None
    incumbent_witness: NDArray[np.float64] | None = None

    def value(losses) -> int:
        if rank:
            return 1 + int(losses[0])
        return int(np.sum(1 + losses[:m] <= inst.kappa))

    def node_bound(node: _Node, open_mask) -> int:
        """Admissible bound: every open pair touching an objective row may
        still go either way."""
        L = node.losses[:m]
        if rank and sense == "min":
            return 1 + int(L[0])
        if not rank and sense == "max":
            return int(np.sum(L + 1 <= inst.kappa))
        potential = (count(s_above[open_mask]) + count(s_below[open_mask]))[:m]
        if rank:
            return 1 + int(L[0]) + int(potential[0])
        return int(np.sum(L + potential + 1 <= inst.kappa))

    def witness_update(node: _Node, open_mask, param):
        """Turn a feasibility witness into an attained objective value.

        Open pairs orient by the gap sign at the witness with a safety
        margin. An ambiguous pair resolves pessimistically, so the claimed
        value is always attainable: it charges both ends when a loss hurts
        and nobody when a loss helps.
        """
        nonlocal incumbent_value, incumbent_witness
        losses = node.losses
        idx = np.flatnonzero(open_mask)
        if idx.shape[0]:
            vals = G[idx] @ param
            losses = losses + count(s_below[idx[vals >= mtol]]) + count(s_above[idx[vals <= -mtol]])
            if not loss_helps:
                amb = idx[np.abs(vals) < mtol]
                losses += count(s_above[amb]) + count(s_below[amb])
        v = value(losses)
        if incumbent_value is None or (v < incumbent_value if sense == "min" else v > incumbent_value):
            incumbent_value = v
            incumbent_witness = np.asarray(param, dtype=np.float64).copy()

    def prunable(bound_val: int) -> bool:
        if incumbent_value is None:
            return False
        if sense == "min":
            return bound_val >= incumbent_value
        return bound_val <= incumbent_value

    def make_child(node: _Node, c: int, orientation: int, param) -> _Node:
        assign = node.assign.copy()
        assign[c] = orientation
        losses = node.losses.copy()
        losses[s_below[c] if orientation == 1 else s_above[c]] += 1
        if wild[c]:
            state = node.region_state  # trivial halfspace; geometry unchanged
        else:
            row = -G[c] if orientation == 1 else G[c]
            state = geom.child(node.region_state, row, param)
        return _Node(assign=assign, losses=losses, region_state=state)

    def propagate(node: _Node):
        """Force orientations whose gap became sign-definite on the current
        region, and return the pairs left open. Forced halfspaces are
        redundant there, so the region state stays put and one pass
        suffices."""
        open_mask = node.assign < 0
        if not open_mask.any():
            return open_mask
        ranges = geom.free_ranges(node.region_state, G[open_mask])
        if ranges is None:
            return open_mask
        r_lo, r_hi = ranges
        open_ids = np.flatnonzero(open_mask)
        force1 = open_ids[r_lo > tol_forced]
        force0 = open_ids[r_hi < -tol_forced]
        if not (force1.shape[0] or force0.shape[0]):
            return open_mask
        node.assign[force1] = 1
        node.assign[force0] = 0
        node.losses += count(s_below[force1]) + count(s_above[force0])
        return node.assign < 0

    stack = [_Node(assign=np.full(F, -1, dtype=np.int8), losses=base_losses, region_state=geom.root())]
    nodes = 0
    start = time.monotonic()
    exhausted = False
    while stack:
        if nodes >= cfg.node_budget or (nodes % 256 == 0 and time.monotonic() - start > cfg.time_budget):
            exhausted = True
            break
        node = stack.pop()
        nodes += 1
        ok, param = geom.feasible(node.region_state)
        if not ok:
            continue
        open_mask = propagate(node)
        witness_update(node, open_mask, param)
        if not open_mask.any():
            continue  # leaf; witness_update already recorded its exact value
        if prunable(node_bound(node, open_mask)):
            continue
        c = int(np.argmax(open_mask))
        pref = int(preferred[c])
        stack.append(make_child(node, c, 1 - pref, param))
        stack.append(make_child(node, c, pref, param))

    if not exhausted:
        status = "optimal"
        bound = incumbent_value
    else:
        open_bounds = [node_bound(nd, nd.assign < 0) for nd in stack]
        outer = (min if sense == "min" else max)(open_bounds, default=incumbent_value)
        if outer is not None and prunable(outer):
            status, bound = "optimal", incumbent_value
        else:
            status, bound = "budget_exhausted", outer

    if incumbent_value is None:
        # The root region is never empty for the supported region types, so
        # this would mean the budget died before the first feasibility call.
        status = "budget_exhausted" if exhausted else "infeasible"

    return MipSolution(
        status=status,
        value=incumbent_value,
        bound=bound,
        witness=incumbent_witness,
        nodes=nodes,
        presolve_fixed=int(P - F),
        free_pairs=int(F),
    )


# ---------------------------------------------------------------------------
# Instance dumps.


def dump_instance(inst: MipInstance, path) -> None:
    """Write the query as JSON."""
    if isinstance(inst.region, BallRegion):
        region = {
            "kind": "ball",
            "center": [float(v) for v in inst.region.center],
            "radius": float(inst.region.radius),
        }
    else:
        region = {
            "kind": "simplex",
            "dim": int(inst.region.dim),
        }
    doc = {
        "sense": inst.sense,
        "objective": inst.objective,
        "n_rows": int(inst.n_rows),
        "focal": None if inst.focal is None else int(inst.focal),
        "group_rows": None if inst.group_rows is None else [int(g) for g in inst.group_rows],
        "kappa": None if inst.kappa is None else int(inst.kappa),
        "region": region,
        "pairs": [
            {
                "above": int(inst.above[p]),
                "below": int(inst.below[p]),
                "gap": [float(v) for v in inst.gaps[p]],
            }
            for p in range(inst.gaps.shape[0])
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_instance(path) -> MipInstance:
    """Inverse of :func:`dump_instance`. Keys it does not write, such as
    those of older dumps, are ignored."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["region"]["kind"] == "ball":
        region = BallRegion(
            center=np.array(doc["region"]["center"], dtype=np.float64),
            radius=float(doc["region"]["radius"]),
        )
    else:
        region = SimplexRegion(dim=int(doc["region"]["dim"]))
    pairs = doc["pairs"]
    dim = region.dim if isinstance(region, SimplexRegion) else region.center.shape[0]
    gaps = np.array([p["gap"] for p in pairs], dtype=np.float64).reshape(len(pairs), dim)
    return MipInstance(
        sense=doc["sense"],
        objective=doc["objective"],
        region=region,
        gaps=gaps,
        above=np.array([p["above"] for p in pairs], dtype=np.int64),
        below=np.array([p["below"] for p in pairs], dtype=np.int64),
        n_rows=int(doc["n_rows"]),
        focal=doc["focal"],
        group_rows=None if doc["group_rows"] is None else tuple(doc["group_rows"]),
        kappa=doc["kappa"],
    )
