"""Branch and bound over pairwise ordering indicators.

An instance asks for the extreme rank of one row, or the extreme number of
group rows selected into the top kappa, as a scoring parameter varies over
a region: a Euclidean ball of coefficient vectors, or the simplex of blend
weights. Each pair of rows contributes a binary orientation; fixing the
orientation imposes one closed halfspace (the pairwise score gap has a
definite sign), and the objective depends only on orientations. The search
branches on orientations, checking region nonemptiness exactly:

* ball: distance from the center to the intersection of homogeneous
  halfspaces via a Lawson-Hanson nonnegative least-squares projection onto
  the polar cone, written in NumPy (SciPy's bounded-variable least squares
  as the fallback), with a Farkas-style certificate when infeasible; a
  child whose new halfspace its parent's certified witness already meets
  inherits that witness and skips the projection;
* two-target simplex: an interval in the first blend weight;
* three targets: polygon clipping;
* more targets: small feasibility LPs.

After the root presolve fixes the sign-definite pairs, the search runs on
a compact state: the free pairs only, permuted once into a static order,
and one loss count per objective row (the focal row, or each distinct
group row) plus a catch-all slot that nothing reads, each with its
reach, the losses plus the open pairs that could still charge it. A node
branches on the open pair whose gap range is most evenly split around
zero on the node's own region: exact ranges on the interval and the
polygon, outer ranges propagated from each imposed halfspace on the ball.
The root, and every node of the four-or-more-target simplex, use the
ranges over the whole region, which is the static order. Rank and group queries differ only in their value formula
and in one sign, whether a loss on an objective row helps the sense; a
group query also drops the open pairs between rows whose membership is
settled.

Bounds are admissible counting arguments, incumbents come from feasibility
witnesses with a safety margin so a reported value is always attainable,
and the whole search is deterministic for a fixed node budget. Every node
is pruned against one value to beat: the incumbent, or for a rank query
with a cut, which asks only which side of it the focal row can reach, a
fixed target across the cut, whose first incumbent beyond it ends the
search.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_TIME_BUDGET = 60.0

# Simplex feasibility slack and witness safety margin, both relative to
# the instance's gap scale.
FEAS_TOL = 1e-9
MARGIN = 1e-9
# Slack on the squared distance when testing a given point for ball
# membership.
MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class BallRegion:
    """Closed ball of coefficient vectors."""

    center: NDArray[np.float64]
    radius: float

    def contains(self, w: NDArray[np.float64]) -> bool:
        delta = np.asarray(w, dtype=np.float64) - self.center
        return float(delta @ delta) <= self.radius**2 + MEMBERSHIP_TOL


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

    A rank query with ``kappa`` set is a verdict query: :func:`solve`
    decides whether the focal row can cross the top-kappa cut in the
    sense's direction instead of optimizing its rank.
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
        if not self.time_budget > 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")


@dataclass(frozen=True)
class MipSolution:
    """Outcome of one query.

    ``value`` is in final units (a rank, or a selected-group count) and is
    attained by ``witness``; ``bound`` is the proven limit on the optimum,
    which every query has.
    ``status`` is ``optimal`` when the query is settled and has a witness:
    ``bound`` then equals ``value`` for an optimizing query, and lies on
    the same side of kappa for a verdict query (a rank query with
    ``kappa`` set). Otherwise it is ``budget_exhausted`` when a budget ran
    out, else ``undecided``: a node no certificate decides (a degenerate
    ball cone, or a feasibility LP HiGHS fails on) could still beat the
    value to beat.
    """

    status: str
    value: int | None
    bound: int
    witness: NDArray[np.float64] | None
    nodes: int
    presolve_fixed: int
    free_pairs: int

    def __post_init__(self):
        if self.status not in ("optimal", "budget_exhausted", "undecided"):
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
    screen = screen_membership(region, V)
    never_top = screen.never_top(kappa)
    changeable = np.zeros(n, dtype=bool)
    changeable[list(group_rows)] = True
    changeable &= ~(never_top | screen.always_top(kappa))
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
        group_rows=tuple(r for r in group_rows if not never_top[r]),
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

# Rows per simplex screen block, which holds a few (SCREEN_BLOCK / 64, n)
# bitset words.
SCREEN_BLOCK = 256
# Rows per ball screen block, consecutive in score order; a block holds a
# few (BALL_BLOCK, band) arrays. Narrow blocks keep each band close to
# its rows' own: on the clinical curve 32-64 rows beat 256.
BALL_BLOCK = 32
PRUNE_REL_TOL = 1e-12


@dataclass(frozen=True)
class PruneResult:
    """Certified outer rank bounds from pairwise gap bounds alone.

    ``outer_min[i] <= true min rank`` and ``outer_max[i] >= true max rank``
    for every row. The bounds do not depend on the cut: one screen serves
    every kappa, and :meth:`never_top` and :meth:`always_top` mark the rows
    whose top-kappa membership is fixed across the whole region.
    """

    outer_min: NDArray[np.int64]
    outer_max: NDArray[np.int64]

    def never_top(self, kappa: int) -> NDArray[np.bool_]:
        """Rows with at least kappa rows strictly above them everywhere."""
        return self.outer_min > kappa

    def always_top(self, kappa: int) -> NDArray[np.bool_]:
        """Rows with at least n - kappa rows strictly below them everywhere."""
        return self.outer_max <= kappa


def screen_membership(region: "BallRegion | SimplexRegion", V: NDArray[np.float64]) -> PruneResult:
    """Outer rank bounds of every row over the whole region.

    ``V`` maps rows to score coefficients over ``region``. Row j is
    strictly above row i everywhere when the region supremum of
    score(i) - score(j) is below ``-PRUNE_REL_TOL * max(1, spread)``; the
    spread, the highest score over the region minus the lowest, bounds
    every such supremum. Over a ball the supremum is the center gap plus
    the radius times the row distance, formed only for the pairs the
    center gap leaves open: a band around each row in score order
    (:func:`screen_ball`). Over the simplex a linear gap peaks at a one-hot
    vertex, so j is strictly above i exactly when it is in every target:
    the strict orders are counted from per-target sorted cuts and row
    bitsets (:func:`_screen_simplex`), never as an n x n matrix.

    A row's outer min rank is one plus the rows strictly above it, its
    outer max rank n minus the rows strictly below it.

    Raises
    ------
    ValueError
        If any entry of ``V`` is not finite; the message names the first
        such row.
    """
    V = np.asarray(V, dtype=np.float64)
    if isinstance(region, BallRegion):
        return screen_ball(V, region.center, (region.radius,))[0]
    if not isinstance(region, SimplexRegion):
        raise TypeError(f"unknown region type {type(region)!r}")
    _require_finite(V)
    tol = PRUNE_REL_TOL * max(1.0, float(V.max() - V.min()))
    count_above, count_below = _screen_simplex(V, tol)
    return PruneResult(outer_min=1 + count_above, outer_max=V.shape[0] - count_below)


def _require_finite(V: NDArray[np.float64]) -> None:
    bad = ~np.isfinite(V)
    if bad.any():
        raise ValueError(f"non-finite score coefficient at row {int(np.argwhere(bad)[0, 0])}")


def _strict_cut(a: NDArray[np.float64], s: NDArray[np.float64], tol) -> NDArray[np.intp]:
    """For each a[i], the first position p of ascending ``s`` with
    ``a[i] - s[p] < -tol`` (``len(s)`` when there is none); ``tol`` is
    one tolerance or one per entry of ``a``.

    ``fl(a - b)`` is monotone in b, so the predicate holds on a suffix of
    ``s``; a binary search on the very expression the comparison uses
    finds where that suffix starts, with no rounding of its own.
    """
    n = s.shape[0]
    cut = np.zeros(a.shape[0], dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = cut + step
        stays = (cand <= n) & ~(a - s[np.minimum(cand, n) - 1] < -tol)
        cut[stays] = cand[stays]
        step >>= 1
    return cut


def _screen_simplex(
    V: NDArray[np.float64], tol: float
) -> "tuple[NDArray[np.int64], NDArray[np.int64]]":
    """Per row, the number of rows strictly above it in every column of
    ``V`` and the number strictly below it in every column, where j is
    strictly above i in column k when ``V[i, k] - V[j, k] < -tol``.

    In column k's stable ascending order the rows strictly above row i
    are the suffix from position ``cut[i]`` (:func:`_strict_cut`). The cut
    never decreases along that order, so the rows strictly below row j
    are the prefix of the rows whose cut is at most j's position. A table
    ``pre[:, c]`` holding the first c rows of the order as bits turns both
    into one gather per column; AND across columns and a popcount give
    the counts. The bits cover one block of ``SCREEN_BLOCK`` member rows
    at a time, so the tables take O(n * SCREEN_BLOCK) bits.
    """
    n, K = V.shape
    order = np.argsort(V, axis=0, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(n)[:, None], axis=0)
    cut = np.empty_like(order)
    prefix = np.empty_like(order)
    for k in range(K):
        cut[:, k] = _strict_cut(V[:, k], V[order[:, k], k], tol)
        prefix[:, k] = np.searchsorted(cut[order[:, k], k], pos[:, k], side="right")

    count_above = np.zeros(n, dtype=np.int64)
    count_below = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n, SCREEN_BLOCK):
        members = np.arange(r0, min(n, r0 + SCREEN_BLOCK))
        word, bit = np.divmod(members - r0, 64)
        bits = np.left_shift(np.uint64(1), bit.astype(np.uint64))
        above = below = None
        for k in range(K):
            pre = np.zeros((int(word[-1]) + 1, n + 1), dtype=np.uint64)
            pre[word, pos[members, k] + 1] = bits
            np.bitwise_or.accumulate(pre, axis=1, out=pre)
            # Every member row minus the first cut rows of the order.
            a = pre[:, cut[:, k]]
            a ^= pre[:, n:]
            b = pre[:, prefix[:, k]]
            if above is None:
                above, below = a, b
            else:
                above &= a
                below &= b
        count_above += np.bitwise_count(above).sum(axis=0, dtype=np.int64)
        count_below += np.bitwise_count(below).sum(axis=0, dtype=np.int64)
    return count_above, count_below


def screen_ball(V: NDArray[np.float64], center: NDArray[np.float64], radii) -> "list[PruneResult]":
    """:func:`screen_membership` over the balls of several radii around
    one center, one result per radius.

    The supremum of score(i) - score(j) over a ball is the center gap
    plus the radius times the row distance; the rule compares the
    computed ``radius * D + (s_i - s_j)`` with ``-tol``, where D is the
    Euclidean distance summed over the columns in order, the value
    ``scipy.spatial.distance.cdist`` gives. Most pairs are ordered by
    their center gap alone, so the rows are sorted by center score once
    and each pair is settled in one of two ways:

    * in bulk: no distance from row i exceeds ``norm_i + max norm``, so a
      partner whose computed score difference exceeds
      ``h_i = radius * (norm_i + max norm) + tol``, padded for rounding,
      is ordered at that radius whatever its distance. Per radius,
      :func:`_strict_cut` finds in score order where those partners
      start on either side of each row;
    * exactly: each block of ``BALL_BLOCK`` consecutive rows of the order
      takes its distances to the band of positions its rows leave open at
      some radius from one BLAS product and the squared row norms, and
      each radius compares inside its own band, which narrows with the
      radius. Those distances carry a proven error bound, and every entry
      whose comparison lies within it of ``-tol`` is compared again on its
      exact distance, so each comparison is the exact rule's.

    A row counts both directions from its own scan: a pair is ordered
    when ``radius * D - |s_i - s_j|`` is below ``-tol``, the rule's
    expression for whichever row scores lower, since the computed
    differences ``s_i - s_j`` and ``s_j - s_i`` are negatives of each
    other and the exact distance is symmetric bit for bit. Every count
    equals the dense rule's, in O(BALL_BLOCK * n) memory.
    """
    V = np.asarray(V, dtype=np.float64)
    _require_finite(V)
    n, dim = V.shape
    scores = V @ center
    norms = np.linalg.norm(V, axis=1)
    tols = []
    for radius in radii:
        reach = radius * norms
        spread = np.max(scores + reach) - np.min(scores - reach)
        tols.append(PRUNE_REL_TOL * max(1.0, float(spread)))

    order = np.argsort(scores, kind="stable")
    s, Vs = scores[order], V[order]
    eps = np.finfo(np.float64).eps
    # Relative slack over the rounding of the norms and distances (about
    # dim + 4 roundings each) and of the few products and sums that form h
    # or meet it.
    slack = 1.0 + 2 * (dim + 8) * eps
    sorted_norms = norms[order]
    reach_bound = sorted_norms + norms.max(initial=0.0)
    # Per radius and block of score positions, the band the block's rows
    # leave open: every partner before it is surely below each of them,
    # and every partner from its end on surely above.
    starts = np.arange(0, n, BALL_BLOCK)
    open_bands = []
    for radius, tol in zip(radii, tols):
        h = (radius * reach_bound + tol) * slack
        lo = np.minimum.reduceat(n - _strict_cut(-s, -s[::-1], h), starts)
        hi = np.maximum.reduceat(_strict_cut(s, s, h), starts)
        open_bands.append(zip(lo.tolist(), hi.tolist()))

    # One product gives each block's squared distances |u|^2 + |v|^2 -
    # 2 u.v: rows [-2u, |u|^2, 1] against columns [v, 1, |v|^2]. Its error:
    # a dot product errs by at most its length times eps times the sum of
    # its terms' magnitudes, so the squared norms err by dim eps |u|^2 and
    # the product by (dim + 2) eps (|u| + |v|)^2, together at most
    # (2 dim + 2) eps (|u| + |v|)^2; a square root moves by at most the
    # root of that, and rounds by eps D. The exact distance C (squares
    # summed over the columns in order) is within (dim + 3) eps (|u| + |v|)
    # of |u - v|. Hence |D - C| <= 2 sqrt((dim + 4) eps) (|u| + |v|), and a
    # block bounds |u| + |v| by its rows' largest norm plus its band's.
    dist_unit = 2.0 * math.sqrt((dim + 4) * eps)
    score_bound = float(np.abs(s).max(initial=0.0))
    sq_norms = np.einsum("ij,ij->i", Vs, Vs)
    ones = np.ones(n)
    left = np.column_stack([-2.0 * Vs, sq_norms, ones])
    right = np.column_stack([Vs, ones, sq_norms]).T
    # Scratch that every block reuses, viewed at the block's band width.
    size = min(n, BALL_BLOCK) * n
    dist_buf, gap_buf, margin_buf = np.empty(size), np.empty(size), np.empty(size)
    ordered_buf, unsure_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    earlier = np.tri(BALL_BLOCK, k=-1, dtype=bool)  # earlier[i, q]: q < i
    later = earlier.T
    diag = np.arange(BALL_BLOCK)
    count_above = np.zeros((len(tols), n), dtype=np.int64)
    count_below = np.zeros((len(tols), n), dtype=np.int64)
    for p0, bands in zip(starts.tolist(), zip(*open_bands)):
        p1 = min(n, p0 + BALL_BLOCK)
        b = p1 - p0
        # Distances and gaps over the union of the radii's bands.
        w0 = min(lo for lo, _ in bands)
        w1 = max(hi for _, hi in bands)
        D = np.matmul(left[p0:p1], right[:, w0:w1], out=_block(dist_buf, b, w1 - w0))
        np.maximum(D, 0.0, out=D)
        np.sqrt(D, out=D)
        # A row's distance to itself is exactly 0, as is the exact one.
        D[diag[:b], p0 - w0 + diag[:b]] = 0.0
        dist_reach = float(sorted_norms[p0:p1].max() + sorted_norms[w0:w1].max())
        gap = np.subtract(s[p0:p1, None], s[None, w0:w1], out=_block(gap_buf, b, w1 - w0))
        np.abs(gap, out=gap)
        for t, (radius, tol, (lo, hi)) in enumerate(zip(radii, tols, bands)):
            cols = slice(lo - w0, hi - w0)
            margin = np.multiply(D[:, cols], radius, out=_block(margin_buf, b, hi - lo))
            margin -= gap[:, cols]
            # margin + tol has the sign of margin - (-tol): rounding keeps signs.
            margin += tol
            ordered = np.less(margin, 0.0, out=_block(ordered_buf, b, hi - lo))
            # fl(radius * D) - gap is monotone in D, so the exact distance,
            # within the bound, moves it by at most radius times the bound
            # plus a few roundings of its terms; doubled for safety.
            band = 2.0 * (radius * dist_reach * (dist_unit + 4 * eps) + 4 * eps * (2 * score_bound + tol))
            np.abs(margin, out=margin)
            unsure = np.less_equal(margin, band, out=_block(unsure_buf, b, hi - lo))
            unsure[diag[:b], p0 - lo + diag[:b]] = False
            if unsure.any():
                ii, jj = np.nonzero(unsure)
                exact = _row_distances(Vs[p0 + ii], Vs[lo + jj])
                ordered[ii, jj] = exact * radius - gap[ii, lo - w0 + jj] < -tol
            # A partner before the block, or before the row inside it,
            # scores no higher, so an ordered pair there is one below the
            # row; a partner after it scores no lower.
            own = ordered[:, p0 - lo : p1 - lo]
            below = ordered[:, : p0 - lo].sum(1) + (own & earlier[:b, :b]).sum(1)
            above = ordered[:, p1 - lo :].sum(1) + (own & later[:b, :b]).sum(1)
            count_below[t, p0:p1] = lo + below
            count_above[t, p0:p1] = n - hi + above
    position = np.argsort(order)  # each row's place in score order
    return [
        PruneResult(outer_min=1 + above[position], outer_max=n - below[position])
        for above, below in zip(count_above, count_below)
    ]


def _row_distances(A: NDArray[np.float64], B: NDArray[np.float64]) -> NDArray[np.float64]:
    """Euclidean distance of each row of A to the same row of B, its
    squares summed over the columns in order: ``cdist``'s value, bit for
    bit."""
    diff = A - B
    total = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        total += diff[:, k] * diff[:, k]
    return np.sqrt(total)


def _block(buf: NDArray, rows: int, cols: int) -> NDArray:
    """A C-contiguous (rows, cols) view of the front of a flat buffer."""
    return buf[: rows * cols].reshape(rows, cols)


# ---------------------------------------------------------------------------
# Projections and feasibility LPs. The NNLS is NumPy's; SciPy is imported
# only by the rare calls below, BVLS when NNLS fails on a ball node and
# HiGHS on the four-or-more-target simplex, so no other run loads it.

# A column joins the NNLS passive set only when its Cholesky pivot on the
# set exceeds this share of the set's largest: else it is dependent on the
# set to working precision.
NNLS_RANK_TOL = 1e-7
# Passive-set solves NNLS may take per column before it gives up.
NNLS_SOLVES_PER_COLUMN = 3


def nnls(A: NDArray[np.float64], b: NDArray[np.float64], start) -> "tuple[NDArray[np.float64], float]":
    """Nonnegative least squares, the x >= 0 minimizing |A x - b|.

    The active-set method of Lawson and Hanson (*Solving Least Squares
    Problems*, 1974) on the normal equations. The column whose gradient
    ``A^T (b - A x)`` is largest, and beyond that gradient's rounding
    bound, joins the passive set, whose Cholesky factor grows by one row.
    As in Lawson and Hanson, a column dependent on the set to working
    precision, or whose coefficient would not come out positive, is passed
    over until x next changes. Returns ``(x, rnorm)`` as
    ``scipy.optimize.nnls`` does.

    ``start`` lists columns to begin from, the support of a nearby
    problem's solution (empty for a cold start): the ones independent to
    working precision form the first passive set, which sheds every
    column whose least-squares coefficient is not positive until all are,
    a point the method can continue from. A ball node's projection starts
    from its nearest projected ancestor's support, which it shares but
    for a column or two.

    The passive sets of the ball's projections hold a handful of columns,
    so the factor and its solves run on Python floats, which beat NumPy's
    per-call overhead at that size.

    Raises
    ------
    RuntimeError
        After ``NNLS_SOLVES_PER_COLUMN`` passive-set solves per column, or
        when a passive set turns rank-deficient, so that its solve would
        certify nothing.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    AtA = A.T @ A
    gram = AtA.tolist()
    Atb = (A.T @ b).tolist()
    col_norm = np.sqrt(np.diagonal(AtA)).tolist()
    # The gradient's rounding bound per unit of |b| + sum |a_p| x_p.
    unit = 10 * max(m, n) * np.finfo(np.float64).eps * max(col_norm)
    b_norm = float(np.linalg.norm(b))
    budget = NNLS_SOLVES_PER_COLUMN * n
    passive: list[int] = []  # in the order the columns joined
    factor: list[list[float]] = []  # Cholesky rows of the passive normal matrix
    for j in start:
        row = _cholesky_row(gram, passive, factor, j)
        if row is not None:
            passive.append(j)
            factor.append(row)
    z: list[float] = []  # the solution on the passive set
    while passive:
        budget -= 1
        z = _cholesky_solve(factor, [Atb[p] for p in passive])
        if min(z) > 0:
            break
        passive = [p for p, zp in zip(passive, z) if zp > 0]
        factor = _cholesky(gram, passive)
        z = []
        if factor is None:  # a subset of an independent set, up to rounding
            raise RuntimeError("nnls: rank-deficient passive set")
    closed = list(passive)  # passive or passed-over columns
    residual = b - A[:, passive] @ z if passive else b
    while True:
        w = A.T @ residual
        if closed:
            w[closed] = -np.inf
        j = int(w.argmax())
        if not w[j] > unit * (b_norm + sum(col_norm[p] * zp for p, zp in zip(passive, z))):
            break
        row = _cholesky_row(gram, passive, factor, j)
        trial = None if row is None else _cholesky_solve(factor + [row], [Atb[p] for p in passive + [j]])
        if trial is None or not trial[-1] > 0:
            closed.append(j)
            continue
        passive.append(j)
        factor.append(row)
        x = z + [0.0]
        while True:
            budget -= 1
            if budget < 0:
                raise RuntimeError("nnls: iteration cap reached")
            if min(trial) > 0:
                break
            # Step from x toward the trial solution until the first passive
            # entry reaches zero, and return the entries at zero to the
            # active set.
            alpha, first = min((xk / (xk - tk), k) for k, (xk, tk) in enumerate(zip(x, trial)) if tk <= 0)
            x = [xk + alpha * (tk - xk) for xk, tk in zip(x, trial)]
            x[first] = 0.0
            kept = [k for k, xk in enumerate(x) if xk > 0]
            passive = [passive[k] for k in kept]
            x = [x[k] for k in kept]
            factor = _cholesky(gram, passive)
            if factor is None:
                raise RuntimeError("nnls: rank-deficient passive set")
            trial = _cholesky_solve(factor, [Atb[p] for p in passive])
        z = trial
        closed = list(passive)
        residual = b - A[:, passive] @ z
    x = np.zeros(n)
    x[passive] = z
    return x, float(np.linalg.norm(residual))


def _cholesky_row(gram, cols, factor, j) -> "list[float] | None":
    """The row that column ``j`` adds to the Cholesky factor of the normal
    matrix on ``cols``, or None when its pivot is not above
    ``NNLS_RANK_TOL`` times the factor's largest."""
    row: list[float] = []
    gram_j = gram[j]
    for i, p in enumerate(cols):
        f_i = factor[i]
        s = gram_j[p]
        for k in range(i):
            s -= f_i[k] * row[k]
        row.append(s / f_i[i])
    pivot_sq = gram_j[j] - sum(v * v for v in row)
    if not pivot_sq > 0:
        return None
    pivot = math.sqrt(pivot_sq)
    if pivot <= NNLS_RANK_TOL * max([factor[i][i] for i in range(len(cols))] + [pivot]):
        return None
    row.append(pivot)
    return row


def _cholesky(gram, cols) -> "list[list[float]] | None":
    """The Cholesky factor of the normal matrix on ``cols``, or None when a
    pivot fails :func:`_cholesky_row`'s test."""
    factor: list[list[float]] = []
    for t in range(len(cols)):
        row = _cholesky_row(gram, cols[:t], factor, cols[t])
        if row is None:
            return None
        factor.append(row)
    return factor


def _cholesky_solve(factor, rhs) -> "list[float]":
    """Solve ``F F^T z = rhs`` for the lower-triangular rows ``factor``."""
    k = len(factor)
    y: list[float] = []
    for i in range(k):
        f_i = factor[i]
        s = rhs[i]
        for t in range(i):
            s -= f_i[t] * y[t]
        y.append(s / f_i[i])
    z = [0.0] * k
    for i in range(k - 1, -1, -1):
        s = y[i]
        for t in range(i + 1, k):
            s -= factor[t][i] * z[t]
        z[i] = s / factor[i][i]
    return z


def lsq_linear(*args, **kwargs):
    """``scipy.optimize.lsq_linear``, imported when first called."""
    from scipy.optimize import lsq_linear as bounded_lsq

    return bounded_lsq(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when first called."""
    from scipy.optimize import linprog as highs_lp

    return highs_lp(*args, **kwargs)


# ---------------------------------------------------------------------------
# Region state: immutable per-node geometry with an exact feasibility test.
# ``feasible`` returns the verdict (True, False, or None when no
# certificate settles it either way) and, when True, a witness point.


@dataclass
class _BallState:
    """A ball node's region: its halfspace rows, a certified point when one
    is known, its outer gap ranges, and the support of the nearest NNLS
    projection on its path, which :meth:`_BallGeom.feasible` updates."""

    rows: tuple
    witness: "NDArray[np.float64] | None"
    lo: NDArray[np.float64]
    hi: NDArray[np.float64]
    support: list


class _BallGeom:
    """The ball's geometry. A node's :class:`_BallState` holds its imposed
    halfspace rows, a certified point of the region they cut when one is
    known (inherited from the parent node), and outer gap ranges of the
    free pairs on that region.

    Over the ball cut by one halfspace ``a . w <= 0``, the extremes of a
    gap ``g . w`` have a closed form in the plane of g and â = a / |a|.
    With w = c + x, the cap is |x| <= r, â . x <= b for b = -â . c; write
    γ = g . â, s = |g - γ â| and ρ = sqrt(r^2 - b^2). The maximum is
    g . c + r |g| when the ball's own maximizer meets the halfspace
    (r γ <= b |g|), else g . c + γ b + s ρ, on the cut's disc; the minimum
    is the same with -g. A child's ranges are its parent's intersected
    with the new cap's, which bound the gap on the region since it lies
    in every cap; this is domain propagation in MIP terms (Achterberg,
    *Constraint Integer Programming*, 2007).

    Rounding: s^2 = |g|^2 - γ^2 and ρ^2 = r^2 - b^2 lose their relative
    accuracy to cancellation when g is near parallel to â or the cut near
    tangent, and a square root halves it once more. So each enters its
    root with its rounding bound added, ``4 (p + 2) eps |g|^2`` and
    ``4 (p + 2) eps (r^2 + |c|^2)`` in dimension p (a dot product of
    length p errs by at most p eps times the product of the norms), which
    only widens the range. The remaining terms err by a few eps of
    ``|g . c| + r |g|`` (the disc formula applies only where |b| <= r),
    and by p eps |g| |c| where g . c and b are formed; each bound is
    padded by ``1e-9 (|g . c| + r |g|) + 1e-12``, far more than the
    first, plus ``4 (p + 2) eps |g| |c|`` for the second. Where the case
    test itself rounds the wrong way, the two formulas agree to second
    order, since the cap's maximum is flat in b where they meet.
    """

    def __init__(self, region: BallRegion, gaps):
        self.gaps = gaps
        self.center = np.asarray(region.center, dtype=np.float64)
        self.radius = float(region.radius)
        center_norm = float(np.linalg.norm(self.center))
        # Halfspace slack in normalized-gap units; one tie-tolerance band.
        self.ktol = 1e-9 * (center_norm + self.radius)
        eps = np.finfo(np.float64).eps
        dim = self.center.shape[0]
        self.g_center = gaps @ self.center
        self.g_sq = np.einsum("ij,ij->i", gaps, gaps)
        self.g_norm = np.sqrt(self.g_sq)
        reach = self.radius * self.g_norm
        rounding = 4 * (dim + 2) * eps
        self.pad = 1e-9 * (np.abs(self.g_center) + reach) + 1e-12 + rounding * self.g_norm * center_norm
        self.s_sq_err = rounding * self.g_sq
        self.rho_sq_err = rounding * (self.radius**2 + center_norm**2)
        self.ball_lo = self.g_center - reach - self.pad
        self.ball_hi = self.g_center + reach + self.pad

    def root(self):
        return _BallState(rows=(), witness=self.center, lo=self.ball_lo, hi=self.ball_hi, support=[])

    def child(self, state, pair, sign, witness):
        """The parent's rows plus one more, and the parent's gap ranges cut
        to the new halfspace's cap. The parent's certified witness stays
        certified when it meets the new halfspace within the tie band
        ``_certify`` accepts. Sibling halfspaces are opposite, so at least
        one of the two always inherits."""
        halfspace_row = sign * self.gaps[pair]
        rows = state.rows + (halfspace_row,)
        norm = float(np.linalg.norm(halfspace_row))
        if norm == 0:  # 0 <= 0 holds everywhere
            return _BallState(rows=rows, witness=witness, lo=state.lo, hi=state.hi, support=state.support)
        unit = halfspace_row / norm
        slack = float(unit @ witness)
        b = -float(unit @ self.center)
        r = self.radius
        rho = math.sqrt(max(r * r - b * b, 0.0) + self.rho_sq_err)
        gamma = self.gaps @ unit
        s = np.sqrt(np.maximum(self.g_sq - gamma * gamma, 0.0) + self.s_sq_err)
        disc_mid = self.g_center + gamma * b
        disc_half = s * rho + self.pad
        r_gamma = r * gamma
        b_norm = b * self.g_norm
        cap_hi = np.where(r_gamma <= b_norm, self.ball_hi, disc_mid + disc_half)
        cap_lo = np.where(-r_gamma <= b_norm, self.ball_lo, disc_mid - disc_half)
        return _BallState(
            rows=rows,
            witness=witness if slack <= self.ktol else None,
            lo=np.maximum(state.lo, cap_lo),
            hi=np.minimum(state.hi, cap_hi),
            support=state.support,
        )

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
        normalized so the multipliers stay tame and the Lawson-Hanson
        :func:`nnls` projects the center onto the polar cone. BVLS is the
        fallback when NNLS raises (its iteration cap, or a rank-deficient
        passive set) or its multipliers certify neither side. Either way
        the answer is accepted only with its certificate, and a cone that
        defeats both solvers is undecided (None) instead of guessed. NNLS
        starts from the support of the nearest projection on the node's
        path, and leaves its own for the node's children.
        """
        if state.witness is not None:
            return True, state.witness
        A_T = np.column_stack(state.rows)  # (p, m)
        norms = np.linalg.norm(A_T, axis=0)
        An = A_T / np.where(norms > 0, norms, 1.0)
        try:
            lam, _ = nnls(An, self.center, state.support)
        except RuntimeError:
            verdict = None
        else:
            state.support = np.flatnonzero(lam > 0).tolist()
            verdict, point = self._certify(An, lam)
        if verdict is None:
            res = lsq_linear(An, self.center, bounds=(0.0, np.inf), method="bvls", tol=1e-14)
            verdict, point = self._certify(An, np.maximum(res.x, 0.0))
        return verdict, point

    def free_ranges(self, state, ids):
        """Outer gap ranges on the node's region; None at the root, whose
        ranges are the presolve's and order the pairs statically."""
        return (state.lo[ids], state.hi[ids]) if state.rows else None


class _IntervalGeom:
    """Two-target simplex as an interval in the first blend weight."""

    PARAM_TOL = 1e-12  # slack in blend-weight units, distinct from gap units

    def __init__(self, tol_gap: float, gaps):
        self.tol_gap = tol_gap
        # Each pair's gap as a * t + g1 in the first blend weight t.
        self.a = gaps[:, 0] - gaps[:, 1]
        self.g1 = gaps[:, 1]

    def root(self):
        return (0.0, 1.0)

    def child(self, state, pair, sign, witness):
        lo, hi = state
        # halfspace: a * t + g1 <= 0
        a, g1 = sign * float(self.a[pair]), sign * float(self.g1[pair])
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

    def free_ranges(self, state, ids):
        lo, hi = state
        a = self.a[ids]
        g1 = self.g1[ids]
        v_lo = a * lo + g1
        v_hi = a * hi + g1
        return np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)


class _PolyGeom:
    """Three-target simplex as a polygon in the first two weights."""

    def __init__(self, tol: float, gaps):
        self.tol = tol
        # Each pair's gap as c1 * a1 + c2 * a2 + c0 in the first two weights.
        # The (2, P) stack serves free_ranges; the lists serve child, whose
        # scalar clipping runs faster on Python floats than on NumPy ones.
        self.c12 = np.vstack([gaps[:, 0] - gaps[:, 2], gaps[:, 1] - gaps[:, 2]])
        self.c0 = gaps[:, 2]
        self.c1_list, self.c2_list = self.c12.tolist()
        self.c0_list = self.c0.tolist()

    def root(self):
        return ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def child(self, state, pair, sign, witness):
        c1, c2, c0 = sign * self.c1_list[pair], sign * self.c2_list[pair], sign * self.c0_list[pair]
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

    def free_ranges(self, state, ids):
        V = np.asarray(state)  # (m, 2)
        vals = V @ self.c12[:, ids] + self.c0[ids]  # (m, P)
        return vals.min(axis=0), vals.max(axis=0)


class _LPGeom:
    """General simplex via feasibility linear programs."""

    def __init__(self, region: SimplexRegion, tol: float, gaps):
        self.K = region.dim
        self.tol = tol
        self.gaps = gaps

    def root(self):
        return ()

    def child(self, state, pair, sign, witness):
        return state + (sign * self.gaps[pair],)

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
        # Only infeasibility (2) proves the node empty; an iteration limit
        # or numerical trouble decides nothing.
        return (False if res.status == 2 else None), None

    def free_ranges(self, state, ids):
        return None


def _unevenness(lo, hi, tiny: float) -> NDArray[np.float64]:
    """How far each gap range [lo, hi] is from an even split around zero,
    ``|hi / (hi - lo) - 1/2|``. A range no wider than ``tiny`` (a wild pair,
    or one the region has pinned) reads inf, so its pair branches last."""
    span = hi - lo
    return np.where(span > tiny, np.abs(hi / np.where(span > 0, span, 1.0) - 0.5), np.inf)


def _make_geom(region, tol, gaps):
    """The region's geometry; ``tol`` is the simplex constraint slack in
    gap units (the ball keeps its own tie band). ``gaps`` holds the free
    pairs' gap rows in static order; ``child(state, pair, sign, witness)``
    adds the halfspace ``sign * gaps[pair] @ param <= 0``, and
    ``free_ranges(state, ids)`` gives gap ranges of the listed pairs that
    contain their values on a node's region (exact on the interval and the
    polygon, outer on the ball), or None when the node has no ranges of
    its own."""
    if isinstance(region, BallRegion):
        return _BallGeom(region, gaps)
    if isinstance(region, SimplexRegion):
        if region.dim == 2:
            return _IntervalGeom(tol, gaps)
        if region.dim == 3:
            return _PolyGeom(tol, gaps)
        return _LPGeom(region, tol, gaps)
    raise TypeError(f"unknown region type {type(region)!r}")


# ---------------------------------------------------------------------------
# Search.


@dataclass
class _Node:
    open: NDArray[np.int64]  # ids of the open free pairs, ascending in static order
    losses: NDArray[np.int64]  # per objective slot, then the catch-all slot
    reach: NDArray[np.int64]  # per slot, losses plus one per open pair end
    region_state: object
    # Group queries: whether a row may have settled since the parent
    # dropped the pairs between settled rows.
    settling: bool = True


def solve(inst: MipInstance, config: SolverConfig | None = None) -> MipSolution:
    """Run the query to optimality or budget exhaustion.

    Deterministic for a fixed node budget; the time budget is a coarse
    safety valve checked every few hundred nodes, never before the root
    is expanded.

    A rank query with ``kappa`` set is a verdict query: it asks only
    whether the focal row can cross the top-kappa cut in the sense's
    direction (``max``: a rank above kappa; ``min``: a rank of at most
    kappa). It is the optimizing search with a fixed value to beat,
    ``kappa`` for ``max`` and ``kappa + 1`` for ``min``, and it stops at
    the first incumbent that beats it; any other query beats its
    incumbent. Every node whose bound cannot beat that value is pruned.
    A node whose feasibility no certificate settles is not branched and
    stays open. The query is settled when it crossed, or when no open
    node's bound could beat the value to beat (see :class:`MipSolution`
    for the status); ``bound`` is the extreme of the open, pruned and
    incumbent values.
    """
    cfg = config or SolverConfig()
    sense = inst.sense
    rank = inst.objective == "rank"
    target = None
    if rank and inst.kappa is not None:
        target = inst.kappa if sense == "max" else inst.kappa + 1
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

    def charge(ones, zeros) -> NDArray[np.int64]:
        """Losses per slot of orienting the pairs ``ones`` 1 and ``zeros`` 0."""
        return count(np.concatenate((s_below[ones], s_above[zeros])))

    # Root presolve: orientations forced by a sign-definite gap range.
    forced1 = glo > tol_forced
    forced0 = ghi < -tol_forced
    free = ~(forced1 | forced0)
    # Identical score vectors; never constrains. Only free pairs read it, so
    # it is reduced over those alone, column by column.
    wild = np.zeros(P, dtype=bool)
    wild[free] = functools.reduce(np.maximum, np.abs(G[free]).T) <= 1e-12 * scale
    # A wild pair touching exactly one objective row is greedy: its loss
    # goes onto that row when a loss helps, else onto the other end. Wild
    # pairs between two group rows are genuinely combinatorial and stay.
    greedy = free & wild & ((s_above < m) != (s_below < m))
    onto = np.where((s_above < m) == loss_helps, s_above, s_below)
    base_losses = charge(forced1, forced0) + count(onto[greedy])
    free &= ~greedy

    # Static order: most evenly split gap range over the whole region
    # first, then larger |upper gap|, then index for determinism. The
    # search runs on the free pairs permuted into this order, and a node
    # keeps its open pairs in it. A node branches on the first of its open
    # pairs most evenly split on its own region, or on its first open pair
    # where the geometry has no ranges.
    free_idx = np.flatnonzero(free)
    F = free_idx.shape[0]
    fr_hi = ghi[free_idx]
    tiny_span = 1e-12 * scale
    unevenness = _unevenness(glo[free_idx], fr_hi, tiny_span)
    order = free_idx[np.lexsort((free_idx, -np.abs(fr_hi), unevenness))]
    G = G[order]
    wild = wild[order]
    s_above = s_above[order]
    s_below = s_below[order]
    geom = _make_geom(inst.region, FEAS_TOL * scale, G)
    # The child searched first puts the loss on a pair's lone objective end
    # when a loss helps, and on its other end when not; a pair with both
    # or neither end on an objective row tries orientation 0 first.
    a_obj = s_above < m
    preferred = np.where(a_obj != (s_below < m), a_obj != loss_helps, False).astype(np.int8)

    incumbent_value: int | None = None
    incumbent_witness: NDArray[np.float64] | None = None
    extreme = min if sense == "min" else max

    def value(losses) -> int:
        if rank:
            return 1 + int(losses[0])
        return int(np.count_nonzero(losses[:m] < inst.kappa))

    def better(a: int, b: int) -> bool:
        return a < b if sense == "min" else a > b

    def node_bound(node: _Node) -> int:
        """Admissible bound: every open pair may still go either way, so
        when a loss helps it may charge both its ends."""
        return value(node.reach if loss_helps else node.losses)

    def witness_update(node: _Node, param):
        """Turn a feasibility witness into an attained objective value.

        Open pairs orient by the gap sign at the witness with a safety
        margin. An ambiguous pair resolves pessimistically, so the claimed
        value is always attainable: it charges both ends when a loss hurts
        and nobody when a loss helps.
        """
        nonlocal incumbent_value, incumbent_witness
        losses = node.losses
        idx = node.open
        if idx.shape[0]:
            vals = G[idx] @ param
            losses = losses + charge(idx[vals >= mtol], idx[vals <= -mtol])
            if not loss_helps:
                amb = idx[np.abs(vals) < mtol]
                losses += charge(amb, amb)
        v = value(losses)
        if incumbent_value is None or better(v, incumbent_value):
            incumbent_value = v
            incumbent_witness = np.asarray(param, dtype=np.float64).copy()

    def can_beat(bound_val: int) -> bool:
        to_beat = incumbent_value if target is None else target
        return to_beat is None or better(bound_val, to_beat)

    def make_child(node: _Node, c, rest, orientation: int, param) -> _Node:
        """Orient the branch pair ``c``; ``rest`` is the node's other open
        pairs, which both children share."""
        win, lose = (s_above[c], s_below[c]) if orientation == 1 else (s_below[c], s_above[c])
        losses = node.losses.copy()
        losses[lose] += 1
        reach = node.reach.copy()
        reach[win] -= 1
        # The loser may have just gone out, the winner just become surely in.
        settling = not rank and (
            (lose < m and losses[lose] == inst.kappa) or (win < m and reach[win] == inst.kappa - 1)
        )
        if wild[c]:
            state = node.region_state  # trivial halfspace; geometry unchanged
        else:
            # Orientation 1 asks gap >= 0, the halfspace -gap <= 0.
            state = geom.child(node.region_state, c, -1.0 if orientation == 1 else 1.0, param)
        return _Node(open=rest, losses=losses, reach=reach, region_state=state, settling=settling)

    def propagate(node: _Node):
        """Force orientations whose gap became sign-definite on the current
        region and drop them from the node's open pairs. Forced halfspaces
        are redundant there, so the region state stays put and one pass
        suffices. Returns the unevenness of each remaining open pair's gap
        range on the region, or None when the node has no ranges of its own
        (it then branches in static order)."""
        if not node.open.shape[0]:
            return None
        ranges = geom.free_ranges(node.region_state, node.open)
        if ranges is None:
            return None
        r_lo, r_hi = ranges
        hit1 = r_lo > tol_forced
        # Outer ranges cross only on a node whose exact region is empty,
        # accepted within the tie band; force such a pair once.
        hit0 = (r_hi < -tol_forced) & ~hit1
        hit = hit1 | hit0
        if hit.any():
            node.losses += charge(node.open[hit1], node.open[hit0])
            node.reach -= charge(node.open[hit0], node.open[hit1])
            node.open = node.open[~hit]
            node.settling = True
            r_lo, r_hi = r_lo[~hit], r_hi[~hit]
        return _unevenness(r_lo, r_hi, tiny_span)

    def drop_settled(node: _Node, unevenness):
        """Group queries: drop the open pairs whose two ends are both
        settled. A row is settled when it is no group row (the catch-all
        slot), already out (losses of at least kappa), or surely in (its
        losses plus its open pairs stay below kappa). Losses only grow, so
        a settled row stays settled, and a dropped pair charges only
        settled rows: every value, bound and witness value stays the same,
        and only subtrees that cannot change the count disappear. Returns
        ``unevenness`` (per open pair, or None) for the pairs kept."""
        if not (node.settling and node.open.shape[0]):
            return unevenness
        settled = (node.losses >= inst.kappa) | (node.reach < inst.kappa)
        if not settled[:m].any():
            return unevenness
        settled[m] = True
        both = settled[s_above[node.open]] & settled[s_below[node.open]]
        if both.any():
            drop = node.open[both]
            node.reach -= charge(drop, drop)
            node.open = node.open[~both]
            if unevenness is not None:
                unevenness = unevenness[~both]
        return unevenness

    root_open = np.arange(F, dtype=np.int64)
    stack = [
        _Node(
            open=root_open,
            losses=base_losses,
            reach=base_losses + charge(root_open, root_open),
            region_state=geom.root(),
        )
    ]
    undecided_bounds: list[int] = []
    pruned: int | None = None  # the extreme bound of the pruned nodes
    crossed = False
    nodes = 0
    start = time.monotonic()
    exhausted = False
    while stack:
        # The clock is read only after the root, which every query expands.
        out_of_time = nodes > 0 and nodes % 256 == 0 and time.monotonic() - start > cfg.time_budget
        if nodes >= cfg.node_budget or out_of_time:
            exhausted = True
            break
        node = stack.pop()
        nodes += 1
        ok, param = geom.feasible(node.region_state)
        if ok is None:
            undecided_bounds.append(node_bound(node))
            continue
        if not ok:
            continue
        unevenness = propagate(node)
        if not rank:
            unevenness = drop_settled(node, unevenness)
        witness_update(node, param)
        if target is not None and better(incumbent_value, target):
            crossed = True
            stack.append(node)  # its unexplored subtree joins the bound
            break
        if not node.open.shape[0]:
            continue  # leaf; witness_update already recorded its exact value
        b = node_bound(node)
        if not can_beat(b):
            pruned = b if pruned is None else extreme(pruned, b)
            continue
        # Branch where the node's own region splits most evenly; argmin
        # takes the first of equals, so ties keep the static order.
        j = 0 if unevenness is None else int(np.argmin(unevenness))
        c = node.open[j]
        rest = node.open[1:] if j == 0 else np.delete(node.open, j)
        pref = int(preferred[c])
        stack.append(make_child(node, c, rest, 1 - pref, param))
        stack.append(make_child(node, c, rest, pref, param))

    outer = extreme(undecided_bounds + [node_bound(nd) for nd in stack], default=None)
    settled = crossed or outer is None or not can_beat(outer)
    status = "budget_exhausted" if exhausted else "undecided"
    if settled and incumbent_value is not None:
        status = "optimal"
    # The root is always expanded and its region is never empty, so it
    # leaves an incumbent or an undecided bound.
    bound = extreme(v for v in (outer, pruned, incumbent_value) if v is not None)

    return MipSolution(
        status=status,
        value=incumbent_value,
        bound=bound,
        witness=incumbent_witness,
        nodes=nodes,
        presolve_fixed=int(P - F),
        free_pairs=int(F),
    )
