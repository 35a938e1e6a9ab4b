"""Independent slow-path certifiers for rank ranges and group counts.

Nothing here touches the branch-and-bound machinery. Each routine
enumerates candidate parameter values directly (boundary angles of a
two-dimensional coefficient disc, blend breakpoints of a two-target
simplex, tie-line arrangement vertices of a three-target simplex) and
scores every candidate with optimistic tie counting, which is
exactly the freedom the pairwise comparison encoding grants at ties.
Quadratic and unapologetically slow; meant for small cross-check instances.

Why boundary candidates suffice for the disc sweep: each pairwise ordering
is decided by the sign of <x_j - x_i, w>, a halfspace through the origin,
so the full sign pattern is constant along rays from the origin. Any w in
the ball therefore shares its pattern with a point where its ray exits the
ball, which lies on the boundary circle, except for w = 0 itself (the
all-ties point), which is checked separately whenever the ball covers it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

TIE_REL_TOL = 1e-9


def _tie_tol(M: NDArray[np.float64], w: NDArray[np.float64]) -> float:
    """Tie tolerance for the scores ``M @ w``: ``TIE_REL_TOL`` times the
    largest row sum of |M_ij w_j|, the size of the terms whose rounding
    the scores carry. It has no floor, so it scales with the units, and
    scores that cancel to rounding noise (a blend at which every row
    ties) still tie. At w = 0 it is 0 and only exact ties count."""
    return TIE_REL_TOL * float(np.max(np.abs(M) @ np.abs(w)))


def optimistic_rank_bounds(
    scores: NDArray[np.float64], tol: float
) -> "tuple[NDArray[np.int64], NDArray[np.int64]]":
    """Best and worst attainable rank per row at one scoring of the rows.

    A tied pair can be ordered either way, independently per queried row, so
    the best rank is 1 + #(strictly higher rows) and the worst is
    1 + #(rows higher or tied). Rows at most ``tol`` apart count as tied.
    """
    s = np.asarray(scores, dtype=np.float64)
    diff = s[None, :] - s[:, None]  # diff[i, j] = s_j - s_i
    strict = np.sum(diff > tol, axis=1)
    weak = np.sum(diff >= -tol, axis=1) - 1  # the diagonal counts itself once
    return strict + 1, weak + 1


def angle_sweep_single(
    X: NDArray[np.float64],
    center: NDArray[np.float64],
    radius: float,
) -> "tuple[NDArray[np.int64], NDArray[np.int64]]":
    """Exact per-row rank ranges over a disc of coefficient vectors.

    Requires a two-column design. Walks the boundary circle
    w(theta) = center + radius * (cos theta, sin theta), collecting every
    angle where some pair of rows ties, and evaluates optimistic rank
    bounds at those angles, at arc midpoints, at the center, and at the
    origin when the disc covers it.

    Returns
    -------
    (min_ranks, max_ranks) : int arrays of shape (n,)
    """
    X = np.asarray(X, dtype=np.float64)
    w0 = np.asarray(center, dtype=np.float64)
    n, p = X.shape
    if p != 2:
        raise ValueError(f"angle sweep needs a 2-column design, got {p}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    candidates = [w0]
    if radius > 0:
        crit: list[float] = []
        for i, j in itertools.combinations(range(n), 2):
            d = X[j] - X[i]
            c = float(d @ w0)
            a, b = radius * d[0], radius * d[1]
            amp = float(np.hypot(a, b))
            if amp <= 1e-300:
                continue  # identical rows tie everywhere; no crossing angle
            x = -c / amp
            if abs(x) <= 1.0:
                phi = float(np.arctan2(b, a))
                delta = float(np.arccos(np.clip(x, -1.0, 1.0)))
                crit.extend((phi - delta, phi + delta))
        angles = sorted(a % (2.0 * np.pi) for a in crit)
        merged: list[float] = []
        for a in angles:
            if not merged or a - merged[-1] > 1e-12:
                merged.append(a)
        if merged:
            eval_angles = list(merged)
            for prev, nxt in zip(merged, merged[1:] + [merged[0] + 2.0 * np.pi]):
                eval_angles.append(0.5 * (prev + nxt))
        else:
            eval_angles = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]
        for theta in eval_angles:
            candidates.append(w0 + radius * np.array([np.cos(theta), np.sin(theta)]))
    if float(w0 @ w0) <= radius * radius * (1.0 + 1e-12):
        candidates.append(np.zeros(2))

    min_ranks = np.full(n, n + 1, dtype=np.int64)
    max_ranks = np.zeros(n, dtype=np.int64)
    for w in candidates:
        lo, hi = optimistic_rank_bounds(X @ w, _tie_tol(X, w))
        np.minimum(min_ranks, lo, out=min_ranks)
        np.maximum(max_ranks, hi, out=max_ranks)
    return min_ranks, max_ranks


def group_count_range(
    scores: NDArray[np.float64],
    kappa: int,
    group_mask: NDArray[np.bool_],
    tol: float,
) -> "tuple[int, int]":
    """Range of group members in the top kappa at one scoring of the rows.

    Rows are partitioned into tie classes: in score order, each class holds
    the rows at most ``tol`` below its top row. The pairs inside a class
    may be oriented either way (a tournament), and a member is selected
    when it loses at most ``a = kappa - 1 - (rows above the class)`` of
    its in-class comparisons. Choices in different classes are
    independent, so the totals add. A class of m rows, g of them in the
    group, gives:

    - max = clamp(2a + 1, 0, g). S rows can all be selected when they beat
      the rest of the class and none loses more than a among them. Their
      C(S, 2) losses average (S - 1) / 2 a row, and a near-regular
      tournament (a score sequence by Landau's theorem) gives each at most
      ceil((S - 1) / 2), so S <= 2a + 1.
    - min = g - clamp(2(m - a) - 3, 0, g). T rows can all miss the cut when
      each loses to the m - T rows outside them and a + 1 - (m - T) among
      them; by the same average a near-regular tournament gives each at
      least floor((T - 1) / 2), the most all can have, so T <= 2(m - a) - 3.

    Both give g when the whole class is in (a >= m - 1), 0 when it is out
    (a < 0).
    """
    s = np.asarray(scores, dtype=np.float64)
    gmask = np.asarray(group_mask, dtype=bool)
    n = s.shape[0]
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    order = np.argsort(-s, kind="stable")
    gmin = 0
    gmax = 0
    cum = 0
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and s[order[start]] - s[order[stop]] <= tol:
            stop += 1
        m = stop - start
        g = int(gmask[order[start:stop]].sum())
        a = kappa - 1 - cum
        gmin += g - min(max(2 * (m - a) - 3, 0), g)
        gmax += min(max(2 * a + 1, 0), g)
        cum += m
        start = stop
    return gmin, gmax


@dataclass(frozen=True)
class SimplexSweep:
    """Result of a two- or three-target blend sweep."""

    min_ranks: NDArray[np.int64]
    max_ranks: NDArray[np.int64]
    group_min: int | None
    group_max: int | None


def _sweep_scores(P, alphas, kappa, group_mask) -> SimplexSweep:
    """Envelope of optimistic rank bounds and group-count ranges over a list
    of candidate blends."""
    n = P.shape[0]
    min_ranks = np.full(n, n + 1, dtype=np.int64)
    max_ranks = np.zeros(n, dtype=np.int64)
    group_lo: int | None = None
    group_hi: int | None = None
    for alpha in alphas:
        s = P @ alpha
        tol = _tie_tol(P, alpha)
        lo, hi = optimistic_rank_bounds(s, tol)
        np.minimum(min_ranks, lo, out=min_ranks)
        np.maximum(max_ranks, hi, out=max_ranks)
        if group_mask is not None:
            glo, ghi = group_count_range(s, kappa, group_mask, tol)
            group_lo = glo if group_lo is None else min(group_lo, glo)
            group_hi = ghi if group_hi is None else max(group_hi, ghi)
    return SimplexSweep(
        min_ranks=min_ranks, max_ranks=max_ranks, group_min=group_lo, group_max=group_hi
    )


def simplex_sweep_k2(
    preds: NDArray[np.float64],
    kappa: int,
    group_mask: NDArray[np.bool_] | None = None,
) -> SimplexSweep:
    """Exact rank ranges (and group count range) over two-target blends.

    The blend weight is alpha = (t, 1 - t) with t in [0, 1]; every pairwise
    gap is affine in t, so candidate values are the endpoints, each pair's
    crossing point, and interval midpoints.
    """
    P = np.asarray(preds, dtype=np.float64)
    n, K = P.shape
    if K != 2:
        raise ValueError(f"simplex sweep handles exactly 2 targets, got {K}")

    ts = [0.0, 1.0]
    for i, j in itertools.combinations(range(n), 2):
        d1 = P[i, 0] - P[j, 0]
        d2 = P[i, 1] - P[j, 1]
        if abs(d1 - d2) <= 1e-300:
            continue  # gap constant in t
        t_star = d2 / (d2 - d1)
        if 0.0 < t_star < 1.0:
            ts.append(float(t_star))
    ts = sorted(ts)
    merged = [ts[0]]
    for t in ts[1:]:
        if t - merged[-1] > 1e-12:
            merged.append(t)
    candidates = list(merged)
    candidates.extend(0.5 * (a + b) for a, b in zip(merged, merged[1:]))
    return _sweep_scores(P, [np.array([t, 1.0 - t]) for t in candidates], kappa, group_mask)


def simplex_sweep_k3(
    preds: NDArray[np.float64],
    kappa: int,
    group_mask: NDArray[np.bool_] | None = None,
) -> SimplexSweep:
    """Exact rank ranges (and group count range) over three-target blends.

    The blend weight is alpha = (a1, a2, 1 - a1 - a2) over the triangle
    a1, a2 >= 0, a1 + a2 <= 1. Every pairwise gap is affine in (a1, a2),
    so each pair ties along one line and the ordering is constant on the
    cells that these lines and the triangle's edges cut out. Candidates
    are the arrangement vertices inside the triangle (corners, line-edge
    and line-line intersections) plus a midpoint of every cell, taken a
    short step to either side of the midpoint of each arrangement edge.

    Why vertices suffice: a pair strictly ordered at a vertex keeps that
    order throughout every cell whose closure holds the vertex, and pairs
    tied there may go either way, so optimistic scoring at the vertex
    covers every ordering those cells realize. The cell midpoints score
    the untied orderings directly, as a cross-check on the vertices.
    """
    P = np.asarray(preds, dtype=np.float64)
    n, K = P.shape
    if K != 3:
        raise ValueError(f"simplex sweep handles exactly 3 targets, got {K}")

    # Each line holds c1*a1 + c2*a2 + c0 = 0: the triangle's edges first,
    # then one tie line per pair whose gap is not constant over blends.
    lines = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, -1.0)]
    for i, j in itertools.combinations(range(n), 2):
        d = P[i] - P[j]
        c1, c2 = float(d[0] - d[2]), float(d[1] - d[2])
        if max(abs(c1), abs(c2)) <= 1e-300:
            continue  # gap constant over the simplex; ties everywhere or nowhere
        lines.append((c1, c2, float(d[2])))
    L = np.array(lines)
    L /= np.hypot(L[:, 0], L[:, 1])[:, None]  # unit normals: values are distances

    def inside(pts):
        return (pts[:, 0] >= -1e-12) & (pts[:, 1] >= -1e-12) & (pts.sum(axis=1) <= 1.0 + 1e-12)

    # Vertices: every pair of non-parallel lines, solved by Cramer's rule.
    a, b = np.triu_indices(L.shape[0], k=1)
    det = L[a, 0] * L[b, 1] - L[a, 1] * L[b, 0]
    ok = np.abs(det) > 1e-12
    a, b, det = a[ok], b[ok], det[ok]
    verts = np.column_stack(
        [
            (L[a, 1] * L[b, 2] - L[a, 2] * L[b, 1]) / det,
            (L[a, 2] * L[b, 0] - L[a, 0] * L[b, 2]) / det,
        ]
    )
    keep = inside(verts)
    a, b, verts = a[keep], b[keep], verts[keep]
    candidates = [verts]
    on_line = np.concatenate([a, b])
    line_pts = np.concatenate([verts, verts])

    # Cell midpoints: walk each line's vertices in order; from the middle
    # of each edge between neighbours, step half the distance to the
    # nearest other line to both sides, which lands inside both cells
    # that share the edge.
    for k in range(L.shape[0]):
        pts = line_pts[on_line == k]
        if pts.shape[0] < 2:
            continue
        along = pts @ np.array([-L[k, 1], L[k, 0]])
        order = np.argsort(along)
        pts, along = pts[order], along[order]
        step = np.diff(along) > 1e-12
        mids = 0.5 * (pts[:-1][step] + pts[1:][step])
        if not mids.shape[0]:
            continue
        dist = np.abs(mids @ L[:, :2].T + L[:, 2])
        dist[dist <= 1e-12] = np.inf  # this line and any line coinciding with it
        delta = 0.5 * dist.min(axis=1, initial=1.0)
        for side in (1.0, -1.0):
            moved = mids + side * delta[:, None] * L[k, :2]
            candidates.append(moved[inside(moved)])

    pts = np.clip(np.concatenate(candidates), 0.0, 1.0)
    total = pts.sum(axis=1)
    pts[total > 1.0] /= total[total > 1.0][:, None]
    alphas = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
    return _sweep_scores(P, alphas, kappa, group_mask)

