"""Rank ranges and selection ambiguity for one target over the coefficient ball.

The solve order per row is cheap to expensive: closed-form pairwise gap
bounds prune rows whose membership cannot change, a deterministic pool of
boundary witnesses certifies most changeable rows, and only the remainder
goes to the branch-and-bound certifier. The blend family in
:mod:`topkflip.index_model` runs through the same staging. The slow-path
oracle in :mod:`topkflip.oracle` is never consulted here; witness
evaluation uses plain index-tie-break ranking so the two certification
routes stay independent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.typing import NDArray

from .ranking import rank_descending
from .reports import FlipReport
from .solver import (
    BallRegion,
    PruneResult,
    SimplexRegion,
    SolverConfig,
    rank_query,
    screen_membership,
    solve,
)


def witness_pool(
    X: NDArray[np.float64], center: NDArray[np.float64], radius: float
) -> NDArray[np.float64]:
    """Deterministic ball models worth checking: the center plus, per row
    with a nonzero norm, the extremizers of that row's own prediction
    (``+step`` then ``-step``, rows in order)."""
    X = np.asarray(X, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if not radius > 0:
        return center[None, :].copy()
    norms = np.linalg.norm(X, axis=1)
    nz = norms > 0
    steps = radius * X[nz] / norms[nz, None]
    pairs = np.stack([center + steps, center - steps], axis=1)  # (rows, 2, p)
    return np.vstack([center[None, :], pairs.reshape(-1, center.shape[0])])


# Pool columns ranked per pass of the envelope: bounds the (n, block)
# temporaries while keeping the per-pass numpy overhead small.
ENVELOPE_BLOCK = 256


def _pool_rank_envelope(
    X: NDArray[np.float64],
    pool: NDArray[np.float64],
    kappa: int,
    in_top: NDArray[np.bool_],
) -> NDArray[np.int64]:
    """First pool column that puts each row of ``X`` on the other side of
    the top-kappa cut from ``in_top``: outside the top for a row marked
    in it, inside for any other (-1 when no column does). A column's top
    kappa is every row scoring strictly above its kappa-th largest score,
    plus the lowest-indexed rows tied at that score until kappa are
    taken: the selection :func:`rank_descending` makes. Tie freedom is
    deliberately not exploited, keeping this route independent of the
    enumeration oracle. :func:`_certify_rows` passes the open rows' own
    scores and baseline membership, and checks each proposed column with
    the baseline's product. Scores are formed one block of pool columns
    at a time, so memory grows linearly with the row count.
    """
    XT = np.ascontiguousarray(X.T)
    n = X.shape[0]
    cols = np.full(n, -1, dtype=np.int64)
    for c0 in range(0, pool.shape[0], ENVELOPE_BLOCK):
        S = pool[c0 : c0 + ENVELOPE_BLOCK] @ XT  # one pool column per row
        if not np.all(np.isfinite(S)):
            col, row = np.argwhere(~np.isfinite(S))[0]
            raise ValueError(f"non-finite score at row {row}, pool column {c0 + col}")
        cut = np.partition(S, n - kappa, axis=1)[:, n - kappa, None]  # kappa-th largest
        top = S > cut
        room = kappa - top.sum(axis=1)
        tied = S == cut
        # Tied rows fill the remaining room in ascending row order.
        over = tied.sum(axis=1) > room
        tied[over] &= np.cumsum(tied[over], axis=1) <= room[over, None]
        top |= tied
        top ^= in_top  # now marks the rows the column moves across the cut
        fresh = (cols < 0) & top.any(axis=0)
        cols[fresh] = c0 + top[:, fresh].argmax(axis=0)
    return cols


def _certify_rows(
    V: NDArray[np.float64],
    region: "BallRegion | SimplexRegion",
    baseline: NDArray[np.float64],
    prune: PruneResult,
    pool: NDArray[np.float64],
    kappa: int,
    row_ids,
    rank_mode: str,
    config: SolverConfig | None,
) -> "list[FlipReport]":
    """Certify each row's top membership behavior across a model family.

    The staging both families share. ``V`` maps rows to score
    coefficients over ``region``; ``baseline`` is a parameter inside the
    region that gives the reported baseline rank; ``prune`` holds gap
    screen bounds over the whole region and ``pool`` candidate witnesses
    inside it; its bounds hold for every kappa. In status mode a row is
    settled by the screen when its top-kappa membership is fixed, and is
    a closed-form flip when some pool model ``w`` puts it on the other
    side of the cut, ranked by ``V @ w`` as the baseline is: the baseline
    witnesses its own side. Only the open rows,
    those the screen leaves unfixed, are ranked under the pool. This is
    exact because every pool model lies in the region: there the
    always-top rows fill their slots of the top and the never-top rows
    stay out, so the open rows share the remaining slots in the full
    order restricted to them. Other rows go to the certifier with the
    one question their verdict needs, whether a baseline-top row's rank
    can exceed kappa or another row's can reach it, as a verdict query
    (:func:`solver.solve` with ``kappa`` set). The search's bound, clipped
    by the screen's, becomes that rank field; the other field stays the
    screen's outer bound, and the incumbent that crosses the cut is the
    flip witness. In exact mode every row gets both rank extremes from
    the certifier, optimized, and the pool is not read. A certifier row
    whose search stops short of a settled answer is ``undetermined``,
    with its rank fields tightened by the search's bounds; its verdict
    is still decided when an incumbent crosses the cut (which then is
    its witness) or when the bounds keep it on its side. Witnesses are
    coefficient vectors over a ball and blend weights over the simplex.
    """
    if rank_mode not in ("status", "exact"):
        raise ValueError(f"rank_mode must be status or exact, got {rank_mode!r}")
    n = V.shape[0]
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    if row_ids is None:
        row_ids = [str(i) for i in range(n)]
    witness_kind = "coef" if isinstance(region, BallRegion) else "alpha"

    base_ranks = rank_descending(V @ baseline)
    in_base_top = base_ranks <= kappa
    flip_cols = np.full(n, -1, dtype=np.int64)
    always_top = prune.always_top(kappa)
    fixed = prune.never_top(kappa) | always_top
    if rank_mode == "status":
        open_rows = np.flatnonzero(~fixed)
        room = kappa - int(np.count_nonzero(always_top))
        # With no room the always-top rows fill the top, so no open row is
        # in the baseline top and none can enter it.
        if room > 0:
            flip_cols[open_rows] = _pool_rank_envelope(
                V[open_rows], pool, room, in_base_top[open_rows]
            )
    # The envelope's blocked product over the open rows can round a near
    # tie differently from the baseline's V @ w, so a column witnesses a
    # flip only if that product moves the row across the cut; a row it
    # does not move goes to the certifier.
    for c in set(flip_cols[flip_cols >= 0].tolist()):
        moved = (rank_descending(V @ pool[c]) <= kappa) != in_base_top
        flip_cols[(flip_cols == c) & ~moved] = -1

    reports: list[FlipReport] = []
    # Python scalars per row: indexing NumPy arrays row by row costs more
    # than the rows' own work.
    rows = zip(
        prune.outer_min.tolist(),
        prune.outer_max.tolist(),
        base_ranks.tolist(),
        in_base_top.tolist(),
        fixed.tolist(),
        flip_cols.tolist(),
    )
    for i, (outer_min, outer_max, base_rank, in_top, is_fixed, flip_col) in enumerate(rows):
        ranks = {"min": outer_min, "max": outer_max}
        # A fixed row has no flip column; always_top implies in_top, as the
        # baseline lies in the region.
        if rank_mode == "status" and (is_fixed or flip_col >= 0):
            flippable = flip_col >= 0
            method = "closed_form_flip" if flippable else "pruned_unflippable"
            wit = pool[flip_col] if flippable else None
        else:
            # A baseline-top row flips exactly when its max rank exceeds
            # kappa, any other row exactly when its min rank is at most
            # kappa. Status mode asks only that side, as a verdict query
            # against kappa; the other side keeps the screen's bound.
            verdict = "max" if in_top else "min"
            inst = rank_query("min", region, V, i)
            if rank_mode == "exact":
                sols = {s: solve(replace(inst, sense=s), config) for s in ("min", "max")}
            else:
                sols = {verdict: solve(replace(inst, sense=verdict, kappa=kappa), config)}
            # A settled optimizing search's bound is its optimum.
            for side, sol in sols.items():
                ranks[side] = (max if side == "min" else min)(ranks[side], int(sol.bound))
            certified = all(sol.status == "optimal" for sol in sols.values())
            method = "mip_certified" if certified else "undetermined"
            sol = sols[verdict]
            if sol.value is not None and (sol.value > kappa if in_top else sol.value <= kappa):
                flippable = True
            elif ranks["max"] <= kappa if in_top else ranks["min"] > kappa:
                flippable = False
            else:
                flippable = None
            # The verdict side's incumbent attains its value, so one across
            # the cut witnesses the flip even when a search stopped short.
            wit = sol.witness if flippable else None
        # In FlipReport's field order: keywords double the cost of a report.
        reports.append(
            FlipReport(
                row_ids[i],
                base_rank,
                ranks["min"],
                ranks["max"],
                flippable,
                method,
                wit,
                None if wit is None else witness_kind,
            )
        )
    return reports


def flip_search(
    X: NDArray[np.float64],
    ball: BallRegion,
    kappa: int,
    rank_mode: str = "status",
    config: SolverConfig | None = None,
    extra_models=None,
    prune: PruneResult | None = None,
) -> "list[FlipReport]":
    """Certify each row's top membership behavior across the ball.

    ``rank_mode="status"`` decides flippability with the cheapest
    sufficient evidence; rank fields are certified outer bounds. The one
    side the certifier searched for its verdict (the max rank of a
    baseline-top row, the min rank of any other) is the verdict search's
    bound, on the same side of kappa as the exact extreme.
    ``rank_mode="exact"`` solves both rank extremes for every row. A
    search that stops short (budget exhaustion, or an undecided node)
    degrades a row to method ``undetermined`` with outer bounds;
    its flippable flag stays None unless an incumbent across the cut or
    the surviving bounds already decide it.
    ``extra_models`` adds candidate coefficient vectors to the witness
    pool; non-members of the ball are dropped, so carrying witnesses from
    a smaller tolerance is always safe. ``prune`` passes in the ball's
    own :func:`solver.screen_membership` bounds when the caller already
    has them; they hold for every kappa.
    """
    X = np.asarray(X, dtype=np.float64)
    pool = witness_pool(X, ball.center, ball.radius)
    if extra_models is not None:
        members = [
            np.asarray(w, dtype=np.float64)
            for w in extra_models
            if ball.contains(np.asarray(w, dtype=np.float64))
        ]
        if members:
            pool = np.vstack([pool] + members)
    return _certify_rows(
        X,
        ball,
        ball.center,
        screen_membership(ball, X) if prune is None else prune,
        pool,
        kappa,
        row_ids=None,
        rank_mode=rank_mode,
        config=config,
    )
