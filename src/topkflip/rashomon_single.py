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

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .linear_fit import RashomonBall, fit_ols, make_ball
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


def prune_unflippable(
    X: NDArray[np.float64],
    center: NDArray[np.float64],
    radius: float,
    kappa: int,
) -> PruneResult:
    """Fix top membership for rows decided by the ball's pairwise gap
    bounds."""
    return screen_membership(BallRegion(center=center, radius=radius), X, kappa)


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
    X: NDArray[np.float64], pool: NDArray[np.float64], kappa: int
) -> "tuple[NDArray[np.int64], NDArray[np.int64]]":
    """First pool column ranking each row inside the top kappa and first
    ranking it outside (-1 when none), under index tie-breaking.

    A column's top kappa is every row scoring strictly above its kappa-th
    largest score, plus the lowest-indexed rows tied at that score until
    kappa are taken: the selection :func:`rank_descending` makes. Every
    evaluated ranking is realizable, so a column certifies reachability
    one-sided; tie freedom is deliberately not exploited, keeping this
    route independent of the enumeration oracle. Scores are formed one
    block of pool columns at a time, so memory grows linearly with the row
    count.
    """
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    enter_col = np.full(n, -1, dtype=np.int64)
    exit_col = np.full(n, -1, dtype=np.int64)
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
        for cols, hit in ((enter_col, top), (exit_col, ~top)):
            fresh = (cols < 0) & hit.any(axis=0)
            cols[fresh] = c0 + hit[:, fresh].argmax(axis=0)
    return enter_col, exit_col


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
    inside it. In status mode a row is settled by the screen when its
    membership is fixed, and is a closed-form flip when some pool model
    puts it on the other side of the cut: the baseline witnesses its own
    side. Other rows, and every row in exact mode, get both rank extremes
    from the certifier. Witnesses are coefficient vectors over a ball and
    blend weights over the simplex.
    """
    if rank_mode not in ("status", "exact"):
        raise ValueError(f"rank_mode must be status or exact, got {rank_mode!r}")
    n = V.shape[0]
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    cfg = config or SolverConfig()
    if row_ids is None:
        row_ids = [str(i) for i in range(n)]
    witness_kind = "coef" if isinstance(region, BallRegion) else "alpha"

    base = rank_descending(V @ baseline, kappa)
    enter_col, exit_col = _pool_rank_envelope(V, pool, kappa)

    reports: list[FlipReport] = []
    for i in range(n):
        b_rank = int(base.ranks[i])
        in_top = bool(base.top_flags[i])
        omin = int(prune.outer_min[i])
        omax = int(prune.outer_max[i])

        if rank_mode == "status":
            # always_top implies in_top: the row is inside the top at every
            # point of the region, the baseline included.
            if prune.never_top[i] or prune.always_top[i]:
                reports.append(
                    FlipReport(
                        row_id=row_ids[i],
                        baseline_rank=b_rank,
                        min_rank=omin,
                        max_rank=omax,
                        flippable=False,
                        method="pruned_unflippable",
                    )
                )
                continue
            flip_col = exit_col[i] if in_top else enter_col[i]
            if flip_col >= 0:
                reports.append(
                    FlipReport(
                        row_id=row_ids[i],
                        baseline_rank=b_rank,
                        min_rank=omin,
                        max_rank=omax,
                        flippable=True,
                        method="closed_form_flip",
                        witness=pool[flip_col],
                        witness_kind=witness_kind,
                    )
                )
                continue

        inst = rank_query("min", region, V, i)
        sol_min = solve(inst, cfg)
        sol_max = solve(replace(inst, sense="max"), cfg)
        if sol_min.status == "optimal" and sol_max.status == "optimal":
            mn, mx = int(sol_min.value), int(sol_max.value)
            flippable = mn <= kappa < mx
            wit = None
            if flippable:
                wit = sol_max.witness if in_top else sol_min.witness
            reports.append(
                FlipReport(
                    row_id=row_ids[i],
                    baseline_rank=b_rank,
                    min_rank=mn,
                    max_rank=mx,
                    flippable=flippable,
                    method="mip_certified",
                    witness=wit,
                    witness_kind=None if wit is None else witness_kind,
                )
            )
        else:
            lo = omin if sol_min.bound is None else max(omin, int(sol_min.bound))
            hi = omax if sol_max.bound is None else min(omax, int(sol_max.bound))
            can_enter = None
            if sol_min.value is not None and sol_min.value <= kappa:
                can_enter = True
            elif lo > kappa:
                can_enter = False
            can_exit = None
            if sol_max.value is not None and sol_max.value > kappa:
                can_exit = True
            elif hi <= kappa:
                can_exit = False
            if can_enter is False or can_exit is False:
                flippable = False
            elif can_enter and can_exit:
                flippable = True
            else:
                flippable = None
            reports.append(
                FlipReport(
                    row_id=row_ids[i],
                    baseline_rank=b_rank,
                    min_rank=lo,
                    max_rank=hi,
                    flippable=flippable,
                    method="undetermined",
                )
            )
    return reports


def flip_search(
    X: NDArray[np.float64],
    ball: RashomonBall,
    kappa: int,
    row_ids=None,
    rank_mode: str = "status",
    config: SolverConfig | None = None,
    extra_models=None,
) -> "list[FlipReport]":
    """Certify each row's top membership behavior across the ball.

    ``rank_mode="status"`` decides flippability with the cheapest
    sufficient evidence; rank fields are certified outer bounds unless the
    row went through the certifier. ``rank_mode="exact"`` solves both rank
    extremes for every row. Budget exhaustion degrades a row to method
    ``undetermined`` with outer bounds; its flippable flag stays None
    unless the surviving bounds already decide it. ``extra_models`` adds
    candidate coefficient vectors to the witness pool; non-members of the
    ball are dropped, so carrying witnesses from a smaller tolerance is
    always safe.
    """
    X = np.asarray(X, dtype=np.float64)
    w0 = ball.center
    r = ball.radius
    pool = witness_pool(X, w0, r)
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
        BallRegion(center=w0, radius=r),
        w0,
        prune_unflippable(X, w0, r, kappa),
        pool,
        kappa,
        row_ids=row_ids,
        rank_mode=rank_mode,
        config=config,
    )


def flip_reports_single(
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    epsilon: float,
    kappa: int,
    epsilon_mode: str = "relative",
    row_ids=None,
    rank_mode: str = "status",
    config: SolverConfig | None = None,
) -> "tuple[list[FlipReport], RashomonBall]":
    """Fit, build the ball, and certify: the end-to-end single-target path."""
    model = fit_ols(X, y)
    ball = make_ball(model, X, y, epsilon, epsilon_mode)
    reports = flip_search(X, ball, kappa, row_ids=row_ids, rank_mode=rank_mode, config=config)
    return reports, ball


@dataclass(frozen=True)
class AmbiguityResult:
    """Selection ambiguity fractions over a set of row reports.

    ``all_fraction``: share of all rows whose membership can change.
    ``top_fraction``: share of the baseline top whose exit is possible,
    divided by kappa. Undetermined rows never count as changeable; their
    tally is reported so the caller can judge coverage.
    """

    all_fraction: float
    top_fraction: float
    n_rows: int
    kappa: int
    n_flippable: int
    n_top_flippable: int
    n_undetermined: int


def ambiguity_single(reports, kappa: int) -> AmbiguityResult:
    n = len(reports)
    if n == 0:
        raise ValueError("no reports")
    n_flip = sum(1 for rep in reports if rep.flippable)
    n_top_flip = sum(1 for rep in reports if rep.flippable and rep.baseline_rank <= kappa)
    n_undet = sum(1 for rep in reports if rep.flippable is None)
    return AmbiguityResult(
        all_fraction=n_flip / n,
        top_fraction=n_top_flip / kappa,
        n_rows=n,
        kappa=kappa,
        n_flippable=n_flip,
        n_top_flippable=n_top_flip,
        n_undetermined=n_undet,
    )
