"""Blends of per-target predictions over the weight simplex.

An index ensemble holds one fitted coefficient vector per target plus a
z-score scaling frozen on a reference sample; a blend weight alpha on the
simplex turns the z-scored per-target predictions into one index
score per row. Flippability here needs no baseline model: a row is
changeable when its rank range straddles the cutoff anywhere on the
simplex. The uniform blend serves as the reported reference point; it
lies in the simplex, so it also witnesses its own side of the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linear_fit import fit_on_rows
from .rashomon_single import _certify_rows
from .reports import FlipReport
from .solver import PruneResult, SimplexRegion, SolverConfig, screen_membership


@dataclass(frozen=True)
class IndexEnsemble:
    """Per-target coefficient vectors plus the z-score scaling frozen on
    the reference rows: the mean and population standard deviation of
    each target's raw predictions there."""

    models: tuple[NDArray[np.float64], ...]
    means: NDArray[np.float64]
    sds: NDArray[np.float64]

    def predictions(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        """Z-scored per-target predictions, the solver's row vectors."""
        X = np.asarray(X, dtype=np.float64)
        raw = np.column_stack([X @ w for w in self.models])
        return (raw - self.means) / self.sds


def build_ensemble(
    X_train: NDArray[np.float64],
    Y_train: NDArray[np.float64],
    X_reference: NDArray[np.float64],
    target_names,
) -> IndexEnsemble:
    """Fit one model per target on the training rows and freeze the
    z-score scaling on the reference rows' raw predictions. A target
    whose reference predictions do not vary is refused, since it cannot
    be put on a comparable scale."""
    Y = np.asarray(Y_train, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y_train must be (n, K)")
    K = Y.shape[1]
    if len(target_names) != K:
        raise ValueError(f"{len(target_names)} target names for {K} targets")
    models = tuple(fit_on_rows(X_train, Y[:, k]) for k in range(K))
    X_reference = np.asarray(X_reference, dtype=np.float64)
    raw_ref = np.column_stack([X_reference @ w for w in models])
    means = raw_ref.mean(axis=0)
    sds = raw_ref.std(axis=0)
    for name, sd in zip(target_names, sds):
        if sd == 0:
            raise ValueError(
                f"target {name!r} has zero-variance predictions "
                "on the reference rows; zscore scaling is undefined"
            )
    return IndexEnsemble(models=models, means=means, sds=sds)


def prune_never_top_multi(preds: NDArray[np.float64]) -> PruneResult:
    """Outer rank bounds from exact vertex gap ranges, trimming the simplex
    search the same way the ball bounds trim the single-target one."""
    P = np.asarray(preds, dtype=np.float64)
    return screen_membership(SimplexRegion(dim=P.shape[1]), P)


def witness_pool_alphas(K: int) -> NDArray[np.float64]:
    """Deterministic blend weights worth checking: the K one-hots, the
    uniform blend, and every pairwise half-and-half blend, in that order."""
    pool = [np.eye(K)[k] for k in range(K)]
    pool.append(np.full(K, 1.0 / K))
    for a in range(K):
        for b in range(a + 1, K):
            mid = np.zeros(K)
            mid[a] = mid[b] = 0.5
            pool.append(mid)
    return np.vstack(pool)


def flip_search_multi(
    preds: NDArray[np.float64],
    kappa: int,
    row_ids=None,
    rank_mode: str = "status",
    config: SolverConfig | None = None,
    prune: PruneResult | None = None,
) -> "list[FlipReport]":
    """Certify each row's top membership behavior across blend weights.

    The single-target staging over the simplex; the baseline rank is taken
    at the uniform blend and a row is flippable when its certified rank
    range straddles kappa anywhere on the simplex. ``prune`` passes in the
    predictions' own :func:`prune_never_top_multi` bounds when the caller
    already has them; they hold for every kappa.
    """
    P = np.asarray(preds, dtype=np.float64)
    K = P.shape[1]
    return _certify_rows(
        P,
        SimplexRegion(dim=K),
        np.full(K, 1.0 / K),
        prune_never_top_multi(P) if prune is None else prune,
        witness_pool_alphas(K),
        kappa,
        row_ids=row_ids,
        rank_mode=rank_mode,
        config=config,
    )
