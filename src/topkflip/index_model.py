"""Blends of per-target predictions over the weight simplex.

An index ensemble holds one fitted linear model per target plus a
standardizer frozen on a reference sample; a blend weight alpha on the
simplex turns the standardized per-target predictions into one index
score per row. Flippability here needs no baseline model: a row is
changeable when its rank range straddles the cutoff anywhere on the
simplex. The uniform blend serves as the reported reference point; it
lies in the simplex, so it also witnesses its own side of the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linear_fit import LinearModel, fit_on_rows
from .rashomon_single import _certify_rows
from .reports import FlipReport
from .solver import PruneResult, SimplexRegion, SolverConfig, screen_membership

STANDARDIZATIONS = ("zscore", "percentile", "none")


@dataclass(frozen=True)
class Standardizer:
    """Per-target prediction scaling with parameters frozen at fit time.

    ``zscore`` centers and scales by the reference mean and population
    standard deviation; a zero-spread prediction vector is refused since
    it cannot be put on a comparable scale. ``percentile`` maps a value
    to its average rank among the reference values divided by the
    reference size, so outputs lie in (0, 1]. ``none`` passes raw values
    through.
    """

    mode: str
    means: NDArray[np.float64] | None = None
    sds: NDArray[np.float64] | None = None
    references: "tuple[NDArray[np.float64], ...] | None" = None

    def __post_init__(self):
        if self.mode not in STANDARDIZATIONS:
            raise ValueError(f"mode must be one of {STANDARDIZATIONS}, got {self.mode!r}")

    @classmethod
    def fit(cls, raw_reference: NDArray[np.float64], mode: str, target_names) -> "Standardizer":
        R = np.asarray(raw_reference, dtype=np.float64)
        names = tuple(target_names)
        if R.ndim != 2 or R.shape[1] != len(names):
            raise ValueError("reference must be (n, K) matching target_names")
        if mode == "zscore":
            means = R.mean(axis=0)
            sds = R.std(axis=0)
            for k, sd in enumerate(sds):
                if sd == 0:
                    raise ValueError(
                        f"target {names[k]!r} has zero-variance predictions "
                        "on the reference rows; zscore scaling is undefined"
                    )
            return cls(mode=mode, means=means, sds=sds)
        if mode == "percentile":
            refs = tuple(np.sort(R[:, k]) for k in range(R.shape[1]))
            return cls(mode=mode, references=refs)
        return cls(mode=mode)

    def transform(self, raw: NDArray[np.float64]) -> NDArray[np.float64]:
        R = np.asarray(raw, dtype=np.float64)
        if self.mode == "none":
            return R.copy()
        if self.mode == "zscore":
            return (R - self.means) / self.sds
        out = np.empty_like(R)
        for k, ref in enumerate(self.references):
            left = np.searchsorted(ref, R[:, k], side="left")
            right = np.searchsorted(ref, R[:, k], side="right")
            # average rank scaled to [0, 1]; values beyond the reference
            # range saturate rather than extrapolate
            out[:, k] = np.clip((left + right + 1) / 2.0 / ref.shape[0], 0.0, 1.0)
        return out


@dataclass(frozen=True)
class IndexEnsemble:
    """Per-target linear models plus the frozen standardizer."""

    models: tuple[LinearModel, ...]
    standardizer: Standardizer

    def predictions(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        """Standardized per-target predictions, the solver's row vectors."""
        return self.standardizer.transform(np.column_stack([m.predict(X) for m in self.models]))


def build_ensemble(
    X_train: NDArray[np.float64],
    Y_train: NDArray[np.float64],
    X_reference: NDArray[np.float64],
    standardization: str = "zscore",
    target_names=None,
) -> IndexEnsemble:
    """Fit one model per target on the training rows and freeze the
    standardizer on the reference rows' raw predictions."""
    Y = np.asarray(Y_train, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y_train must be (n, K)")
    K = Y.shape[1]
    if target_names is None:
        target_names = tuple(f"target{k}" for k in range(K))
    models = tuple(fit_on_rows(X_train, Y[:, k]) for k in range(K))
    raw_ref = np.column_stack([m.predict(X_reference) for m in models])
    std = Standardizer.fit(raw_ref, standardization, target_names)
    return IndexEnsemble(models=models, standardizer=std)


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
