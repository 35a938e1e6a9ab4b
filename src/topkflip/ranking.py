"""Deterministic descending ranking and top-k indicators.

Scores are ranked 1..n with 1 assigned to the largest score. Ties are broken
by ascending row index so that repeated runs and independent implementations
agree bit for bit. Ties are never silently merged: the result carries the
count of rows that share their score with another row. No caller reports
it yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class RankVector:
    """Ranks and top-k flags for one score vector.

    Attributes
    ----------
    ranks : ndarray of int
        Permutation of 1..n; 1 is the largest score.
    top_flags : ndarray of bool
        ``top_flags[i]`` is True iff ``ranks[i] <= kappa``.
    tie_count : int
        Number of rows that share their score with at least one other row;
        deterministic index order resolved them, so a nonzero count means
        some ranks depend on the tie convention.
    """

    ranks: NDArray[np.int64]
    top_flags: NDArray[np.bool_]
    tie_count: int


def rank_descending(scores: NDArray[np.float64], kappa: int) -> RankVector:
    """Rank scores in descending order with index tie-break.

    Parameters
    ----------
    scores : array of shape (n,)
        Finite prediction values.
    kappa : int
        Cap, 1 <= kappa <= n.

    Returns
    -------
    RankVector

    Raises
    ------
    ValueError
        If kappa is out of range or any score is not finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-d, got shape {scores.shape}")
    n = scores.shape[0]
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    if not np.all(np.isfinite(scores)):
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"non-finite score at row {bad}")

    # A stable sort of the negated scores keeps tied rows in index order.
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)

    sorted_scores = scores[order]
    tied = np.zeros(n, dtype=bool)
    same_as_next = sorted_scores[:-1] == sorted_scores[1:]
    tied[:-1] |= same_as_next
    tied[1:] |= same_as_next

    return RankVector(
        ranks=ranks,
        top_flags=ranks <= kappa,
        tie_count=int(tied.sum()),
    )


def resolve_kappa(kappa: "int | str", n: int) -> int:
    """Resolve an integer or percentile cap against a sample of size n.

    Accepts either an integer (returned unchanged after validation) or a
    percent string such as ``"3%"``. Percentile caps round up so that a
    nonempty selection is made even on small samples.
    """
    if isinstance(kappa, (int, np.integer)):
        k = int(kappa)
    else:
        text = str(kappa).strip()
        if not text.endswith("%"):
            raise ValueError(f"cannot parse kappa {kappa!r}; expected int or 'P%'")
        try:
            pct = float(text[:-1])
        except ValueError as exc:
            raise ValueError(f"cannot parse kappa {kappa!r}") from exc
        if not (0.0 < pct <= 100.0):
            raise ValueError(f"kappa percentile must be in (0, 100], got {pct}")
        k = int(np.ceil(pct / 100.0 * n))
    if not (1 <= k <= n):
        raise ValueError(f"kappa {k} out of range for n={n}")
    return k
