"""Deterministic descending ranking and cap resolution.

Scores are ranked 1..n with 1 assigned to the largest score. Ties are broken
by ascending row index so that repeated runs and independent implementations
agree bit for bit. A caller applies a top-kappa cut as ``ranks <= kappa``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


def rank_descending(scores: NDArray[np.float64]) -> NDArray[np.int64]:
    """Rank scores in descending order with index tie-break.

    Parameters
    ----------
    scores : array of shape (n,)
        Finite prediction values.

    Returns
    -------
    ndarray of int64, shape (n,)
        Permutation of 1..n; 1 is the largest score.

    Raises
    ------
    ValueError
        If the scores are not 1-d or any score is not finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-d, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"non-finite score at row {bad}")

    # A stable sort of the negated scores keeps tied rows in index order.
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, scores.shape[0] + 1)
    return ranks


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
