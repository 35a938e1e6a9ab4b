"""Least-squares fits and the near-optimal coefficient ball.

On an orthonormal design (X^T X = I) the least-squares solution is
w0 = X^T y and the excess squared error of any coefficient vector w over w0
is exactly ||w - w0||^2. The set of models within loss slack eps * RSS(w0)
of the optimum is therefore the closed Euclidean ball of radius
sqrt(eps * RSS(w0)) around w0; :func:`make_ball` returns it as a
:class:`solver.BallRegion`, the region type the membership screen and the
certifier read.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .solver import BallRegion

ORTHONORMAL_TOL = 1e-8


def rss(X: NDArray[np.float64], y: NDArray[np.float64], w: NDArray[np.float64]) -> float:
    r = np.asarray(y, dtype=np.float64) - np.asarray(X, dtype=np.float64) @ w
    return float(r @ r)


def fit_ols(X: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Least-squares coefficients on an orthonormal design: w0 = X^T y.

    Raises ValueError if some entry of X^T X - I exceeds
    ``ORTHONORMAL_TOL`` in magnitude; use :func:`fit_on_rows` for general
    designs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    G = X.T @ X
    defect = float(np.max(np.abs(G - np.eye(G.shape[0]))))
    if defect > ORTHONORMAL_TOL:
        raise ValueError(
            f"design is not orthonormal (max |X^T X - I| = {defect:.3e} > "
            f"{ORTHONORMAL_TOL:.0e}); run orthonormalize first"
        )
    return X.T @ y


def fit_on_rows(X: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Least-squares coefficients on an arbitrary design via lstsq
    (minimum-norm on rank deficiency)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.linalg.lstsq(X, y, rcond=None)[0]


def make_ball(
    coef: NDArray[np.float64],
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    epsilon: float,
) -> BallRegion:
    """The near-optimal ball around fitted coefficients: center w0, radius
    the square root of the loss slack epsilon * RSS(w0).

    Epsilon reads as a fraction of the baseline loss, so a perfect fit
    (RSS = 0) yields a degenerate single-point ball. A tolerance whose
    slack overflows to an infinite radius is refused.
    """
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    radius = float(np.sqrt(float(epsilon) * rss(X, y, coef)))
    if not np.isfinite(radius):
        raise ValueError(f"epsilon {epsilon} gives a ball radius that overflows to {radius}")
    return BallRegion(center=coef, radius=radius)
