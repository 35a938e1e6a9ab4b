"""Least-squares fits and the near-optimal coefficient ball.

On an orthonormal design (X^T X = I) the least-squares solution is
w0 = X^T y and the excess squared error of any coefficient vector w over w0
is exactly ||w - w0||^2. The set of models within additive loss slack eps of
the optimum is therefore the closed Euclidean ball of radius sqrt(eps)
around w0; RashomonBall represents it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

ORTHONORMAL_TOL = 1e-8
MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear predictor: score(x) = x @ coef."""

    coef: NDArray[np.float64]
    target_name: str | None = None

    def predict(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.asarray(X, dtype=np.float64) @ self.coef

    def rss(self, X: NDArray[np.float64], y: NDArray[np.float64]) -> float:
        return rss(X, y, self.coef)


def rss(X: NDArray[np.float64], y: NDArray[np.float64], w: NDArray[np.float64]) -> float:
    r = np.asarray(y, dtype=np.float64) - np.asarray(X, dtype=np.float64) @ w
    return float(r @ r)


def orthonormality_defect(X: NDArray[np.float64]) -> float:
    """Largest absolute entry of X^T X - I."""
    G = X.T @ X
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def require_orthonormal(X: NDArray[np.float64], tol: float = ORTHONORMAL_TOL) -> None:
    defect = orthonormality_defect(X)
    if defect > tol:
        raise ValueError(
            f"design is not orthonormal (max |X^T X - I| = {defect:.3e} > {tol:.0e}); "
            "run orthonormalize first"
        )


def fit_ols(
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    target_name: str | None = None,
) -> LinearModel:
    """Least squares on an orthonormal design: w0 = X^T y.

    Raises ValueError if the design fails the orthonormality check; use
    :func:`fit_on_rows` for general designs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    require_orthonormal(X)
    return LinearModel(coef=X.T @ y, target_name=target_name)


def fit_on_rows(
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    target_name: str | None = None,
) -> LinearModel:
    """Least squares on an arbitrary design via lstsq (minimum-norm on rank
    deficiency)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return LinearModel(coef=coef, target_name=target_name)


@dataclass(frozen=True)
class RashomonBall:
    """Closed ball of coefficient vectors within loss slack eps of w0.

    Attributes
    ----------
    center : ndarray
        The least-squares solution w0.
    epsilon : float
        Absolute loss slack; the ball is {w : ||w - w0||^2 <= epsilon}.
    epsilon_input : float
        The slack as given by the caller, before any scaling.
    epsilon_mode : str
        ``relative`` (epsilon = epsilon_input * RSS(w0), the default) or
        ``absolute``.
    rss0 : float
        Baseline residual sum of squares RSS(w0).
    """

    center: NDArray[np.float64]
    epsilon: float
    epsilon_input: float
    epsilon_mode: str
    rss0: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.epsilon_mode not in ("relative", "absolute"):
            raise ValueError(f"unknown epsilon_mode {self.epsilon_mode!r}")

    @property
    def radius(self) -> float:
        return float(np.sqrt(self.epsilon))

    def contains(self, w: NDArray[np.float64], tol: float = MEMBERSHIP_TOL) -> bool:
        delta = np.asarray(w, dtype=np.float64) - self.center
        return float(delta @ delta) <= self.epsilon + tol


def make_ball(
    model: LinearModel,
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    epsilon: float,
    epsilon_mode: str = "relative",
) -> RashomonBall:
    """Build the near-optimal ball around a fitted model.

    In ``relative`` mode (the default) the absolute slack is
    epsilon * RSS(w0), so epsilon reads as a fraction of baseline loss. A
    perfect fit (RSS = 0) then yields a degenerate single-point ball.
    """
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    rss0 = model.rss(X, y)
    if epsilon_mode == "relative":
        eps_abs = float(epsilon) * rss0
    elif epsilon_mode == "absolute":
        eps_abs = float(epsilon)
    else:
        raise ValueError(f"unknown epsilon_mode {epsilon_mode!r}")
    return RashomonBall(
        center=model.coef,
        epsilon=eps_abs,
        epsilon_input=float(epsilon),
        epsilon_mode=epsilon_mode,
        rss0=rss0,
    )
