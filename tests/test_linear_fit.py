import numpy as np
import pytest

from topkflip.linear_fit import fit_ols, fit_on_rows, make_ball, rss
from topkflip.solver import BallRegion

from conftest import random_design


def test_ols_matches_lstsq_on_orthonormal_design(rng):
    X = random_design(rng, 40, 4)
    y = rng.normal(size=40)
    coef = fit_ols(X, y)
    assert coef.dtype == np.float64 and coef.shape == (4,)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(coef, ref, atol=1e-9)


def test_ols_refuses_raw_designs(rng):
    X = rng.normal(size=(40, 4)) * 3.0
    with pytest.raises(ValueError, match="orthonormal"):
        fit_ols(X, rng.normal(size=40))


def test_rss_definition(rng):
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    w = rng.normal(size=3)
    assert rss(X, y, w) == pytest.approx(float(np.sum((y - X @ w) ** 2)))


def test_fit_on_rows_handles_duplicate_columns(rng):
    # rank deficiency is absorbed, not fatal
    X = rng.normal(size=(30, 3))
    X = np.column_stack([X, X[:, 1]])
    y = rng.normal(size=30)
    coef = fit_on_rows(X, y)
    assert coef.dtype == np.float64 and coef.shape == (4,)
    assert np.all(np.isfinite(coef))
    full = fit_on_rows(X[:, :3], y)
    np.testing.assert_allclose(X @ coef, X[:, :3] @ full, atol=1e-8)


def test_ball_modes(rng):
    X = random_design(rng, 50, 3)
    y = rng.normal(size=50)
    coef = fit_ols(X, y)
    base = rss(X, y, coef)
    rel = make_ball(coef, X, y, 0.1)
    assert rel.radius == np.sqrt(0.1 * base)
    np.testing.assert_array_equal(rel.center, coef)
    assert isinstance(rel, BallRegion)
    step = np.eye(3)[0] * rel.radius
    assert rel.contains(rel.center + step) and not rel.contains(rel.center + 1.01 * step)
    zero = make_ball(coef, X, y, 0.0)
    assert zero.radius == 0.0
    with pytest.raises(ValueError):
        make_ball(coef, X, y, -0.5)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_ball_refuses_non_finite_tolerance(rng, epsilon):
    X = random_design(rng, 20, 2)
    y = rng.normal(size=20)
    with pytest.raises(ValueError, match="finite"):
        make_ball(fit_ols(X, y), X, y, epsilon)


def test_ball_refuses_a_tolerance_whose_radius_overflows(rng):
    X = random_design(rng, 20, 2)
    y = 10.0 * rng.normal(size=20)
    coef = fit_ols(X, y)
    assert rss(X, y, coef) > 1.0
    with pytest.raises(ValueError, match=r"^epsilon 1e\+308 gives a ball radius that overflows"):
        make_ball(coef, X, y, 1e308)
    assert make_ball(coef, X, y, 1e300).radius == pytest.approx(np.sqrt(1e300 * rss(X, y, coef)))
