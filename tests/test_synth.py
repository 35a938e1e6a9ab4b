import numpy as np
import pytest

from topkflip.synth import (
    AGE_RANGE,
    GROUP_BAND,
    P_IN_BAND,
    P_OUT_BAND,
    generate,
    generate_clinical,
)


def test_same_seed_same_table():
    a = generate(n=120, b=0.4, seed=9)
    b = generate(n=120, b=0.4, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert tuple(a.groups) == tuple(b.groups)


def test_different_b_changes_only_the_second_target():
    a = generate(n=100, b=-0.5, seed=4)
    b = generate(n=100, b=0.5, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.target("y1"), b.target("y1"))
    # y2 = b*z + e2 with the same noise, so the difference is the
    # standardized age itself.
    age = a.features[:, 1]
    z = (age - age.mean()) / age.std()
    np.testing.assert_allclose(b.target("y2") - a.target("y2"), z)


def test_layout_and_ranges():
    ds = generate(n=200, b=0.0, seed=1)
    assert ds.feature_names == ("intercept", "age", "visits")
    assert ds.target_names == ("y1", "y2")
    age = ds.features[:, 1]
    assert age.min() >= AGE_RANGE[0] and age.max() <= AGE_RANGE[1]
    assert set(ds.groups) == {"protected", "other"}
    assert set(ds.split_tags) == {"train", "tune", "holdout"}


def test_group_concentrates_in_the_band():
    ds = generate(n=4000, b=0.3, seed=2)
    age = ds.features[:, 1]
    lo, hi = np.quantile(age, GROUP_BAND)
    in_band = (age >= lo) & (age <= hi)
    member = ds.group_mask("protected")
    rate_in = member[in_band].mean()
    rate_out = member[~in_band].mean()
    assert abs(rate_in - P_IN_BAND) < 0.05
    assert abs(rate_out - P_OUT_BAND) < 0.03
    assert rate_in > rate_out


@pytest.mark.parametrize(
    "kw",
    [
        {"n": 5},
        {"n": 9},
        {"b": float("nan")},
        {"b": float("inf")},
        {"b": float("-inf")},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        generate(n=kw.pop("n", 100), b=kw.pop("b", 0.0))


def test_clinical_layout():
    ds = generate_clinical(n=400, seed=3)
    assert ds.n == 400
    assert ds.target_names == ("cost_t", "cost_avoidable_t", "gagne_sum_t")
    assert set(ds.groups) == {"black", "white"}
    assert ds.feature_names[0] == "intercept"
    assert "gagne_sum_tm1" in ds.feature_names
    with pytest.raises(ValueError):
        generate_clinical(n=20)


def test_clinical_cost_gap_mechanism():
    """At matched realized cost, black patients carry more chronic burden;
    the label gap sits on the cost outcomes, not the condition counts."""
    ds = generate_clinical(n=4000, seed=10)
    black = ds.group_mask("black")
    cost = ds.target("cost_t")
    gagne = ds.target("gagne_sum_t")
    # compare chronic burden inside a mid-cost window
    lo, hi = np.quantile(cost, [0.4, 0.6])
    window = (cost >= lo) & (cost <= hi)
    assert gagne[window & black].mean() > gagne[window & ~black].mean()
