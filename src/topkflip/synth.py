"""Synthetic benchmark data.

Two generators, both deterministic under their seed:

``generate``
    A two-target age study. Target one rewards youth, target two scales
    with age by a slope parameter ``b``, and a protected group lives
    mostly in a middle age band. Sweeping ``b`` moves the two targets
    from agreement through indifference to opposition, which is the
    regime where combining them pays off for the banded group.

``generate_clinical``
    A stand-in for a care-management table: lagged cost and chronic
    condition features, current-year cost and condition targets, and a
    race column that never appears among the features. Illness burden is
    higher for black patients at equal realized cost, so cost-trained
    scores under-select them while condition-count scores do not.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, assign_splits

__all__ = ["generate", "generate_clinical"]

AGE_RANGE = (20.0, 80.0)
# Age quantile band where protected-group membership is most likely, and
# the membership probabilities inside and outside it.
GROUP_BAND = (0.4, 0.6)
P_IN_BAND = 0.6
P_OUT_BAND = 0.1
# Standard deviation of the noise added to each standardized target.
NOISE_SD = 0.5
# Extra illness burden of black patients, and the access gap that keeps
# it out of their realized spending.
BURDEN_GAP = 1.2


def generate(n: int, b: float, seed: int = 0) -> Dataset:
    """Draw the two-target age study as a Dataset.

    Age is uniform on a fixed range. With z the in-sample standardized
    age, the targets are ``y1 = -z + e1`` and ``y2 = b*z + e2`` with
    independent normal noise, so the correlation between y2 and age
    moves continuously with ``b`` and hits zero at ``b = 0``. Negative
    ``b`` makes both targets favor the young; positive ``b`` puts them in
    opposition. Group membership is Bernoulli with the in-band
    probability between the band quantiles of age and the out-of-band
    probability elsewhere.

    Besides age the table carries a visits column independent of age,
    group, and both targets. Fitted models pick up only noise-level
    weight on it, but a blend whose age slopes cancel falls back to
    ranking by it, which is what lets an index model trade the age
    tails for an age-balanced selection when the targets oppose.

    ``n`` must be at least 10 and ``b`` finite. Equal arguments produce
    bit-identical datasets.
    """
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    if not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    rng = np.random.default_rng(seed)
    age = rng.uniform(AGE_RANGE[0], AGE_RANGE[1], n)
    z = (age - age.mean()) / age.std()
    e1 = rng.normal(0.0, NOISE_SD, n)
    e2 = rng.normal(0.0, NOISE_SD, n)
    visits = rng.normal(4.0, 1.0, n)
    lo_q, hi_q = np.quantile(age, GROUP_BAND)
    in_band = (age >= lo_q) & (age <= hi_q)
    member = rng.random(n) < np.where(in_band, P_IN_BAND, P_OUT_BAND)
    row_ids = tuple(str(i) for i in range(n))
    return Dataset(
        feature_names=("intercept", "age", "visits"),
        features=np.column_stack([np.ones(n), age, visits]),
        target_names=("y1", "y2"),
        targets=np.column_stack([-z + e1, b * z + e2]),
        groups=np.where(member, "protected", "other"),
        row_ids=row_ids,
        split_tags=assign_splits(row_ids, seed),
    )


def generate_clinical(n: int = 1800, seed: int = 20240117) -> Dataset:
    """Draw the clinical stand-in table.

    Mechanism: a latent illness burden ``sev`` is gamma-distributed with
    a ``BURDEN_GAP``-sized bump for black patients. Realized spending
    tracks ``sev - BURDEN_GAP`` for black patients, so the cost
    distribution is close to race-blind while black patients carry more illness at any cost
    level. Chronic condition counts track ``sev`` directly. Burden
    persists into the target year, so lagged features predict all three
    targets, but only the condition-count target is free of the spending
    gap.

    Features are race-blind. The biomarker and routine-visit columns
    carry little signal and exist so column filters have something real
    to drop.
    """
    if n < 50:
        raise ValueError(f"need n >= 50 for the clinical table, got {n}")
    rng = np.random.default_rng(seed)

    black = rng.random(n) < 0.35
    sev = rng.gamma(1.7, 1.25, n) + BURDEN_GAP * black
    age = np.clip(45.0 + 7.0 * sev + rng.normal(0.0, 9.0, n), 19.0, 95.0)
    female = rng.random(n) < 0.55

    # Spending has a persistent race-neutral habit component plus a
    # burden-driven part reduced by the access gap. At equal realized
    # spending, black patients carry more illness.
    habit = rng.gamma(2.0, 1.0, n)
    access = sev - BURDEN_GAP * black
    spend_tm1 = 0.15 * habit + 0.85 * access
    cost_tm1 = np.clip(600.0 + 850.0 * spend_tm1 + rng.normal(0.0, 150.0, n), 0.0, None)
    cost_avoidable_tm1 = np.clip(0.3 * (600.0 + 850.0 * spend_tm1) + rng.normal(0.0, 72.0, n), 0.0, None)
    gagne_sum_tm1 = rng.poisson(np.clip(3.2 * sev, 0.05, None)).astype(np.float64)
    hypertension_tm1 = (rng.random(n) < np.clip(0.12 + 0.15 * sev, 0.0, 0.95)).astype(np.float64)

    # Low-signal columns, filter fodder.
    normal_tm1 = rng.poisson(1.2, n).astype(np.float64)
    esr_high_tm1 = (rng.random(n) < np.clip(0.08 + 0.05 * sev, 0.0, 0.8)).astype(np.float64)
    crp_high_tm1 = (rng.random(n) < np.clip(0.10 + 0.06 * sev, 0.0, 0.8)).astype(np.float64)
    ghba1c_mean_tm1 = 5.5 + 0.25 * sev + rng.normal(0.0, 0.4, n)

    # Burden persists with a fresh shock; chronic conditions accumulate,
    # so the lagged count predicts the current one and keeps the burden
    # gap in the label. The spending gap stays in the cost labels.
    sev_t = 0.85 * sev + 0.15 * rng.gamma(1.7, 1.25, n)
    access_t = sev_t - BURDEN_GAP * black
    spend_t = 0.15 * habit + 0.85 * access_t
    cost_t = np.clip(600.0 + 850.0 * spend_t + rng.normal(0.0, 150.0, n), 0.0, None)
    cost_avoidable_t = np.clip(0.3 * (600.0 + 850.0 * spend_t) + rng.normal(0.0, 72.0, n), 0.0, None)
    gagne_sum_t = gagne_sum_tm1 + rng.poisson(np.clip(0.5 * sev_t, 0.02, None)).astype(np.float64)

    feature_names = (
        "intercept",
        "dem_age",
        "dem_female",
        "cost_tm1",
        "cost_avoidable_tm1",
        "gagne_sum_tm1",
        "hypertension_elixhauser_tm1",
        "normal_tm1",
        "esr_high_tm1",
        "crp_high_tm1",
        "ghba1c_mean_tm1",
    )
    features = np.column_stack(
        [
            np.ones(n),
            age,
            female.astype(np.float64),
            cost_tm1,
            cost_avoidable_tm1,
            gagne_sum_tm1,
            hypertension_tm1,
            normal_tm1,
            esr_high_tm1,
            crp_high_tm1,
            ghba1c_mean_tm1,
        ]
    )
    row_ids = tuple(str(i) for i in range(n))
    return Dataset(
        feature_names=feature_names,
        features=features,
        target_names=("cost_t", "cost_avoidable_t", "gagne_sum_t"),
        targets=np.column_stack([cost_t, cost_avoidable_t, gagne_sum_t]),
        groups=np.where(black, "black", "white"),
        row_ids=row_ids,
        split_tags=assign_splits(row_ids, seed),
    )
