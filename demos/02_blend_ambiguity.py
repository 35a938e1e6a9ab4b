"""Selection churn across target choices, not model perturbations.

When several defensible outcome definitions exist, each one trains its
own score. Blending their z-scored predictions with nonnegative
weights summing to one sweeps out a family of composite scores; this
demo certifies, for every row, whether some blend moves it across the
cutoff, with certified outer bounds on its best and worst rank, then
compares the churn to what single-target tolerance balls produce.
"""

import numpy as np

from topkflip import (
    ambiguity_curve,
    build_ensemble,
    flip_search_multi,
    generate,
    orthonormalize,
)

KAPPA = 12


def main():
    ds = generate(n=240, b=0.8, seed=3)
    train, tune, holdout = ds.split_masks()
    Y = np.column_stack([ds.target(t) for t in ds.target_names])

    # scaling is frozen on the tune rows so holdout evaluation can't
    # leak into how the targets are made commensurable
    ens = build_ensemble(
        ds.features[train], Y[train], ds.features[tune], target_names=ds.target_names
    )
    preds = ens.predictions(ds.features[holdout])
    reports = flip_search_multi(preds, KAPPA)
    n = preds.shape[0]
    n_flip = sum(1 for r in reports if r.flippable)
    print(f"blend family over targets {ds.target_names}: "
          f"{n_flip} of {n} holdout rows flippable ({n_flip / n:.1%})")

    ho = ds.subset(holdout)
    q = orthonormalize(ho)
    for t in ds.target_names:
        (pt,) = ambiguity_curve(q.features, q.target(t), KAPPA, [0.05])
        print(f"single target {t!r} at tolerance 0.05: {pt.ambiguity_all:.1%} flippable")

    movers = sorted(
        (r for r in reports if r.flippable),
        key=lambda r: r.max_rank - r.min_rank,
        reverse=True,
    )
    # Status mode solves only the rank extreme each verdict needs, so
    # these ranges are certified outer bounds, not exact extremes.
    print("\nwidest certified outer rank ranges under the blend family:")
    for r in movers[:5]:
        print(f"  row {r.row_id}: rank {r.min_rank}..{r.max_rank} "
              f"(baseline {r.baseline_rank} under the uniform blend)")


if __name__ == "__main__":
    main()
