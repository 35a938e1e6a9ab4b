"""Who is selected no matter what?

The flip side of ambiguity. A row is stable when its certified worst
rank still lands inside the top-k (always selected) or its certified
best rank still misses (never selected). The stable selected core is
what a decision-maker can commit to before settling the modeling
choices; everything else is up for grabs.

The size of that core depends on how much the candidate targets agree.
Here the same pipeline runs twice, once with targets that mostly point
the same way and once with targets in opposition.
"""

import numpy as np

from topkflip import (
    build_ensemble,
    flip_search_multi,
    generate,
    prune_never_top_multi,
    stable_points,
)


def stable_table(b):
    ds = generate(n=300, b=b, seed=5)
    train, tune, holdout = ds.split_masks()
    Y = np.column_stack([ds.target(t) for t in ds.target_names])
    ens = build_ensemble(
        ds.features[train], Y[train], ds.features[tune], target_names=ds.target_names
    )
    # The predictions and their screen do not depend on kappa, so the
    # sweep forms them once.
    preds = ens.predictions(ds.features[holdout])
    screen = prune_never_top_multi(preds)
    n = preds.shape[0]

    print(f"slope b={b:+.1f}: {n} holdout rows")
    print(f"{'kappa':>6} {'always in':>10} {'never in':>9} {'contested':>10} {'stable frac':>12}")
    for kappa in (5, 10, 20, 40):
        reports = flip_search_multi(preds, kappa, prune=screen)
        st = stable_points(reports, kappa, "index")
        contested = n - len(st.stable_selected) - len(st.stable_unselected)
        print(f"{kappa:>6} {len(st.stable_selected):>10} "
              f"{len(st.stable_unselected):>9} {contested:>10} "
              f"{st.stable_fraction:>12.2f}")
    print()


def main():
    print("stable frac = (always selected) / kappa; at 1.0 the target "
          "choice is irrelevant to who gets picked\n")
    stable_table(-0.6)  # both targets reward youth: large committed core
    stable_table(0.8)   # opposed targets: every slot is contestable


if __name__ == "__main__":
    main()
