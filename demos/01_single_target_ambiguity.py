"""How many selections survive a near-tie among models?

Fits one score on synthetic data, then asks: across every coefficient
vector whose squared loss is within a small tolerance of the best fit,
which rows can move across the top-k cutoff? The answer comes back as a
certified rank range per row, and as a curve of the flippable fraction
against the tolerance.
"""

import numpy as np

from topkflip import (
    ambiguity_curve,
    fit_ols,
    flip_search,
    generate,
    make_ball,
    orthonormalize,
)

KAPPA = 12


def main():
    ds = generate(n=240, b=0.5, seed=11)
    _, _, holdout_rows = ds.split_masks()
    holdout = ds.subset(holdout_rows)
    q = orthonormalize(holdout)
    X, y = q.features, q.target("y1")
    print(f"holdout rows: {q.n}, selecting top {KAPPA} by target 'y1'")

    ball = make_ball(fit_ols(X, y), X, y, 0.02)
    reports = flip_search(X, ball, KAPPA)
    flippable = [r for r in reports if r.flippable]
    print(f"tolerance 0.02 (relative): ball radius {ball.radius:.4f}, "
          f"{len(flippable)} of {q.n} rows can cross the cutoff")
    for r in flippable[:5]:
        side = "in" if r.baseline_rank <= KAPPA else "out"
        print(f"  row {r.row_id}: baseline rank {r.baseline_rank} ({side}), "
              f"certified range [{r.min_rank}, {r.max_rank}] via {r.method}")

    print("\nambiguity against the tolerance:")
    for pt in ambiguity_curve(X, y, KAPPA, [0.005, 0.01, 0.02, 0.05, 0.1]):
        bar = "#" * round(60 * pt.ambiguity_all)
        print(f"  eps={pt.epsilon:<6g} flippable {pt.ambiguity_all:6.1%}  {bar}")
    print("the fraction only grows: a larger tolerance contains every "
          "model the smaller one did")


if __name__ == "__main__":
    np.set_printoptions(precision=4)
    main()
