"""The range of group selection rates across defensible scores.

Same blend family as demo 02, different question: instead of per-row
churn, how far can the protected group's share of the top-k swing as the
target weights vary? The sweep also returns the weight vectors attaining
each extreme, so the best blend can be audited on fresh rows next to the
single-target models it beats.
"""

from topkflip import fairness_workflow, generate


def main():
    ds = generate(n=450, b=0.6, seed=7)
    bundle = fairness_workflow(ds, ds.target_names, "protected", "20%")

    rep = bundle.tune_report
    print(f"tune split: {rep.n} rows, {rep.n_group} protected, top {rep.kappa}")
    print(f"certified protected count range over all blends: "
          f"[{rep.min_count}, {rep.max_count}] "
          f"(rates {rep.min_rate:.1%} to {rep.max_rate:.1%})")
    for name, cnt in zip(bundle.target_names, rep.one_hot_counts):
        print(f"  single target {name!r} alone picks {cnt}")
    print(f"weights attaining the max: {[round(float(v), 4) for v in rep.alpha_at_max]}")

    print(f"\nholdout audit ({bundle.n_holdout} rows, top {bundle.kappa_holdout}):")
    for ev in bundle.evaluations:
        print(f"  {ev.label:<10} protected in top: {ev.group_count:3d} "
              f"({ev.group_share:.1%} of the selection)")


if __name__ == "__main__":
    main()
