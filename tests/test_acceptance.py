"""Acceptance gate.

One test per shipped guarantee, each ending in a single PASS/FAIL line
(visible under -v as the test verdict, with measured numbers printed for
the record). Tolerances and runtime ceilings are stated inline; the
dataset-dependent checks run against the clinical stand-in table from
conftest unless TOPKFLIP_HEALTHCARE_CSV points at a real extract.
"""

import time

import numpy as np
import pytest

from topkflip.dataset import orthonormalize
from topkflip.fairness import fairness_workflow, group_rate_extremes
from topkflip.index_model import build_ensemble, flip_search_multi, prune_never_top_multi
from topkflip.linear_fit import fit_ols, fit_on_rows, make_ball, rss
from topkflip.metrics import ambiguity_curve, stable_points
from topkflip.oracle import angle_sweep_single, simplex_sweep_k2, simplex_sweep_k3
from topkflip.ranking import resolve_kappa
from topkflip.rashomon_single import flip_search
from topkflip.solver import screen_membership
from topkflip.synth import generate

from conftest import random_design

KAPPA_PERCENT = "3%"
CURVE_EPSILONS = [0.005, 0.01, 0.02, 0.04, 0.08, 0.09]
# seed of the oracle-comparison instances; the same as the shared rng fixture
ORACLE_SEED = 1234


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------- shared clinical runs


@pytest.fixture(scope="module")
def holdout_ortho(clinical_subset):
    sub = clinical_subset.subset(clinical_subset.split_masks()[2])
    q = orthonormalize(sub)
    return q


@pytest.fixture(scope="module")
def clinical_curves(holdout_ortho):
    """Ambiguity fractions per target over CURVE_EPSILONS on the holdout."""
    q = holdout_ortho
    kappa = resolve_kappa(KAPPA_PERCENT, q.n)
    curves = {}
    for name in q.target_names:
        curve = ambiguity_curve(q.features, q.target(name), kappa, CURVE_EPSILONS)
        curves[name] = [pt.ambiguity_all for pt in curve]
    return curves


# ------------------------------------------------- oracle-checked instances


@pytest.fixture(scope="module")
def single_instances():
    """Single-feature instances with their disc-oracle rank ranges:
    (X, ball, kappa, min_ranks, max_ranks)."""
    rng = np.random.default_rng(ORACLE_SEED)
    out = []
    for _ in range(50):
        n = int(rng.integers(12, 41))
        A = np.column_stack([np.ones(n), rng.uniform(20, 80, size=n)])
        Q, R = np.linalg.qr(A)
        X = Q * np.sign(np.diag(R))
        y = rng.normal(size=n)
        model = fit_ols(X, y)
        kappa = int(rng.choice([2, 5, 10]))
        kappa = min(kappa, n - 1)
        for eps in (0.01, 0.1, 1.0):
            ball = make_ball(model, X, y, eps)
            lo, hi = angle_sweep_single(X, ball.center, ball.radius)
            out.append((X, ball, kappa, lo, hi))
    return out


@pytest.fixture(scope="module")
def multi_instances():
    """Two-target instances with their blend-sweep ranges:
    (preds, kappa, group_mask, sweep)."""
    rng = np.random.default_rng(ORACLE_SEED)
    out = []
    for _ in range(50):
        n = int(rng.integers(12, 41))
        P = rng.normal(size=(n, 2))
        kappa = int(rng.integers(2, max(3, n // 3)))
        mask = rng.random(n) < 0.3
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        out.append((P, kappa, mask, simplex_sweep_k2(P, kappa, group_mask=mask)))
    return out


@pytest.fixture(scope="module")
def clinical_preds(clinical_subset):
    """The blend family's standardized holdout predictions."""
    ds = clinical_subset
    tr, tu, ho = ds.split_masks()
    Y = np.column_stack([ds.target(t) for t in ds.target_names])
    ens = build_ensemble(
        ds.features[tr], Y[tr], ds.features[tu], target_names=ds.target_names
    )
    return ens.predictions(ds.features[ho])


def test_c01_loss_identity_after_orthonormalization(rng):
    """RSS(w) - RSS(w0) = ||w - w0||^2, 200 instances, 1e-8 relative, < 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(1, 9))
        d = min(d, n - 1)
        X = random_design(rng, n, d)
        y = rng.normal(size=n)
        w0 = fit_ols(X, y)
        base = rss(X, y, w0)
        for _ in range(3):
            # coefficient-scale steps: a vanishing step cancels two O(n)
            # losses and no float arithmetic could meet a relative bound
            w = w0 + rng.normal(size=d) * rng.uniform(0.5, 2.0)
            lhs = rss(X, y, w) - base
            rhs = float(np.sum((w - w0) ** 2))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - t0
    _verdict(
        "loss identity",
        worst <= 1e-8 and elapsed < 5.0,
        f"max rel err {worst:.2e} over 200 instances in {elapsed:.2f}s (limits 1e-8, 5s)",
    )


def test_c02_rank_ranges_match_angle_sweep(single_instances):
    """Solver vs disc oracle, 50 single-feature instances, integer equality, < 2 min."""
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for X, ball, kappa, lo, hi in single_instances:
        reports = flip_search(X, ball, kappa, rank_mode="exact")
        for i, rep in enumerate(reports):
            checked += 1
            if (rep.min_rank, rep.max_rank) != (int(lo[i]), int(hi[i])):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "single-target rank ranges vs sweep",
        mismatches == 0 and elapsed < 120.0,
        f"{mismatches} mismatches over {checked} rank ranges in {elapsed:.1f}s (limits 0, 120s)",
    )


def test_c03_blend_ranges_match_simplex_sweep(multi_instances):
    """Solver vs two-target sweep for ranks and group counts, 50 instances, < 2 min."""
    t0 = time.perf_counter()
    rank_bad = 0
    group_bad = 0
    checked = 0
    for P, kappa, mask, sweep in multi_instances:
        reports = flip_search_multi(P, kappa, rank_mode="exact")
        for i, rep in enumerate(reports):
            checked += 1
            if (rep.min_rank, rep.max_rank) != (int(sweep.min_ranks[i]), int(sweep.max_ranks[i])):
                rank_bad += 1
        grep = group_rate_extremes(P, kappa, mask, direction="both")
        if grep.min_count != int(sweep.group_min) or grep.max_count != int(sweep.group_max):
            group_bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "blend rank and group ranges vs sweep",
        rank_bad == 0 and group_bad == 0 and elapsed < 120.0,
        f"{rank_bad} rank and {group_bad} group mismatches over {checked} rows in {elapsed:.1f}s (limits 0, 120s)",
    )


def test_c04_pruning_soundness_and_witness_membership(single_instances, multi_instances):
    """No pruned row flips under any oracle; witnesses within 1e-10 of the region."""
    prune_bad = 0
    member_bad = 0
    worst_member = 0.0
    for X, ball, kappa, lo, hi in single_instances:
        pr = screen_membership(ball, X)
        for i in np.flatnonzero(pr.never_top(kappa)):
            if lo[i] <= kappa:
                prune_bad += 1
        for i in np.flatnonzero(pr.always_top(kappa)):
            if hi[i] > kappa:
                prune_bad += 1
        for rep in flip_search(X, ball, kappa):
            if rep.witness_kind == "coef":
                excess = float(np.linalg.norm(rep.witness - ball.center)) - ball.radius
                worst_member = max(worst_member, excess)
                if excess > 1e-10:
                    member_bad += 1
    for P, kappa, mask, sweep in multi_instances:
        pr = prune_never_top_multi(P)
        for i in np.flatnonzero(pr.never_top(kappa)):
            if sweep.min_ranks[i] <= kappa:
                prune_bad += 1
        for i in np.flatnonzero(pr.always_top(kappa)):
            if sweep.max_ranks[i] > kappa:
                prune_bad += 1
        for rep in flip_search_multi(P, kappa):
            if rep.witness_kind == "alpha":
                a = rep.witness
                excess = max(float(np.max(-a)), abs(float(a.sum()) - 1.0))
                worst_member = max(worst_member, excess)
                if excess > 1e-10:
                    member_bad += 1
    _verdict(
        "pruning soundness and witness membership",
        prune_bad == 0 and member_bad == 0,
        f"{prune_bad} pruning violations, {member_bad} witnesses beyond 1e-10 "
        f"(worst excess {worst_member:.2e})",
    )


def test_c05_index_variable_equivalence(rng):
    """Fit-then-blend equals blend-then-fit within 1e-8, 100 instances, < 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(2, 6))
        K = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(n, K))
        X_new = rng.normal(size=(15, d))
        alpha = rng.dirichlet(np.ones(K))
        iv = fit_on_rows(X, Y @ alpha)
        ens = build_ensemble(X, Y, X, target_names=tuple(f"y{k}" for k in range(K)))
        blended = np.column_stack([X_new @ w for w in ens.models]) @ alpha
        worst = max(worst, float(np.max(np.abs(X_new @ iv - blended))))
    elapsed = time.perf_counter() - t0
    _verdict(
        "index variable equivalence",
        worst <= 1e-8 and elapsed < 5.0,
        f"max abs deviation {worst:.2e} over 100 instances in {elapsed:.2f}s (limits 1e-8, 5s)",
    )


def test_c06_curves_nondecreasing_with_plateau(clinical_curves, rng):
    """Every curve nondecreasing; clinical curves flat between the two largest tested tolerances."""
    monotone_ok = True
    plateau_ok = True
    details = []
    for name, fracs in clinical_curves.items():
        monotone_ok &= all(b >= a for a, b in zip(fracs, fracs[1:]))
        plateau_ok &= fracs[-1] == fracs[-2]
        details.append(f"{name} {fracs[-1]:.4f}")
    for _ in range(3):
        X = random_design(rng, 30, 3)
        y = rng.normal(size=30)
        fr = [pt.ambiguity_all for pt in ambiguity_curve(X, y, 6, [0.01, 0.05, 0.2])]
        monotone_ok &= all(b >= a for a, b in zip(fr, fr[1:]))
    _verdict(
        "curve monotonicity and plateau",
        monotone_ok and plateau_ok,
        f"monotone={monotone_ok}, flat between eps={CURVE_EPSILONS[-2]} and {CURVE_EPSILONS[-1]}: "
        f"{plateau_ok} (plateaus: {', '.join(details)})",
    )


def test_c07_clinical_orderings(clinical_subset, clinical_preds, clinical_curves):
    """Blend-family ambiguity beats every single-target one; the rate-maximizing
    blend, whose tune-split maximum is certified optimal, matches or beats the
    best single model's group count on holdout. < 30 min."""
    t0 = time.perf_counter()
    ds = clinical_subset
    kappa = resolve_kappa(KAPPA_PERCENT, clinical_preds.shape[0])
    reports = flip_search_multi(clinical_preds, kappa)
    multi = sum(1 for rep in reports if rep.flippable) / len(reports)
    singles = {name: fracs[-1] for name, fracs in clinical_curves.items()}
    part_a = all(multi > v for v in singles.values())

    bundle = fairness_workflow(ds, ds.target_names, "black", KAPPA_PERCENT, direction="max")
    index_count = bundle.evaluations[0].group_count
    single_counts = [ev.group_count for ev in bundle.evaluations[1:]]
    part_b = index_count >= max(single_counts)
    status_max = bundle.tune_report.status_max
    elapsed = time.perf_counter() - t0
    _verdict(
        "clinical ambiguity and selection-rate ordering",
        part_a and part_b and status_max == "optimal" and elapsed < 1800.0,
        f"blend ambiguity {multi:.4f} vs singles {sorted(singles.values())}; "
        f"group counts: blend {index_count} vs singles {single_counts}; "
        f"tune max {bundle.tune_report.max_count} {status_max} (need optimal); "
        f"{elapsed:.0f}s (limit 1800s)",
    )


def test_c08_synthetic_dominance_sweep():
    """Certified max group count >= every one-hot count at all 11 slopes, strictly
    greater at >= 3, seed 7, < 5 min."""
    t0 = time.perf_counter()
    dominated = 0
    strict = 0
    rows = []
    for b in np.linspace(-1.0, 1.0, 11):
        ds = generate(n=450, b=float(b), seed=7)
        bundle = fairness_workflow(ds, ("y1", "y2"), "protected", "20%", direction="max")
        rep = bundle.tune_report
        best_single = max(rep.one_hot_counts)
        if rep.max_count >= best_single:
            dominated += 1
        if rep.max_count > best_single:
            strict += 1
        rows.append(f"b={b:+.1f}:{rep.max_count}/{best_single}")
    elapsed = time.perf_counter() - t0
    _verdict(
        "blend dominance across the slope sweep",
        dominated == 11 and strict >= 3 and elapsed < 300.0,
        f"dominated {dominated}/11, strict {strict} (need 3), {elapsed:.0f}s (limit 300s) "
        f"[{' '.join(rows)}]",
    )


def test_c09_stable_fractions(clinical_preds, rng):
    """Degenerate families keep everything stable; the clinical blend family
    keeps over half the top decile stable."""
    X = random_design(rng, 25, 2)
    y = rng.normal(size=25)
    reports = flip_search(X, make_ball(fit_ols(X, y), X, y, 0.0), 6)
    zero_eps = stable_points(reports, 6, "rashomon").stable_fraction

    col = rng.normal(size=30)
    same = flip_search_multi(np.column_stack([col, col, col]), 8)
    identical = stable_points(same, 8, "index").stable_fraction

    kappa10 = resolve_kappa("10%", clinical_preds.shape[0])
    clin = flip_search_multi(clinical_preds, kappa10)
    frac = stable_points(clin, kappa10, "index").stable_fraction
    _verdict(
        "stable fractions",
        zero_eps == 1.0 and identical == 1.0 and frac > 0.5,
        f"zero-tolerance {zero_eps}, identical targets {identical} (need exactly 1.0); "
        f"clinical blend family at top decile {frac:.3f} (need > 0.5)",
    )


def test_c10_cli_determinism(tmp_path):
    """Repeated commands produce byte-identical outputs once the timestamp
    metadata line is set aside."""
    from topkflip.cli import main

    table = tmp_path / "t.csv"
    assert main(["synth", "--n", "200", "--b", "0.3", "--seed", "5", "--out", str(table)]) == 0

    def run_twice(args, out_a, out_b):
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        return out_a.read_text(), out_b.read_text()

    def strip_csv(text):
        return "\n".join(l for l in text.splitlines() if not l.startswith("# timestamp="))

    def strip_jsonl(text):
        import json

        lines = text.splitlines()
        meta = json.loads(lines[0])
        meta.pop("timestamp", None)
        return "\n".join([json.dumps(meta, sort_keys=True)] + lines[1:])

    results = []

    a, b = run_twice(
        ["synth", "--n", "200", "--b", "0.3", "--seed", "5"],
        tmp_path / "s1.csv", tmp_path / "s2.csv",
    )
    results.append(("synth", a == b))

    a, b = run_twice(
        ["ambiguity-single", "--data", str(table), "--target", "y1",
         "--kappa", "8", "--epsilons", "0.02,0.1"],
        tmp_path / "c1.csv", tmp_path / "c2.csv",
    )
    results.append(("ambiguity-single", strip_csv(a) == strip_csv(b)))

    a, b = run_twice(
        ["ambiguity-multi", "--data", str(table), "--targets", "y1,y2", "--kappa", "8"],
        tmp_path / "m1.jsonl", tmp_path / "m2.jsonl",
    )
    results.append(("ambiguity-multi", strip_jsonl(a) == strip_jsonl(b)))

    a, b = run_twice(
        ["fairness-range", "--data", str(table), "--targets", "y1,y2",
         "--group", "protected", "--kappa", "20%"],
        tmp_path / "f1.json", tmp_path / "f2.json",
    )
    import json as _json

    da, db = _json.loads(a), _json.loads(b)
    da["meta"].pop("timestamp", None)
    db["meta"].pop("timestamp", None)
    results.append(("fairness-range", da == db))

    bad = [name for name, ok in results if not ok]
    _verdict(
        "repeat-run determinism",
        not bad,
        f"{len(results)} commands compared, mismatches: {bad or 'none'}",
    )


def test_c11_three_target_ranges_match_simplex_sweep(rng):
    """Solver vs three-target sweep for ranks and group counts, 30 instances
    with n <= 15, < 2 min."""
    t0 = time.perf_counter()
    rank_bad = 0
    group_bad = 0
    checked = 0
    for _ in range(30):
        n = int(rng.integers(8, 16))
        P = rng.normal(size=(n, 3))
        kappa = int(rng.integers(2, max(3, n // 3)))
        mask = rng.random(n) < 0.3
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        sweep = simplex_sweep_k3(P, kappa, group_mask=mask)
        reports = flip_search_multi(P, kappa, rank_mode="exact")
        for i, rep in enumerate(reports):
            checked += 1
            if (rep.min_rank, rep.max_rank) != (int(sweep.min_ranks[i]), int(sweep.max_ranks[i])):
                rank_bad += 1
        grep = group_rate_extremes(P, kappa, mask, direction="both")
        if (grep.min_count, grep.max_count) != (sweep.group_min, sweep.group_max):
            group_bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "three-target rank and group ranges vs sweep",
        rank_bad == 0 and group_bad == 0 and elapsed < 120.0,
        f"{rank_bad} rank and {group_bad} group mismatches over {checked} rows in {elapsed:.1f}s (limits 0, 120s)",
    )


def test_c12_four_target_lp_matches_three_target_sweep():
    """Solver on the four-target LP geometry vs the three-target sweep, 6
    instances with n <= 10: a fourth target that blends the other three
    spans exactly the three-target scores, so exact rank ranges and both
    certified group-count extremes must equal the sweep's. < 1 min."""
    rng = np.random.default_rng(ORACLE_SEED)
    t0 = time.perf_counter()
    rank_bad = group_bad = uncertified = 0
    for trial in range(6):
        n = int(rng.integers(8, 11))
        P = rng.normal(size=(n, 3))
        if trial % 2:
            P = np.round(P, 1)  # exact ties between rows and across targets
        kappa = int(rng.integers(2, 4))
        mask = rng.random(n) < 0.3
        mask[trial % n] = True
        P4 = np.column_stack([P, P @ np.array([0.2, 0.3, 0.5])])
        sweep = simplex_sweep_k3(P, kappa, group_mask=mask)
        reports = flip_search_multi(P4, kappa, rank_mode="exact")
        uncertified += sum(rep.method != "mip_certified" for rep in reports)
        ranges = [(rep.min_rank, rep.max_rank) for rep in reports]
        rank_bad += ranges != list(zip(sweep.min_ranks.tolist(), sweep.max_ranks.tolist()))
        grep = group_rate_extremes(P4, kappa, mask)
        uncertified += (grep.status_min, grep.status_max) != ("optimal", "optimal")
        group_bad += (grep.min_count, grep.max_count) != (sweep.group_min, sweep.group_max)
    elapsed = time.perf_counter() - t0
    _verdict(
        "four-target rank and group ranges vs three-target sweep",
        rank_bad == 0 and group_bad == 0 and uncertified == 0 and elapsed < 60.0,
        f"{rank_bad} rank and {group_bad} group mismatches, {uncertified} uncertified "
        f"over 6 instances in {elapsed:.1f}s (limits 0, 0, 0, 60s)",
    )
