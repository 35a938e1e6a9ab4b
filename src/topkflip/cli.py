"""Command line front end.

Batch interface over the library: fit models, trace ambiguity curves,
write per-row flip reports, audit group selection rates, tabulate stable
points, and generate the synthetic study tables. Every output but the
synthetic table embeds a metadata header that records each flag that
changes its results; apart from the timestamp field, identical flags
produce byte-identical files.

Exit codes: 0 success, 1 a --certify oracle cross-check disagreed with
the solver, 2 usage error, 3 data error, 4 a search stopped short of a
certified answer: budget exhausted or a node undecided (partial
results are still written). Errors are mirrored as a one-line
JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

import numpy as np

from .dataset import DataError, Dataset, drop_columns_matching, load_csv, orthonormalize, write_csv
from .fairness import fairness_workflow, write_fairness_csv, write_fairness_json
from .index_model import build_ensemble, flip_search_multi, prune_never_top_multi
from .linear_fit import fit_ols, fit_on_rows, make_ball
from .metrics import ambiguity_curve, curve_rows, stable_points, stable_rows
from .oracle import angle_sweep_single, simplex_sweep_k2, simplex_sweep_k3
from .ranking import resolve_kappa
from .rashomon_single import flip_search
from .reports import meta_record, write_csv_with_meta, write_reports_jsonl
from .solver import SolverConfig, screen_membership
from .synth import generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


class CertifyError(Exception):
    """An oracle cross-check disagreed with the solver."""


class _Parser(argparse.ArgumentParser):
    # argparse calls error() then exits; route through our JSON envelope.
    def error(self, message):
        raise UsageError(message)


def _emit_error(exc: Exception, exit_code: int) -> None:
    doc = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code,
        }
    }
    print(json.dumps(doc), file=sys.stderr)


def _parse_targets(raw: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in raw.split(",") if t.strip())
    if not names:
        raise UsageError("no target names given")
    repeated = sorted({t for t in names if names.count(t) > 1})
    if repeated:
        raise UsageError(f"target name(s) {repeated} repeat in {raw!r}")
    return names


def _parse_epsilons(raw: str) -> list[float]:
    try:
        eps = [float(e) for e in raw.split(",") if e.strip()]
    except ValueError as exc:
        raise UsageError(f"bad epsilon list {raw!r}: {exc}") from None
    if not eps:
        raise UsageError("no epsilon values given")
    if not np.all(np.isfinite(eps)) or min(eps) < 0:
        raise UsageError(f"epsilons must be finite and nonnegative, got {raw!r}")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise UsageError(f"epsilons must be ascending, got {raw!r}")
    return eps


def _parse_kappa(raw: str):
    """A positive integer or a percent string, resolved against the row
    count later; only a kappa above that count is a data error."""
    raw = raw.strip()
    try:
        kappa = raw if raw.endswith("%") else int(raw)
        # A valid percent resolves on one row, a valid count on its own.
        resolve_kappa(kappa, 1 if isinstance(kappa, str) else kappa)
    except ValueError:
        raise UsageError(f"kappa must be a positive integer or a percent, got {raw!r}") from None
    return kappa


def _positive(cast):
    """An argparse type for a count or a budget: above zero, which NaN is not."""

    def number(raw: str):
        if not (value := cast(raw)) > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
        return value

    return number


def _regex(raw: str) -> str:
    """An argparse type: a pattern ``re`` compiles, on one line, since the
    pattern is recorded in the outputs' meta."""
    if "\n" in raw or "\r" in raw:
        raise argparse.ArgumentTypeError(f"bad regex {raw!r}: holds a line break")
    try:
        re.compile(raw)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"bad regex {raw!r}: {exc}") from None
    return raw


def _load_table(path, target_names, drop_regex) -> Dataset:
    """Ingest a CSV in the layout ``load_csv`` reads, then drop the
    feature columns ``--drop-regex`` matches."""
    ds = load_csv(path, target_names)
    if drop_regex:
        ds = drop_columns_matching(ds, [drop_regex])
    return ds


def _orthonormal_analysis(ds: Dataset) -> Dataset:
    """The table's holdout rows, orthonormalized."""
    _, _, holdout = ds.split_masks()
    return orthonormalize(ds.subset(holdout))


def _blend_analysis(ds: Dataset, targets):
    """``(preds, row_ids)``: the holdout rows' z-scored predictions,
    under the ensemble fitted on the train rows and frozen on the tune
    rows, and their ids."""
    train, tune, holdout = ds.split_masks()
    Y = np.column_stack([ds.target(t) for t in targets])
    ensemble = build_ensemble(ds.features[train], Y[train], ds.features[tune], target_names=targets)
    row_ids = tuple(r for r, m in zip(ds.row_ids, holdout) if m)
    return ensemble.predictions(ds.features[holdout]), row_ids


def _solver_config(args) -> SolverConfig:
    kw = {}
    if args.node_budget is not None:
        kw["node_budget"] = args.node_budget
    if args.time_budget is not None:
        kw["time_budget"] = args.time_budget
    return SolverConfig(**kw)


def _base_meta(args, command: str, **extra) -> dict:
    cfg = _solver_config(args)
    return meta_record(
        command=command,
        node_budget=cfg.node_budget,
        time_budget=cfg.time_budget,
        drop_regex=args.drop_regex,
        **extra,
    )


# ---------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    targets = _parse_targets(args.targets)
    ds = _load_table(args.data, targets, args.drop_regex)
    train, _, _ = ds.split_masks()
    models = []
    for name in targets:
        coef = fit_on_rows(ds.features[train], ds.target(name)[train])
        models.append(
            {
                "target": name,
                "feature_names": list(ds.feature_names),
                "coef": [float(c) for c in coef],
            }
        )
    meta = meta_record(
        command="fit",
        data=str(args.data),
        n_fit=int(train.sum()),
        drop_regex=args.drop_regex,
    )
    doc = {"meta": meta, "models": models}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return EXIT_OK


# ------------------------------------------------------------- certify


# The exact oracle for each (family, dimension) under --certify, with its
# row cap. The three-target sweep grows steeply: about 1.6 s at 20 rows,
# 15 s at 30 and 73 s at 40.
ORACLES = {
    ("ball", 2): (angle_sweep_single, 60),
    ("blend", 2): (simplex_sweep_k2, 60),
    ("blend", 3): (simplex_sweep_k3, 20),
}
_DIMENSIONS = {
    "ball": "design columns; the disc sweep takes 2",
    "blend": "targets; the blend sweeps take 2 or 3",
}


def _certify_note(text: str) -> None:
    """Say on stderr what --certify checked, or why it checked nothing."""
    print(f"certify: {text}", file=sys.stderr)


def _oracle(family: str, dim: int, n_rows: int):
    """The oracle for this input, or None after saying why none applies."""
    if (family, dim) not in ORACLES:
        _certify_note(f"no oracle applies ({dim} {_DIMENSIONS[family]})")
        return None
    oracle, cap = ORACLES[family, dim]
    if n_rows > cap:
        _certify_note(
            f"no oracle applies ({n_rows} rows, over the {cap}-row cap of {oracle.__name__})"
        )
        return None
    return oracle


def _check(what: str, oracle, lo: int, hi: int) -> None:
    """The one comparison rule: the oracle's value must lie in ``[lo, hi]``,
    the span the solver vouches for. A certified value is a span of one; a
    search that stopped short spans its proven bounds."""
    if not lo <= oracle <= hi:
        raise CertifyError(f"{what} mismatch: solver [{lo}, {hi}] vs sweep {oracle}")


def _check_ranks(exact, written, kappa, min_ranks, max_ranks, where: str = "") -> None:
    """One input's two searches against the oracle's ranges. An exact-mode
    row must meet them, or contain both extremes where it is undetermined,
    since its fields are then outer bounds. A written (status-mode) row's
    range must contain them, and a decided verdict must be the oracle's,
    ``min <= kappa < max``."""
    for rep, out, omin, omax in zip(exact, written, min_ranks, max_ranks):
        row = f"{where}, row {rep.row_id}"
        lo, hi = rep.min_rank, rep.max_rank
        settled = rep.method != "undetermined"
        _check(f"min rank{row}", omin, lo, lo if settled else hi)
        _check(f"max rank{row}", omax, hi if settled else lo, hi)
        _check(f"written min rank{row}", omin, out.min_rank, out.max_rank)
        _check(f"written max rank{row}", omax, out.min_rank, out.max_rank)
        if out.flippable is not None and out.flippable != (omin <= kappa < omax):
            raise CertifyError(
                f"flippable{row} mismatch: solver {out.flippable} vs sweep "
                f"[{omin}, {omax}] at kappa {kappa}"
            )


# --------------------------------------------------- ambiguity-single


def _cmd_ambiguity_single(args) -> int:
    ds = _load_table(args.data, (args.target,), args.drop_regex)
    q = _orthonormal_analysis(ds)
    kappa = resolve_kappa(_parse_kappa(args.kappa), q.n)
    epsilons = _parse_epsilons(args.epsilons)
    cfg = _solver_config(args)
    oracle = _oracle("ball", q.features.shape[1], q.n) if args.certify else None
    curve = ambiguity_curve(q.features, q.target(args.target), kappa, epsilons, config=cfg)
    if oracle:
        for point in curve:
            ranks = oracle(q.features, point.ball.center, point.ball.radius)
            exact = flip_search(q.features, point.ball, kappa, rank_mode="exact", config=cfg)
            _check_ranks(exact, point.reports, kappa, *ranks, where=f" at epsilon={point.epsilon}")
        _certify_note(
            f"{oracle.__name__} checked rank ranges at {len(curve)} epsilons on {q.n} rows"
        )
    meta = _base_meta(
        args,
        "ambiguity-single",
        data=str(args.data),
        target=args.target,
        kappa=str(args.kappa),
        kappa_resolved=kappa,
        n=q.n,
        certify=args.certify or None,
    )
    write_csv_with_meta(
        args.out,
        meta,
        ["epsilon", "ambiguity_all", "ambiguity_top", "target"],
        curve_rows(curve, args.target),
    )
    if any(point.n_undetermined for point in curve):
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------- ambiguity-multi


def _cmd_ambiguity_multi(args) -> int:
    targets = _parse_targets(args.targets)
    ds = _load_table(args.data, targets, args.drop_regex)
    preds, row_ids = _blend_analysis(ds, targets)
    n = preds.shape[0]
    kappa = resolve_kappa(_parse_kappa(args.kappa), n)
    cfg = _solver_config(args)
    oracle = _oracle("blend", len(targets), n) if args.certify else None
    reports = flip_search_multi(preds, kappa, row_ids=row_ids, config=cfg)
    if oracle:
        sweep = oracle(preds, kappa)
        exact = flip_search_multi(preds, kappa, row_ids=row_ids, rank_mode="exact", config=cfg)
        _check_ranks(exact, reports, kappa, sweep.min_ranks, sweep.max_ranks)
        _certify_note(f"{oracle.__name__} checked rank ranges on {n} rows")
    meta = _base_meta(
        args,
        "ambiguity-multi",
        data=str(args.data),
        targets=",".join(targets),
        kappa=str(args.kappa),
        kappa_resolved=kappa,
        n=n,
        certify=args.certify or None,
    )
    write_reports_jsonl(reports, args.out, meta)
    if any(rep.method == "undetermined" for rep in reports):
        return EXIT_BUDGET
    return EXIT_OK


# ----------------------------------------------------- fairness-range


def _cmd_fairness_range(args) -> int:
    targets = _parse_targets(args.targets)
    ds = _load_table(args.data, targets, args.drop_regex)
    bundle = fairness_workflow(
        ds,
        targets,
        args.group,
        _parse_kappa(args.kappa),
        direction=args.direction,
        config=_solver_config(args),
    )
    # The tune rows are the workflow's to choose, so the lookup follows it.
    oracle = _oracle("blend", len(targets), bundle.n_tune) if args.certify else None
    if oracle:
        sweep = oracle(bundle.tune_preds, bundle.kappa_tune, group_mask=bundle.tune_group)
        # A side spans from its proven bound to its achieved count; the two
        # meet when the side is certified. --direction may leave one out.
        rep = bundle.tune_report
        if rep.status_min:
            _check("group count min", sweep.group_min, rep.bound_min, rep.min_count)
        if rep.status_max:
            _check("group count max", sweep.group_max, rep.max_count, rep.bound_max)
        _certify_note(f"{oracle.__name__} checked the group count range on {bundle.n_tune} rows")
    meta = _base_meta(
        args,
        "fairness-range",
        data=str(args.data),
        targets=",".join(targets),
        group=args.group,
        kappa=str(args.kappa),
        direction=args.direction,
        certify=args.certify or None,
    )
    table = str(args.out)
    table = table[: -len(".json")] + "_models.csv" if table.endswith(".json") else table + "_models.csv"
    # Both paths are opened, to append, before either is written, so a path
    # that cannot be opened refuses the run before an existing output is
    # overwritten. A refused run removes each file it created.
    created = []
    try:
        for path in (table, args.out):
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        write_fairness_csv(table, meta, bundle)
        write_fairness_json(args.out, meta, bundle)
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    statuses = (bundle.tune_report.status_min, bundle.tune_report.status_max)
    if any(status not in (None, "optimal") for status in statuses):
        return EXIT_BUDGET
    return EXIT_OK


# ------------------------------------------------------ stable-points


def _cmd_stable_points(args) -> int:
    sweep = [_parse_kappa(k) for k in args.kappa_sweep.split(",") if k.strip()]
    if not sweep:
        raise UsageError("empty kappa sweep")
    # Each family reads its own flags, so the other family's are refused.
    if args.family == "rashomon":
        foreign = {"--targets": args.targets}
    else:
        foreign = {"--target": args.target, "--epsilon": args.epsilon}
    passed = [flag for flag, value in foreign.items() if value is not None]
    if passed:
        raise UsageError(f"the {args.family} family does not read {', '.join(passed)}")
    cfg = _solver_config(args)

    # The family and its screen are built once; the screen's bounds hold
    # for every kappa of the sweep.
    if args.family == "rashomon":
        if args.target is None:
            raise UsageError("--target is required for the rashomon family")
        epsilon = 0.1 if args.epsilon is None else args.epsilon
        if not np.isfinite(epsilon) or epsilon < 0:
            raise UsageError(f"--epsilon must be finite and nonnegative, got {epsilon}")
        ds = _load_table(args.data, (args.target,), args.drop_regex)
        q = _orthonormal_analysis(ds)
        y = q.target(args.target)
        ball = make_ball(fit_ols(q.features, y), q.features, y, epsilon)
        screen = screen_membership(ball, q.features)
        search = partial(flip_search, q.features, ball, config=cfg, prune=screen)
        n_rows = q.n
        family_meta = {"target": args.target, "epsilon": epsilon}
    else:
        if args.targets is None:
            raise UsageError("--targets is required for the index family")
        targets = _parse_targets(args.targets)
        ds = _load_table(args.data, targets, args.drop_regex)
        preds, _ = _blend_analysis(ds, targets)
        search = partial(flip_search_multi, preds, config=cfg, prune=prune_never_top_multi(preds))
        n_rows = preds.shape[0]
        family_meta = {"targets": ",".join(targets)}
    kappas = [resolve_kappa(k, n_rows) for k in sweep]
    sets = [stable_points(search(k), k, args.family) for k in kappas]

    meta = _base_meta(
        args,
        "stable-points",
        data=str(args.data),
        family=args.family,
        kappa_sweep=args.kappa_sweep,
        n=n_rows,
        **family_meta,
    )
    write_csv_with_meta(
        args.out, meta, ["kappa", "stable_fraction", "family"], stable_rows(sets)
    )
    if any(s.undetermined for s in sets):
        return EXIT_BUDGET
    return EXIT_OK


# -------------------------------------------------------------- synth


def _cmd_synth(args) -> int:
    try:
        ds = generate(args.n, args.b, args.seed)
    except ValueError as exc:  # --n and --b are the arguments it can refuse
        raise UsageError(f"--n {args.n} --b {args.b}: {exc}") from None
    write_csv(ds, args.out)
    return EXIT_OK


# ------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topkflip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared_flags = {
        "--node-budget": dict(type=_positive(int), default=None),
        "--time-budget": dict(type=_positive(float), default=None),
        "--certify": dict(
            action="store_true",
            help=(
                "check results against an exact sweep where the input is small and "
                "low-dimensional enough; the flag only checks, and never changes what "
                "a command writes but its meta entry"
            ),
        ),
        "--drop-regex": dict(type=_regex, default=None, help="drop matching feature columns"),
    }

    def common(p, *flags):
        """The named shared flags, each only where it is read."""
        for flag in flags:
            p.add_argument(flag, **shared_flags[flag])

    budgets = ("--node-budget", "--time-budget")

    p = sub.add_parser("fit", help="least-squares models per target")
    p.add_argument("--data", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True)
    common(p, "--drop-regex")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ambiguity-single", help="ambiguity curve over model tolerance")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--epsilons", required=True)
    p.add_argument("--out", required=True)
    common(p, *budgets, "--drop-regex", "--certify")
    p.set_defaults(func=_cmd_ambiguity_single)

    p = sub.add_parser("ambiguity-multi", help="per-row flip reports over target blends")
    p.add_argument("--data", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--out", required=True)
    common(p, *budgets, "--drop-regex", "--certify")
    p.set_defaults(func=_cmd_ambiguity_multi)

    p = sub.add_parser("fairness-range", help="group selection rate range and audit")
    p.add_argument("--data", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--direction", choices=("min", "max", "both"), default="both")
    p.add_argument("--out", required=True)
    common(p, *budgets, "--drop-regex", "--certify")
    p.set_defaults(func=_cmd_fairness_range)

    p = sub.add_parser("stable-points", help="stable fraction across a kappa sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--family", choices=("rashomon", "index"), required=True)
    p.add_argument("--kappa-sweep", required=True)
    # A family's flags default to None, so that one passed to the other
    # family is refused; _cmd_stable_points resolves the defaults.
    p.add_argument("--target", default=None, help="target for the rashomon family")
    p.add_argument("--epsilon", type=float, default=None, help="tolerance for the rashomon family")
    p.add_argument("--targets", default=None, help="targets for the index family")
    p.add_argument("--out", required=True)
    common(p, *budgets, "--drop-regex")
    p.set_defaults(func=_cmd_stable_points)

    p = sub.add_parser("synth", help="two-target age study table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc, EXIT_USAGE)
        return EXIT_USAGE
    except (DataError, OSError, ValueError) as exc:
        _emit_error(exc, EXIT_DATA)
        return EXIT_DATA
    except CertifyError as exc:
        _emit_error(exc, 1)
        return 1


if __name__ == "__main__":
    sys.exit(main())
