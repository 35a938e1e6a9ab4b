"""Group selection-count ranges over blend weights, and the split workflow
that tunes a rate-maximizing blend and audits it held out.

Counts are certified by the branch-and-bound solver on the weight
simplex. The workflow fits per-target models on the train rows, freezes
their z-score scaling and finds the extreme blend on the tune rows, then
evaluates that blend next to every single-target model on the holdout
rows.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .dataset import Dataset
from .index_model import build_ensemble, witness_pool_alphas
from .ranking import rank_descending, resolve_kappa
from .reports import write_csv_with_meta
from .solver import SimplexRegion, SolverConfig, group_query, solve

DIRECTIONS = ("min", "max", "both")


@dataclass(frozen=True)
class GroupRateReport:
    """Extreme group counts in the top set over all blend weights.

    Rates are counts over kappa. When a direction hits the solver budget
    the count field holds the best count known to be achievable (the
    solver's incumbent or a realized one-hot or uniform count, whichever
    is better) and the bound field the proven bound on that side; they
    match when the status is optimal. One-hot counts use the
    deterministic index tie-break and so must sit inside
    [min_count, max_count].
    """

    group_label: str
    kappa: int
    n: int
    n_group: int
    min_count: int | None = None
    max_count: int | None = None
    min_rate: float | None = None
    max_rate: float | None = None
    alpha_at_min: NDArray | None = None
    alpha_at_max: NDArray | None = None
    status_min: str | None = None
    status_max: str | None = None
    bound_min: int | None = None
    bound_max: int | None = None
    one_hot_counts: tuple = ()
    one_hot_rates: tuple = ()


def _normalized(alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    total = float(alpha.sum())
    return alpha / total if total > 0 else alpha


def _simple_blends(P, kappa, mask):
    """Each one-hot blend, then the uniform blend, with the group count it
    realizes under the deterministic index tie-break."""
    K = P.shape[1]
    out = []
    for alpha in witness_pool_alphas(K)[: K + 1]:
        flags = rank_descending(P @ alpha) <= kappa
        out.append((alpha, int(np.count_nonzero(flags & mask))))
    return out


def _simplest_attaining(blends, count, witness):
    """Prefer a one-hot (then uniform) blend among exact maximizer ties.

    The solver certifies the extreme count but its witness is an
    arbitrary point of the attaining cell. Any candidate whose realized
    count equals the certified extreme is an equally valid witness, and
    a vertex generalizes better and reads better than an interior blend.
    """
    for alpha, realized in blends:
        if realized == count:
            return alpha
    return _normalized(witness)


def group_rate_extremes(
    preds: NDArray[np.float64],
    kappa: int,
    group_mask: NDArray[np.bool_],
    direction: str = "both",
    group_label: str = "group",
    config: SolverConfig | None = None,
) -> GroupRateReport:
    """Certified min and/or max of the group's top-set count over blends.

    A side that stops short of optimality reports the better of the
    solver's incumbent and the counts the one-hot and uniform blends
    realize, so the one-hot counts still sit inside the reported range.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    P = np.asarray(preds, dtype=np.float64)
    mask = np.asarray(group_mask, dtype=bool)
    n, K = P.shape
    if mask.shape != (n,):
        raise ValueError("group_mask must have one flag per row")
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    region = SimplexRegion(dim=K)
    group_rows = np.flatnonzero(mask)
    blends = _simple_blends(P, kappa, mask)
    # The pairs do not depend on the sense, so both sides share one build.
    inst = group_query("max", region, P, group_rows, kappa)

    fields: dict = {}
    for sense in ("min", "max"):
        if direction not in (sense, "both"):
            continue
        sol = solve(dataclasses.replace(inst, sense=sense), config)
        count = None if sol.value is None else int(sol.value)
        if sol.status != "optimal":
            better = min if sense == "min" else max
            realized = better(c for _, c in blends)
            count = realized if count is None else better(count, realized)
        fields[f"{sense}_count"] = count
        fields[f"{sense}_rate"] = count / kappa
        fields[f"alpha_at_{sense}"] = _simplest_attaining(blends, count, sol.witness)
        fields[f"status_{sense}"] = sol.status
        fields[f"bound_{sense}"] = int(sol.bound)

    one_hot_counts = [c for _, c in blends[:K]]
    return GroupRateReport(
        group_label=group_label,
        kappa=kappa,
        n=n,
        n_group=int(mask.sum()),
        one_hot_counts=tuple(one_hot_counts),
        one_hot_rates=tuple(c / kappa for c in one_hot_counts),
        **fields,
    )


@dataclass(frozen=True)
class ModelEvaluation:
    """Holdout audit of one scoring rule (a blend or a single target).

    ``group_share`` is the group's fraction of the selected set,
    ``group_capture`` the selected fraction of the group, and
    ``concentration[k]`` the share of target k's holdout total carried by
    the selected rows.
    """

    label: str
    alpha: tuple
    group_count: int
    group_share: float
    group_capture: float
    concentration: tuple


@dataclass(frozen=True)
class FairnessBundle:
    """Everything the three-phase run produced. All but the tune rows'
    predictions and group flags serializes as one JSON document."""

    group_label: str
    target_names: tuple
    kappa_input: str
    kappa_tune: int
    kappa_holdout: int
    n_train: int
    n_tune: int
    n_holdout: int
    tune_report: GroupRateReport
    alpha_star: tuple
    evaluations: tuple
    tune_preds: NDArray = field(repr=False, compare=False)
    tune_group: NDArray = field(repr=False, compare=False)


def evaluate_selection(
    scores: NDArray[np.float64],
    kappa: int,
    group_mask: NDArray[np.bool_],
    targets: NDArray[np.float64],
    label: str,
    alpha,
) -> ModelEvaluation:
    """Audit the top-kappa set one scoring rule selects.

    Concentration divides by each target's total; a zero total yields nan
    rather than a silent zero.
    """
    flags = rank_descending(scores) <= kappa
    mask = np.asarray(group_mask, dtype=bool)
    count = int(np.count_nonzero(flags & mask))
    n_group = int(mask.sum())
    conc = []
    Y = np.asarray(targets, dtype=np.float64)
    for k in range(Y.shape[1]):
        total = float(Y[:, k].sum())
        conc.append(float(Y[flags, k].sum()) / total if total != 0 else float("nan"))
    return ModelEvaluation(
        label=label,
        alpha=tuple(float(v) for v in np.asarray(alpha, dtype=np.float64)),
        group_count=count,
        group_share=count / kappa,
        group_capture=count / n_group if n_group else float("nan"),
        concentration=tuple(conc),
    )


def fairness_workflow(
    ds: Dataset,
    targets,
    group_label: str,
    kappa,
    direction: str = "both",
    config: SolverConfig | None = None,
) -> FairnessBundle:
    """Tune a rate-maximizing blend on one split, audit it on another.

    Train rows fit the per-target models, tune rows freeze their z-score
    scaling and host the extreme-count search, holdout rows receive
    the witness blend next to every one-hot. The kappa argument may be
    an ``int`` or a percent string and resolves against the tune and
    holdout sizes separately, both before anything is fitted. The
    evaluated blend is the max witness when the direction includes max,
    otherwise the min witness.
    """
    target_names = tuple(targets)
    tr, tu, ho = ds.split_masks()
    Y = np.column_stack([ds.target(name) for name in target_names])
    group_all = ds.group_mask(group_label)
    if not group_all.any():
        raise ValueError(f"group {group_label!r} has no rows")
    resolved = []
    for tag, rows in (("tune", tu), ("holdout", ho)):
        try:
            resolved.append(resolve_kappa(kappa, int(rows.sum())))
        except ValueError as exc:
            raise ValueError(f"{tag} split: {exc}") from exc
    kappa_tune, kappa_hold = resolved

    ensemble = build_ensemble(
        ds.features[tr],
        Y[tr],
        ds.features[tu],
        target_names=target_names,
    )

    preds_tune = ensemble.predictions(ds.features[tu])
    tune_report = group_rate_extremes(
        preds_tune,
        kappa_tune,
        group_all[tu],
        direction=direction,
        group_label=group_label,
        config=config,
    )
    alpha_star = tune_report.alpha_at_max
    if alpha_star is None:
        alpha_star = tune_report.alpha_at_min

    preds_hold = ensemble.predictions(ds.features[ho])
    group_hold = group_all[ho]
    Y_hold = Y[ho]
    evals = [
        evaluate_selection(
            preds_hold @ alpha_star, kappa_hold, group_hold, Y_hold, "index", alpha_star
        )
    ]
    for k, name in enumerate(target_names):
        one_hot = np.zeros(len(target_names))
        one_hot[k] = 1.0
        evals.append(
            evaluate_selection(preds_hold[:, k], kappa_hold, group_hold, Y_hold, name, one_hot)
        )

    return FairnessBundle(
        group_label=group_label,
        target_names=target_names,
        kappa_input=str(kappa),
        kappa_tune=kappa_tune,
        kappa_holdout=kappa_hold,
        n_train=int(tr.sum()),
        n_tune=int(tu.sum()),
        n_holdout=int(ho.sum()),
        tune_report=tune_report,
        alpha_star=tuple(float(v) for v in alpha_star),
        evaluations=tuple(evals),
        tune_preds=preds_tune,
        tune_group=group_all[tu],
    )


def _plain(value):
    """A report dataclass as JSON-ready data: a dict of the fields its repr
    shows, with arrays and tuples as lists and a non-finite float (an
    undefined share) as None, all the way down."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.repr}
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def write_fairness_json(path, meta: dict, report) -> None:
    """One JSON document: the metadata record plus the workflow bundle."""
    doc = {"meta": meta, "report": _plain(report)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_fairness_csv(path, meta: dict, bundle: FairnessBundle) -> None:
    """Bar-chart-ready table: one row per audited model."""
    columns = ["model", "group_count", "group_share", "group_capture"] + [
        f"concentration_{name}" for name in bundle.target_names
    ]
    rows = [
        [ev.label, ev.group_count, repr(ev.group_share), repr(ev.group_capture)]
        + [repr(c) for c in ev.concentration]
        for ev in bundle.evaluations
    ]
    write_csv_with_meta(path, meta, columns, rows)
