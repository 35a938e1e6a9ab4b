"""The three clinical workloads: input tables, command lines, output checks.

Every workload runs on the clinical stand-in from
``topkflip.synth.generate_clinical``, drawn with the cohort seed the test
suite uses. The workload seed picks the row order of that cohort: the
cohort seed itself keeps generation order, and any other seed shuffles the
rows (each row keeps its id, split tag and values). The certification
problem is therefore the same for every seed, while the bytes the program
reads, the pair order and the solver's tie-breaks change with it.

A check returns a list of problems; an empty list means the outputs pass.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

COHORT_SEED = 20240117
TARGETS = "cost_t,cost_avoidable_t,gagne_sum_t"
SIMPLEX_TOL = 1e-10
EXIT_OK, EXIT_BUDGET = 0, 4


def make_table(n: int, seed: int):
    """The cohort of size n, in the row order the workload seed picks."""
    from topkflip.synth import generate_clinical

    ds = generate_clinical(n=n, seed=COHORT_SEED)
    if seed == COHORT_SEED:
        return ds
    perm = np.random.default_rng(seed).permutation(n)
    return dataclasses.replace(
        ds,
        features=ds.features[perm],
        targets=ds.targets[perm],
        groups=ds.groups[perm],
        row_ids=tuple(ds.row_ids[i] for i in perm),
        split_tags=ds.split_tags[perm],
    )


def table_sizes(ds) -> dict:
    sizes = {"n": int(ds.n)}
    for tag in ("train", "tune", "holdout"):
        sizes[tag] = int(np.count_nonzero(ds.split_tags == tag))
    return sizes


# ------------------------------------------------------------------ checks


def check_curve(paths, sizes, rc, hooks) -> "list[str]":
    from topkflip.reports import read_csv_with_meta

    problems = []
    _meta, columns, rows = read_csv_with_meta(paths[0])
    if columns != ["epsilon", "ambiguity_all", "ambiguity_top", "target"]:
        return [f"curve: unexpected columns {columns}"]
    if len(rows) != 3:
        problems.append(f"curve: {len(rows)} rows, expected one per epsilon (3)")
    eps = [float(r[0]) for r in rows]
    if eps != sorted(eps):
        problems.append("curve: epsilons not ascending")
    for col in (1, 2):
        vals = [float(r[col]) for r in rows]
        if any(not 0.0 <= v <= 1.0 for v in vals):
            problems.append(f"curve: {columns[col]} outside [0, 1]: {vals}")
        if any(b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"curve: {columns[col]} decreases with epsilon: {vals}")
    # The CLI exits 4 exactly when some row's flippable flag stays undecided.
    want = EXIT_BUDGET if hooks["undecided_rows"] else EXIT_OK
    if rc != want:
        problems.append(f"curve: exit code {rc}, expected {want}")
    return problems


def check_blend(paths, sizes, rc, hooks) -> "list[str]":
    problems = []
    with open(paths[0], encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh if line.strip()]
    kappa = int(meta["kappa_resolved"])
    if len(rows) != sizes["holdout"]:
        problems.append(f"blend: {len(rows)} report rows for {sizes['holdout']} holdout rows")
    bad_order = bad_flag = 0
    undetermined = False
    for rec in rows:
        lo, base, hi = rec["min_rank"], rec["baseline_rank"], rec["max_rank"]
        if not lo <= base <= hi:
            bad_order += 1
        if rec["method"] == "undetermined":
            undetermined = True
        elif rec["flippable"] != (lo <= kappa < hi):
            bad_flag += 1
    if bad_order:
        problems.append(f"blend: {bad_order} rows violate min_rank <= baseline_rank <= max_rank")
    if bad_flag:
        problems.append(f"blend: {bad_flag} decided rows whose flippable flag disagrees with the range")
    want = EXIT_BUDGET if undetermined else EXIT_OK
    if rc != want:
        problems.append(f"blend: exit code {rc}, expected {want}")
    return problems


def _on_simplex(alpha) -> bool:
    a = np.asarray(alpha, dtype=np.float64)
    return bool(np.all(a >= -SIMPLEX_TOL) and abs(float(a.sum()) - 1.0) <= SIMPLEX_TOL)


def check_fairness(paths, sizes, rc, hooks) -> "list[str]":
    problems = []
    with open(paths[0], encoding="utf-8") as fh:
        rep = json.load(fh)["report"]["tune_report"]
    for count in rep["one_hot_counts"]:
        if not rep["bound_min"] <= count <= rep["bound_max"]:
            problems.append(f"fairness: one-hot count {count} outside the bounds "
                            f"[{rep['bound_min']}, {rep['bound_max']}]")
        if rep["status_min"] == "optimal" and count < rep["min_count"]:
            problems.append(f"fairness: one-hot count {count} below the certified min {rep['min_count']}")
        if rep["status_max"] == "optimal" and count > rep["max_count"]:
            problems.append(f"fairness: one-hot count {count} above the certified max {rep['max_count']}")
    for side in ("min", "max"):
        alpha = rep[f"alpha_at_{side}"]
        if alpha is None or not _on_simplex(alpha):
            problems.append(f"fairness: alpha_at_{side} {alpha} is not on the simplex")
    with open(paths[1], encoding="utf-8") as fh:
        if sum(1 for line in fh if not line.startswith("#")) < 2:
            problems.append("fairness: models table is empty")
    want = EXIT_BUDGET if "budget_exhausted" in (rep["status_min"], rep["status_max"]) else EXIT_OK
    if rc != want:
        problems.append(f"fairness: exit code {rc}, expected {want}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    node_budget: int
    args: "tuple[str, ...]"  # subcommand and its options
    outputs: "tuple[str, ...]"  # files it writes; the first is its --out
    check: Callable

    def argv(self, data: str, node_budget: int) -> "list[str]":
        """CLI arguments. The time budget sits far above any run, so the
        node budget alone stops a search and counts do not depend on the
        machine."""
        return [*self.args, "--data", data, "--out", self.outputs[0],
                "--node-budget", str(node_budget), "--time-budget", "3600"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clinical-curve", 6000, 40000,
            ("ambiguity-single", "--target", "gagne_sum_t", "--drop-regex", "^cost(_avoidable)?_t$",
             "--kappa", "3%", "--epsilons", "0.02,0.04,0.06"),
            ("curve.csv",), check_curve,
        ),
        Workload(
            "clinical-blend", 12000, 40000,
            ("ambiguity-multi", "--targets", TARGETS, "--kappa", "3%"),
            ("blend.jsonl",), check_blend,
        ),
        Workload(
            "clinical-fairness", 1800, 1000,
            ("fairness-range", "--targets", TARGETS, "--group", "black", "--kappa", "3%",
             "--direction", "both"),
            ("fairness.json", "fairness_models.csv"), check_fairness,
        ),
    )
}
