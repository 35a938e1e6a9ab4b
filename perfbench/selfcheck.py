"""Self-check of the harness at tiny sizes; finishes in well under a minute.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs the same three command lines as the benchmark on 600-row cohorts with
a 200-node budget, untraced and traced, at the cohort seed and at a
shuffling seed. Each run must pass its output checks, repeat its outputs
and counters exactly, and print every metric ``BENCHMARK.json`` names. At
this budget the fairness search ends uncertified on both sides, so the
exit-code and failed-query paths run too. Then each output check is fed a
damaged copy of its outputs and must reject it. Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import sys

import run

TINY_N = 600
TINY_BUDGET = 200


def main() -> int:
    definition = run.load_definition()
    work_root = run.ROOT / ".perfbench" / "selfcheck"
    for name in run.workloads.WORKLOADS:
        for seed in (20240117, 7):
            for trace in (False, True):
                result, detail = run.run(name, seed, 0.1, trace, n=TINY_N,
                                         node_budget=TINY_BUDGET, work_root=work_root,
                                         setup_samples=1)
                wanted = definition["per_layer" if trace else "end_to_end"]
                problems = list(detail["problems"])
                if [m["name"] for m in wanted] != list(result["metrics"]):
                    problems.append("metric names differ from BENCHMARK.json")
                if not result["correct"] or result["failed"]:
                    problems.append(f"result not correct: {json.dumps(result)}")
                label = f"{name} seed={seed} trace={int(trace)}"
                if problems:
                    print(f"FAIL {label}: {problems}")
                    return 1
                print(f"ok   {label}: {result['attempted']} invocations, "
                      f"queries {detail['queries']['attempted']}, "
                      f"failed_frac {detail['queries']['failed_frac']:.3f}")
        problem = damaged_outputs_rejected(name, work_root / f"{name}-n{TINY_N}-s7")
        if problem:
            print(f"FAIL {name} damaged outputs: {problem}")
            return 1
        print(f"ok   {name}: damaged outputs and a wrong exit code are rejected")
    return 0


def _damage(name: str, text: str) -> str:
    if name == "clinical-curve":
        # Last curve row: an ambiguity fraction above 1.
        head, _, last = text.rstrip("\n").rpartition("\n")
        fields = last.split(",")
        fields[1] = "1.5"
        return head + "\n" + ",".join(fields) + "\n"
    if name == "clinical-blend":
        # First report row: a rank range that excludes the baseline rank.
        meta, first, rest = text.split("\n", 2)
        rec = json.loads(first)
        rec["min_rank"] = rec["baseline_rank"] + 1
        rec["max_rank"] = max(rec["max_rank"], rec["min_rank"])
        return "\n".join([meta, json.dumps(rec), rest])
    doc = json.loads(text)
    doc["report"]["tune_report"]["alpha_at_max"] = [0.5, 0.5, 0.5]
    return json.dumps(doc)


def damaged_outputs_rejected(name: str, work) -> "str | None":
    """None when the check rejects damaged outputs and a wrong exit code."""
    wl = run.workloads.WORKLOADS[name]
    check = wl.check
    paths = [str(work / p) for p in wl.outputs]
    table = run.workloads.make_table(TINY_N, 7)
    sizes = run.workloads.table_sizes(table)
    hooks = json.loads((work / "child_record.json").read_text(encoding="utf-8"))
    rc = hooks["rc"]
    if check(paths, sizes, rc, hooks):
        return "the check rejects the intact outputs"
    if not check(paths, sizes, 4 - rc, hooks):
        return "a wrong exit code passes"
    original = open(paths[0], encoding="utf-8").read()
    try:
        with open(paths[0], "w", encoding="utf-8") as fh:
            fh.write(_damage(name, original))
        if not check(paths, sizes, rc, hooks):
            return "damaged outputs pass"
    finally:
        with open(paths[0], "w", encoding="utf-8") as fh:
            fh.write(original)
    return None


if __name__ == "__main__":
    sys.exit(main())
