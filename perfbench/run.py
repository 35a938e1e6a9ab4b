"""Benchmark harness for the topkflip CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload clinical-curve --seed 20240117 \
        --seconds 30 --trace 0

Each run writes the workload's clinical stand-in table from the seed, then
starts fresh ``topkflip.cli`` processes one at a time (a closed loop with one
client) until the next one would end past ``--seconds``. Every child gets
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``. Each invocation's
outputs are checked; an invocation whose check fails counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (invocations), ``failed`` (invocations that
crashed or failed a check) and ``metrics``. With ``--trace 0`` the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced invocations alternate, and the metrics are the ``per_layer`` ones. The line before it is a detail record: environment,
samples, counters, output digests and every problem found.

Outputs and the counters that do not depend on the machine must repeat
exactly: across the invocations of a run, and across runs of the same
program on the same inputs (a reference is kept under ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 7
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The harness cannot run here (no program, no benchmark definition)."""


# ------------------------------------------------------------ child runs


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(work: Path, trace: bool, cli_args: "list[str]") -> dict:
    """Run child.py once and return its record plus setup time, exit code
    and the child's own peak RSS (``ru_maxrss`` from wait4)."""
    record_path = work / "child_record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if trace else "0"]
    with open(work / "child_stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + cli_args, cwd=work, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        deadline = spawned + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        out.update(record)
        out["setup_s"] = record["ready_monotonic"] - spawned
    else:
        tail = (work / "child_stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        out["error"] = f"child exited {proc.returncode} without a record: {tail}"
    return out


# ----------------------------------------------------------- digests etc.

_TIMESTAMP = re.compile(r'("timestamp": ")[^"]*(")|^(# timestamp=).*$', re.MULTILINE)


def output_digest(path: Path) -> str:
    """sha256 of an output file with its timestamp value blanked."""
    text = path.read_text(encoding="utf-8")
    return hashlib.sha256(_TIMESTAMP.sub(lambda m: (m.group(1) or m.group(3)) + (m.group(2) or ""),
                                         text).encode()).hexdigest()


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_digest": tree_digest(SRC / "topkflip"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": CHILD_ENV,
        "seed": seed,
        "table": sizes,
    }


# --------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def machine_counters(rec: dict) -> dict:
    """Counters that must repeat exactly for the same program and inputs."""
    keys = ("geom", "objective", "sense", "status", "nodes", "free_pairs", "presolve_fixed", "pairs")
    return {
        "solves": [[s[k] for k in keys] for s in rec["solves"]],
        "rows": dict(sorted(rec["stages"].items())),
    }


def layer_metrics(rec: dict) -> dict:
    """Per-layer numbers of one traced invocation, from its spans."""
    spans = rec["spans"]
    dur = [end - start for _name, start, end, _parent, _extra in spans]
    child_time = [0.0] * len(spans)
    for i, (_name, _s, _e, parent, _x) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    def total(name, outermost=False):
        return sum(dur[i] for i, sp in enumerate(spans) if sp[0] == name
                   and not (outermost and sp[3] >= 0 and spans[sp[3]][0] == name))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i, sp in enumerate(spans) if sp[0] == name)

    def count(name, parent_name=None):
        return sum(1 for sp in spans if sp[0] == name
                   and (parent_name is None or (sp[3] >= 0 and spans[sp[3]][0] == parent_name)))

    m = {}
    by_kind: dict = {}
    for s in rec["solves"]:
        by_kind.setdefault(f"solver.{s['geom']}.{s['objective']}", []).append(s)
    for kind, solves in by_kind.items():
        solve_s = total(kind)
        nodes = sum(s["nodes"] for s in solves)
        m[f"{kind}.calls"] = len(solves)
        m[f"{kind}.solve_s"] = solve_s
        m[f"{kind}.nodes"] = nodes
        m[f"{kind}.nodes_per_s"] = nodes / solve_s if solve_s > 0 else 0.0
        for key in ("free_pairs", "presolve_fixed", "pairs"):
            m[f"{kind}.{key}"] = sum(s[key] for s in solves)
        m[f"{kind}.budget_exhausted"] = sum(s["status"] == "budget_exhausted" for s in solves)
    m["solver.build_s"] = total("solver.build")
    m["solver.ball.lsq_calls"] = count("solver.lsq_linear")
    m["solver.ball.lsq_s"] = total("solver.lsq_linear")
    m["solver.lp.linprog_calls"] = count("solver.linprog")
    m["solver.lp.linprog_s"] = total("solver.linprog")
    m["rashomon_single.prune_s"] = total("rashomon_single.prune")
    m["rashomon_single.pool_s"] = total("rashomon_single.pool", outermost=True)
    m["rashomon_single.pool_rankings"] = count("ranking.rank_descending", "rashomon_single.pool")
    m["rashomon_single.self_s"] = self_time("rashomon_single.flip_search")
    m["index_model.ensemble_s"] = total("index_model.ensemble")
    m["index_model.prune_s"] = total("index_model.prune")
    m["index_model.prune_bytes"] = sum(sp[4]["computed_bytes"] for sp in spans
                                       if sp[0] == "index_model.prune" and sp[4])
    m["index_model.self_s"] = self_time("index_model.flip_search_multi")
    m["fairness.extremes_s"] = total("fairness.extremes")
    m["fairness.self_s"] = self_time("fairness.workflow")
    m["metrics.ambiguity_curve_s"] = total("metrics.ambiguity_curve")
    m["metrics.passes"] = count("rashomon_single.flip_search", "metrics.ambiguity_curve")
    m["dataset.load_csv_s"] = total("dataset.load_csv")
    m["dataset.orthonormalize_s"] = total("dataset.orthonormalize")
    m["linear_fit.fit_s"] = total("linear_fit.fit", outermost=True)
    m["reports.write_s"] = total("reports.write", outermost=True)
    for stage in ("pruned_unflippable", "closed_form_flip", "mip_certified", "undetermined"):
        m[f"rows.{stage}"] = rec["stages"].get(stage, 0)
    m["cli.main_s"] = rec["wall_s"]
    return m


# Per-layer numbers that count work rather than time; they must repeat.
def _is_count(name: str) -> bool:
    return not name.endswith(("_s", "_per_s"))


# ------------------------------------------------------------------ run


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        n: "int | None" = None, node_budget: "int | None" = None,
        work_root: "Path | None" = None,
        setup_samples: int = MIN_SETUP_SAMPLES) -> "tuple[dict, dict]":
    """One benchmark run; returns (result line, detail record)."""
    if not (SRC / "topkflip" / "cli.py").is_file():
        raise HarnessError(f"no topkflip sources under {SRC}")
    definition = load_definition()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS.get(workload_name)
    if wl is None:
        raise HarnessError(f"unknown workload {workload_name!r}; have {sorted(workloads.WORKLOADS)}")
    n = n or wl.n
    node_budget = node_budget or wl.node_budget
    work = (work_root or ROOT / ".perfbench") / f"{wl.name}-n{n}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)

    # Input table: made once per run, outside every timed interval.
    from topkflip.dataset import write_csv

    t0 = time.perf_counter()
    table = workloads.make_table(n, seed)
    write_csv(table, work / "table.csv")
    table_s = time.perf_counter() - t0
    sizes = workloads.table_sizes(table)
    cli_args = wl.argv("table.csv", node_budget)
    outputs = [work / p for p in wl.outputs]

    problems: "list[str]" = []
    invocations: "list[dict]" = []
    setups: "list[float]" = []
    durations: "list[float]" = []
    loop_start = time.monotonic()
    while True:
        # A traced run alternates untraced and traced invocations, so the
        # tracing overhead compares neighbours in time.
        traced = trace and len(invocations) % 2 == 1
        t_inv = time.monotonic()
        rec = spawn(work, traced, cli_args)
        durations.append(time.monotonic() - t_inv)
        rec["traced"] = traced
        rec["problems"] = inspect(rec, wl.check, outputs, sizes, node_budget)
        problems.extend(rec["problems"])
        invocations.append(rec)
        if "setup_s" in rec:
            setups.append(rec["setup_s"])
        elapsed = time.monotonic() - loop_start
        if trace and len(invocations) < 2:
            continue
        if elapsed + median(durations) > seconds:
            break
    # A few import-only children, so set-up time is a median of several.
    while len(setups) < setup_samples:
        probe = spawn(work, False, [])
        if "setup_s" not in probe:
            problems.append(probe.get("error", "setup probe failed"))
            break
        setups.append(probe["setup_s"])

    # Exact repeats within the run, then against the stored reference.
    fingerprints = [inv["fingerprint"] for inv in invocations if "fingerprint" in inv]
    if any(fp != fingerprints[0] for fp in fingerprints[1:]):
        problems.append("outputs or counters differ between invocations of one run")
    traced_recs = [inv for inv in invocations if inv["traced"] and not inv["problems"]]
    layer = [layer_metrics(inv) for inv in traced_recs]
    counts = [{k: v for k, v in lm.items() if _is_count(k)} for lm in layer]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced invocations of one run")
    reference = {"fingerprint": fingerprints[0] if fingerprints else None,
                 "counts": counts[0] if counts else None}
    problems.extend(compare_reference(work, cli_args, reference))

    failed = sum(1 for inv in invocations if inv["problems"])
    queries = sum(len(inv.get("solves", [])) for inv in invocations)
    uncertified = sum(
        len(inv.get("solves", [])) if inv["problems"]
        else sum(s["status"] != "optimal" for s in inv["solves"])
        for inv in invocations
    )
    plain = [inv for inv in invocations if not inv["traced"] and not inv["problems"]]
    computed = {
        "wall_s": median([inv["wall_s"] for inv in plain]),
        "peak_rss_mb": median([inv["peak_rss_mb"] for inv in plain]),
        "setup_s": median(setups),
        "certified_frac": 1.0 - uncertified / queries if queries else 1.0,
        "failed_frac": uncertified / queries if queries else 0.0,
        "queries": len(invocations[0].get("solves", [])),
    }
    if layer:
        for key in layer[0]:
            computed[key] = counts[0][key] if _is_count(key) else median([lm[key] for lm in layer])
        computed["trace.overhead_s"] = median([lm["cli.main_s"] for lm in layer]) - computed["wall_s"]
        computed["reports.bytes"] = sum(p.stat().st_size for p in outputs if p.exists())

    names = definition["per_layer"] if trace else definition["end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]} for m in names}
    correct = not problems and all("error" not in inv for inv in invocations)
    result = {"correct": correct, "attempted": len(invocations), "failed": failed, "metrics": metrics}
    detail = {
        "workload": wl.name,
        "environment": environment(seed, sizes),
        "command": ["topkflip"] + cli_args,
        "node_budget": node_budget,
        "table_s": table_s,
        "samples": {
            "wall_s": [inv["wall_s"] for inv in plain],
            "peak_rss_mb": [inv["peak_rss_mb"] for inv in plain],
            "setup_s": setups,
            "traced_wall_s": [inv["wall_s"] for inv in traced_recs],
        },
        "queries": {"per_invocation": computed["queries"], "uncertified": uncertified,
                    "attempted": queries, "failed_frac": computed["failed_frac"]},
        "fingerprint": reference["fingerprint"],
        "per_layer": computed if trace else None,
        "missing_hooks": sorted({h for inv in invocations for h in inv.get("missing_hooks", [])}),
        "problems": problems,
    }
    return result, detail


def inspect(rec: dict, check, outputs, sizes, node_budget) -> "list[str]":
    """Problems with one invocation; fills ``rec['fingerprint']``."""
    if "error" in rec:
        return [rec["error"]]
    problems = []
    if rec["exit"] not in (0, 4):
        problems.append(f"exit code {rec['exit']}")
    missing = [str(p.name) for p in outputs if not p.exists()]
    if missing:
        return problems + [f"missing outputs {missing}"]
    try:
        problems.extend(check([str(p) for p in outputs], sizes, rec["exit"], rec))
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"output check could not parse the outputs: {exc!r}")
    for s in rec["solves"]:
        # A search that stopped short of its node budget was stopped by the
        # wall clock, so its numbers would depend on the machine.
        if s["status"] == "budget_exhausted" and s["nodes"] < node_budget:
            problems.append(f"budget_exhausted solve after {s['nodes']} < {node_budget} nodes")
        if not s["witness_ok"]:
            problems.append(f"{s['geom']} {s['sense']} witness outside its region")
    rec["fingerprint"] = {
        "digests": {p.name: output_digest(p) for p in outputs},
        "counters": machine_counters(rec),
        "exit": rec["exit"],
    }
    return problems


def compare_reference(work: Path, cli_args, reference: dict) -> "list[str]":
    """Compare against the first run of this program on these inputs."""
    key = hashlib.sha256(json.dumps([tree_digest(SRC / "topkflip"),
                                     hashlib.sha256((work / "table.csv").read_bytes()).hexdigest(),
                                     cli_args]).encode()).hexdigest()[:20]
    path = work / f"reference-{key}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    problems = []
    for part, value in reference.items():
        if value is None:
            continue
        if part not in stored:
            stored[part] = value
        elif stored[part] != value:
            problems.append(f"{part} differ from an earlier run on the same program and inputs")
    path.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240117)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
