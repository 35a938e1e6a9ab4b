"""In-process hooks for one CLI invocation.

The hooks wrap functions of ``topkflip`` from outside the package: the
public ones at each layer boundary, plus the private witness-pool envelope
of ``rashomon_single``, which has no public entry point.
Modules bind names with ``from .solver import solve``, so a wrapper
replaces every attribute of every loaded ``topkflip`` module that is the
original function object, not only the defining one.

Two levels:

* light (always on): ``solve``, ``flip_search`` and ``flip_search_multi``.
  They record each query's status and counters and each row's stage; a
  few dozen calls per invocation, so the overhead is microseconds. The
  end-to-end ``certified_frac`` needs them.
* spans (``--trace 1`` only): every layer boundary listed in ``SPAN_HOOKS``
  records a span (name, start, end, parent index) kept in memory and
  written out when the invocation ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

WITNESS_TOL = 1e-10

# (module, attribute, span name); the span name of ``solve`` is refined per
# call from its instance. Hooks missing from the program are reported, not
# fatal, so a refactor that renames one degrades a per-layer number only.
LIGHT_HOOKS = (
    ("solver", "solve", "solver.solve"),
    ("rashomon_single", "flip_search", "rashomon_single.flip_search"),
    ("index_model", "flip_search_multi", "index_model.flip_search_multi"),
)
SPAN_HOOKS = (
    ("solver", "rank_query", "solver.build"),
    ("solver", "group_query", "solver.build"),
    ("solver", "lsq_linear", "solver.lsq_linear"),
    ("solver", "linprog", "solver.linprog"),
    ("rashomon_single", "prune_unflippable", "rashomon_single.prune"),
    ("rashomon_single", "witness_pool", "rashomon_single.pool"),
    ("rashomon_single", "_pool_rank_envelope", "rashomon_single.pool"),
    ("ranking", "rank_descending", "ranking.rank_descending"),
    ("index_model", "build_ensemble", "index_model.ensemble"),
    ("index_model", "prune_never_top_multi", "index_model.prune"),
    ("fairness", "group_rate_extremes", "fairness.extremes"),
    ("fairness", "fairness_workflow", "fairness.workflow"),
    ("metrics", "ambiguity_curve", "metrics.ambiguity_curve"),
    ("dataset", "load_csv", "dataset.load_csv"),
    ("dataset", "orthonormalize", "dataset.orthonormalize"),
    ("linear_fit", "fit_ols", "linear_fit.fit"),
    ("linear_fit", "fit_on_rows", "linear_fit.fit"),
    ("reports", "write_reports_jsonl", "reports.write"),
    ("reports", "write_csv_with_meta", "reports.write"),
    ("fairness", "write_fairness_json", "reports.write"),
    ("fairness", "write_fairness_csv", "reports.write"),
)


def region_kind(region) -> str:
    """``ball``, ``interval``, ``polygon`` or ``lp``, as the solver picks
    its geometry."""
    if hasattr(region, "radius"):
        return "ball"
    return {2: "interval", 3: "polygon"}.get(region.dim, "lp")


def witness_in_region(region, w) -> bool:
    w = np.asarray(w, dtype=np.float64)
    if hasattr(region, "radius"):
        excess = float(np.linalg.norm(w - region.center)) - float(region.radius)
        return excess <= WITNESS_TOL * max(1.0, float(region.radius))
    return bool(np.all(w >= -WITNESS_TOL) and abs(float(w.sum()) - 1.0) <= WITNESS_TOL)


class Tracer:
    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: list = []  # [name, start, end, parent, extra]
        self.stack: list[int] = []
        self.solves: list[dict] = []
        self.stages: dict[str, int] = {}
        self.undecided_rows = 0
        self.missing: list[str] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.record_spans:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out, None)
                return out
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span_name = name(args, kwargs) if callable(name) else name
            span = [span_name, 0.0, 0.0, parent, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, out, span)
            return out

        return wrapper

    def _patch(self, home: str, attr: str, name, after=None) -> None:
        home_mod = sys.modules.get(f"topkflip.{home}")
        original = getattr(home_mod, attr, None) if home_mod is not None else None
        if original is None:
            self.missing.append(f"{home}.{attr}")
            return
        wrapper = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "topkflip" or mod_name.startswith("topkflip.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        for home, attr, name in LIGHT_HOOKS:
            if attr == "solve":
                self._patch(home, attr, _solve_span_name, self._after_solve)
            else:
                self._patch(home, attr, name, self._after_flip_search)
        if self.record_spans:
            for home, attr, name in SPAN_HOOKS:
                after = self._after_prune_multi if attr == "prune_never_top_multi" else None
                self._patch(home, attr, name, after)
        return self

    # ----------------------------------------------------------- callbacks

    def _after_solve(self, args, kwargs, sol, span) -> None:
        inst = args[0] if args else kwargs["inst"]
        self.solves.append(
            {
                "geom": region_kind(inst.region),
                "objective": "rank" if inst.objective == "rank" else "group",
                "sense": inst.sense,
                "status": sol.status,
                "nodes": int(sol.nodes),
                "free_pairs": int(sol.free_pairs),
                "presolve_fixed": int(sol.presolve_fixed),
                "pairs": int(inst.gaps.shape[0]),
                "witness_ok": sol.witness is None or witness_in_region(inst.region, sol.witness),
            }
        )

    def _after_flip_search(self, args, kwargs, reports, span) -> None:
        for rep in reports:
            self.stages[rep.method] = self.stages.get(rep.method, 0) + 1
            self.undecided_rows += rep.flippable is None

    def _after_prune_multi(self, args, kwargs, out, span) -> None:
        # Bytes of the dense (n, n, K) float64 difference tensor that
        # gap_sup_multi materializes: computed from the shape, not measured.
        n, K = np.shape(args[0] if args else kwargs["preds"])
        span[4] = {"computed_bytes": int(n) * int(n) * int(K) * 8}

    def record(self) -> dict:
        return {
            "solves": self.solves,
            "stages": self.stages,
            "undecided_rows": self.undecided_rows,
            "spans": self.spans,
            "missing_hooks": self.missing,
        }


def _solve_span_name(args, kwargs) -> str:
    inst = args[0] if args else kwargs["inst"]
    objective = "rank" if inst.objective == "rank" else "group"
    return f"solver.{region_kind(inst.region)}.{objective}"
