"""Certified rank-range analysis for resource-constrained top-k selection."""

# Set before the submodule imports: setuptools reads it without running them,
# and reports records it in every output's meta.
__version__ = "0.1.0"

from .dataset import (
    DataError,
    Dataset,
    EmptyDesignError,
    ParseError,
    SchemaError,
    assign_splits,
    drop_columns_matching,
    load_csv,
    orthonormalize,
    write_csv,
)
from .linear_fit import fit_ols, fit_on_rows, make_ball, rss
from .ranking import rank_descending, resolve_kappa
from .reports import FlipReport, write_reports_jsonl
from .solver import (
    BallRegion,
    MipInstance,
    MipSolution,
    PruneResult,
    SimplexRegion,
    SolverConfig,
    group_query,
    rank_query,
    screen_membership,
    solve,
)
from .rashomon_single import flip_search
from .index_model import (
    IndexEnsemble,
    build_ensemble,
    flip_search_multi,
    prune_never_top_multi,
)
from .fairness import (
    FairnessBundle,
    GroupRateReport,
    ModelEvaluation,
    evaluate_selection,
    fairness_workflow,
    group_rate_extremes,
    write_fairness_csv,
    write_fairness_json,
)
from .metrics import (
    CurvePoint,
    StableSet,
    ambiguity_curve,
    curve_rows,
    stable_points,
    stable_rows,
)
from .oracle import angle_sweep_single, simplex_sweep_k2, simplex_sweep_k3
from .synth import generate, generate_clinical

__all__ = [name for name in dir() if not name.startswith("_")]
