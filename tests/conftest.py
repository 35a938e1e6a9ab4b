"""Shared fixtures.

The clinical stand-in table is expensive enough to build once per
session; everything dataset-dependent pins its seed so failures
reproduce. Set TOPKFLIP_HEALTHCARE_CSV to a CSV extract to run the
dataset-dependent tests against real data instead. The extract follows
the layout ``load_csv`` reads, with the stand-in's target columns: every
column that is not a target or reserved is read as a feature, so each
such column must be numeric. ``clinical_subset`` still picks its
feature columns by pattern.
"""

import os
import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from topkflip import solver
from topkflip.dataset import load_csv
from topkflip.synth import generate_clinical

CLINICAL_SEED = 20240117

# lagged-cost, chronic-count, and demographic blocks; the analysis
# subset every dataset-dependent criterion runs on
SUBSET_PATTERNS = (
    r"gagne_sum_tm1",
    r"hypertension_elixhauser_tm1",
    r"^dem_",
    r"cost.*tm1",
)


@pytest.fixture(scope="session")
def clinical():
    path = os.environ.get("TOPKFLIP_HEALTHCARE_CSV")
    if path:
        return load_csv(path, generate_clinical(n=50, seed=0).target_names)
    return generate_clinical(seed=CLINICAL_SEED)


@pytest.fixture(scope="session")
def clinical_subset(clinical):
    names = clinical.feature_names
    keep = [0] + [
        j for j in range(1, len(names)) if any(re.search(p, names[j]) for p in SUBSET_PATTERNS)
    ]
    return replace(
        clinical,
        feature_names=tuple(names[j] for j in keep),
        features=clinical.features[:, keep],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_design(rng, n, d):
    """Orthonormalized random design with an intercept flavour column."""
    A = rng.normal(size=(n, d))
    A[:, 0] = 1.0
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def stacked_design(seed, half, p):
    """A one-decimal design stacked on itself and run through QR, with a
    one-decimal target: the copies of a row differ only by rounding, so a
    score product of another shape can order them the other way."""
    rng = np.random.default_rng(seed)
    A = np.round(rng.normal(size=(half, p)), 1)
    Q = np.linalg.qr(np.column_stack([np.ones(2 * half), np.vstack([A, A])]))[0]
    return Q, np.round(rng.normal(size=2 * half), 1)


def rank_attained(V, w, row, sense, rank):
    """Whether scores ``V @ w`` give ``row`` the rank ``rank`` or one
    further in the sense's direction once scores tied within a 1e-8
    relative band break in the sense's favour. The search treats an exact
    tie as either order (an intercept-only ball model scores every row
    alike), and a simplex witness may miss a halfspace by its 1e-9
    relative slack."""
    s = V @ w
    d = np.delete(s - s[row], row)
    band = 1e-8 * max(1.0, float(np.max(np.abs(V))), float(np.max(np.abs(s))))
    if sense == "max":
        return 1 + int(np.count_nonzero(d >= -band)) >= rank
    return 1 + int(np.count_nonzero(d > band)) <= rank


def assert_reports_equal(got, want):
    """Every field equal, witnesses byte for byte."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(g):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if f.name == "witness" and a is not None and b is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), g.row_id
            else:
                assert a == b, (g.row_id, f.name, a, b)


def fail_lps_after_the_first(monkeypatch):
    """Make every feasibility LP after the first report HiGHS status 4
    (numerical difficulties), which proves nothing about the node."""
    linprog = solver.linprog
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return linprog(*args, **kwargs)
        return SimpleNamespace(status=4, x=None)

    monkeypatch.setattr(solver, "linprog", failing)
