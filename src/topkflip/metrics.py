"""Aggregation of per-row reports into stable sets and ambiguity curves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .linear_fit import fit_ols, make_ball
from .rashomon_single import flip_search
from .solver import BallRegion, SolverConfig, screen_ball

FAMILIES = ("rashomon", "index")


@dataclass(frozen=True)
class StableSet:
    """Rows whose membership is certified constant across the family.

    A row decided unflippable sits in ``stable_selected`` when even its
    worst rank stays within kappa, in ``stable_unselected`` when even its
    best rank misses. Rows whose verdict stayed undecided (``flippable``
    None) are listed apart and claimed for neither side; a row whose
    search stopped short but whose bounds decide it counts like any
    other.
    """

    kappa: int
    family: str
    stable_selected: tuple
    stable_unselected: tuple
    undetermined: tuple

    @property
    def stable_fraction(self) -> float:
        return len(self.stable_selected) / self.kappa


def stable_points(reports, kappa: int, family: str) -> StableSet:
    """Split certified reports by which side of the cutoff they pin."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    selected, unselected, undet = [], [], []
    for rep in reports:
        if rep.flippable is None:
            undet.append(rep.row_id)
        elif rep.max_rank <= kappa:
            selected.append(rep.row_id)
        elif rep.min_rank > kappa:
            unselected.append(rep.row_id)
    return StableSet(
        kappa=kappa,
        family=family,
        stable_selected=tuple(selected),
        stable_unselected=tuple(unselected),
        undetermined=tuple(undet),
    )


@dataclass(frozen=True)
class CurvePoint:
    """One tolerance setting's ambiguity fractions, its ball and row reports.

    ``ambiguity_all`` is the share of all rows whose membership can
    change, ``ambiguity_top`` the number of baseline-top rows that can
    leave the top divided by kappa. Undetermined rows never count as
    changeable; ``n_undetermined`` tallies them so a caller can judge
    coverage.
    """

    epsilon: float
    ambiguity_all: float
    ambiguity_top: float
    n_undetermined: int
    ball: BallRegion = field(repr=False, compare=False)
    reports: tuple = field(repr=False, compare=False)


def ambiguity_curve(
    X: NDArray[np.float64],
    y: NDArray[np.float64],
    kappa: int,
    epsilons,
    config: SolverConfig | None = None,
) -> "list[CurvePoint]":
    """Ambiguity as the model tolerance grows.

    The tolerance list must be ascending, and each tolerance one that
    :func:`linear_fit.make_ball` accepts; the balls are then nested, so
    each pass hands the flip witnesses it found to the next one's
    candidate pool and a row never loses a certified flip as the
    tolerance grows. Every ball shares one center, so the membership
    screen runs once for all tolerances (:func:`solver.screen_ball`) and
    each pass receives its own ball's result.
    """
    eps = [float(e) for e in epsilons]
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be ascending")

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w0 = fit_ols(X, y)
    balls = [make_ball(w0, X, y, e) for e in eps]
    screens = screen_ball(X, w0, [b.radius for b in balls]) if balls else []
    curve: list[CurvePoint] = []
    carried: list[NDArray[np.float64]] = []
    for e, ball, screen in zip(eps, balls, screens):
        reports = flip_search(
            X,
            ball,
            kappa,
            config=config,
            extra_models=carried if carried else None,
            prune=screen,
        )
        n_flip = sum(1 for rep in reports if rep.flippable)
        n_top_flip = sum(1 for rep in reports if rep.flippable and rep.baseline_rank <= kappa)
        curve.append(
            CurvePoint(
                epsilon=e,
                ambiguity_all=n_flip / len(reports),
                ambiguity_top=n_top_flip / kappa,
                n_undetermined=sum(1 for rep in reports if rep.flippable is None),
                ball=ball,
                reports=tuple(reports),
            )
        )
        for rep in reports:
            if rep.witness is not None:
                carried.append(np.asarray(rep.witness, dtype=np.float64))
    return curve


def curve_rows(curve, target: str):
    """Plot-ready rows: epsilon, both fractions, and the target name."""
    return [
        [repr(pt.epsilon), repr(pt.ambiguity_all), repr(pt.ambiguity_top), target]
        for pt in curve
    ]


def stable_rows(stable_sets):
    """Plot-ready rows: kappa, stable fraction, family."""
    return [
        [s.kappa, repr(s.stable_fraction), s.family] for s in stable_sets
    ]
