"""Real-part eigenvalue expansions and comparisons against direct spectra.

Five expansion families share one evaluator:

    landau      (2n+1) h
    anharmonic  Lambda_n h^{1 + gamma/(2+gamma)}
    step        beta h - k0 C1 h^{3/2} + (2n+1) sqrt(|k2|) C2 h^{7/4}
    well        b0 h + (2n sqrt(det H)/b0 + (Tr H^{1/2})^2/b0) h^2
    island      ell_n h^2

The coefficients come from the other modules (anharmonic_levels, stepband
spectral constants, dirichlet_disk_levels); the geometric step inputs
(k0, k2) and the well Hessian data (det H, Tr H^{1/2}) are caller-supplied
numbers. compare() lines the expansions of one (model, n) level up against
directly computed spectra over an h sweep and fits the observed
convergence order; its report states the level and both orders once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

MODELS = ("landau", "anharmonic", "step", "well", "island")


@dataclass(frozen=True)
class ExpansionParams:
    model: str
    n: int  # level index
    h: float  # semiclassical parameter
    gamma: float | None = None  # anharmonic field exponent
    lambdas: tuple | None = None  # anharmonic levels Lambda_n at unit scale
    beta: float | None = None  # step band minimum
    C1: float | None = None  # step constants
    C2: float | None = None
    k0: float | None = None  # interface curvature data
    k2: float | None = None  # curvature second derivative, < 0
    b0: float | None = None  # well bottom field
    detH: float | None = None  # well intensity Hessian data
    trSqrtH: float | None = None
    ells: tuple | None = None  # island Dirichlet levels

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(
                f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.n < 0:
            raise ValidationError("n must be >= 0")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValidationError("h must be > 0")


def _require(p: ExpansionParams, *names):
    missing = [x for x in names if getattr(p, x) is None]
    if missing:
        raise ValidationError(
            f"model {p.model!r} needs extras {missing}")


def expansion_real_part(p: ExpansionParams) -> float:
    """Leading real-part expansion value for the given model and level."""
    if p.model == "landau":
        return (2 * p.n + 1) * p.h
    if p.model == "anharmonic":
        _require(p, "gamma", "lambdas")
        if p.n >= len(p.lambdas):
            raise ValidationError("lambdas list too short for this n")
        expo = 1.0 + p.gamma / (2.0 + p.gamma)
        return p.lambdas[p.n] * p.h ** expo
    if p.model == "step":
        _require(p, "beta", "C1", "C2", "k0", "k2")
        if not p.k2 < 0:
            raise ValidationError("step model requires k2 < 0")
        return (p.beta * p.h - p.k0 * p.C1 * p.h ** 1.5
                + (2 * p.n + 1) * math.sqrt(-p.k2) * p.C2 * p.h ** 1.75)
    if p.model == "well":
        _require(p, "b0", "detH", "trSqrtH")
        if not p.b0 > 0:
            raise ValidationError("well model requires b0 > 0")
        if not p.detH > 0:
            raise ValidationError("well model requires detH > 0")
        return (p.b0 * p.h
                + (2 * p.n * math.sqrt(p.detH) / p.b0
                   + p.trSqrtH ** 2 / p.b0) * p.h ** 2)
    # island
    _require(p, "ells")
    if p.n >= len(p.ells):
        raise ValidationError("ells list too short for this n")
    return p.ells[p.n] * p.h ** 2


# expected convergence order of |direct - expansion|, where the expansion
# families state one (well: the O(h^3) remainder; island: o(h^2), recorded
# as 2 and checked as a decreasing ratio rather than a fitted order)
EXPECTED_ORDER = {"well": 3.0, "island": 2.0}


@dataclass(frozen=True)
class ComparisonRow:
    h: float
    expansion: float
    direct: float
    diff: float  # direct - expansion


@dataclass(frozen=True)
class ComparisonReport:
    """One (model, n) level: its EXPECTED_ORDER (or None), the fitted slope
    of log|diff| vs log h (None if a diff is 0), and rows in input order."""

    model: str
    n: int
    expected_order: float | None
    observed_order: float | None
    rows: tuple

    def csv_lines(self):
        yield "model,n,h,expansion,direct,diff,ratio_to_expected,observed_order"
        order, obs = self.expected_order, self.observed_order
        obs = "" if obs is None else f"{obs:.14e}"
        for r in self.rows:
            ratio = ("" if order is None
                     else f"{abs(r.diff) / r.h ** order:.14e}")
            yield (f"{self.model},{self.n},{r.h:.14e},{r.expansion:.14e},"
                   f"{r.direct:.14e},{r.diff:.14e},{ratio},{obs}")


def compare(pairs) -> ComparisonReport:
    """Line up direct values against expansion values over an h sweep.

    pairs: iterable of (ExpansionParams, direct value), all of one
    (model, n) level; a pair of another level is a ValidationError. The
    level needs at least three distinct h so the observed order (log-ratio
    fit of |difference| against h) means something. A difference, or an
    h^expected_order, outside the float range is a NumericalError.
    """
    level = None
    rows = []
    for p, value in pairs:
        if level is None:
            level = (p.model, p.n)
        elif (p.model, p.n) != level:
            raise ValidationError(
                f"compare takes one (model, n) level per report; got "
                f"{(p.model, p.n)} after {level}")
        d = float(value)
        order = EXPECTED_ORDER.get(p.model)
        try:
            e = expansion_real_part(p)
            # csv_lines divides |diff| by h^order
            finite = (math.isfinite(d - e)
                      and (order is None or p.h ** order > 0.0))
        except OverflowError:
            finite = False
        if not finite:
            raise NumericalError(
                f"{p.model} level {p.n} at h = {p.h:.6g} (direct value "
                f"{d:.6g}): the expansion, the difference or h^order leaves "
                f"the float range")
        rows.append(ComparisonRow(h=p.h, expansion=e, direct=d, diff=d - e))
    distinct = len({r.h for r in rows})
    if distinct < 3:
        raise ValidationError(
            f"need at least three distinct h values per (model, n); got "
            f"{distinct}")
    pts = sorted(((r.h, r.diff) for r in rows), reverse=True)
    hs = np.array([h for h, _ in pts])
    ds = np.array([abs(d) for _, d in pts])
    if np.any(ds == 0.0):
        observed = None  # differences at rounding floor; no fit
    else:
        observed = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    model, n = level
    return ComparisonReport(model=model, n=n,
                            expected_order=EXPECTED_ORDER.get(model),
                            observed_order=observed, rows=tuple(rows))
