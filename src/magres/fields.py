"""Radial magnetic field profiles and the induced angular potential.

A radial field B(r) on the plane induces, in the canonical radial gauge,
the angular vector potential

    a(r) = (1/r) * integral_0^r s B(s) ds,

so that A(x) = a(r) * phi_hat. Outside the field support a(r) = alpha/r,
the Aharonov-Bohm tail carrying the total flux alpha = (1/2pi) int B dx.
Every downstream computation is per angular sector in this gauge, so gauge
phases never appear.

Every field is a piecewise power law: sorted, disjoint pieces (r_j, r_{j+1},
terms), 0 <= r_j < r_{j+1} <= inf, with B(r) = sum_k c_k r^{p_k} (p_k >= 0)
on a piece and B = 0 off the pieces. With Phi_j the flux inside r_j,

    a(r) = (Phi_j + sum_k c_k (r^{p_k+2} - r_j^{p_k+2}) / (p_k+2)) / r

on piece j, a = 0 before the first piece, and a = Phi_{j+1}/r past piece j,
which beyond the support is the tail. A last piece ending at infinity makes
a full-plane field (alpha = R0 = inf). A kind is a row of KINDS: its
parameters with their sign rules, and the map from parameters to pieces.

Bit-identity rule: r^{p+2} is evaluated as r^{p+1} * r (pow(x, 2.0) and
x * x differ in the last bit for about 0.1% of x), and a piece from r = 0
as sum_k c_k r^{p_k+1} / (p_k+2), without the 1/r. A p = 0 term forms
r^2 - r_j^2 as (r - r_j)(r + r_j): the difference of squares loses the flux
of a thin annulus to cancellation, and a piece from zero keeps its bits.
So a(r) and alpha equal the closed forms of the kinds bit for bit. Closed
forms (no runtime quadrature) keep the complex continuation of the tail
exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# kind -> ({parameter: sign rule}, params -> pieces (r_j, r_{j+1}, terms))
KINDS = {
    "constant_disk": ({"r0": "> 0"},
                      lambda r0: ((0.0, r0, ((1.0, 0.0),)),)),
    "anharmonic": ({"gamma": ">= 0"},
                   lambda gamma: ((0.0, math.inf, ((1.0, gamma),)),)),
    "well_radial": ({"b0": "> 0"},
                    lambda b0: ((0.0, math.inf, ((b0, 0.0), (1.0, 2.0))),)),
    "island_annular": ({"rho1": "> 0", "rho2": "> 0"},
                       lambda rho1, rho2: ((rho1, rho2, ((1.0, 0.0),)),)),
}


def _finite_number(x) -> bool:
    """A real JSON number: not a bool, not an int beyond float range."""
    try:
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:
        return False


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # one of KINDS
    params: dict  # named reals, see KINDS
    R0: float  # outer support radius (ignored for full-plane kinds)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown field kind {self.kind!r}; expected one of "
                f"{tuple(KINDS)}")
        rules = KINDS[self.kind][0]
        if set(self.params) != set(rules):
            raise ValidationError(
                f"kind {self.kind!r} takes exactly the parameters "
                f"{sorted(rules)}; got {sorted(self.params)}")
        for name, value in self.params.items():
            if not (_finite_number(value)
                    and (value > 0 if rules[name] == "> 0" else value >= 0)):
                raise ValidationError(
                    f"parameter {name!r} must be a finite number {rules[name]}")
        end = 0.0
        for lo, hi, _ in self.pieces:
            if not end <= lo < hi:
                raise ValidationError(
                    f"{self.kind} needs sorted, disjoint, non-empty pieces "
                    f"in r >= 0; got [{lo}, {hi}] after {end}")
            end = hi
        if math.isfinite(end) and not (_finite_number(self.R0)
                                       and end <= self.R0):
            raise ValidationError(f"R0 must be a finite number at or beyond "
                                  f"the end r = {end} of the {self.kind} support")

    @property
    def pieces(self) -> tuple:
        """((r_j, r_{j+1}, ((c_k, p_k), ...)), ...) of this spec."""
        return KINDS[self.kind][1](
            **{name: float(value) for name, value in self.params.items()})


@dataclass(frozen=True)
class FieldProfile:
    """Field strength B(r), angular potential a(r), flux and support radius.

    alpha and R0 are math.inf for full-plane kinds (anharmonic, well_radial),
    whose field is not compactly supported. Immutable.
    """

    B: object  # callable, vectorized over r >= 0
    a: object  # callable, vectorized over r > 0
    alpha: float  # total flux; inf for full-plane kinds
    R0: float  # support radius; inf for full-plane kinds
    spec: FieldSpec | None = field(default=None, compare=False)


def _integral(r, lo: float, terms) -> object:
    """sum_k c_k (r^{p_k+2} - lo^{p_k+2}) / (p_k+2), x^{p+2} as x^{p+1} * x
    and r^2 - lo^2 as (r - lo)(r + lo), which keeps a thin annulus's flux."""
    return sum(c * ((r - lo) * (r + lo) if p == 0.0
                    else r ** (p + 1.0) * r - lo ** (p + 1.0) * lo) / (p + 2.0)
               for c, p in terms)


def _profile(pieces: tuple, R0: float, spec: FieldSpec | None) -> FieldProfile:
    """Closed-form B, a and flux of validated pieces."""
    fluxes, flux, end = [], 0.0, 0.0  # fluxes[j] = Phi_j, flux inside r_j
    for lo, end, terms in pieces:
        fluxes.append(flux)
        flux = math.inf if math.isinf(end) else flux + _integral(end, lo, terms)
    divides = any(lo > 0.0 or hi < math.inf for lo, hi, _ in pieces)

    def B(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for lo, hi, terms in pieces:
            out = np.where((r >= lo) & (r <= hi),
                           sum(c * r ** p for c, p in terms), out)
        return out

    def a(r):
        r = np.asarray(r, dtype=float)
        rs = np.where(r > 0, r, np.nan) if divides else r  # no 0/0 at r = 0
        out = np.zeros_like(r)
        for (lo, hi, terms), phi, phi_end in zip(pieces, fluxes,
                                                 fluxes[1:] + [flux]):
            if lo == 0.0:  # first piece, from zero: sum c r^{p+1} / (p+2)
                out = sum(c * r ** (p + 1.0) / (p + 2.0) for c, p in terms)
            else:
                inside = np.clip(r, lo, hi)  # no overflow off the piece
                out = np.where(r >= lo,
                               (phi + _integral(inside, lo, terms)) / rs, out)
            if hi < math.inf:  # a gap or the Aharonov-Bohm tail
                out = np.where(r > hi, phi_end / rs, out)
        return out

    return FieldProfile(B=B, a=a, alpha=flux,
                        R0=R0 if math.isfinite(end) else math.inf, spec=spec)


def make_profile(spec: FieldSpec) -> FieldProfile:
    """Build the closed-form profile for a validated FieldSpec."""
    return _profile(spec.pieces, spec.R0, spec)


def zero_profile(R0: float = 1.0) -> FieldProfile:
    """B identically zero: alpha = 0, a identically zero (free operator)."""
    return _profile((), R0, None)


def parse_spec(obj: dict) -> FieldSpec:
    """Validate a config mapping {"kind", "params", "R0"}; unknown keys error."""
    if not isinstance(obj, dict):
        raise ValidationError("field config must be a JSON object")
    allowed = {"kind", "params", "R0"}
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"unknown config key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = allowed - set(obj)
    if missing:
        raise ValidationError(f"missing config key(s) {sorted(missing)}")
    if not isinstance(obj["params"], dict):
        raise ValidationError('"params" must be an object of named numbers')
    return FieldSpec(kind=obj["kind"], params=dict(obj["params"]), R0=obj["R0"])


def spec_config(spec: FieldSpec) -> dict:
    """The config mapping of spec; parse_spec(spec_config(spec)) == spec."""
    return {"kind": spec.kind, "params": dict(spec.params), "R0": spec.R0}


def load_spec(path: str) -> FieldSpec:
    """Read a JSON field config from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"field config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"field config {path} is not valid JSON: {exc}")
    return parse_spec(obj)
