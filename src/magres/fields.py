"""Radial magnetic field profiles and the induced angular potential.

A radial field B(r) on the plane induces, in the canonical radial gauge,
the angular vector potential

    a(r) = (1/r) * integral_0^r s B(s) ds,

so that A(x) = a(r) * phi_hat. Outside the field support a(r) = alpha/r,
the Aharonov-Bohm tail carrying the total flux alpha = (1/2pi) int B dx.
Every downstream computation is per angular sector in this gauge, so gauge
phases never appear.

Profiles store closed-form a(r) per piece (no runtime quadrature); this
keeps the complex continuation of the tail exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

KINDS = ("constant_disk", "anharmonic", "well_radial", "island_annular")

# required parameter names per kind
KIND_PARAMS = {
    "constant_disk": ("r0",),
    "anharmonic": ("gamma",),
    "well_radial": ("b0",),
    "island_annular": ("rho1", "rho2"),
}


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # one of KINDS
    params: dict  # named reals, see KIND_PARAMS
    R0: float  # outer support radius (ignored for full-plane kinds)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown field kind {self.kind!r}; expected one of {KINDS}")
        required = set(KIND_PARAMS[self.kind])
        given = set(self.params)
        if given - required:
            raise ValidationError(
                f"unknown parameter(s) {sorted(given - required)} for kind "
                f"{self.kind!r}; expected exactly {sorted(required)}")
        if required - given:
            raise ValidationError(
                f"missing parameter(s) {sorted(required - given)} for kind "
                f"{self.kind!r}")
        for name, value in self.params.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"parameter {name!r} must be a finite number")
        compact = self.kind in ("constant_disk", "island_annular")
        if compact and not (isinstance(self.R0, (int, float))
                            and math.isfinite(self.R0) and self.R0 > 0):
            raise ValidationError("R0 must be a positive finite number")
        p = self.params
        if self.kind == "constant_disk":
            if p["r0"] <= 0:
                raise ValidationError("r0 must be > 0")
            if p["r0"] > self.R0:
                raise ValidationError("constant_disk requires r0 <= R0")
        elif self.kind == "anharmonic":
            if p["gamma"] < 0:
                raise ValidationError("gamma must be >= 0")
        elif self.kind == "well_radial":
            if p["b0"] <= 0:
                raise ValidationError("b0 must be > 0")
        elif self.kind == "island_annular":
            if not (0 < p["rho1"] < p["rho2"]):
                raise ValidationError("island requires 0 < rho1 < rho2")
            if p["rho2"] > self.R0:
                raise ValidationError("island requires rho2 <= R0")


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


def _constant_disk(r0: float) -> tuple:
    alpha = r0 * r0 / 2.0

    def B(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= r0, 1.0, 0.0)

    def a(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= r0, r / 2.0, alpha / np.where(r > 0, r, np.nan))

    return B, a, alpha


def _anharmonic(gamma: float) -> tuple:
    def B(r):
        return np.asarray(r, dtype=float) ** gamma

    def a(r):
        r = np.asarray(r, dtype=float)
        return r ** (1.0 + gamma) / (2.0 + gamma)

    return B, a


def _well_radial(b0: float) -> tuple:
    def B(r):
        r = np.asarray(r, dtype=float)
        return b0 + r * r

    def a(r):
        r = np.asarray(r, dtype=float)
        return b0 * r / 2.0 + r ** 3 / 4.0

    return B, a


def _island_annular(rho1: float, rho2: float) -> tuple:
    alpha = (rho2 * rho2 - rho1 * rho1) / 2.0

    def B(r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= rho1) & (r <= rho2), 1.0, 0.0)

    def a(r):
        r = np.asarray(r, dtype=float)
        rs = np.where(r > 0, r, np.nan)
        inner = np.zeros_like(rs)
        annulus = (rs * rs - rho1 * rho1) / (2.0 * rs)
        tail = alpha / rs
        return np.where(r < rho1, inner, np.where(r <= rho2, annulus, tail))

    return B, a, alpha


def make_profile(spec: FieldSpec) -> FieldProfile:
    """Build the closed-form profile for a validated FieldSpec."""
    p = spec.params
    if spec.kind == "constant_disk":
        B, a, alpha = _constant_disk(p["r0"])
        return FieldProfile(B=B, a=a, alpha=alpha, R0=spec.R0, spec=spec)
    if spec.kind == "anharmonic":
        B, a = _anharmonic(p["gamma"])
        return FieldProfile(B=B, a=a, alpha=math.inf, R0=math.inf, spec=spec)
    if spec.kind == "well_radial":
        B, a = _well_radial(p["b0"])
        return FieldProfile(B=B, a=a, alpha=math.inf, R0=math.inf, spec=spec)
    if spec.kind == "island_annular":
        B, a, alpha = _island_annular(p["rho1"], p["rho2"])
        return FieldProfile(B=B, a=a, alpha=alpha, R0=spec.R0, spec=spec)
    raise ValidationError(f"unknown field kind {spec.kind!r}")


def zero_profile(R0: float = 1.0) -> FieldProfile:
    """B identically zero: alpha = 0, a identically zero (free operator)."""

    def B(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def a(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return FieldProfile(B=B, a=a, alpha=0.0, R0=R0, spec=None)


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
