"""Cutoff quasimodes, residual norms, and resonance-window arithmetic.

A Landau eigenfunction of the constant-field plane at scale b,

    psi_{n,m}(r, phi) = C_{n,m} r^{|m|} e^{i m phi} e^{-b r^2/4} L_n^{|m|}(b r^2/2),

truncated by a radial C^2 cutoff chi supported in [0, r0], is an approximate
eigenfunction of any operator that agrees with the Landau one on [0, r0].
Because chi is radial and the vector potential is azimuthal, A.grad(chi) = 0,
so the commutator residual reduces in each sector to

    (H - Lambda_n)(chi f) = -(chi'' + chi'/r) f - 2 chi' f',

supported on the cutoff shoulder where the Gaussian has already decayed;
its norm is exponentially small in b. The residual size feeds the
Tang-Zworski window: a rectangle around the quasimode energy guaranteed to
contain a resonance once the residual is small enough. `tz_window` gives
the rectangle's half-width and depth, which do not depend on that energy:
the caller keeps the energy, as it keeps h, c and r0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .fields import FieldProfile
from .radial import RadialGrid, assemble_fiber, smoothstep


def laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x) by the three-term recurrence."""
    if n < 0 or k < 0:
        raise ValidationError("laguerre requires n, k >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return cur


def _finite_positive(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _require_finite(what: str, value: float, n: int, r0: float) -> None:
    """A quasimode norm or residual must be finite. At a high level n and
    a wide r0 the Laguerre factor L_n(b r^2/2) overflows inside r0, where
    no float e^{-b r^2/4} can balance it (0 * inf)."""
    if not math.isfinite(value):
        raise NumericalError(
            f"quasimode {what} is {value}: the Laguerre factor of level {n} "
            f"overflows inside r0 = {r0:.6g}")


def _landau_envelope(n: int, m: int, b: float, r):
    """C_{n,m} r^{|m|} e^{-b r^2/4}, C_{n,m} the full-plane L^2 normalization
    2 pi int |C r^{|m|} e^{-br^2/4} L|^2 r dr = 1.

    For m != 0 it is one exponential: at large |m| the power overflows
    where the Gaussian and C underflow.
    """
    k = abs(m)
    log_c = 0.5 * (math.log(b / (2.0 * math.pi)) + k * math.log(b / 2.0)
                   + math.lgamma(n + 1) - math.lgamma(n + k + 1))
    if k:
        with np.errstate(divide="ignore"):
            return np.exp(log_c + k * np.log(r) - b * r * r / 4.0)
    return math.exp(log_c) * np.exp(-b * r * r / 4.0)


def landau_radial(n: int, m: int, b: float, r):
    """Radial factor of the normalized Landau eigenfunction psi_{n,m}."""
    if not _finite_positive(b):
        raise ValidationError("b must be finite and > 0")
    if n < 0:
        raise ValidationError("n must be >= 0")
    r = np.asarray(r, dtype=float)
    k = abs(m)
    return _landau_envelope(n, m, b, r) * laguerre(n, k, b * r * r / 2.0)


def _landau_radial_derivative(f, n: int, m: int, b: float, r):
    # f' = f (|m|/r - b r/2) - C r^{|m|} e^{-br^2/4} L_{n-1}^{|m|+1}(br^2/2) b r
    # for f = landau_radial(n, m, b, r) on the float array r
    k = abs(m)
    out = f * (-b * r / 2.0)
    if k:
        out = out + f * (k / r)
    if n:
        out = out - (_landau_envelope(n, m, b, r)
                     * laguerre(n - 1, k + 1, b * r * r / 2.0) * b * r)
    return out


def _shoulder(r, r0: float, delta: float):
    """Cutoff chi and its first two derivatives on the grid.

    chi = 1 on [0, (1-delta) r0], a quintic smoothstep down to 0 at r0:
    the C^2 shoulder keeps |chi'| <= (15/8)/(delta r0).
    """
    ramp, d1, d2 = smoothstep(r, (1.0 - delta) * r0, delta * r0)
    return 1.0 - ramp, -d1, -d2


@dataclass(frozen=True, eq=False)
class Quasimode:
    n: int
    m: int
    b: float
    r0: float  # cutoff outer radius
    delta: float  # shoulder fraction
    grid: RadialGrid
    values: np.ndarray = field(repr=False)  # chi * psi radial part at nodes
    norm: float  # discrete L^2 norm over the plane measure


def build_quasimode(n: int, m: int, b: float, r0: float, delta: float,
                    grid: RadialGrid) -> Quasimode:
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if not (0.0 < r0 <= grid.r_max):  # also rejects nan and inf
        raise ValidationError("need 0 < r0 <= r_max")
    if delta * r0 / grid.dr < 16.0:
        raise ValidationError(
            f"cutoff shoulder spans {delta * r0 / grid.dr:.1f} < 16 grid "
            f"cells; refine the grid")
    # L_n has n sign changes: ask for 4 nodes per sign change before the
    # n-step recurrence runs
    if not n < grid.N / 4:
        raise ValidationError(
            f"level n = {n} needs n < N/4 = {grid.N / 4:g}: the Laguerre "
            f"factor has n sign changes; refine the grid")
    r = grid.nodes
    chi, _, _ = _shoulder(r, r0, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = chi * landau_radial(n, m, b, r)
        vals = np.where(r <= r0, vals, 0.0)
        norm = math.sqrt(2.0 * math.pi * float(np.sum(vals * vals * r)
                                               * grid.dr))
    _require_finite("norm", norm, n, r0)
    return Quasimode(n=n, m=m, b=b, r0=r0, delta=delta, grid=grid,
                     values=vals, norm=norm)


def quasimode_residual(q: Quasimode, profile: FieldProfile) -> float:
    """||(H - Lambda_n) u|| for the cutoff Landau quasimode u; its ||u||
    is `q.norm`.

    Requires B = 1 on [0, r0]: the commutator formula differentiates the
    analytic Landau eigenfunction, which solves (H - Lambda_n) psi = 0 only
    where the field is the constant one.
    """
    r = q.grid.nodes
    inside = r <= q.r0
    B_vals = np.asarray(profile.B(r[inside]), dtype=float)
    if not np.allclose(B_vals, 1.0, rtol=0.0, atol=1e-12):
        raise ValidationError("field is not constant 1 on [0, r0]")
    chi, d1, d2 = _shoulder(r, q.r0, q.delta)
    with np.errstate(over="ignore", invalid="ignore"):
        f = landau_radial(q.n, q.m, q.b, r)
        fp = _landau_radial_derivative(f, q.n, q.m, q.b, r)
        g = -(d2 + d1 / r) * f - 2.0 * d1 * fp
        g = np.where(r <= q.r0, g, 0.0)
        res = math.sqrt(2.0 * math.pi * float(np.sum(g * g * r) * q.grid.dr))
    _require_finite("residual", res, q.n, q.r0)
    return res


def generic_quasimode_residual(result, r0: float, delta: float,
                               profile: FieldProfile, index: int = 0) -> float:
    """Residual norm of a cutoff discrete eigenfunction against the
    full-plane fiber operator of `profile`.

    `result` is an EigenResult whose eigenfunction solved an auxiliary
    problem (full-plane anharmonic/well, or the island disk with its Neumann
    wall); the cutoff removes the part that sees the difference, and
    `profile` must carry the same field B on [0, r0]. The residual
    is evaluated at the matrix level on a grid extended past the cutoff with
    the same spacing, so it is exactly the discrete commutator, free of any
    separate discretization floor.
    """
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    src = result.op
    grid = src.grid
    if r0 >= grid.r_max:
        raise ValidationError("cutoff radius must sit inside the source grid")
    if delta * r0 / grid.dr < 16.0:
        raise ValidationError("cutoff shoulder under-resolved on this grid")
    r_src = grid.nodes
    mask = r_src <= r0
    B_have = np.asarray(src.profile.B(r_src[mask]), dtype=float)
    B_want = np.asarray(profile.B(r_src[mask]), dtype=float)
    if not np.allclose(B_have, B_want, rtol=0.0, atol=1e-12):
        raise ValidationError(
            "model field differs on [0, r0] from the field that produced the "
            "eigenpair")

    # one doubling keeps the spacing bit-identical to the source grid and
    # suffices: the cut-off vector is zero past r0 < r_max, so every row
    # past node N is zero on any longer extension too
    n_ext = 2 * grid.N
    ext = RadialGrid(2.0 * grid.r_max, n_ext)
    lam = float(result.values[index])
    op = assemble_fiber(profile, src.m, src.scale, ext,
                        boundary="dirichlet_far", convention=src.convention)
    r = ext.nodes
    chi, _, _ = _shoulder(r, r0, delta)
    u = np.zeros(n_ext)
    u[: grid.N] = result.vectors[:, index]
    v = chi * u * np.sqrt(r * grid.dr)  # cutoff, back to the symmetric frame
    res = (op.diag - lam) * v
    res[:-1] += op.off * v[1:]
    res[1:] += op.off * v[:-1]
    return float(np.linalg.norm(res))


@dataclass(frozen=True)
class TZWindow:
    half_width: float  # w(h) = h^-2 e^{-c r0^2 / (2h)}
    depth: float  # h^-3 S(h)
    S: float  # e^{-c r0^2 / h}
    R: float  # S(h)^2, the residual-squared scale; R <= S, and R < S
    # while 0 < S < 1 (S is 1 or 0 at float extremes of c r0^2 / h)


def tz_window(h: float, c: float, r0: float) -> TZWindow:
    """Resonance-window rectangle [E - w, E + w] + i[-h^-3 S, 0] about any
    quasimode energy E: c is the residual certificate's decay rate and r0
    the quasimode's support radius."""
    if not _finite_positive(c, h, r0, h * h * h):
        raise ValidationError("tz_window requires finite c, h, r0 > 0, "
                              "with h^3 finite and nonzero")
    K = c * r0 * r0
    S = math.exp(-K / h)
    w = math.exp(-K / (2.0 * h)) / (h * h)
    depth = S / h ** 3
    return TZWindow(half_width=w, depth=depth, S=S, R=S * S)


def tz_crossover(c: float, r0: float) -> float | None:
    """Largest h below which the window half-width w(h) drops under 1.

    w(h) = h^-2 e^{-K/(2h)}, K = c r0^2, vanishes at both ends and peaks at
    h = K/4; if even the peak stays below 1 (K > 4/e) the window is always
    informative and None is returned. Otherwise the crossover is the root
    of w(h) = 1 on the rising side (0, K/4], in closed form
    h* = -K / (4 W_{-1}(-K/4)) with W_{-1} the lower Lambert W branch; for
    h below it the certificate window is smaller than 1. At K = 4/e the
    root is the peak K/4. A root that underflows is a ValidationError.
    """
    if not _finite_positive(c, r0):
        raise ValidationError("tz_crossover requires finite c, r0 > 0")
    K = c * r0 * r0
    x = -K / 4.0
    if x < -1.0 / math.e:
        return None
    if x == -1.0 / math.e:  # the branch point, where lambertw returns nan
        return K / 4.0
    from scipy.special import lambertw  # slow to load, used only here
    h = float(-K / (4.0 * lambertw(x, -1).real))
    if not _finite_positive(h):
        raise ValidationError(
            f"crossover h for c r0^2 = {K:.3g} is not a positive float "
            f"(got {h})")
    return h
