"""Exterior complex scaling of radial fibers and resonance extraction.

Outside the field support the angular potential is exactly the
Aharonov-Bohm tail a(r) = alpha/r, so the radial coordinate can be deformed
along t -> f(t) = t e^{i theta g(t)} with a smooth ramp g rising 0 -> 1 on
[R1, T0], R1 beyond the support. The continued potential is the closed form
(h m - alpha)^2 / f(t)^2 -- no numerical analytic continuation -- and the
kinetic term keeps the face-weighted form of the real solver with complex
face weights h^2 f(F)/f'(F) and node mass f(t) f'(t). The result is a
complex-symmetric tridiagonal matrix whose spectrum is the rotated
continuum (arg approximately -2 theta) plus theta-independent points: the
resonances. Genuine resonances are certified by running two angles and
keeping eigenvalues that agree within tolerance while continuum points
sweep past them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._parallel import pmap
from .errors import AmbiguousPairingError, NumericalError, ValidationError
from .fields import FieldProfile
from .radial import RadialGrid, assemble_fiber, face_form, smoothstep

THETA_MAX = 0.7  # largest scaling angle admitted (conditioning degrades beyond)
IM_FLOOR = 1e-10  # |Im z| below this is a continuum/threshold artifact
PAIR_TOL = 1e-5  # default relative pairing tolerance


@dataclass(frozen=True)
class ScalingProfile:
    """Radial deformation f(t) = t e^{i theta g(t)}.

    g is the quintic smoothstep on [R1, T0]: identity below R1 (no
    deformation near the field), full rotation e^{i theta} t beyond T0.
    theta = 0 is admitted as the degenerate identity profile used to
    cross-check the scaled assembly against the self-adjoint one.
    """

    theta: float
    R1: float  # deformation starts here; must lie beyond the field support
    T0: float  # fully rotated from here on

    def g(self, t):
        return smoothstep(t, self.R1, self.T0 - self.R1)[0]

    def gp(self, t):
        return smoothstep(t, self.R1, self.T0 - self.R1)[1]

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return t * np.exp(1j * self.theta * self.g(t))

    def fp(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * self.theta * self.g(t)) \
            * (1.0 + 1j * self.theta * t * self.gp(t))


def scaling_profile(theta: float, R1: float, T0: float,
                    check_n: int = 4096) -> ScalingProfile:
    """Validated scaling profile.

    Checks on a dense grid of [0, 2 T0]: f is the identity below R1, the
    full rotation beyond T0, 0 <= arg f <= theta, and f' never vanishes.
    """
    if not (0.0 <= theta <= THETA_MAX):
        raise ValidationError(f"theta must lie in [0, {THETA_MAX}]")
    if not (0.0 < R1 < T0):
        raise ValidationError("need 0 < R1 < T0")
    sp = ScalingProfile(theta=theta, R1=R1, T0=T0)
    t = np.linspace(1e-9, 2.0 * T0, check_n)
    ft = sp.f(t)
    inner = t <= R1
    if not np.array_equal(ft[inner], t[inner].astype(complex)):
        raise NumericalError("scaling profile deforms the interior region")
    outer = t >= T0
    if not np.allclose(ft[outer], t[outer] * cmath.exp(1j * theta),
                       rtol=1e-14, atol=0.0):
        raise NumericalError("scaling profile misses the full rotation")
    args = np.angle(ft)
    if np.any(args < -1e-15) or np.any(args > theta + 1e-15):
        raise NumericalError("arg f leaves [0, theta] on the check grid")
    if np.any(np.abs(sp.fp(t)) < 1e-12):
        raise NumericalError("f' vanishes on the check grid")
    return sp


@dataclass(frozen=True, eq=False)
class ScaledFiberOperator:
    m: int
    h: float
    sp: ScalingProfile
    grid: RadialGrid
    diag: np.ndarray = field(repr=False)  # complex
    off: np.ndarray = field(repr=False)  # complex; matrix is complex-symmetric
    profile: FieldProfile = field(repr=False, compare=False)


def assemble_scaled_fiber(profile: FieldProfile, m: int, h: float,
                          sp: ScalingProfile, grid: RadialGrid
                          ) -> ScaledFiberOperator:
    """Complex-scaled semiclassical fiber at angular momentum m.

    Requires the deformation to start beyond the field support (the
    potential under the ramp must already be the pure AB tail) and
    r_max >= 3 T0 so the rotated-contour decay has room. At theta = 0 the
    assembly short-circuits to the real solver's code path, so the matrix
    equals the self-adjoint fiber entry for entry.
    """
    if h <= 0:
        raise ValidationError("h must be > 0")
    if not math.isfinite(profile.R0):
        raise ValidationError(
            "complex scaling needs a compactly supported field (finite R0)")
    if sp.R1 <= profile.R0:
        raise ValidationError(
            f"deformation region starts at R1 = {sp.R1} inside the field "
            f"support (R0 = {profile.R0}); the continued potential would be "
            f"wrong there")
    if grid.r_max < 3.0 * sp.T0 * (1.0 - 1e-12):
        raise ValidationError(
            f"r_max = {grid.r_max} is below 3 T0 = {3.0 * sp.T0}")
    if sp.theta == 0.0:
        op = assemble_fiber(profile, m, h, grid, boundary="dirichlet_far",
                            convention="h")
        return ScaledFiberOperator(m=m, h=h, sp=sp, grid=grid,
                                   diag=op.diag.astype(complex),
                                   off=op.off.astype(complex), profile=profile)
    t = grid.nodes
    F = grid.faces
    w = (h * h) * sp.f(F) / sp.fp(F)
    mass = sp.f(t) * sp.fp(t)
    V = np.empty(grid.N, dtype=complex)
    inner = t <= sp.R1
    a_in = np.asarray(profile.a(t[inner]), dtype=float)
    V[inner] = (h * m / t[inner] - a_in) ** 2
    ft = sp.f(t[~inner])
    V[~inner] = (h * m - profile.alpha) ** 2 / (ft * ft)
    diag, off = face_form(w, mass, grid.dr, V, "dirichlet_far")
    return ScaledFiberOperator(m=m, h=h, sp=sp, grid=grid, diag=diag, off=off,
                               profile=profile)


def complex_spectrum(op: ScaledFiberOperator) -> np.ndarray:
    """All eigenvalues of the scaled fiber, sorted by (Re, Im)."""
    n = op.grid.N
    if n > 6000:
        raise ValidationError("dense complex eigensolve capped at N = 6000")
    M = np.diag(op.diag)
    M[np.arange(n - 1), np.arange(1, n)] = op.off
    M[np.arange(1, n), np.arange(n - 1)] = op.off
    try:
        vals = sla.eigvals(M)
    except Exception as exc:
        raise NumericalError(
            f"complex eigensolve failed (N={n}, max|entry|="
            f"{np.abs(M).max():.3g}): {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


@dataclass(frozen=True)
class Window:
    """Closed rectangle [re_min, re_max] x i[im_min, im_max] in Im z <= 0."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError("window rectangle is empty")
        if self.im_max > 0.0:
            raise ValidationError("window must lie in Im z <= 0")

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)


def _ray_hits_window(theta: float, win: Window) -> bool:
    """Does the rotated continuum ray e^{-2 i theta}[0, inf) meet the window?"""
    if win.contains(0.0 + 0.0j):
        return True
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    if s == 0.0:  # ray along the positive real axis
        return win.im_min <= 0.0 <= win.im_max and win.re_max >= 0.0
    # parametrize z = t (c - i s), t >= 0
    t_lo, t_hi = -win.im_max / s, -win.im_min / s
    if c > 0:
        t_lo = max(t_lo, win.re_min / c)
        t_hi = min(t_hi, win.re_max / c)
    elif c < 0:
        t_lo = max(t_lo, win.re_max / c)
        t_hi = min(t_hi, win.re_min / c)
    else:
        if not (win.re_min <= 0.0 <= win.re_max):
            return False
    return max(t_lo, 0.0) <= t_hi


@dataclass(frozen=True)
class Resonance:
    z: complex  # value from the first-angle run
    m: int | None
    h: float | None
    theta_pair: tuple[float, float] | None
    drift: float  # |z(theta1) - z(theta2)|


@dataclass(frozen=True, eq=False)
class ResonanceSet:
    resonances: tuple
    tol: float  # relative pairing tolerance
    window: Window
    theta_pair: tuple[float, float] | None
    h: float | None
    spectra: dict = field(default_factory=dict, repr=False)  # (theta, m) -> eigenvalues

    def __iter__(self):
        return iter(self.resonances)

    def __len__(self):
        return len(self.resonances)


def filter_resonances(spec1, spec2, tol: float, window: Window,
                      theta_pair: tuple[float, float] | None = None,
                      m: int | None = None, h: float | None = None
                      ) -> ResonanceSet:
    """Theta-robust eigenvalues: windowed points of spec1 that reappear in
    spec2 within tol*(1+|z|).

    Points with |Im z| < 1e-10 are continuum/threshold artifacts and are
    dropped; unpaired points are discarded as rotated-continuum members; two
    partners within tolerance is an ambiguity error, not a choice. When the
    angle pair is supplied, the window must avoid both rotated rays and each
    kept point must lie above the more-rotated one (arg z > -2 min theta).
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    if theta_pair is not None:
        t1, t2 = theta_pair
        if t1 == t2:
            raise ValidationError("theta pair must contain two distinct angles")
        for th in (t1, t2):
            if not (0.0 < th <= THETA_MAX):
                raise ValidationError(f"theta = {th} outside (0, {THETA_MAX}]")
            if _ray_hits_window(th, window):
                raise ValidationError(
                    f"window intersects the rotated continuum ray of "
                    f"theta = {th}; resonances there are not separable")
    spec1 = np.asarray(spec1, dtype=complex)
    spec2 = np.asarray(spec2, dtype=complex)
    found = []
    claimed = set()
    for z1 in spec1:
        if not (window.contains(z1) and z1.imag < -IM_FLOOR):
            continue
        tol_z = tol * (1.0 + abs(z1))
        dist = np.abs(spec2 - z1)
        hits = np.flatnonzero(dist <= tol_z)
        if hits.size == 0:
            continue
        if hits.size > 1:
            cands = ", ".join(f"{spec2[i]:.8g}" for i in hits)
            raise AmbiguousPairingError(
                f"eigenvalue {z1:.8g} pairs with {hits.size} partners within "
                f"{tol_z:.3g}: {cands}")
        i = int(hits[0])
        z2 = spec2[i]
        if z2.imag >= -IM_FLOOR:
            continue
        if i in claimed:
            raise AmbiguousPairingError(
                f"partner {z2:.8g} claimed by two windowed eigenvalues")
        if theta_pair is not None:
            theta_min = min(theta_pair)
            if cmath.phase(z1) <= -2.0 * theta_min:
                continue  # at or below the rotated continuum: not a resonance
        claimed.add(i)
        found.append(Resonance(z=complex(z1), m=m, h=h,
                               theta_pair=theta_pair,
                               drift=float(abs(z1 - z2))))
    found.sort(key=lambda r: (r.z.real, r.z.imag))
    return ResonanceSet(resonances=tuple(found), tol=tol, window=window,
                        theta_pair=theta_pair, h=h)


def continuum_motion(spec1, spec2, radius: float, exclude=()) -> float | None:
    """Smallest displacement of non-robust points under the angle change.

    Over eigenvalues of spec1 inside |z| <= radius with Im z < -1e-10,
    excluding any within pairing distance of `exclude` (accepted
    resonances), returns the minimum distance to the nearest spec2 point.
    None when no such point exists. A healthy run has this many times the
    pairing tolerance: the continuum sweeps while resonances stand still.
    """
    spec1 = np.asarray(spec1, dtype=complex)
    spec2 = np.asarray(spec2, dtype=complex)
    excl = [complex(e) for e in exclude]
    worst = None
    for z1 in spec1:
        if abs(z1) > radius or z1.imag >= -IM_FLOOR:
            continue
        if any(abs(z1 - e) <= 10.0 * PAIR_TOL * (1.0 + abs(e)) for e in excl):
            continue
        d = float(np.min(np.abs(spec2 - z1)))
        if worst is None or d < worst:
            worst = d
    return worst


def find_resonances(profile: FieldProfile, h: float, m_range, window: Window,
                    theta_pair: tuple[float, float] = (0.25, 0.35),
                    grid: RadialGrid | None = None, R1: float | None = None,
                    T0: float | None = None, tol: float = PAIR_TOL
                    ) -> ResonanceSet:
    """Theta-robust resonances over the given sectors, sorted by Re z.

    Both angles share the grid and the deformation radii; the per-sector
    eigensolves run in parallel. The raw spectra are kept on the result for
    continuum-motion diagnostics and trend fits.
    """
    if not math.isfinite(profile.R0):
        raise ValidationError(
            "complex scaling needs a compactly supported field (finite R0)")
    t1, t2 = float(theta_pair[0]), float(theta_pair[1])
    if t1 == t2:
        raise ValidationError("theta pair must contain two distinct angles")
    if R1 is None:
        R1 = profile.R0 + 0.5
    if T0 is None:
        T0 = R1 + 4.5
    if grid is None:
        grid = RadialGrid(3.0 * T0, 3000)
    sp1 = scaling_profile(t1, R1, T0)
    sp2 = scaling_profile(t2, R1, T0)
    ms = list(m_range)
    jobs = [(sp, m) for m in ms for sp in (sp1, sp2)]

    def solve(job):
        sp, m = job
        return complex_spectrum(assemble_scaled_fiber(profile, m, h, sp, grid))

    spectra = pmap(solve, jobs)
    by_key = {(job[0].theta, job[1]): s for job, s in zip(jobs, spectra)}
    found = []
    for m in ms:
        rs = filter_resonances(by_key[(t1, m)], by_key[(t2, m)], tol, window,
                               theta_pair=(t1, t2), m=m, h=h)
        found.extend(rs.resonances)
    found.sort(key=lambda r: (r.z.real, r.z.imag))
    return ResonanceSet(resonances=tuple(found), tol=tol, window=window,
                        theta_pair=(t1, t2), h=h, spectra=by_key)
