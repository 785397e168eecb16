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

Only a slice of each spectrum is computed: shift-invert Arnoldi finds the
eigenvalues in a disk about the window, and the argument principle on
det(T - z), evaluated by the O(N) continuant recurrence, certifies that
none were missed. The dense O(N^3) solve `complex_spectrum` is kept as
the small-N reference the slice is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.sparse import diags_array

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
    """All eigenvalues of the scaled fiber, sorted by (Re, Im).

    A dense O(N^3) solve, capped at N = 6000. `find_resonances` does not
    call it except as the fallback of `_spectrum_slice`; it is the
    small-N reference that the slice is tested against.
    """
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


SLICE_K0 = 40  # eigenvalues asked of the first Arnoldi run
CONTOUR_STEP = math.pi / 4  # largest phase step of det(T - z) between points
CONTOUR_CAP = 4096  # contour points before the count is given up


def _det_phase(op: ScaledFiberOperator, z: np.ndarray) -> np.ndarray:
    """arg det(T - z), up to multiples of 2 pi, at each point of z.

    The pivots of T - z obey the continuant recurrence
    q_k = (d_k - z) - o_{k-1}^2 / q_{k-1}, and det(T - z) is their
    product; summing their phases avoids over- and underflow. O(N) per
    point, vectorized over the points.
    """
    q = op.diag[0] - z
    phase = np.angle(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d, o2 in zip(op.diag[1:], op.off * op.off):
            q = (d - z) - o2 / q
            phase += np.angle(q)
    if not np.all(np.isfinite(phase)):
        raise NumericalError("a pivot of T - z vanished on the contour")
    return phase


def _contour_count(op: ScaledFiberOperator, centre: complex, radius: float,
                   known: np.ndarray) -> int:
    """Eigenvalues of T inside |z - centre| < radius, by the argument
    principle: the winding number of det(T - z) around the circle.

    `known` eigenvalues (those near the circle above all) set the first
    sampling: each step is a fraction of the distance to the nearest one,
    and no eigenvalue outside max|known - centre| comes nearer than that
    bound allows. Arcs whose phase step still reaches CONTOUR_STEP are
    bisected until none does, so the winding read from the steps is
    unambiguous. Too many points is a NumericalError.
    """
    unresolved = NumericalError(
        f"contour count did not resolve |z - {centre:.6g}| = {radius:.6g} "
        f"within {CONTOUR_CAP} points: eigenvalues lie on or next to it")
    margin = float(np.abs(known - centre).max()) - radius
    ts, t = [], 0.0
    while t < 2.0 * math.pi:
        if len(ts) == CONTOUR_CAP:
            raise unresolved
        ts.append(t)
        z = centre + radius * cmath.exp(1j * t)
        t += 0.25 * min(float(np.abs(known - z).min()), margin) / radius
    t = np.array(ts + [2.0 * math.pi])
    phase = _det_phase(op, centre + radius * np.exp(1j * t))
    while True:
        step = np.angle(np.exp(1j * np.diff(phase)))
        bad = np.abs(step) >= CONTOUR_STEP
        if not bad.any():
            return int(round(float(step.sum()) / (2.0 * math.pi)))
        if t.size + int(bad.sum()) > CONTOUR_CAP:
            raise unresolved
        mid = 0.5 * (t[:-1][bad] + t[1:][bad])
        t = np.concatenate([t, mid])
        phase = np.concatenate(
            [phase, _det_phase(op, centre + radius * np.exp(1j * mid))])
        order = np.argsort(t, kind="stable")
        t, phase = t[order], phase[order]


def _spectrum_slice(op: ScaledFiberOperator, centre: complex,
                    radius: float) -> np.ndarray:
    """Eigenvalues of the scaled fiber inside |z - centre| <= radius,
    sorted by (Re, Im), with their count certified.

    Shift-invert Arnoldi around the centre, on one sparse factorization
    of T - centre and a fixed start vector (so reruns agree bit for bit),
    asks for k eigenvalues and doubles k until the k-th nearest lies
    outside the disk. The argument principle on det(T - z) then counts
    the eigenvalues inside a circle drawn through the widest gap between
    the disk edge and the k-th distance; a count other than Arnoldi's is
    a NumericalError. When k would reach N/2 first, the disk is too wide
    for slicing and the dense solve is used instead.
    """
    n = op.grid.N
    T = diags_array([op.off, op.diag, op.off], offsets=[-1, 0, 1],
                    format="csc")
    try:
        lu = spla.splu(diags_array([op.off, op.diag - centre, op.off],
                                   offsets=[-1, 0, 1], format="csc"))
    except RuntimeError as exc:
        raise NumericalError(
            f"T - {centre:.6g} is singular at N={n}: {exc}") from exc
    opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    k = SLICE_K0
    while k < n // 2:
        try:
            vals = spla.eigs(T, k=k, sigma=centre, OPinv=opinv, v0=v0,
                             return_eigenvectors=False)
        except spla.ArpackError as exc:
            raise NumericalError(
                f"shift-invert Arnoldi failed (N={n}, k={k}, "
                f"centre={centre:.6g}): {exc}") from exc
        dist = np.abs(vals - centre)
        if dist.max() > radius:
            break
        k *= 2
    else:
        vals = complex_spectrum(op)
        return vals[np.abs(vals - centre) <= radius]
    edges = np.concatenate([[radius], np.sort(dist[dist > radius])])
    j = int(np.argmax(np.diff(edges)))
    circle = 0.5 * (edges[j] + edges[j + 1])
    count = _contour_count(op, centre, circle, vals)
    found = int(np.sum(dist < circle))
    if count != found:
        raise NumericalError(
            f"spectral slice incomplete: the contour |z - {centre:.6g}| = "
            f"{circle:.6g} encloses {count} eigenvalues, Arnoldi found "
            f"{found} (N={n}, m={op.m})")
    inside = vals[dist <= radius]
    return inside[np.lexsort((inside.imag, inside.real))]


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
    disk: tuple[complex, float] | None = None  # (centre, radius) of the spectra

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


def _slice_disk(window: Window, tol: float) -> tuple[complex, float]:
    """Disk that the resonance filter and the continuum diagnostics read.

    Centred on the window, it covers the window, every z with
    |z| <= 2 max|corner| and the pairing tolerance beyond both.
    """
    centre = complex(0.5 * (window.re_min + window.re_max),
                     0.5 * (window.im_min + window.im_max))
    reach = 2.0 * max(abs(complex(re, im))
                      for re in (window.re_min, window.re_max)
                      for im in (window.im_min, window.im_max))
    return centre, abs(centre) + reach + tol * (1.0 + reach)


def find_resonances(profile: FieldProfile, h: float, m_range, window: Window,
                    theta_pair: tuple[float, float] = (0.25, 0.35),
                    grid: RadialGrid | None = None, R1: float | None = None,
                    T0: float | None = None, tol: float = PAIR_TOL
                    ) -> ResonanceSet:
    """Theta-robust resonances over the given sectors, sorted by Re z.

    Both angles share the grid and the deformation radii. Each (theta, m)
    solve is a certified spectral slice: every eigenvalue in a disk about
    the window centre that covers the window, |z| <= 2 max|window corner|
    and the pairing tolerance. The slices are kept on the result as
    `spectra`, with the disk, for continuum-motion diagnostics and trend
    fits.
    """
    if not math.isfinite(profile.R0):
        raise ValidationError(
            "complex scaling needs a compactly supported field (finite R0)")
    t1, t2 = float(theta_pair[0]), float(theta_pair[1])
    if t1 == t2:
        raise ValidationError("theta pair must contain two distinct angles")
    if not (0.0 < tol < math.inf):
        raise ValidationError("tol must be positive and finite")
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
    centre, radius = _slice_disk(window, tol)

    def solve(job):
        sp, m = job
        return _spectrum_slice(assemble_scaled_fiber(profile, m, h, sp, grid),
                               centre, radius)

    spectra = pmap(solve, jobs)
    by_key = {(job[0].theta, job[1]): s for job, s in zip(jobs, spectra)}
    found = []
    for m in ms:
        rs = filter_resonances(by_key[(t1, m)], by_key[(t2, m)], tol, window,
                               theta_pair=(t1, t2), m=m, h=h)
        found.extend(rs.resonances)
    found.sort(key=lambda r: (r.z.real, r.z.imag))
    return ResonanceSet(resonances=tuple(found), tol=tol, window=window,
                        theta_pair=(t1, t2), h=h, spectra=by_key,
                        disk=(centre, radius))
