"""Exterior complex scaling of radial fibers and resonance extraction.

Outside the field support the angular potential is exactly the
Aharonov-Bohm tail a(r) = alpha/r, so the radial coordinate can be deformed
along t -> f(t) = t e^{i theta g(t)} with a smooth ramp g rising 0 -> 1 on
[R1, T0], R1 beyond the support. The continued potential is the closed form
(h m - alpha)^2 / f(t)^2 -- no numerical analytic continuation -- and the
kinetic term keeps the face-weighted form of the real solver with complex
face weights h^2 f(F)/f'(F) and node mass f(t) f'(t). The result is the
real solver's FiberOperator ('h' convention, Dirichlet far end) with
complex-symmetric tridiagonal entries, whose spectrum is the rotated
continuum (arg approximately -2 theta) plus theta-independent points: the
resonances. Genuine resonances are certified by running two angles and
keeping eigenvalues that agree within tolerance while continuum points
sweep past them.

The scaled fiber of a sector is its real fiber up to R1, bit for bit, and
that fiber's continuation beyond (`_deform`): `find_resonances` assembles
one real fiber per sector and deforms it for both angles.

Only a slice of each spectrum is computed: shift-invert Arnoldi finds the
eigenvalues in the smallest disk about the origin that holds the window and
its pairing tolerance, which is everything the filter reads, and the
argument principle on det(T - z), evaluated by the O(N) continuant
recurrence, certifies that none were missed. Arnoldi applies T^-1 through
one tridiagonal LU factorization (LAPACK `zgttrf`, solved by `zgttrs`).
  - Sizing. Scaling rotates the continuum and keeps its moduli, so the
    real fiber of a sector has about as many eigenvalues below the radius
    as either scaled one has in the disk; one restarted `dpttrf` counts
    them by Sylvester inertia below COUNT_REACH times the radius, once for
    both angles. Arnoldi asks for that count plus two and doubles k while
    all it found lie in the disk, so a low count costs time, never
    correctness.
  - Certificate. The contour is a circle halfway from the disk edge to
    the nearest eigenvalue found beyond it. The phases of the eigenvalues
    found are subtracted from arg det(T - z), so the winding number counts
    only those Arnoldi missed inside the circle, and it must be 0. Any
    missed eigenvalue lies beyond the farthest one found, so the first
    points are equally spaced at most an eighth of that margin apart;
    steps whose phase still moves by pi/4 or more are bisected.
The dense O(N^3) solve `complex_spectrum` (LAPACK `zgeev`) is the
fallback for a disk holding N/2 eigenvalues or more, and the small-N
reference the slice is tested against. The LAPACK and ARPACK routines
come from `_lapack`, which loads their SciPy extensions alone, without
the linear-algebra packages around them; `_arnoldi` runs ARPACK's
reverse-communication loop, as SciPy's `eigs` would.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import (zgeev, zgeev_lwork, zgttrf, zgttrs, znaupd_wrap,
                      zneupd_wrap)
from ._parallel import pmap
from .errors import AmbiguousPairingError, NumericalError, ValidationError
from .fields import FieldProfile
from .radial import (FiberOperator, RadialGrid, _ldl_factors, assemble_fiber,
                     face_form, smoothstep)

THETA_MAX = 0.7  # largest scaling angle admitted (conditioning degrades beyond)
IM_FLOOR = 1e-10  # |Im z| below this is a continuum/threshold artifact
PAIR_TOL = 1e-5  # default relative pairing tolerance
TOL_RANGE = ("the relative pairing tolerance must lie in (0, 1): at 1 or "
             "more every eigenvalue pairs with every other")
NAMED_PARTNERS = 5  # partners an ambiguous-pairing message lists


@dataclass(frozen=True)
class ScalingProfile:
    """Radial deformation f(t) = t e^{i theta g(t)}.

    g is the quintic smoothstep on [R1, T0]: identity below R1 (no
    deformation near the field), full rotation e^{i theta} t beyond T0.
    theta = 0 is admitted as the degenerate identity profile, on which the
    scaled assembly is the self-adjoint fiber to an ulp.
    """

    theta: float
    R1: float  # deformation starts here; must lie beyond the field support
    T0: float  # fully rotated from here on

    def deform(self, t):
        """(f(t), f'(t)) at the points t, from one evaluation of g."""
        t = np.asarray(t, dtype=float)
        g, gp, _ = smoothstep(t, self.R1, self.T0 - self.R1)
        turn = np.exp(1j * self.theta * g)
        return t * turn, turn * (1.0 + 1j * self.theta * t * gp)


def scaling_profile(theta: float, R1: float, T0: float) -> ScalingProfile:
    """Validated scaling profile.

    Unless theta lies in [0, THETA_MAX], 0 < R1 < T0 with 2 T0 finite,
    and 1 / (T0 - R1)^2 is a finite positive float, a ValidationError.
    Such a profile needs no evaluation to be trusted: `smoothstep` is
    exactly 0 below R1 and exactly 1 beyond T0, so f is t there and
    t e^{i theta} beyond; arg f = theta g lies in [0, theta]; and
    |f'| = |1 + i theta t g'| >= 1.
    """
    if not (0.0 <= theta <= THETA_MAX):
        raise ValidationError(f"theta must lie in [0, {THETA_MAX}]")
    if not (0.0 < R1 < T0 and 2.0 * T0 < math.inf):
        raise ValidationError("need 0 < R1 < T0, with 2 T0 finite")
    width2 = (T0 - R1) * (T0 - R1)  # the ramp's S'' divides by it
    if not (0.0 < width2 < math.inf and 1.0 / width2 < math.inf):
        raise ValidationError(
            f"the deformation ramp T0 - R1 = {T0 - R1:.3g} is outside float "
            f"range: 1 / (T0 - R1)^2 is not a finite positive float")
    return ScalingProfile(theta=theta, R1=R1, T0=T0)


def assemble_scaled_fiber(profile: FieldProfile, m: int, h: float,
                          sp: ScalingProfile, grid: RadialGrid
                          ) -> FiberOperator:
    """Complex-scaled semiclassical fiber at angular momentum m: the real
    'h' fiber with a Dirichlet far end, assembled and continued along sp
    (`_deform`). `assemble_fiber` refuses an h that is not positive and
    finite."""
    return _deform(assemble_fiber(profile, m, h, grid, "dirichlet_far", "h"),
                   sp)


def _deform(real: FiberOperator, sp: ScalingProfile) -> FiberOperator:
    """The real 'h' fiber `real` continued along sp: a FiberOperator of the
    same sector and grid with complex diag and off.

    Requires the deformation to start beyond the field support (the
    potential under the ramp must already be the pure AB tail) and
    r_max >= 3 T0 so the rotated-contour decay has room. Up to R1 the
    potential, and every entry whose nodes and faces lie there, is the
    real fiber's, bit for bit.
    """
    profile, grid, h, m = real.profile, real.grid, real.scale, real.m
    if not sp.R1 > profile.R0:  # also a full-plane field, R0 = inf
        raise ValidationError(
            f"deformation region starts at R1 = {sp.R1} inside the field "
            f"support (R0 = {profile.R0}); the continued potential would be "
            f"wrong there")
    if grid.r_max < 3.0 * sp.T0 * (1.0 - 1e-12):
        raise ValidationError(
            f"r_max = {grid.r_max} is below 3 T0 = {3.0 * sp.T0}")
    t, F = grid.nodes, grid.faces
    V = real.pot.astype(complex)
    outer = t > sp.R1
    with np.errstate(over="ignore", invalid="ignore"):
        fF, fpF = sp.deform(F)
        ft, fpt = sp.deform(t)
        w = (h * h) * fF / fpF
        mass = ft * fpt
        # as np.float64 an overflow gives inf, where a float's ** raises
        V[outer] = np.float64(h * m - profile.alpha) ** 2 / (ft * ft)[outer]
        kinetic, off = face_form(w, mass, grid.dr, "dirichlet_far")
        diag = kinetic + V
    # entries whose faces and nodes all lie at or below R1 are undeformed:
    # take them from the real fiber, formed in real arithmetic
    n_diag = int(np.searchsorted(F[1:], sp.R1, side="right"))
    n_off = int(np.searchsorted(t[1:], sp.R1, side="right"))
    diag[:n_diag] = real.diag[:n_diag]
    off[:n_off] = real.off[:n_off]
    return FiberOperator(m=m, scale=h, convention="h",
                         boundary="dirichlet_far", grid=grid, diag=diag,
                         off=off, pot=V, profile=profile)


def complex_spectrum(op: FiberOperator) -> np.ndarray:
    """All eigenvalues of the scaled fiber, sorted by (Re, Im).

    A dense O(N^3) solve, capped at N = 6000. `find_resonances` does not
    call it except as the fallback of `_spectrum_slice`; it is the
    small-N reference that the slice is tested against.
    """
    n = op.grid.N
    if n > 6000:
        raise ValidationError("dense complex eigensolve capped at N = 6000")
    if not (np.isfinite(op.diag).all() and np.isfinite(op.off).all()):
        raise NumericalError(f"complex eigensolve of N={n}: the fiber has "
                             f"non-finite entries")
    M = np.diag(op.diag)
    M[np.arange(n - 1), np.arange(1, n)] = op.off
    M[np.arange(1, n), np.arange(n - 1)] = op.off
    # LAPACK's nonsymmetric QR algorithm, eigenvalues only, in place
    work, info = zgeev_lwork(n, compute_vl=0, compute_vr=0)
    if not info:
        vals, _, _, info = zgeev(M, lwork=int(work.real), compute_vl=0,
                                 compute_vr=0, overwrite_a=1)
    if info:
        raise NumericalError(f"complex eigensolve failed (N={n}, "
                             f"max|diag|={np.abs(op.diag).max():.3g}): "
                             f"LAPACK info={info}")
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


CONTOUR_STEP = math.pi / 4  # largest phase step of det(T - z) between points
CONTOUR_CAP = 8192  # contour points before the count is given up
DET_BLOCK = 8  # pivots multiplied together per phase read


def _det_phase(op: FiberOperator, z: np.ndarray) -> np.ndarray:
    """arg det(T - z), up to multiples of 2 pi, at each point of z.

    The pivots of T - z obey the continuant recurrence
    q_k = (d_k - z) - o_{k-1}^2 / q_{k-1}, and det(T - z) is their
    product. The pivots are multiplied in blocks of DET_BLOCK, in place,
    and the phases of the block products are summed, which avoids over-
    and underflow of the whole product. A block product that is 0 or not
    finite (a pivot vanished) is a NumericalError. O(N) per point,
    vectorized over the points.
    """
    q = np.ones_like(z)  # q_{-1}: with o_{-1} = 0 the first pivot is d_0 - z
    block = np.ones_like(z)
    shifted = np.empty_like(z)
    phase = np.zeros(z.shape)
    last = len(op.diag) - 1
    o2 = np.concatenate([[0.0], op.off * op.off])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        for k, (d, o) in enumerate(zip(op.diag, o2)):
            np.subtract(d, z, out=shifted)
            np.divide(o, q, out=q)
            np.subtract(shifted, q, out=q)
            np.multiply(block, q, out=block)
            if k % DET_BLOCK == DET_BLOCK - 1 or k == last:
                if not (np.isfinite(block).all() and block.all()):
                    raise NumericalError(
                        "a pivot of T - z vanished on the contour")
                phase += np.angle(block)
                block.fill(1.0)
    return phase


def _contour_count(op: FiberOperator, radius: float,
                   known: np.ndarray) -> tuple[int, int]:
    """(eigenvalues of T inside |z| < radius less the `known` values
    inside, points used): the winding number of det(T - z) / prod(known -
    z) around the circle, by the argument principle.

    When `known` holds the eigenvalues nearest the origin, as Arnoldi's
    do, every one it misses lies beyond max|known|, so the first points
    are equally spaced at most an eighth of that margin, and CONTOUR_STEP
    of angle, apart. Steps whose phase still moves by CONTOUR_STEP or more
    are bisected until none does. Past CONTOUR_CAP points, a NumericalError.
    """
    margin = float(np.abs(known).max()) - radius
    steps = 16.0 * math.pi * radius / margin if margin > 0 else math.inf
    unresolved = NumericalError(
        f"contour count did not resolve |z| = {radius:.6g} within "
        f"{CONTOUR_CAP} points: its first sampling asks for "
        f"{np.ceil(steps):.0f}, at steps of an eighth of the margin "
        f"{margin:.3g} to the farthest eigenvalue found")
    if not steps < CONTOUR_CAP:
        raise unresolved

    def phase(t):
        z = radius * np.exp(1j * t)
        out = _det_phase(op, z)
        for value in known:  # one at a time: memory stays O(points)
            out -= np.angle(value - z)
        return out

    t = np.linspace(0.0, 2.0 * math.pi, max(math.ceil(steps), 8) + 1)
    phases = phase(t)
    while True:
        step = np.angle(np.exp(1j * np.diff(phases)))
        bad = np.abs(step) >= CONTOUR_STEP
        if not bad.any():
            return int(round(float(step.sum()) / (2.0 * math.pi))), t.size
        if t.size + int(bad.sum()) > CONTOUR_CAP:
            raise unresolved
        mid = 0.5 * (t[:-1][bad] + t[1:][bad])
        t = np.concatenate([t, mid])
        phases = np.concatenate([phases, phase(mid)])
        order = np.argsort(t, kind="stable")
        t, phases = t[order], phases[order]


@dataclass
class SliceWork:
    """What a spectral slice cost: the k of its last Arnoldi run (0 when
    none ran), the points of its contour count (0 when the dense solve
    answered) and the `zgttrs` solves its Arnoldi runs asked for."""

    k: int = 0
    contour_points: int = 0
    solves: int = 0


ARPACK_STATE = (  # the keys of the state dict that `znaupd_wrap` updates
    "tol getv0_rnorm0 aitr_betaj aitr_rnorm1 aitr_wnorm aup2_rnorm ido which "
    "bmat info iter maxiter mode n nconv ncv nev np shift getv0_first "
    "getv0_iter getv0_itry getv0_orth aitr_iter aitr_j aitr_orth1 aitr_orth2 "
    "aitr_restart aitr_step3 aitr_step4 aitr_ierr aup2_initv aup2_iter "
    "aup2_getv0 aup2_cnorm aup2_kplusp aup2_nev aup2_nev0 aup2_np0 "
    "aup2_numcnv aup2_update aup2_ushift").split()


def _arnoldi(factors, n: int, k: int, v0: np.ndarray
             ) -> tuple[np.ndarray, int]:
    """At most k eigenvalues of T nearest the origin, by ARPACK's
    shift-invert Arnoldi, and the `zgttrs` solves it asked for.

    The loop of SciPy's `eigs(T, k, sigma=0, OPinv=T^-1, v0=v0,
    return_eigenvectors=False)` for a complex T (mode 3, 'LM', ncv =
    min(max(2k + 1, 20), n), tol 0, maxiter 10 n): the same routines on
    the same inputs, so the same values bit for bit. A restart vector
    (ido 4) is drawn by SciPy's formula from a fixed seed. Any other
    request, and a non-zero info (1: maxiter reached), is a NumericalError.
    """
    ncv = min(max(2 * k + 1, 20), n)
    state = dict.fromkeys(ARPACK_STATE, 0)  # which 0 is 'LM', bmat 0 is 'I'
    state.update(info=1, maxiter=10 * n, mode=3, n=n, ncv=ncv, nev=k,
                 shift=1)  # info 1: start from resid
    resid, v = v0.copy(), np.zeros((n, ncv), complex)
    ipntr, workd = np.zeros(14, np.int32), np.zeros(3 * n, complex)
    workl, rwork = np.zeros(3 * ncv * (ncv + 2), complex), np.zeros(ncv)
    rng = np.random.default_rng(0)
    failed = f"shift-invert Arnoldi failed (N={n}, k={k}): ARPACK"
    solves = 0
    while state["ido"] != 99:  # 99: done
        znaupd_wrap(state, resid, v, ipntr, workd, workl, rwork)
        ido = state["ido"]
        if ido in (1, 5):  # y = T^-1 x, with x at ipntr[2] (B x) or ipntr[0]
            x, y = ipntr[2 if ido == 1 else 0], ipntr[1]
            workd[y:y + n] = zgttrs(*factors, workd[x:x + n])[0]
            solves += 1
        elif ido == 4:
            resid[:] = rng.uniform(-1.0, 1.0, (n, 2)).view(complex).ravel()
        elif ido != 99:
            raise NumericalError(f"{failed} znaupd asked for ido={ido}")
    if state["info"]:
        raise NumericalError(f"{failed} znaupd info={state['info']}")
    d, z = np.zeros(k, complex), np.zeros((n, k), complex, order="F")
    zneupd_wrap(state, 0, 0, np.zeros(ncv, np.int32), d, z, 0.0,
                np.zeros(3 * ncv, complex), resid, v, ipntr, workd, workl,
                rwork)
    if state["info"]:
        raise NumericalError(f"{failed} zneupd info={state['info']}")
    return d[:state["nconv"]], solves


def _spectrum_slice(op: FiberOperator, radius: float, count: int
                    ) -> tuple[np.ndarray, SliceWork]:
    """Eigenvalues of the scaled fiber inside |z| <= radius, sorted by
    (Re, Im), with their count certified, and what the slice cost
    (`SliceWork`).

    Shift-invert Arnoldi about the origin, on one tridiagonal LU
    factorization of T (`zgttrf`; exactly singular or not finite is a
    NumericalError) and a fixed start vector (so reruns agree bit for
    bit), run by `_arnoldi` (in shift-invert mode ARPACK applies only
    T^-1, so no product with T is formed); asks for `count` plus two
    eigenvalues, where `count` is the caller's estimate of how many lie in
    the disk (`find_resonances` counts the real fiber's below COUNT_REACH
    times the radius),
    and doubles k until the k-th nearest lies outside the disk. The
    argument principle on det(T - z), with the phases of the k values
    divided out (`_contour_count`), then counts the eigenvalues that
    Arnoldi missed inside a circle halfway from the disk edge to the
    nearest value beyond it; any but 0 is a NumericalError.
    When k would reach N/2 first, the disk is too wide for slicing and the
    dense solve is used instead.
    """
    n = op.grid.N
    work = SliceWork()
    *factors, info = zgttrf(op.off, op.diag, op.off)
    if info > 0:
        raise NumericalError(
            f"T is singular at N={n}: pivot {info} of its LU factorization "
            f"is zero")
    if not all(np.isfinite(f).all() for f in factors[:4]):  # not ipiv
        raise NumericalError(f"T has no finite LU factorization at N={n}")
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    k = count + 2
    while k < n // 2:
        work.k = k
        vals, solves = _arnoldi(factors, n, k, v0)
        work.solves += solves
        dist = np.abs(vals)
        if dist.max() > radius:
            break
        k *= 2
    else:
        vals = complex_spectrum(op)
        return vals[np.abs(vals) <= radius], work
    # halfway from the disk edge to the nearest eigenvalue beyond it
    circle = 0.5 * (radius + float(dist[dist > radius].min()))
    missed, work.contour_points = _contour_count(op, circle, vals)
    if missed:
        found = int(np.sum(dist < circle))
        raise NumericalError(
            f"spectral slice incomplete: the contour |z| = {circle:.6g} "
            f"encloses {found + missed} eigenvalues, Arnoldi found {found} "
            f"(N={n}, m={op.m})")
    inside = vals[dist <= radius]
    return inside[np.lexsort((inside.imag, inside.real))], work


@dataclass(frozen=True)
class Window:
    """Closed rectangle [re_min, re_max] x i[im_min, im_max] in Im z <= 0."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min,
                                       self.im_max))):
            raise ValidationError("window bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError("window rectangle is empty")
        if self.im_max > 0.0:
            raise ValidationError("window must lie in Im z <= 0")

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)


def _ray_hits_window(theta: float, win: Window) -> bool:
    """Does the rotated continuum ray e^{-2 i theta}[0, inf) meet the window?

    A window that holds the origin meets every ray. Any other window is
    convex and lies in Im z <= 0, so the ray meets it iff -2 theta lies in
    [min, max] of its corner angles -|arg c|.
    """
    if win.contains(0.0 + 0.0j):
        return True
    angles = [-abs(cmath.phase(complex(re, im)))
              for re in (win.re_min, win.re_max)
              for im in (win.im_min, win.im_max)]
    return min(angles) <= -2.0 * theta <= max(angles)


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
    radius: float | None = None  # spectra hold all of |z| <= radius
    work: dict = field(default_factory=dict, repr=False)  # (theta, m) -> SliceWork

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
    if not 0.0 < tol < 1.0:
        raise ValidationError(TOL_RANGE)
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
            cands = ", ".join(f"{spec2[i]:.8g}"
                              for i in hits[:NAMED_PARTNERS])
            more = ", ..." if hits.size > NAMED_PARTNERS else ""
            raise AmbiguousPairingError(
                f"eigenvalue {z1:.8g} pairs with {hits.size} partners within "
                f"{tol_z:.3g}: {cands}{more}")
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


def continuum_motion(spec1, spec2, radius: float) -> float | None:
    """Smallest displacement of the continuum under the angle change.

    Over eigenvalues z of spec1 inside |z| <= radius with Im z < -1e-10,
    for which both spectra must be complete in that disk (the `resonances`
    manifest reads the slice disk of `find_resonances`, the window's),
    takes the distance to the nearest spec2 point and returns its minimum
    over the points that move: a point within 10 PAIR_TOL (1 + |z|) of
    spec2 is theta-robust, a resonance whether or not the window holds
    it, and is left out. None when no point moves. A healthy run has this
    many times the pairing tolerance: the continuum sweeps while
    resonances stand still.
    """
    spec1 = np.asarray(spec1, dtype=complex)
    spec2 = np.asarray(spec2, dtype=complex)
    worst = None
    for z1 in spec1:
        if abs(z1) > radius or z1.imag >= -IM_FLOOR:
            continue
        d = float(np.min(np.abs(spec2 - z1)))
        if d <= 10.0 * PAIR_TOL * (1.0 + abs(z1)):
            continue
        if worst is None or d < worst:
            worst = d
    return worst


def _slice_radius(window: Window, tol: float) -> float:
    """The radius c + tol (1 + c), c = max|window corner|: the smallest disk
    about the origin that holds the window dilated by its pairing
    tolerance, which is everything the resonance filter reads. A window
    point z has |z| <= c, and its partner lies within tol (1 + |z|) of it.
    """
    c = max(abs(complex(re, im))
            for re in (window.re_min, window.re_max)
            for im in (window.im_min, window.im_max))
    return c + tol * (1.0 + c)


# The real fiber is counted below this multiple of the slice radius. A
# scaled continuum point can lie just inside the disk while its real level
# lies just outside (h = 0.2, m = 0, theta = 0.5, N = 256: |z| = 0.3158 <
# 0.3162 < 0.3174), and a count one short leaves Arnoldi one value beyond
# the disk, whose small margin costs the contour (829 points, not 265, at
# h = 0.2, theta = 0.6, N = 480). Over 480 sectors (disk and zero field,
# h 0.1-0.3, m in {0, +-1, 4, -6}, theta in {0.25, 0.5, 0.6, 0.7}, N 256
# and 480) the count below the radius was one short in 11; below 1.02
# radius it was never short, and at most 1 above the dense count.
COUNT_REACH = 1.02


def find_resonances(profile: FieldProfile, h: float, m_range, window: Window,
                    theta_pair: tuple[float, float], grid: RadialGrid,
                    R1: float, T0: float, tol: float = PAIR_TOL
                    ) -> ResonanceSet:
    """Theta-robust resonances over the given sectors, sorted by Re z.

    Both angles share the grid and the deformation radii. Each sector
    assembles its real 'h' fiber once, counts its eigenvalues below
    COUNT_REACH times the slice radius once (LDL^T inertia) to size both
    slices, and deforms it for both angles. Each (theta, m) solve is a
    certified spectral slice: every eigenvalue in the smallest disk about
    the origin that holds the window and its pairing tolerance
    (`_slice_radius`). The slices are kept on the result as `spectra`,
    with the disk's radius, for continuum-motion diagnostics over that
    disk and for trend fits, and their cost (`SliceWork`) as `work`. The
    filter's input checks run on an empty pair before the first slice is
    solved.
    """
    if not math.isfinite(profile.R0):
        raise ValidationError(
            "complex scaling needs a compactly supported field (finite R0)")
    t1, t2 = float(theta_pair[0]), float(theta_pair[1])
    filter_resonances((), (), tol, window, theta_pair=(t1, t2))
    sps = (scaling_profile(t1, R1, T0), scaling_profile(t2, R1, T0))
    ms = list(m_range)
    radius = _slice_radius(window, tol)

    def solve(m):
        real = assemble_fiber(profile, m, h, grid, "dirichlet_far", "h")
        count = _ldl_factors(real.diag, real.off, COUNT_REACH * radius,
                             grid.N)[0]
        return [_spectrum_slice(_deform(real, sp), radius, count)
                for sp in sps]

    slices = {(sp.theta, m): one for m, both in zip(ms, pmap(solve, ms))
              for sp, one in zip(sps, both)}
    spectra = {key: vals for key, (vals, _) in slices.items()}
    found = []
    for m in ms:
        rs = filter_resonances(spectra[(t1, m)], spectra[(t2, m)], tol,
                               window, theta_pair=(t1, t2), m=m, h=h)
        found.extend(rs.resonances)
    found.sort(key=lambda r: (r.z.real, r.z.imag))
    return ResonanceSet(resonances=tuple(found), tol=tol, window=window,
                        theta_pair=(t1, t2), h=h, spectra=spectra,
                        radius=radius,
                        work={key: w for key, (_, w) in slices.items()})
