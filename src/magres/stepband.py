"""Band function of the flat magnetic step and its spectral constants.

The 1D fiber family of a piecewise-constant field with strengths 1 (right
half-plane) and a (left half-plane) is

    h_a[xi] = -d^2/dtau^2 + (xi + b_a(tau) tau)^2,
    b_a(tau) = 1 for tau > 0, a for tau < 0,

on L^2(R). Its lowest eigenvalue mu_a(xi) is the band function; the minimum
beta_a = mu_a(zeta_a) and the derived constants

    C1(a) = (1/3) (1 - 1/a) zeta_a phi_a(0) phi_a'(0),
    C2(a) = (1/2) sqrt(mu_a''(zeta_a) C1(a)),

feed the edge-state eigenvalue expansion (module levels). The line is
truncated to [-L, L] with Dirichlet ends on a vertex grid that places tau = 0
exactly on a node, so the potential kink is represented exactly and phi(0),
phi'(0) are direct grid reads. Eigenvalues are refined by Richardson
extrapolation over (N/2, N); the scheme is second order.

Grid eigenpairs come from the radial fibers' certified inverse iteration
(`radial._inverse_iteration`, level 0), whose last shift, within 64 eps
max|T_ii| (plus 4 ulp) below the returned Rayleigh quotient mu, was
factored as positive definite: that certifies mu as the lowest level. mu
is summed in Dirichlet difference form, sum (dx)^2/h^2 + sum V x^2, free
of the 2/h^2 cancellation that biases bisection by ~1e-11. The slope
mu'(xi) = 2 sum (xi + b_a tau) x^2 is the Hellmann-Feynman derivative,
summed from the squares of the last quotient, and mu'' comes from the same
pair by second-order perturbation, one solve with the factors of the
certifying shift; both are Richardson-combined like mu, and zeta_a is the
Newton root of mu' with that curvature. A band whose end check fails at L
is solved again on a line 1.5x longer at the same step.

What does not depend on xi is built once per grid: each band value, and
each scan with the Newton search that follows it, builds a read-only
record of the N and N/2 grids (step, b_a(tau) tau, kinetic diagonal,
off-diagonal) and adds its solves to one Work, which `magres band` writes
to its manifest. A scan point's level is the Hermite extrapolation
through the levels and Hellmann-Feynman slopes of the last n <= 5 earlier
points on that grid (degree 2n - 1); a miss past WELL_MISS, where the
ground state changed wells, ends that history, and the next point, like a
scan's first, starts from the Rayleigh quotient with its first shift at
the Gershgorin floor, min(pot). Newton starts from the vector of the
scan's lowest row: its first point is interpolated from the scan points
about the minimum, each later one stepped from the last point's mu, mu'
and mu''. Where the last prediction missed by less than tol/2, the first
shift lies tol/2 below the prediction, and its one factorization both
drives the solve and certifies the level (factor, solve, solve);
elsewhere the first gap is 4x the last miss. Each solve starts from an
earlier vector plus a constant positive share: (T - sigma)^-1 is an
M-matrix, so iterates stay positive, and the share reaches wells where
that vector underflowed. The certificate is the same for any prediction,
so a poor one costs factorizations, never a wrong level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._lapack import dpttrs
from .errors import (FlatBandError, MultipleMinimaError, NumericalError,
                     TruncationError, ValidationError)
from .radial import (MAX_GRID_N, R_MAX_GROWTHS, TOL_EPS, Work,
                     _inverse_iteration)

FLAT_TOL = 1e-6  # relative band variation below which minimization is ill-posed
MAX_SCAN_STEPS = 2000  # widest band scan: a bracket of width 100


@dataclass(frozen=True)
class StepParams:
    a: float  # left field strength, in [-1, 0) or (0, 1]
    L: float = 12.0  # half-length of the truncated line
    N: int = 4800  # grid intervals on [-L, L]

    def __post_init__(self):
        if not (-1.0 <= self.a <= 1.0 and self.a != 0.0):
            raise ValidationError(
                "a must lie in [-1, 0) or (0, 1]; a = 0 has no interface")
        if not 64 <= self.N <= MAX_GRID_N or self.N % 4:
            raise ValidationError(
                f"N must lie in 64..{MAX_GRID_N} and be divisible by 4 "
                f"(tau = 0 stays on a node under grid halving)")
        if not (self.L > 0 and math.isfinite(self.L * self.L)
                and 0.0 < self.step ** 2 and 2.0 / self.step ** 2 < math.inf):
            raise ValidationError("L must be positive, with L^2 and the "
                                  "grid's 1/step^2 finite")

    @property
    def step(self) -> float:
        return 2.0 * self.L / self.N

    def tau(self) -> np.ndarray:
        """Interior vertex nodes -L + j*step, j = 1..N-1 (Dirichlet ends)."""
        return -self.L + self.step * np.arange(1, self.N)


@dataclass(frozen=True, eq=False)
class BandSample:
    xi: float
    mu: float  # lowest eigenvalue, Richardson-refined
    eigenfunction: np.ndarray = field(repr=False)  # on tau(), unit L2, phi(0) > 0
    tau: np.ndarray = field(repr=False)
    params: StepParams


class _StepGrid:
    """The xi-independent half of h_a[xi] on the N-interval grid: the
    step, b_a(tau) tau, the kinetic diagonal 2/step^2 and the
    off-diagonal, all read-only, with the buffers of the band's quadratic
    form (differences across the N cells, squares at the N - 1 nodes), the
    start share and the Work that its solves add to. Each band value, and
    each scan with its Newton search, builds its own pair (`_grids`);
    none is kept."""

    def __init__(self, params: StepParams, N: int, work: Work | None = None):
        self.N, self.work = N, Work() if work is None else work
        self.step = 2.0 * params.L / N
        self.step2 = self.step ** 2
        tau = -params.L + self.step * np.arange(1, N)
        self.kinetic = 2.0 / self.step2
        self.b_tau = np.where(tau > 0, 1.0, params.a) * tau
        self.off = np.full(N - 2, -1.0 / self.step2)
        self.b_tau.flags.writeable = self.off.flags.writeable = False
        self.dv, self.sq = np.empty(N), np.empty(N - 1)
        self.share = 1e-3 / math.sqrt(N - 1)  # 1e-3 of a unit start, in l2


def _grids(params: StepParams, work: Work | None = None) -> tuple:
    """Records of the N and N/2 grids, adding to one Work."""
    return _StepGrid(params, params.N, work), \
        _StepGrid(params, params.N // 2, work)


class _Pair(NamedTuple):
    """One grid's lowest eigenpair of h_a[xi], from `_ground`."""

    mu: float
    x: np.ndarray  # unit l2, positive
    arm: np.ndarray  # xi + b_a(tau) tau
    slope: float  # Hellmann-Feynman mu' = 2 sum arm x^2
    tol: float  # TOL_EPS max|T_ii| of the operator
    shift: float  # the certifying shift, within tol + 4 ulp below mu
    factors: tuple  # its positive-definite `_ldl_factors`


def _ground(grid: _StepGrid, xi: float, start=None, guess=None) -> _Pair:
    """Lowest eigenpair of h_a[xi] on the grid of the record; start is any
    earlier vector on this grid. The pair is `radial._inverse_iteration`'s
    level 0, with the band's own quadratic form, from guess = (estimate,
    first gap), or else from the Rayleigh quotient of the start and a
    first shift at the Gershgorin floor (gap inf), min(pot) up to
    rounding. (T - sigma)^-1 is entrywise positive (an M-matrix), so
    iterates stay positive, and a start from an earlier point gets the
    constant positive share of the record: it reaches wells where that
    vector underflowed to zero. The slope reuses the squares of the last
    quotient."""
    arm = xi + grid.b_tau
    pot = arm * arm
    diag = grid.kinetic + pot
    tol = TOL_EPS * float(diag.max())
    dv, sq, step2, norm2 = grid.dv, grid.sq, grid.step2, 1.0

    def rayleigh(v: np.ndarray, v2: float) -> float:
        nonlocal norm2
        dv[0] = v[0]
        np.subtract(v[1:], v[:-1], out=dv[1:-1])
        dv[-1] = -v[-1]
        np.multiply(v, v, out=sq)
        norm2 = v2
        return float((dv @ dv / step2 + pot @ sq) / v2)

    if start is None:
        x = np.exp(-0.5 * (pot - pot.min()))
    else:
        x = np.abs(start)
        x += grid.share
    mu, gap = (rayleigh(x, x @ x), math.inf) if guess is None else guess
    mu, x, shift, factors = _inverse_iteration(
        diag, grid.off, tol, rayleigh, x, mu, gap, (), grid.work,
        f"xi = {xi} (N = {grid.N})")
    return _Pair(mu, x, arm, 2.0 * float(arm @ sq) / norm2, tol, shift,
                 factors)


# Hermite extrapolation of degree 2n - 1 to the next of equally spaced
# points from the last n, oldest first, n = 1..5: weights on the levels
# mu, and on the slopes mu' times the step
_WEIGHTS = (
    ((1.0,), (1.0,)),
    ((5.0, -4.0), (2.0, 4.0)),
    ((10.0, 9.0, -18.0), (3.0, 18.0, 9.0)),
    ((47.0 / 3.0, 64.0, -36.0, -128.0 / 3.0), (4.0, 48.0, 72.0, 16.0)),
    ((131.0 / 6.0, 575.0 / 3.0, 100.0, -700.0 / 3.0, -475.0 / 6.0),
     (5.0, 100.0, 300.0, 200.0, 25.0)),
)
WELL_MISS = 1e-3  # a miss past which the ground state changed wells


def _predicted(points: list, step: float) -> float | None:
    """The level at the scan point step past the last of points, one
    grid's (mu, mu') of the earlier points, oldest first: the Hermite
    extrapolation through the last five, or through all of fewer, exact
    for equal steps. None without points."""
    if not points:
        return None
    levels, slopes = _WEIGHTS[min(len(points), 5) - 1]
    return sum(w * mu + v * step * slope for w, v, (mu, slope)
               in zip(levels, slopes, points[-5:]))


class _Track:
    """One grid's record of a scan: the last point's xi, each point's
    (mu, mu'), the first point of the history that predicts the next, and
    the first gap for the next point. That gap is tol/2 (tol of
    `_inverse_iteration`) where the last prediction missed by less than
    tol/2, so that one factorization both drives the solve and certifies
    the level; 4x the last miss, at most 1e-2, elsewhere; 1e-2 before the
    first prediction. A prediction from two or more points that misses by
    more than WELL_MISS means the ground state changed wells (one point
    predicts only to mu'' step^2 / 2, about 1e-3 at the scan step): the
    history ends, and the next point has no prediction."""

    def __init__(self):
        self.xi, self.points, self.since, self.gap = None, [], 0, 1e-2

    def guess(self, xi: float) -> tuple | None:
        """(estimate, first gap) of the level at xi, or None."""
        level = (None if self.xi is None
                 else _predicted(self.points[self.since:], xi - self.xi))
        return None if level is None else (level, self.gap)

    def add(self, xi: float, guess, pair: _Pair) -> None:
        """Record the point at xi, solved from guess to pair."""
        history = len(self.points) - self.since  # points guess came from
        self.xi = xi
        self.points.append((pair.mu, pair.slope))
        if guess is None:
            return
        miss = abs(pair.mu - guess[0])
        if miss > WELL_MISS and history > 1:
            self.since = len(self.points)
        self.gap = (0.5 * pair.tol if miss < 0.5 * pair.tol
                    else min(4.0 * miss, 1e-2))


def _refined(grids: tuple, xi: float, start=None, guesses=(None, None)
             ) -> tuple[float, float, tuple]:
    """(mu, mu') at xi, Richardson-refined over (N/2, N), and each grid's
    `_Pair`, the N grid first; the N/2 solve starts from the N-grid x.
    grids is the pair of `_grids`, guesses each grid's guess of
    `_ground`."""
    solved = []
    for grid, guess in zip(grids, guesses):
        solved.append(_ground(grid, xi, start, guess))
        start = solved[-1].x[1::2]
    fine, coarse = solved
    return (4.0 * fine.mu - coarse.mu) / 3.0, \
        (4.0 * fine.slope - coarse.slope) / 3.0, tuple(solved)


def _grid_curvature(grid: _StepGrid, pair: _Pair) -> float:
    """mu''(xi) on the grid of the record from its `_Pair` at xi, by
    second-order perturbation (Kato, Perturbation Theory for Linear
    Operators, II.2). dT/dxi = 2 diag(arm) and d^2T/dxi^2 = 2, so mu'' =
    2 - 8 <f, R(mu) f>, with f = arm x and x projected out, and R the
    reduced resolvent. g = R(sigma) f is one solve with the pair's
    positive-definite factors of T - sigma, its certifying shift sigma
    within tol (plus 4 ulp) below mu, and R(mu) f = g + (mu - sigma) R g
    to first order, so <f, R(mu) f> = <f, g> + (mu - sigma) <g, g>. The
    solve goes into the grid's Work."""
    x = pair.x
    f = pair.arm * x
    f -= (f @ x) * x
    grid.work.solves += 1
    # f is orthogonal to x, so the solve's x component adds nothing
    g = dpttrs(*pair.factors, f)[0]
    return 2.0 - 8.0 * float(f @ g + (pair.mu - pair.shift) * (g @ g))


def _curvature(grids: tuple, solved: tuple) -> tuple[float, tuple]:
    """(mu''(xi), each grid's mu''): `_grid_curvature` on each grid from
    its `_Pair` of `_refined` at xi, and their Richardson combination over
    (N/2, N). A result not above 1e-6 is an error: the minimum is
    degenerate, or the grid too coarse."""
    fine, coarse = each = tuple(_grid_curvature(grid, pair)
                                for grid, pair in zip(grids, solved))
    curv = (4.0 * fine - coarse) / 3.0
    if not curv > 1e-6:
        raise NumericalError(f"band curvature {curv:.3g} is not above 1e-6; "
                             f"minimum degenerate or resolution insufficient")
    return curv, each


def _sample(params: StepParams, xi: float, mu: float, x: np.ndarray
            ) -> BandSample:
    """BandSample of a refined mu and N-grid vector x, after the checks."""
    ends = min((xi - params.a * params.L) ** 2, (xi + params.L) ** 2)
    if ends < mu + 10.0:
        raise TruncationError(
            f"end potential {ends:.3g} at xi = {xi:.4g} is below "
            f"mu + 10 = {mu + 10.0:.3g}; enlarge L")
    phi = x / math.sqrt(params.step)  # sum phi^2 step = 1
    if not phi[params.N // 2 - 1] > 0:  # tau = 0
        raise NumericalError(f"ground state vanishes at tau = 0 (xi = {xi})")
    return BandSample(xi=xi, mu=mu, eigenfunction=phi, tau=params.tau(),
                      params=params)


def band_value(params: StepParams, xi: float) -> BandSample:
    """Lowest eigenpair of h_a[xi] on the truncated line: refined mu and
    the positive N-grid ground state of unit discrete L^2 norm."""
    if not math.isfinite(xi):
        raise ValidationError("xi must be finite")
    mu, _, solved = _refined(_grids(params), xi)
    return _sample(params, xi, mu, solved[0].x)


def _scan(grids: tuple, xi_values) -> tuple[list, list, tuple, np.ndarray]:
    """(rows, errors, tracks, x) of a scan on the records of `_grids`: the
    (xi, mu) rows of `band_table`, each row's certified error, each grid's
    `_Track`, and the N-grid vector of the lowest row. A grid's mu lies
    within its `_Pair.tol` above that grid's level, so a row, (4 mu_N -
    mu_N/2) / 3, lies within (4 tol_N + tol_N/2) / 3 of its refined
    level."""
    rows, errors, x = [], [], None
    tracks, lowest = (_Track(), _Track()), (math.inf,)
    for xi in map(float, xi_values):
        guesses = [track.guess(xi) for track in tracks]
        mu, _, solved = _refined(grids, xi, x, guesses)
        for track, guess, pair in zip(tracks, guesses, solved):
            track.add(xi, guess, pair)
        rows.append((xi, mu))
        errors.append((4.0 * solved[0].tol + solved[1].tol) / 3.0)
        x = solved[0].x
        if mu < lowest[0]:
            lowest = mu, x
    return rows, errors, tracks, lowest[-1]


def band_table(params: StepParams, xi_values, work: Work | None = None
               ) -> list[tuple[float, float]]:
    """(xi, mu) rows over xi_values; raw refined values, no end checks.
    Each point's solve starts from the previous point's ground state and,
    on each grid, from the level `_predicted` from the levels and
    Hellmann-Feynman slopes of up to five earlier points (exact weights
    for equally spaced points; other spacings cost factorizations, not
    accuracy), with a first gap sized by how well the last prediction did
    (`_Track`). work, when given, gains the scan's factorizations and
    solves."""
    return _scan(_grids(params, work), xi_values)[0]


def _hermite(nodes, points, t: float) -> float:
    """The value at t of the polynomial of degree 2n - 1 through one
    grid's (mu, mu') points at the n distinct nodes: Newton's divided
    differences on the doubled nodes."""
    z = [node for node in nodes for _ in (0, 1)]
    column = [mu for mu, _ in points for _ in (0, 1)]
    coefs = [column[0]]
    for k in range(1, len(z)):
        column = [points[i // 2][1] if z[i + k] == z[i] else
                  (column[i + 1] - column[i]) / (z[i + k] - z[i])
                  for i in range(len(column) - 1)]
        coefs.append(column[0])
    value = coefs[-1]
    for k in range(len(z) - 2, -1, -1):
        value = value * (t - z[k]) + coefs[k]
    return value


def _band_minimum(params: StepParams, xi_bracket, work: Work | None = None
                  ) -> tuple[list, float, float, BandSample]:
    """(scan rows, zeta_a, mu''(zeta_a), end-checked band sample at
    zeta_a); work gains the factorizations and solves. Newton runs on the
    scan's grid records and starts from its lowest row's vector. Each
    grid's level at the first Newton point is the `_hermite`
    interpolation through the scan's (mu, mu') at the three points about
    the minimum; at each later point, the Taylor step from the last
    point's mu, mu' and mu''. Its first shift lies tol/2 below that.
    zeta_a takes the last Newton step -mu'/mu'' without a solve, so mu''
    and the sample are the last solve's (its mu exceeds beta_a by mu''
    step^2 / 2 < 1e-20)."""
    lo, hi = float(xi_bracket[0]), float(xi_bracket[1])
    span = hi - lo
    n_scan = round(span / 0.05) if math.isfinite(span / 0.05) else 0
    if not 2 <= n_scan <= MAX_SCAN_STEPS:
        raise ValidationError(
            f"xi_bracket must be a finite increasing interval of 2 to "
            f"{MAX_SCAN_STEPS} scan steps of 0.05")
    grids = _grids(params, work)
    table, errors, tracks, x = _scan(
        grids, [lo + span * i / n_scan for i in range(n_scan + 1)])
    xs = [xi for xi, _ in table]
    mus = np.array([mu for _, mu in table])
    mu_span = mus.max() - mus.min()
    if mu_span < FLAT_TOL * (1.0 + abs(float(mus.mean()))):
        raise FlatBandError(
            f"band is flat within tolerance over [{lo}, {hi}] "
            f"(variation {mu_span:.3g}); minimizer is ill-posed")
    # a minimum lies below both neighbours by more than the rows' errors
    upper, lower = mus + errors, mus - errors
    interior = [i for i in range(1, n_scan)
                if upper[i] < lower[i - 1] and upper[i] < lower[i + 1]]
    if len(interior) > 1:
        cands = ", ".join(f"xi={xs[i]:.4g} (mu={mus[i]:.8g})" for i in interior)
        raise MultipleMinimaError(
            f"multiple local minima in the scan: {cands}")
    if not interior:
        i = int(np.argmin(mus))
        if 0 < i < n_scan:
            raise NumericalError(
                f"the scan minimum at xi = {xs[i]:.4g} lies below its "
                f"neighbours by no more than the rows' certified error "
                f"({errors[i]:.3g}); minimum too shallow for this grid")
        raise ValidationError(
            "no interior minimum in the bracket; the scan minimum sits at an "
            "endpoint, widen xi_bracket")
    i = interior[0]  # Newton starts from the vertex of the scan parabola
    (m0, m1, m2), dxi = mus[i - 1:i + 2], xs[i + 1] - xs[i]
    z = xs[i] + 0.5 * dxi * (m0 - m2) / (m0 - 2.0 * m1 + m2)
    guesses = [(_hermite(xs[i - 1:i + 2], track.points[i - 1:i + 2], z), 0.0)
               for track in tracks]
    for _ in range(20):
        if not xs[i - 1] <= z <= xs[i + 1]:
            raise NumericalError(f"Newton on the band slope left the scan "
                                 f"cell of its minimum at xi = {z:.6g}")
        mu, slope, solved = _refined(grids, z, x, guesses)
        curv, each = _curvature(grids, solved)
        step = -slope / curv
        guesses = [(pair.mu + step * (pair.slope + 0.5 * step * c), 0.0)
                   for pair, c in zip(solved, each)]
        x, z = solved[0].x, z + step
        if abs(step) <= 1e-10:
            break
    if abs(slope) >= 1e-8:
        raise NumericalError(
            f"band slope {slope:.3g} at the refined minimizer exceeds 1e-8")
    return table, z, curv, _sample(params, z, mu, x)


def minimize_band(params: StepParams, xi_bracket=(-4.0, 1.0)
                  ) -> tuple[float, float]:
    """Minimizer and minimum (zeta_a, beta_a) of the band function, by
    `analyze_band`, so a line too short for the end check grows.

    Coarse scan at step 0.05, then Newton on the slope mu', stepping with
    the curvature mu'' of `_curvature`, from the vertex of the parabola
    through the unique interior scan minimum and its neighbours, until the
    step is below 1e-10, which is taken too; the last slope read must lie
    below 1e-8. A scan minimum is a row below both neighbours by more than
    the rows' certified errors (`_scan`), so a plateau's rounding makes
    none. A flat band (relative variation below FLAT_TOL), multiple scan
    minima, and an interior lowest row that is no such minimum are hard
    errors: picking a candidate would corrupt every downstream constant.
    """
    return analyze_band(params, xi_bracket)[1:3]


@dataclass(frozen=True)
class SpectralConstants:
    a: float
    beta: float  # band minimum beta_a
    zeta: float  # minimizer zeta_a < 0
    mu2: float  # mu_a''(zeta_a) > 0
    phi0: float  # phi_a(0)
    phi0p: float  # phi_a'(0)
    C1: float
    C2: float
    L: float
    N: int


def analyze_band(params: StepParams, xi_bracket=(-4.0, 1.0),
                 work: Work | None = None
                 ) -> tuple[list, float, float, SpectralConstants | None,
                            StepParams]:
    """(scan rows, zeta_a, beta_a, constants, params used) of the band in
    one pass.

    One scan feeds both the table and the minimum search inside xi_bracket
    (see minimize_band); zeta_a gives the end check, and the last Newton
    solve beta, mu'', phi(0) and phi'(0). While the end check fails, the
    line grows 1.5x at the same step 2L/N (N rounded up to a multiple of
    4), at most R_MAX_GROWTHS times and within MAX_GRID_N; a band that
    holds at params keeps them. constants is None unless a lies in (-1, 0).
    C1 = (1/3)(1 - 1/a) zeta phi(0) phi'(0) must come out positive; a
    non-positive value is a sign-convention bug and a hard error. C2 =
    (1/2) sqrt(mu'' C1) exactly. work, when given, gains every
    factorization and solve, of longer lines too.
    """
    for growth in range(R_MAX_GROWTHS + 1):
        try:
            table, zeta, mu2, sample = _band_minimum(params, xi_bracket, work)
            break
        except TruncationError as exc:
            n = 4 * math.ceil(0.375 * params.N)  # 1.5 N, a multiple of 4
            if growth == R_MAX_GROWTHS or n > MAX_GRID_N:
                raise TruncationError(
                    f"{exc} (done up to L = {params.L:.6g}, N = "
                    f"{params.N}, the cap of this band)") from None
            params = StepParams(a=params.a, L=0.5 * n * params.step, N=n)
    if not (-1.0 < params.a < 0.0):
        return table, zeta, sample.mu, None, params
    i0 = params.N // 2 - 1
    phi0 = float(sample.eigenfunction[i0])
    phi0p = float(sample.eigenfunction[i0 + 1]
                  - sample.eigenfunction[i0 - 1]) / (2.0 * params.step)
    C1 = (1.0 / 3.0) * (1.0 - 1.0 / params.a) * zeta * phi0 * phi0p
    if C1 <= 0:
        raise NumericalError(
            f"C1 = {C1:.3g} <= 0 for a = {params.a}; sign convention violated")
    C2 = 0.5 * math.sqrt(mu2 * C1)
    return table, zeta, sample.mu, SpectralConstants(
        a=params.a, beta=sample.mu, zeta=zeta, mu2=mu2, phi0=phi0,
        phi0p=phi0p, C1=C1, C2=C2, L=params.L, N=params.N), params


def spectral_constants(params: StepParams) -> SpectralConstants:
    """Assemble (beta, zeta, mu'', phi(0), phi'(0), C1, C2) for a in (-1, 0),
    minimizing over the default bracket (-4, 1) (see analyze_band)."""
    if not (-1.0 < params.a < 0.0):
        raise ValidationError("spectral constants require a in (-1, 0)")
    return analyze_band(params)[3]
