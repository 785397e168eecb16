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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

from ._parallel import pmap
from .errors import (FlatBandError, MultipleMinimaError, NumericalError,
                     TruncationError, ValidationError)

FLAT_TOL = 1e-6  # relative band variation below which minimization is ill-posed


@dataclass(frozen=True)
class StepParams:
    a: float  # left field strength, in [-1, 1]
    L: float = 12.0  # half-length of the truncated line
    N: int = 4800  # grid intervals on [-L, L]
    validation_mode: bool = False  # admit a = -1 and a in (0, 1]

    def __post_init__(self):
        if not (math.isfinite(self.a) and -1.0 <= self.a <= 1.0):
            raise ValidationError("a must lie in [-1, 1]")
        if not (-1.0 < self.a < 0.0):
            if not self.validation_mode:
                raise ValidationError(
                    f"a = {self.a} is outside (-1, 0); pass "
                    f"validation_mode=True to study this regime")
            if not (self.a == -1.0 or 0.0 < self.a <= 1.0):
                raise ValidationError(
                    "validation mode admits only a = -1 or a in (0, 1]")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValidationError("L must be positive and finite")
        if self.N < 64 or self.N % 4:
            raise ValidationError(
                "N must be >= 64 and divisible by 4 (tau = 0 stays on a node "
                "under grid halving)")

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


def _potential(a: float, xi: float, tau: np.ndarray) -> np.ndarray:
    b = np.where(tau > 0, 1.0, a)
    return (xi + b * tau) ** 2


def _tridiagonal(params: StepParams, xi: float, N: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, diag, off) of h_a[xi] on the N-interval grid."""
    step = 2.0 * params.L / N
    tau = -params.L + step * np.arange(1, N)
    diag = 2.0 / step ** 2 + _potential(params.a, xi, tau)
    off = np.full(N - 2, -1.0 / step ** 2)
    return tau, diag, off


def _mu_raw(params: StepParams, xi: float, N: int) -> float:
    """Lowest eigenvalue on the N-interval grid, no end check, no vector."""
    _, diag, off = _tridiagonal(params, xi, N)
    vals = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                eigvals_only=True)
    return float(vals[0])


def _mu_refined(params: StepParams, xi: float) -> float:
    mu_n = _mu_raw(params, xi, params.N)
    mu_h = _mu_raw(params, xi, params.N // 2)
    return (4.0 * mu_n - mu_h) / 3.0


def _check_ends(params: StepParams, xi: float, mu: float) -> None:
    left = (xi + params.a * (-params.L)) ** 2
    right = (xi + params.L) ** 2
    if min(left, right) < mu + 10.0:
        raise TruncationError(
            f"end potential {min(left, right):.3g} at xi = {xi:.4g} is below "
            f"mu + 10 = {mu + 10.0:.3g}; enlarge L")


def band_value(params: StepParams, xi: float) -> BandSample:
    """Lowest eigenpair of h_a[xi] on the truncated line.

    mu is Richardson-refined over (N/2, N); the eigenfunction is the N-grid
    ground state, unit-normalized in the discrete L^2 norm and sign-fixed so
    phi(0) > 0.
    """
    if not math.isfinite(xi):
        raise ValidationError("xi must be finite")
    tau, diag, off = _tridiagonal(params, xi, params.N)
    try:
        vals, vecs = sla.eigh_tridiagonal(diag, off, select="i",
                                          select_range=(0, 0))
    except Exception as exc:
        raise NumericalError(f"band eigensolve failed at xi={xi}: {exc}") from exc
    mu = (4.0 * float(vals[0]) - _mu_raw(params, xi, params.N // 2)) / 3.0
    _check_ends(params, xi, mu)
    phi = vecs[:, 0] / math.sqrt(params.step)  # sum phi^2 step = 1
    i0 = params.N // 2 - 1  # index of tau = 0
    if phi[int(np.argmax(np.abs(phi)))] < 0:
        phi = -phi
    if phi[i0] <= 0:
        raise NumericalError(
            f"ground state vanishes or changes sign at tau = 0 (xi = {xi}); "
            f"sign convention unrealizable")
    if mu <= 0:
        raise NumericalError(f"nonpositive band value {mu} at xi = {xi}")
    return BandSample(xi=xi, mu=mu, eigenfunction=phi, tau=tau, params=params)


def band_table(params: StepParams, xi_values) -> list[tuple[float, float]]:
    """(xi, mu) rows over xi_values; raw refined values, no end checks."""
    xs = [float(x) for x in xi_values]
    mus = pmap(lambda x: _mu_refined(params, x), xs)
    return list(zip(xs, mus))


def _band_minimum(params: StepParams, xi_bracket
                  ) -> tuple[list, float, BandSample]:
    """(scan rows, zeta_a, band_value at zeta_a); see minimize_band. The
    band_value solve also checks the line ends at the minimizer."""
    lo, hi = float(xi_bracket[0]), float(xi_bracket[1])
    span = hi - lo
    n_scan = round(span / 0.05) if math.isfinite(span / 0.05) else 0
    if n_scan < 2:
        raise ValidationError("xi_bracket must be a finite increasing "
                              "interval of at least two scan steps (0.1)")
    table = band_table(params,
                       [lo + span * i / n_scan for i in range(n_scan + 1)])
    xs = [xi for xi, _ in table]
    mus = np.array([mu for _, mu in table])
    mu_span = mus.max() - mus.min()
    if mu_span < FLAT_TOL * (1.0 + abs(float(mus.mean()))):
        raise FlatBandError(
            f"band is flat within tolerance over [{lo}, {hi}] "
            f"(variation {mu_span:.3g}); minimizer is ill-posed")
    interior = [i for i in range(1, n_scan)
                if mus[i] < mus[i - 1] and mus[i] < mus[i + 1]]
    if len(interior) > 1:
        cands = ", ".join(f"xi={xs[i]:.4g} (mu={mus[i]:.8g})" for i in interior)
        raise MultipleMinimaError(
            f"multiple local minima in the scan: {cands}")
    if not interior:
        raise ValidationError(
            "no interior minimum in the bracket; the scan minimum sits at an "
            "endpoint, widen xi_bracket")
    i = interior[0]
    res = minimize_scalar(lambda x: _mu_refined(params, x),
                          bounds=(xs[i - 1], xs[i + 1]),
                          method="bounded", options={"xatol": 1e-10})
    zeta, slope = _quartic_polish(params, float(res.x))
    if abs(slope) >= 1e-8:
        raise NumericalError(
            f"band slope {slope:.3g} at the refined minimizer exceeds 1e-8")
    return table, zeta, band_value(params, zeta)


def minimize_band(params: StepParams, xi_bracket=(-4.0, 1.0)
                  ) -> tuple[float, float]:
    """Minimizer and minimum (zeta_a, beta_a) of the band function.

    Coarse scan at step 0.05, then bounded parabolic refinement around the
    unique interior scan minimum, then a local least-squares quartic polish
    whose model slope must drop below 1e-8. A flat band (relative variation
    below FLAT_TOL) and multiple scan minima are both hard errors: the
    minimization problem is ill-posed, and silently picking a candidate
    would corrupt every downstream constant.
    """
    _, zeta, sample = _band_minimum(params, xi_bracket)
    return zeta, sample.mu


def _quartic_polish(params: StepParams, zeta0: float,
                    half_width: float = 0.01) -> tuple[float, float]:
    """Minimizer of a local least-squares quartic model of the band.

    Pointwise difference quotients of mu bottom out at the eigensolver
    roundoff (~1e-11) divided by the step, which cannot certify a slope
    below 1e-8. Fitting 21 samples across a +-0.01 window averages that
    noise to ~1e-9 on the model slope, so the certificate is meaningful.
    Returns (zeta, band slope at zeta as measured by the model).
    """
    ts = np.linspace(-1.0, 1.0, 21)
    xs = [zeta0 + half_width * float(t) for t in ts]
    mus = np.array(pmap(lambda x: _mu_refined(params, x), xs))
    poly = np.polynomial.Polynomial.fit(ts, mus, 4, domain=[-1, 1])
    dpoly = poly.deriv()
    d2poly = dpoly.deriv()
    z = 0.0
    for _ in range(60):
        curv = d2poly(z)
        if curv <= 0:
            break
        step = dpoly(z) / curv
        z -= step
        if abs(step) < 1e-15:
            break
    if abs(z) > 1.0:
        raise NumericalError(
            "local band model has no interior minimum; refinement bracket "
            "or resolution is wrong")
    return zeta0 + half_width * z, float(dpoly(z)) / half_width


def band_second_derivative(params: StepParams, zeta: float) -> float:
    """mu_a''(zeta) by centered second differences, Richardson-combined
    over steps 1e-2 and 5e-3. Errors on a non-positive (or vanishing)
    result: the band minimum is non-degenerate for a in (-1, 0), so such
    a value means the input zeta or the resolution is wrong."""
    mu0 = _mu_refined(params, zeta)

    def second(s: float) -> float:
        return (_mu_refined(params, zeta + s) - 2.0 * mu0
                + _mu_refined(params, zeta - s)) / (s * s)

    d_big = second(1e-2)
    d_small = second(5e-3)
    out = (4.0 * d_small - d_big) / 3.0
    if out <= 1e-6:
        raise NumericalError(
            f"band second derivative {out:.3g} at zeta = {zeta:.6g} is not "
            f"positive; minimum degenerate or resolution insufficient")
    return out


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


def analyze_band(params: StepParams, xi_bracket=(-4.0, 1.0)
                 ) -> tuple[list, float, float, SpectralConstants | None]:
    """(scan rows, zeta_a, beta_a, constants) of the band in one pass.

    One scan feeds both the table and the minimum search inside xi_bracket
    (see minimize_band); one band_value solve at zeta_a gives the end check,
    beta, phi(0) and phi'(0). constants is None unless a lies in (-1, 0).
    C1 = (1/3)(1 - 1/a) zeta phi(0) phi'(0) must come out positive; a
    non-positive value is a sign-convention bug and a hard error.
    C2 = (1/2) sqrt(mu'' C1) holds exactly by construction.
    """
    table, zeta, sample = _band_minimum(params, xi_bracket)
    if not (-1.0 < params.a < 0.0):
        return table, zeta, sample.mu, None
    mu2 = band_second_derivative(params, zeta)
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
        phi0p=phi0p, C1=C1, C2=C2, L=params.L, N=params.N)


def spectral_constants(params: StepParams) -> SpectralConstants:
    """Assemble (beta, zeta, mu'', phi(0), phi'(0), C1, C2) for a in (-1, 0),
    minimizing over the default bracket (-4, 1) (see analyze_band)."""
    if not (-1.0 < params.a < 0.0):
        raise ValidationError("spectral constants require a in (-1, 0)")
    return analyze_band(params)[3]
