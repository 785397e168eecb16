"""Independent numerical oracles used to freeze expected values.

Everything here deliberately avoids the package's own discretization:
Bessel zeros come from a power series plus bisection (not scipy.special),
the half-line band oracle uses a node-centered ghost-point scheme (not the
package's staggered face scheme), the step band reference keeps the
package's grid but solves it with LAPACK's MRRR routine instead of the
package's inverse iteration (its curvature sums over every dense
eigenpair, not one reduced-resolvent solve), the radial fiber reference
keeps the package's grid and float64 potential but assembles the matrix
in long double and solves it by Sturm multisection, normalization checks
go through adaptive quadrature of the closed-form integrand, the island
references come from a matched boundary-layer model (Robin disk plus the
parabolic cylinder profile), not from any radial solve, and the phase of
det(T - z) sums the angle of every continuant pivot in long double (the
package multiplies the pivots in blocks in float64).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.special import pbdv


def bessel_j(nu: int, x: float, terms: int = 80) -> float:
    """J_nu(x) by the ascending power series; fine for x <= 20."""
    acc = []
    for j in range(terms):
        sign = -1.0 if j % 2 else 1.0
        log_mag = ((2 * j + nu) * math.log(x / 2.0)
                   - math.lgamma(j + 1) - math.lgamma(j + nu + 1))
        acc.append(sign * math.exp(log_mag))
    return math.fsum(acc)


def bessel_j_zero(nu: int, k: int) -> float:
    """k-th positive zero of J_nu by scan plus bisection."""
    xs = np.arange(0.5, 40.0, 0.1)
    vals = [bessel_j(nu, float(x)) for x in xs]
    found = 0
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            continue
        if vals[i] * vals[i + 1] < 0:
            found += 1
            if found == k:
                lo, hi = float(xs[i]), float(xs[i + 1])
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if bessel_j(nu, lo) * bessel_j(nu, mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi)
    raise RuntimeError(f"zero {k} of J_{nu} not found in scan range")


def half_line_neumann_mu(xi: float, T: float = 12.0, N: int = 4000) -> float:
    """Lowest eigenvalue of -u'' + (t - xi)^2 u on [0, T], Neumann at 0,
    Dirichlet at T; node-centered ghost-point scheme, Richardson refined.
    """

    def plain(n: int) -> float:
        h = T / n
        t = h * np.arange(n)  # t_0 = 0 .. t_{n-1}; Dirichlet at t_n = T
        diag = 2.0 / h ** 2 + (t - xi) ** 2
        off = np.full(n - 1, -1.0 / h ** 2)
        # ghost point u_{-1} = u_1 makes row 0 carry -2/h^2; symmetrize by
        # scaling the first coordinate with 1/sqrt(2)
        off = off.copy()
        off[0] = -math.sqrt(2.0) / h ** 2
        return float(sla.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 0),
            eigvals_only=True)[0])

    lam_n = plain(N)
    lam_h = plain(N // 2)
    return (4.0 * lam_n - lam_h) / 3.0


def step_band_mu(a: float, xi: float, L: float = 12.0, N: int = 4800
                 ) -> float:
    """Lowest eigenvalue of -u'' + (xi + b(t) t)^2 u, b = 1 for t > 0 and a
    for t < 0, on the package's vertex grid over [-L, L] with Dirichlet
    ends, Richardson refined over (N/2, N). The discretization is the
    package's on purpose; the eigensolver is LAPACK's MRRR routine (stemr),
    not the package's inverse iteration. Bisection (stebz) is no reference
    here: its Sturm counts carry the 2/h^2 cancellation and miss by up to
    5e-12 at N = 4800 even at the tightest tolerance. scipy's stemr
    wrapper allocates an n x n eigenvector array even for eigenvalues only
    (184 MB and about 0.1 s per solve at n = 4800), so keep N moderate.
    """

    def plain(n: int) -> float:
        h = 2.0 * L / n
        t = -L + h * np.arange(1, n)
        diag = 2.0 / h ** 2 + (xi + np.where(t > 0, 1.0, a) * t) ** 2
        off = np.full(n - 2, -1.0 / h ** 2)
        return float(sla.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 0), eigvals_only=True,
            lapack_driver="stemr")[0])

    return (4.0 * plain(N) - plain(N // 2)) / 3.0


def step_band_curvature(a: float, xi: float, L: float = 12.0, N: int = 1600
                        ) -> float:
    """mu''(xi) of the lowest eigenvalue of the package's vertex grid
    operator for -u'' + (xi + b(t) t)^2 u (as in step_band_mu, one grid,
    not Richardson refined) by the sum over states of second-order
    perturbation: with dT/dxi = 2 diag(arm) and d^2T/dxi^2 = 2,

        mu'' = 2 - 8 sum_{k > 0} <v_k, arm v_0>^2 / (lam_k - lam_0),

    every eigenpair from LAPACK's dense tridiagonal solver, not from the
    package's factor-and-solve of the reduced resolvent. The full
    eigenvector matrix takes 8 N^2 bytes (20 MB at N = 1600).
    """
    h = 2.0 * L / N
    t = -L + h * np.arange(1, N)
    arm = xi + np.where(t > 0, 1.0, a) * t
    vals, vecs = sla.eigh_tridiagonal(2.0 / h ** 2 + arm ** 2,
                                      np.full(N - 2, -1.0 / h ** 2))
    overlap = vecs[:, 1:].T @ (arm * vecs[:, 0])
    return 2.0 - 8.0 * float(np.sum(overlap ** 2 / (vals[1:] - vals[0])))


def _sturm_counts(diag, off2, shifts):
    """Eigenvalues of the symmetric tridiagonal (diag, off^2 = off2) below
    each shift, by the LDL^T (Sturm) recurrence, vectorized over shifts."""
    q = diag[0] - shifts
    count = (q < 0).astype(int)
    tiny = np.finfo(diag.dtype).tiny
    for a, b2 in zip(diag[1:], off2):
        q = np.where(q == 0, tiny, q)
        q = (a - shifts) - b2 / q
        count += q < 0
    return count


def det_phase_per_pivot(diag, off, z) -> np.ndarray:
    """arg det(T - z) for the complex-symmetric tridiagonal T = (diag,
    off), up to multiples of 2 pi: the sum of the angles of the pivots
    q_k = (d_k - z) - o_{k-1}^2 / q_{k-1}, one pivot at a time, in complex
    long double."""
    z = np.asarray(z, dtype=np.clongdouble)
    q = np.clongdouble(diag[0]) - z
    phase = np.angle(q)
    for d, o in zip(diag[1:], off):
        o = np.clongdouble(o)
        q = (np.clongdouble(d) - z) - o * o / q
        phase = phase + np.angle(q)
    return phase.astype(float)


def fiber_levels_longdouble(r_max: float, N: int, potential, kin: float,
                            far: float, k: int, sweeps: int = 12) -> list:
    """The k lowest eigenvalues of the radial fiber matrix on the staggered
    grid r_j = (j + 1/2) dr, faces F_i = i dr, assembled in np.longdouble
    from the float64 potential V(r_j) (`potential`, N values), the kinetic
    weight kin (1 or h^2) and the far-face weight far (2 for a Dirichlet
    end, 0 for a Neumann wall):

        diag_j = kin (F_j + F_{j+1}') / (r_j dr^2) + V_j,
        off_j = -kin F_{j+1} / (dr^2 sqrt(r_j r_{j+1})),

    F_N' = far F_N. Each level is bracketed from a float64 eigensolve and
    narrowed by Sturm multisection, 64 shifts per sweep, until the bracket
    is a few long-double ulps wide. Returns float64 values."""
    ld = np.longdouble
    dr = ld(r_max) / N
    r = (np.arange(N, dtype=ld) + ld(0.5)) * dr
    faces = np.arange(N + 1, dtype=ld) * dr * ld(kin)
    right = faces[1:].copy()
    right[-1] *= ld(far)
    diag = (faces[:-1] + right) / (r * dr * dr) + np.asarray(potential, ld)
    off = -faces[1:-1] / (dr * dr * np.sqrt(r[:-1] * r[1:]))
    off2 = off * off
    guess = sla.eigh_tridiagonal(diag.astype(float), off.astype(float),
                                 select="i", select_range=(0, k - 1),
                                 eigvals_only=True).astype(ld)
    j = np.arange(k)
    lo, hi, step = guess.copy(), guess.copy(), ld(1e-9) * (1 + abs(guess))
    while True:  # widen until count(lo) <= j < count(hi)
        low = _sturm_counts(diag, off2, lo) > j
        high = _sturm_counts(diag, off2, hi) <= j
        if not (low.any() or high.any()):
            break
        lo, hi, step = lo - low * step, hi + high * step, 2 * step
    frac = np.arange(1, 65, dtype=ld) / 65
    for _ in range(sweeps):
        shifts = lo[:, None] + (hi - lo)[:, None] * frac
        counts = _sturm_counts(diag, off2, shifts.ravel()).reshape(k, 64)
        below = np.where(counts <= j[:, None], shifts, -np.inf).max(axis=1)
        above = np.where(counts > j[:, None], shifts, np.inf).min(axis=1)
        lo, hi = np.maximum(lo, below), np.minimum(hi, above)
        if np.all(hi - lo <= 4 * np.finfo(ld).eps * abs(hi)):
            break
    return [float(x) for x in (lo + hi) / 2]


def de_gennes_constant(T: float = 12.0, N: int = 4000,
                       bracket: tuple = (0.4, 1.2)) -> tuple:
    """(Theta_0, minimizer) of the half-line Neumann band by golden section."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = bracket
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = half_line_neumann_mu(c, T, N)
    fd = half_line_neumann_mu(d, T, N)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = half_line_neumann_mu(c, T, N)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = half_line_neumann_mu(d, T, N)
    xi = 0.5 * (a + b)
    return half_line_neumann_mu(xi, T, N), xi


def landau_norm_quad(n: int, m: int, b: float, radial) -> float:
    """Full-plane L2 norm of the radial factor by adaptive quadrature:
    2 pi * int |radial(r)|^2 r dr. `radial` is the function under test."""
    val, _ = quad(lambda r: 2.0 * math.pi * radial(r) ** 2 * r,
                  0.0, np.inf, limit=200)
    return math.sqrt(val)


def richardson_order(f_n: float, f_2n: float, f_4n: float) -> float:
    """Observed convergence order from three dyadic refinements."""
    return math.log2(abs((f_n - f_2n) / (f_2n - f_4n)))


# Island boundary layer. On the annulus of the island (zero field for
# r < rho1, field b beyond) the m = 0 potential is b^2 (r - rho1)^2 to
# leading order, so with s = sqrt(b) (r - rho1) the eigenfunction follows
# the decaying zero-energy solution of -g'' + s^2 g = 0,
#     g(s) = D_{-1/2}(sqrt(2) s) / D_{-1/2}(0),    g'(0) = -c,
# across a layer of width b^{-1/2}. Matching it to the hole gives the hole
# problem the Robin condition u'(rho1) = -kappa u(rho1), kappa = c sqrt(b).

def island_layer_kappa(b: float) -> float:
    """Robin coefficient kappa = c sqrt(b), c = 2 Gamma(3/4) / Gamma(1/4)."""
    return 2.0 * math.gamma(0.75) / math.gamma(0.25) * math.sqrt(b)


def island_layer_profile(s: float) -> tuple:
    """(g(s), g'(s)) of the layer profile, by scipy's parabolic cylinder
    function D_{-1/2} and its derivative."""
    d0 = pbdv(-0.5, 0.0)[0]
    d, dp = pbdv(-0.5, math.sqrt(2.0) * s)
    return d / d0, math.sqrt(2.0) * dp / d0


@functools.lru_cache(maxsize=None)
def island_layer_energy() -> float:
    """K = int_0^inf (g'^2 + s^2 g^2) e^{s/2} ds by adaptive quadrature.

    g decays like e^{-s^2/2}, so the integrand is below e^{-60} past s = 12
    and the range stops at 16 (e^{s/2} overflows any cut near infinity).
    """

    def integrand(s):
        g, gp = island_layer_profile(s)
        return (gp * gp + s * s * g * g) * math.exp(0.5 * s)

    return quad(integrand, 0.0, 16.0, limit=200)[0]


def robin_disk_level(kappa: float, rho1: float) -> float:
    """Lowest eigenvalue k^2 of -Laplace on the disk of radius rho1 with
    u' = -kappa u on its edge: the root of k J1(k rho1) = kappa J0(k rho1)
    below j01 / rho1, by bisection on the series Bessel functions."""

    def residual(k):
        return k * bessel_j(1, k * rho1) - kappa * bessel_j(0, k * rho1)

    lo, hi = 0.0, bessel_j_zero(0, 1) / rho1  # residual < 0 at lo, > 0 at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (0.5 * (lo + hi)) ** 2


def island_decay_prediction(b: float, rho1: float) -> float:
    """Layer prediction of sqrt(b) I(b) for the island decay integral
    (radial.verify_island_decay) of the lowest m = 0 mode at field b.

    The hole carries the unit r dr mass of the Robin mode J0(k r), whose
    edge value sets the layer amplitude; the layer contributes
    sqrt(b) rho1 f(rho1)^2 K to I(b). Hence

        sqrt(b) I(b) ~= 2 k^2 J1(k rho1)^2 K
                        / (rho1 c^2 (J0(k rho1)^2 + J1(k rho1)^2)).
    """
    c = island_layer_kappa(1.0)
    k = math.sqrt(robin_disk_level(island_layer_kappa(b), rho1))
    j0, j1 = bessel_j(0, k * rho1), bessel_j(1, k * rho1)
    return (2.0 * k * k * j1 * j1 * island_layer_energy()
            / (rho1 * c * c * (j0 * j0 + j1 * j1)))


def island_decay_limit(rho1: float) -> float:
    """b -> infinity limit L = 2 j01^2 K / (c^2 rho1^3) of sqrt(b) I(b)."""
    c = island_layer_kappa(1.0)
    return (2.0 * bessel_j_zero(0, 1) ** 2 * island_layer_energy()
            / (c * c * rho1 ** 3))
