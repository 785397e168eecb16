import numpy as np
import pytest
import scipy.linalg as sla

import magres.radial as radial
import magres.stepband as stepband
from magres.cli import main
from magres.errors import (FlatBandError, MultipleMinimaError, NumericalError,
                           TruncationError, ValidationError)
from magres.radial import MAX_GRID_N, Work
from magres.stepband import (BandSample, SpectralConstants, StepParams,
                             band_table, band_value, minimize_band,
                             spectral_constants)

from conftest import FROZEN
from oracles import de_gennes_constant, step_band_curvature, step_band_mu


def test_params_validation():
    for a in (-0.5, -1.0, 0.5, 1.0):  # a in [-1, 0) or (0, 1]
        StepParams(a=a)
    with pytest.raises(ValidationError):
        StepParams(a=0.0)  # no interface at all
    for a in (-1.5, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            StepParams(a=a)
    with pytest.raises(ValidationError):
        StepParams(a=-0.5, N=4802)  # N must be divisible by 4
    for N in (MAX_GRID_N + 4, 4_000_000_000_000, 10 ** 400):  # N is capped
        with pytest.raises(ValidationError):
            StepParams(a=-0.5, N=N)
    with pytest.raises(ValidationError):
        StepParams(a=-0.5, L=0.0)
    for L in (1e300, 1e-300):  # L^2, or 1/step^2, is not a finite float
        with pytest.raises(ValidationError):
            StepParams(a=-0.5, L=L)


def test_tau_grid_has_exact_zero():
    p = StepParams(a=-0.5, N=64, L=4.0)
    tau = p.tau()
    assert len(tau) == p.N - 1
    assert tau[p.N // 2 - 1] == 0.0
    assert np.allclose(tau, -tau[::-1])
    assert tau[0] == pytest.approx(-p.L + p.step)


def test_band_value_structure():
    p = StepParams(a=-1.0)
    s = band_value(p, FROZEN["step_minus1"]["zeta"])
    assert isinstance(s, BandSample)
    assert s.mu == pytest.approx(FROZEN["step_minus1"]["beta"], abs=1e-7)
    # unit discrete L2 norm and positive at the interface
    assert np.sum(s.eigenfunction ** 2) * p.step == pytest.approx(1.0)
    assert s.eigenfunction[p.N // 2 - 1] > 0
    with pytest.raises(ValidationError):
        band_value(p, float("nan"))


def test_band_value_stable_under_longer_line():
    """Doubling margin: mu moves < 1e-8 when L grows by 2 at fixed step."""
    z = FROZEN["step_minus1"]["zeta"]
    m12 = band_value(StepParams(a=-1.0, L=12.0, N=4800), z).mu
    m14 = band_value(StepParams(a=-1.0, L=14.0, N=5600), z).mu
    assert abs(m12 - m14) < 1e-8


def test_band_value_end_safety():
    # xi = -4 parks the weak-side well too close to the -L end at L=12
    with pytest.raises(TruncationError):
        band_value(StepParams(a=-0.5), -4.0)
    # a longer line fixes it
    assert band_value(StepParams(a=-0.5, L=24.0, N=9600), -4.0).mu > 0


def test_band_limits_measured():
    """Recorded large-|xi| behavior: the weak-field Landau level on the
    left, quadratic growth on the right (for a < 0)."""
    p = StepParams(a=-0.5, L=24.0, N=9600)
    assert band_value(p, -8.0).mu == pytest.approx(0.5, abs=1e-6)
    assert band_value(p, 8.0).mu == pytest.approx(69.07077264, rel=1e-4)


def test_band_table_matches_band_value():
    p = StepParams(a=-0.5)
    xs = [-1.0, -0.664313, 0.0]
    rows = band_table(p, xs)
    assert [x for x, mu in rows] == xs
    for x, mu in rows:
        assert mu == pytest.approx(band_value(p, x).mu, abs=1e-12)


@pytest.mark.parametrize("a,key", [(-0.5, "step_minus05"),
                                   (-1.0, "step_minus1")])
def test_refined_mu_matches_mrrr(a, key):
    """Inverse iteration against LAPACK's MRRR on the same grid: the whole
    default 101-point scan at N = 1600 (scipy's stemr wrapper allocates an
    n x n array per call) and the minimizer at N = 4800."""
    p = StepParams(a=a, N=1600)
    for xi, mu in band_table(p, [-4.0 + 0.05 * i for i in range(101)]):
        assert abs(mu - step_band_mu(a, xi, N=1600)) < 1e-12
    z = FROZEN[key]["zeta"]
    mu = band_value(StepParams(a=a), z).mu
    assert abs(mu - step_band_mu(a, z)) < 1e-12


def test_scan_follows_ground_state_into_another_well():
    """At a = -0.25 and L = 12 the ground state moves between xi = -3.2 and
    -3.15 from the Landau well at tau = -xi to the weak-field well at the
    tau = -L wall, where the vector from -3.2 has underflowed to zero."""
    rows = band_table(StepParams(a=-0.25, N=1600), [-3.2, -3.15])
    for xi, mu in rows:
        assert abs(mu - step_band_mu(-0.25, xi, N=1600)) < 1e-12
    assert rows[1][1] < rows[0][1] - 0.05


def test_seeded_scan_matches_oracle_across_the_well_change():
    """The whole default 101-point scan at a = -0.25, N = 1600, where the
    ground state leaves the Landau well mid-scan and the extrapolated seeds
    overshoot the new level."""
    p = StepParams(a=-0.25, N=1600)
    rows = band_table(p, [-4.0 + 0.05 * i for i in range(101)])
    for xi, mu in rows:
        assert abs(mu - step_band_mu(-0.25, xi, N=1600)) < 1e-12


def test_well_change_ends_the_scan_history():
    """At a = -0.25 the ground state leaves the Landau well at xi = -3.15,
    where the prediction from the old well's levels misses by 0.06: each
    grid's history restarts after that point, so the next points do not
    extrapolate the old well. The 101-point scan at N = 1600 refuses 14
    shifts: a refused shift narrows the solver's bracket, whose next
    shift is a log-midpoint (50 when the gap quadrupled from tol/2 after
    each refusal, 88 when the old well's history also kept predicting)."""
    p, work = StepParams(a=-0.25, N=1600), Work()
    xs = [-4.0 + 0.05 * i for i in range(101)]
    _, _, tracks, _ = stepband._scan(stepband._grids(p, work), xs)
    assert [track.since for track in tracks] == [18, 18]  # after -3.15
    assert work.refused <= 14


@pytest.mark.parametrize("wrong", [1.0, -1.0])
def test_wrong_seed_costs_factorizations_not_rows(monkeypatch, wrong):
    """Predictions off by one in either direction (both grids) give the
    same rows within 1e-13: a poor prediction costs refused or extra
    factorizations."""
    p = StepParams(a=-0.5, N=1600)
    xs = [-2.0 + 0.05 * i for i in range(41)]
    seeded = Work()
    rows = band_table(p, xs, seeded)

    def off(*args, predicted=stepband._predicted):
        level = predicted(*args)
        return None if level is None else level + wrong
    monkeypatch.setattr(stepband, "_predicted", off)
    poor = Work()
    wrong_rows = band_table(p, xs, poor)
    assert [xi for xi, _ in wrong_rows] == xs
    for (_, mu), (_, mu_wrong) in zip(rows, wrong_rows):
        assert abs(mu - mu_wrong) < 1e-13
    assert (poor.factorizations + poor.refused
            > seeded.factorizations + seeded.refused)


def test_seeds_need_history():
    """No earlier point: no prediction, the solve starts from the Rayleigh
    quotient. For n = 1..5 earlier points the weights sum to 1 and
    reproduce random polynomials of degree 2n - 1, values and slopes, to
    rounding; more points than five use the last five."""
    assert stepband._predicted([], 0.05) is None
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        levels, _ = stepband._WEIGHTS[n - 1]
        assert sum(levels) == pytest.approx(1.0, abs=1e-13)
        for step in (0.05, 1.0):
            for _ in range(5):
                poly = np.polynomial.Polynomial(
                    rng.uniform(-1.0, 1.0, 2 * n))
                slope = poly.deriv()
                ts = step * np.arange(-n, 0)
                points = [(poly(t), slope(t)) for t in ts]
                scale = max(abs(poly(t)) + step * abs(slope(t)) for t in ts)
                assert abs(stepband._predicted(points, step) - poly(0.0)) \
                    < 1e-12 * scale
                if n == 5:  # older points do not enter
                    older = [(1e3, -1e3)] * 2 + points
                    assert stepband._predicted(older, step) \
                        == stepband._predicted(points, step)


@pytest.mark.parametrize("start", ["second", "minus_lowest"])
def test_ground_from_any_start_lands_on_positive_lowest(start):
    p = StepParams(a=-0.5, N=1600)
    xi = FROZEN["step_minus05"]["zeta"]
    grid = stepband._StepGrid(p, p.N)
    step, arm = p.step, stepband._ground(grid, xi).arm
    vals, vecs = sla.eigh_tridiagonal(2.0 / step ** 2 + arm ** 2,
                                      np.full(p.N - 2, -1.0 / step ** 2),
                                      select="i", select_range=(0, 1))
    v = vecs[:, 1] if start == "second" else -vecs[:, 0]
    pair = stepband._ground(grid, xi, start=v)
    mu, x = pair.mu, pair.x
    assert abs(mu - vals[0]) < 1e-10 and vals[1] - vals[0] > 0.5
    assert np.all(x > 0) and np.sum(x * x) == pytest.approx(1.0)


def _recorded_shifts(monkeypatch) -> list:
    """Every shift `_inverse_iteration` factors, as (shift, accepted)."""
    ldl, shifts = radial._ldl_factors, []

    def recording(diag, off, shift, j):
        out = ldl(diag, off, shift, j)
        shifts.append((shift, out[1] is not None))
        return out
    monkeypatch.setattr(radial, "_ldl_factors", recording)
    return shifts


def _tol(grid, arm):
    return 64.0 * np.finfo(float).eps * float(np.max(grid.kinetic + arm ** 2))


def test_ground_last_shift_certifies_lowest(monkeypatch):
    """At every point of a seeded scan, on both grids, the last factored
    shift was positive definite and lies within 64 eps max|T_ii| (plus 4
    ulp of rounding) below the returned Rayleigh quotient, so no level of
    the grid operator lies below mu - tol."""
    shifts, ends = _recorded_shifts(monkeypatch), []
    ground = stepband._ground

    def recording(grid, xi, *args):
        out = ground(grid, xi, *args)
        ends.append((out.mu, _tol(grid, out.arm), shifts[-1]))
        return out
    monkeypatch.setattr(stepband, "_ground", recording)
    band_table(StepParams(a=-0.5, N=1600),
               [-4.0 + 0.05 * i for i in range(101)])
    assert len(ends) == 202
    for mu, tol, (shift, accepted) in ends:
        assert accepted
        assert 0.0 < mu - shift <= tol + 4.0 * np.spacing(mu)


@pytest.mark.parametrize("below", [0.5, 0.9])
def test_ground_certifies_a_guess_below_the_level(monkeypatch, below):
    """A guess below the level by 0.5 or 0.9 tol, with a first gap of tol,
    puts the first shift 1.5 or 1.9 tol below the level: the solve must
    factor a closer shift before it returns, not take that one as the
    certificate."""
    p = StepParams(a=-0.5, N=1600)
    grid = stepband._StepGrid(p, p.N)
    solved = stepband._ground(grid, -0.66)
    level, tol = solved.mu, _tol(grid, solved.arm)
    shifts = _recorded_shifts(monkeypatch)
    mu = stepband._ground(grid, -0.66, guess=(level - below * tol, tol)).mu
    assert abs(mu - level) <= 4.0 * np.spacing(level)
    shift, accepted = shifts[-1]
    assert accepted and 0.0 < mu - shift <= tol + 4.0 * np.spacing(mu)


def test_ground_returns_unit_vector_and_rescaling_changes_no_digit(
        monkeypatch):
    """The solves stay unnormalized and x comes back unit l2. Rescaling
    every solve by a power of 2 (RESCALE forced to 1, as if each iterate
    grew past the threshold) returns the same certified pair and the same
    scan, bit for bit."""
    p = StepParams(a=-0.5, N=1600)
    xs = [-2.0 + 0.05 * i for i in range(41)]
    grid = stepband._StepGrid(p, p.N)
    free, rows = stepband._ground(grid, -0.66), band_table(p, xs)
    assert abs(free.x @ free.x - 1.0) < 4e-16 and np.all(free.x > 0)
    monkeypatch.setattr(radial, "RESCALE", 1.0)
    forced = stepband._ground(grid, -0.66)
    assert (forced.mu, forced.shift, forced.slope) == \
        (free.mu, free.shift, free.slope)
    assert np.array_equal(forced.x, free.x)
    assert band_table(p, xs) == rows


@pytest.mark.parametrize("a", [-0.5, -1.0])
def test_predicted_points_cost_at_most_two_factorizations(monkeypatch, a):
    """Every band point but the scan's first has a prediction on each
    grid: scan points 2 to 6 from the Hermite extrapolation through the 1
    to 5 points before them, the first Newton point from the scan points
    about the minimum, each later one from the last Newton point's mu, mu'
    and mu''. Each of those five scan points costs at most 2
    factorizations per grid, refused shifts included, and their ten solves
    (both grids) take at most 30 solves together (40 unseeded); each
    Newton point costs one factorization and at most 2 solves per grid (2
    and 3 or 4 unseeded). The first scan point has no prediction: it
    starts from the Rayleigh quotient of a Gaussian and its first shift at
    the Gershgorin floor, and refuses no shift on either grid (4 on N =
    4800 at a = -0.5 with a first gap of 1e-2)."""
    calls, refusals, ground = [], [], stepband._ground

    def counting(grid, xi, *args):
        work = grid.work
        before = work.factorizations + work.refused, work.solves
        refused = work.refused
        out = ground(grid, xi, *args)
        calls.append((xi, grid.N, work.factorizations + work.refused
                      - before[0], work.solves - before[1]))
        refusals.append(work.refused - refused)
        return out
    monkeypatch.setattr(stepband, "_ground", counting)
    table = stepband.analyze_band(StepParams(a=a))[0]
    assert refusals[:2] == [0, 0], calls[:2]
    early, newton = calls[2:12], calls[2 * len(table):]
    assert all(factored <= 2 for _, _, factored, _ in early), early
    assert sum(solves for *_, solves in early) <= 30, early
    assert len(newton) >= 4 and len(newton) % 2 == 0
    assert all(factored == 1 and solves <= 2
               for _, _, factored, solves in newton), newton


@pytest.mark.parametrize("force", ["iteration_cap", "refused_shifts"])
def test_ground_non_convergence_is_numerical_error(monkeypatch, tmp_path,
                                                   force):
    if force == "iteration_cap":
        monkeypatch.setattr(radial, "MAX_SOLVES", 2)
    else:
        monkeypatch.setattr(radial, "dpttrf", lambda d, e, *flags: (d, e, 1))
    with pytest.raises(NumericalError, match="did not converge"):
        band_value(StepParams(a=-0.5), -0.66)
    assert main(["band", "--a", "-0.5", "--grid-n", "64",
                 "--out", str(tmp_path / "band.csv")]) == 3


@pytest.mark.parametrize("xi", [-1.5, FROZEN["step_minus05"]["zeta"], 0.3])
def test_hellmann_feynman_slope_matches_difference(xi):
    """The Richardson-combined Hellmann-Feynman slope is the derivative of
    the Richardson-combined band value."""
    p = StepParams(a=-0.5)
    _, slope, _ = stepband._refined(stepband._grids(p), xi)
    s = 1e-4
    diff = (band_value(p, xi + s).mu - band_value(p, xi - s).mu) / (2 * s)
    assert abs(slope - diff) < 1e-6


def test_minimize_band_de_gennes_vs_oracle():
    """a = -1 recovers the half-line Neumann constants; the oracle is a
    node-centered ghost-point scheme, nothing shared with the solver."""
    zeta, beta = minimize_band(StepParams(a=-1.0))
    theta0, xi0 = de_gennes_constant()
    assert beta == pytest.approx(theta0, abs=1e-4)
    assert zeta == pytest.approx(-xi0, abs=1e-3)
    # internal consistency of the de Gennes identity zeta = -sqrt(beta)
    assert zeta == pytest.approx(-beta ** 0.5, abs=1e-6)


def test_minimize_band_error_paths():
    with pytest.raises(FlatBandError):
        minimize_band(StepParams(a=1.0))
    # for 0 < a < 1 the band decreases toward -inf: endpoint minimum
    with pytest.raises(ValidationError):
        minimize_band(StepParams(a=0.5))
    with pytest.raises(ValidationError):
        minimize_band(StepParams(a=-0.5), xi_bracket=(1.0, -1.0))
    assert issubclass(MultipleMinimaError, NumericalError)


def _stubbed_scan(monkeypatch, mus, error=1e-9):
    """`_band_minimum` over the bracket (-0.2, 0) on a stubbed scan whose
    rows are mus, each with the given certified error."""
    xs = [-0.2 + 0.05 * i for i in range(len(mus))]
    monkeypatch.setattr(stepband, "_scan", lambda grids, xi_values: (
        list(zip(xs, mus)), [error] * len(mus), None, None))
    return stepband._band_minimum(StepParams(a=-0.5, N=64), (-0.2, 0.0))


def test_scan_minima_are_resolved_by_the_rows_errors(monkeypatch):
    """Two rows below their neighbours by more than the certified errors
    are multiple minima; a plateau's rounding is none, so an interior
    lowest row that no error resolves is a numerical failure, and an
    endpoint one a bracket to widen."""
    with pytest.raises(MultipleMinimaError, match="xi=-0.15 .* xi=-0.05 "):
        _stubbed_scan(monkeypatch, [1.0, 0.5, 1.0, 0.5, 1.0])
    with pytest.raises(NumericalError, match="xi = -0.15 lies below its "
                       "neighbours by no more than the rows' certified "
                       "error [(]1e-09[)]"):
        _stubbed_scan(monkeypatch, [1.0, 0.5, 0.5 + 1e-17, 0.5 - 1e-17, 1.0])
    with pytest.raises(ValidationError, match="widen xi_bracket"):
        _stubbed_scan(monkeypatch, [1.0, 1.0 - 1e-17, 1.0, 1.0 - 1e-17, 0.5])


def test_minimize_band_grows_the_line():
    """At a = -0.25 the default L = 12 fails the end check; minimize_band
    grows the line as analyze_band does (to L = 18) and returns its
    (zeta, beta)."""
    zeta, beta = minimize_band(StepParams(a=-0.25))
    assert zeta == pytest.approx(FROZEN["step_minus025"]["zeta"], abs=1e-5)
    assert beta == pytest.approx(FROZEN["step_minus025"]["beta"], abs=1e-6)


@pytest.mark.parametrize("a", [-0.25, -0.5])
def test_zeta_is_the_root_of_the_slope(a):
    """One more Newton step from the returned zeta moves it by less than
    1e-12. From the last Newton point itself that step is 1.2e-12 at
    a = -0.25 and 3.3e-13 at a = -0.5."""
    _, zeta, _, _, params = stepband.analyze_band(StepParams(a=a))
    grids = stepband._grids(params)
    _, slope, solved = stepband._refined(grids, zeta)
    assert abs(slope / stepband._curvature(grids, solved)[0]) < 1e-12


def _curvature_at(params, xi):
    grids = stepband._grids(params)
    return stepband._curvature(grids, stepband._refined(grids, xi)[2])[0]


def test_second_derivative():
    c = spectral_constants(StepParams(a=-0.5))
    assert c.mu2 == pytest.approx(FROZEN["step_minus05"]["mu2"], rel=1e-3)
    # the flat band of a = 1 (the harmonic oscillator for every xi)
    with pytest.raises(NumericalError, match="curvature .* is not above 1e-6"):
        _curvature_at(StepParams(a=1.0), 0.0)


def test_second_derivative_converged():
    """mu'' at the minimizer zeta(-0.5) = -0.664312923 lies within 1e-7 of
    0.99672516, the s -> 0 limit of the slope's difference quotients. The
    third derivative is about 2 there, so the package's zeta, within 1e-9
    of it, moves mu'' by at most 2e-9."""
    c = spectral_constants(StepParams(a=-0.5))
    assert abs(c.zeta + 0.664312923) < 1e-9
    assert abs(c.mu2 - 0.99672516) < 1e-7
    assert abs(_curvature_at(StepParams(a=-0.5), -0.664312923)
               - 0.99672516) < 1e-7


@pytest.mark.parametrize("a", [-0.5, -0.75])
def test_curvature_matches_mrrr_second_difference(a):
    """mu'' at the package's zeta against the MRRR oracle's band values,
    not the package's solver: the second difference over s = 0.02 and
    0.01, Richardson-combined (error O(s^4)), at N = 1600."""
    c = spectral_constants(StepParams(a=a, N=1600))
    mu0 = step_band_mu(a, c.zeta, N=1600)

    def second_difference(s):
        return (step_band_mu(a, c.zeta + s, N=1600) - 2.0 * mu0
                + step_band_mu(a, c.zeta - s, N=1600)) / (s * s)
    oracle = (4.0 * second_difference(0.01) - second_difference(0.02)) / 3.0
    assert abs(c.mu2 - oracle) < 1e-7 * oracle


@pytest.mark.parametrize("N", [800, 1600])
def test_grid_curvature_matches_sum_over_states(N):
    """One grid's mu'' at zeta(-0.5) against the dense sum over states on
    the same grid, within 2e-12 relative (3.6e-13 and 4.7e-13 read).
    Applying R at the certifying shift sigma without the (mu - sigma)
    <g, g> term reads 1.3e-11 high at N = 800 and 5.3e-11 at N = 1600."""
    p = StepParams(a=-0.5, N=N)
    zeta = FROZEN["step_minus05"]["zeta"]
    grid = stepband._StepGrid(p, N)
    curv = stepband._grid_curvature(grid, stepband._ground(grid, zeta))
    oracle = step_band_curvature(-0.5, zeta, N=N)
    assert abs(curv - oracle) < 2e-12 * oracle


def test_curvature_is_smooth_in_xi():
    """mu'' moves by less than 1e-11 when xi moves by 2e-13 about zeta: no
    difference quotient amplifies the eigenvector's rounding. (Centered
    slope differences over 1e-3 and 5e-4 move by 1.6e-10 to 4.2e-10.)"""
    p, z = StepParams(a=-0.5), -0.664312923
    center = _curvature_at(p, z)
    for s in (-2e-13, 2e-13):
        assert abs(_curvature_at(p, z + s) - center) < 1e-11


@pytest.mark.parametrize("key,params", [
    ("step_minus05", StepParams(a=-0.5)),
    ("step_minus025", StepParams(a=-0.25, L=16.0, N=6400)),
    ("step_minus075", StepParams(a=-0.75)),
])
def test_spectral_constants_frozen(key, params):
    c = spectral_constants(params)
    ref = FROZEN[key]
    assert c.beta == pytest.approx(ref["beta"], abs=1e-6)
    assert c.zeta == pytest.approx(ref["zeta"], abs=1e-5)
    assert c.mu2 == pytest.approx(ref["mu2"], rel=1e-3)
    assert c.C1 == pytest.approx(ref["C1"], rel=1e-3)
    assert c.C2 == pytest.approx(ref["C2"], rel=1e-3)
    assert c.C1 > 0 and c.C2 > 0
    # C2 relation holds exactly by construction
    assert c.C2 == pytest.approx(0.5 * (c.mu2 * c.C1) ** 0.5, rel=1e-12)


def test_spectral_constants_domain():
    with pytest.raises(ValidationError):
        spectral_constants(StepParams(a=-1.0))
    with pytest.raises(ValidationError):
        spectral_constants(StepParams(a=0.5))


def test_spectral_constants_shape():
    c = spectral_constants(StepParams(a=-0.5))
    assert isinstance(c, SpectralConstants)
    assert c.phi0 == pytest.approx(FROZEN["step_minus05"]["phi0"], rel=1e-4)
    assert c.phi0p == pytest.approx(FROZEN["step_minus05"]["phi0p"], rel=1e-3)
    assert c.L == 12.0 and c.N == 4800
