"""Acceptance gate: one test per headline guarantee of the package.

Each criterion is a single test so that ``pytest tests/test_acceptance.py -v``
prints one pass/fail line per guarantee.  Tolerances are pinned, and runtime
budgets are asserted with a monotonic clock so that performance regressions
fail loudly instead of silently eating CI time.  Everything here is verified
against independent oracles or structural identities, never against cached
outputs of the code under test.
"""

import json
import math
import time

import numpy as np
import pytest

from magres.cli import main
from magres.cscale import (PAIR_TOL, Window, assemble_scaled_fiber,
                           continuum_motion, find_resonances,
                           scaling_profile)
from magres.errors import FlatBandError
from magres.fields import FieldSpec, make_profile
from magres.quasimode import build_quasimode, quasimode_residual, tz_crossover, \
    tz_window
from magres.radial import (RadialGrid, anharmonic_levels, assemble_fiber,
                           eigs_lowest, fiber_levels, island_neumann_levels,
                           verify_island_decay, well_levels)
from magres.stepband import StepParams, minimize_band, spectral_constants

from conftest import certified_slice
from oracles import (bessel_j_zero, de_gennes_constant, island_decay_limit,
                     island_decay_prediction, island_layer_kappa,
                     robin_disk_level)

SWEEP_H = (0.25, 0.20, 0.15)


@pytest.fixture(scope="module")
def lifetime_sweep(disk_profile):
    """Resonance runs shared by the existence and trend criteria.

    One unit-disk run per h with the certification pair (0.5, 0.6) on the
    production grid; per-run wall time is recorded for the budget check.
    """
    grid = RadialGrid(18.0, 3000)
    runs = {}
    for h in SWEEP_H:
        window = Window(0.5 * h, 1.5 * h, -0.5 * h, -1e-12)
        t0 = time.monotonic()
        rs = find_resonances(disk_profile, h, [0], window,
                             theta_pair=(0.5, 0.6), grid=grid,
                             R1=1.5, T0=6.0)
        runs[h] = (rs, time.monotonic() - t0)
    return runs


def wide_slices(disk_profile, h):
    """Certified slices |z| <= 2h of the lifetime sweep's fibers at h, for
    both angles."""
    grid = RadialGrid(18.0, 3000)
    return [certified_slice(assemble_scaled_fiber(
                disk_profile, 0, h, scaling_profile(theta, 1.5, 6.0), grid),
                2.0 * h)[0] for theta in (0.5, 0.6)]


def test_criterion_01_landau_levels_exact():
    """Constant field b=1: every sector level sits on an odd integer."""
    t0 = time.monotonic()
    prof = make_profile(FieldSpec("constant_disk", {"r0": 20.0}, R0=20.0))
    grid = RadialGrid(20.0, 4000)
    for m in range(-5, 6):
        vals = fiber_levels(prof, m, 1.0, grid, 3)
        for lam in vals:
            nearest = 2.0 * round((lam - 1.0) / 2.0) + 1.0
            assert nearest >= 1.0
            assert abs(lam - nearest) <= 1e-5
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_anharmonic_scaling_law(anharmonic_profile):
    """gamma=2 lowest level scales as b^(1/2); gamma->0 limit is Landau."""
    t0 = time.monotonic()
    lam1 = anharmonic_levels(2.0, 0).levels[0]
    grid = RadialGrid(12.0, 3000)
    lam4 = min(fiber_levels(anharmonic_profile, m, 4.0, grid, 1)[0]
               for m in range(-3, 4))
    assert abs(lam4 - 2.0 * lam1) <= 1e-5
    assert abs(anharmonic_levels(1e-3, 0).levels[0] - 1.0) <= 1e-2
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_step_band_constants():
    """Half-line limit hits the de Gennes point; constants are stable."""
    t0 = time.monotonic()
    zeta, beta = minimize_band(StepParams(a=-1.0))
    theta0, xi0 = de_gennes_constant()
    assert beta == pytest.approx(theta0, abs=1e-4)
    assert zeta == pytest.approx(-xi0, abs=1e-3)
    with pytest.raises(FlatBandError):
        minimize_band(StepParams(a=1.0))
    base = spectral_constants(StepParams(a=-0.5))
    fine = spectral_constants(StepParams(a=-0.5, N=9600))
    for name in ("beta", "zeta", "mu2", "phi0", "phi0p", "C1", "C2"):
        lo, hi = getattr(base, name), getattr(fine, name)
        assert abs(hi - lo) <= 1e-4 * abs(lo)
    for a, kwargs in ((-0.25, {"L": 16.0, "N": 6400}), (-0.5, {}),
                      (-0.75, {})):
        consts = spectral_constants(StepParams(a=a, **kwargs))
        assert consts.C1 > 0.0
        assert consts.C2 > 0.0
    assert time.monotonic() - t0 < 120.0


def test_criterion_04_resonance_existence_and_sign(lifetime_sweep,
                                                    disk_profile):
    """Each h yields exactly one robust decaying resonance near Re = h,
    certified against a continuum that moves two decades more."""
    for h, (rs, elapsed) in lifetime_sweep.items():
        assert len(rs.resonances) == 1
        r = rs.resonances[0]
        assert 0.5 * h <= r.z.real <= 1.5 * h
        assert r.z.imag < 0.0
        bound = PAIR_TOL * (1.0 + abs(r.z))
        assert r.drift <= bound
        # over |z| <= 2h, wider than the run's own disk (the window's)
        motion = continuum_motion(*wide_slices(disk_profile, h), 2.0 * h)
        assert motion is not None
        assert motion >= 10.0 * bound
        assert elapsed < 300.0


def test_criterion_05_lifetime_trend(lifetime_sweep):
    """|Im z| shrinks as h drops, linearly in 1/h on a log scale, and the
    fitted rate certifies the h^-3 exp(-c/h) ceiling."""
    ims = [abs(lifetime_sweep[h][0].resonances[0].z.imag) for h in SWEEP_H]
    assert ims[0] > ims[1] > ims[2] > 0.0
    x = np.array([1.0 / h for h in SWEEP_H])
    y = np.log(ims)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert slope < 0.0
    assert 1.0 - ss_res / ss_tot >= 0.95
    c = -slope
    assert c > 0.0
    for h, im in zip(SWEEP_H, ims):
        assert im <= h ** -3 * math.exp(-c / h)


def test_criterion_06_quasimode_residual_law():
    """Ground quasimode residual decays like exp(-(1-delta)^2 b/4) and the
    cutoff eats at most the advertised share of the norm."""
    t0 = time.monotonic()
    prof = make_profile(FieldSpec("constant_disk", {"r0": 20.0}, R0=20.0))
    grid = RadialGrid(20.0, 50000)
    bs = [9.0, 16.0, 25.0]
    logs = []
    for b in bs:
        q = build_quasimode(0, 0, b, 1.0, 0.2, grid)
        res = quasimode_residual(q, prof)
        logs.append(math.log(res))
        assert 1.0 - q.norm <= 1.5 * b * math.exp(-0.32 * b)
    slope = np.polyfit(bs, logs, 1)[0]
    assert slope <= -0.64 / 4.0 + 0.05
    assert time.monotonic() - t0 < 5.0


def test_criterion_07_well_expansion_order():
    """Radial well ground state matches h + 4h^2 to third order."""
    t0 = time.monotonic()
    diffs = [abs(well_levels(1.0, h, 0).levels[0] - (h + 4.0 * h * h))
             for h in (0.1, 0.05, 0.025)]
    for lo, hi in zip(diffs[1:], diffs[:-1]):
        assert 4.0 <= hi / lo <= 16.0
    assert time.monotonic() - t0 < 60.0


def test_criterion_08a_island_level_accuracy():
    """Island ground level at b=100 lands within 1% of the Robin disk level.

    The Dirichlet disk eigenvalue j01^2 is only the b -> infinity limit: the
    hole mode leaks into an annulus layer of width b^{-1/2}, which acts on
    the hole as the Robin condition u' = -kappa u, kappa = c sqrt(b), and
    leaves a gap of about 2 / (kappa rho1) (25% at b = 100) to j01^2. The
    Robin disk eigenvalue is the two-term reference."""
    target = robin_disk_level(island_layer_kappa(100.0), 1.0)
    lvl = island_neumann_levels(1.0, 1.5, 100.0, 0).levels[0]
    assert abs(lvl - target) <= 0.01 * target


def test_criterion_08b_island_error_decreasing():
    """The island-to-disk gap closes monotonically as b grows."""
    t0 = time.monotonic()
    target = bessel_j_zero(0, 1) ** 2
    errs = [abs(island_neumann_levels(1.0, 1.5, b, 0).levels[0] - target)
            for b in (50.0, 100.0, 200.0)]
    assert errs[0] > errs[1] > errs[2]
    assert time.monotonic() - t0 < 60.0


def test_criterion_08c_island_decay_integral_bounded(island_profile):
    """Weighted tail mass obeys I(b) <= L/sqrt(b) with L from theory.

    The layer amplitude is f(rho1) ~ -u'(rho1)/kappa = O(b^{-1/2}), so f'
    and b a f are O(1) across a layer of width b^{-1/2}: I(b) = O(b^{-1/2}),
    and sqrt(b) I(b) rises to L = 2 j01^2 K / (c^2 rho1^3). At b = 100 and
    200 the layer prediction built on the Robin disk mode must match it to
    5%."""
    t0 = time.monotonic()
    grid = RadialGrid(1.5, 3000)
    limit = island_decay_limit(1.0)
    for b in (50.0, 100.0, 200.0):
        pair = eigs_lowest(assemble_fiber(island_profile, 0, b, grid,
                                          boundary="neumann_far"), 1)
        integral = verify_island_decay(pair, b, 1.0)
        assert math.isfinite(integral) and integral > 0.0
        scaled = math.sqrt(b) * integral
        assert scaled <= limit
        if b >= 100.0:
            predicted = island_decay_prediction(b, 1.0)
            assert abs(scaled - predicted) <= 0.05 * predicted
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_tz_window_arithmetic():
    """Window width and depth reproduce the closed forms to machine
    precision, and the informativeness crossover solves w = 1."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260817)
    for _ in range(10):
        h = float(rng.uniform(0.02, 0.5))
        c = float(rng.uniform(0.05, 2.0))
        r0 = float(rng.uniform(0.3, 3.0))
        win = tz_window(h, c, r0)
        assert win.half_width == pytest.approx(
            h ** -2 * math.exp(-c * r0 * r0 / (2.0 * h)), rel=1e-14)
        assert win.depth == pytest.approx(
            h ** -3 * math.exp(-c * r0 * r0 / h), rel=1e-14)
    hstar = tz_crossover(0.2, 1.0)
    assert hstar is not None
    assert tz_window(hstar, 0.2, 1.0).half_width == pytest.approx(
        1.0, rel=1e-9)
    assert time.monotonic() - t0 < 1.0


def test_criterion_10_manifest_determinism(tmp_path):
    """Replaying a run manifest reproduces the CSV byte for byte."""
    first = tmp_path / "one" / "band.csv"
    argv = ["band", "--a", "-0.5", "--grid-n", "1600", "--bracket=-2,0",
            "--out", str(first)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "one"
                           / "band.csv.manifest.json").read_text())
    second = tmp_path / "two" / "band.csv"
    replay = [tok if tok != str(first) else str(second)
              for tok in manifest["argv"]]
    assert main(replay) == 0
    assert second.read_bytes() == first.read_bytes()
