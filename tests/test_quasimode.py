import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magres.errors import ValidationError
from magres.fields import FieldSpec, make_profile
from magres.quasimode import (Quasimode, TZWindow, build_quasimode,
                              generic_quasimode_residual, landau_radial,
                              laguerre, quasimode_residual, tz_crossover,
                              tz_window)
from magres.radial import RadialGrid, assemble_fiber, eigs_lowest

from oracles import landau_norm_quad


@pytest.fixture(scope="module")
def plane_grid():
    return RadialGrid(20.0, 50000)


@pytest.fixture(scope="module")
def unit_field():
    # B = 1 on the whole numerical domain
    return make_profile(FieldSpec(kind="constant_disk",
                                  params={"r0": 20.0}, R0=20.0))


def test_laguerre_closed_forms():
    x = np.array([0.0, 0.3, 2.0, 7.5])
    for k in (0, 1, 4):
        assert np.all(laguerre(0, k, x) == 1.0)
    assert laguerre(1, 0, 2.0) == pytest.approx(-1.0)
    assert laguerre(2, 1, 0.0) == pytest.approx(3.0)
    assert np.allclose(laguerre(2, 0, x), 1.0 - 2.0 * x + x * x / 2.0)
    with pytest.raises(ValidationError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValidationError):
        laguerre(0, -2, 1.0)


@given(n=st.integers(0, 8), k=st.integers(0, 8))
@settings(deadline=None)
def test_laguerre_binomial_at_zero(n, k):
    assert laguerre(n, k, 0.0) == pytest.approx(math.comb(n + k, n),
                                                rel=1e-12)


def test_landau_radial_normalization(plane_grid):
    # closed-form prefactor of the ground state
    assert landau_radial(0, 0, 1.0, 1e-12) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-10)
    # full-plane discrete norm
    r = plane_grid.nodes
    for n, m, b in ((0, 0, 1.0), (1, 0, 1.0), (2, 3, 2.5)):
        f = landau_radial(n, m, b, r)
        nrm = math.sqrt(2.0 * math.pi * float(np.sum(f * f * r))
                        * plane_grid.dr)
        assert nrm == pytest.approx(1.0, abs=1e-8)
        # independent adaptive quadrature of the same integral
        assert landau_norm_quad(
            n, m, b, lambda s: float(landau_radial(n, m, b, s))
        ) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError):
        landau_radial(0, 0, -1.0, r)


def test_landau_orthogonality(plane_grid):
    r = plane_grid.nodes
    f0 = landau_radial(0, 0, 1.0, r)
    f1 = landau_radial(1, 0, 1.0, r)
    ip = 2.0 * math.pi * float(np.sum(f0 * f1 * r)) * plane_grid.dr
    assert abs(ip) <= 1e-8


def test_build_quasimode_validation(plane_grid):
    with pytest.raises(ValidationError):
        build_quasimode(0, 0, 25.0, 1.0, 0.0, plane_grid)
    with pytest.raises(ValidationError):
        build_quasimode(0, 0, 25.0, 1.0, 1.0, plane_grid)
    with pytest.raises(ValidationError):
        build_quasimode(0, 0, 25.0, 25.0, 0.2, plane_grid)  # r0 > r_max
    with pytest.raises(ValidationError):
        # shoulder of 0.2 * 0.02 / 4e-4 = 10 cells
        build_quasimode(0, 0, 25.0, 0.02, 0.2, plane_grid)


def test_quasimode_support_and_norm(plane_grid):
    for b in (9.0, 16.0, 25.0):
        q = build_quasimode(0, 0, b, 1.0, 0.2, plane_grid)
        assert isinstance(q, Quasimode)
        r = plane_grid.nodes
        assert np.all(q.values[r > q.r0] == 0.0)
        defect = 1.0 - q.norm
        # the cutoff only removes mass, exponentially little of it
        assert defect >= 0.0
        assert defect <= 1.5 * b * math.exp(-0.64 * b / 2.0)


def test_quasimode_full_support_probe(plane_grid):
    # shoulder sits where the Gaussian is long gone: no truncation left
    q = build_quasimode(0, 0, 1.0, 10.0, 0.2, plane_grid)
    assert abs(q.norm - 1.0) <= 1e-8


def test_residual_law_ground(plane_grid, unit_field):
    bs = [9.0, 16.0, 25.0]
    logs = []
    prev = math.inf
    for b in bs:
        q = build_quasimode(0, 0, b, 1.0, 0.2, plane_grid)
        res, nrm = quasimode_residual(q, unit_field)
        assert 0.0 < res < prev
        assert nrm == pytest.approx(q.norm)
        prev = res
        logs.append(math.log(res))
    slope = np.polyfit(bs, logs, 1)[0]
    # exponential rate at least (1-delta)^2 r0^2 / 4 minus slack
    assert slope <= -0.64 / 4.0 + 0.05


def test_residual_law_first_excited(plane_grid, unit_field):
    """Same exponential law once the polynomial b^{|m|+2} prefactor of the
    excited state is divided out."""
    bs = [9.0, 16.0, 25.0]
    logs = []
    for b in bs:
        q = build_quasimode(1, 0, b, 1.0, 0.2, plane_grid)
        res, _ = quasimode_residual(q, unit_field)
        logs.append(math.log(res) - 2.0 * math.log(b))
    slope = np.polyfit(bs, logs, 1)[0]
    assert slope <= -0.64 / 4.0 + 0.05


def test_residual_exact_eigenfunction_floor(plane_grid, unit_field):
    # shoulder beyond six Gaussian standard deviations: chi == 1 in effect
    q = build_quasimode(0, 0, 25.0, 3.0, 0.2, plane_grid)
    res, _ = quasimode_residual(q, unit_field)
    assert res <= 1e-10


def test_residual_requires_constant_field(plane_grid):
    aprof = make_profile(FieldSpec(kind="anharmonic",
                                   params={"gamma": 2.0}, R0=1.0))
    q = build_quasimode(0, 0, 9.0, 1.0, 0.2, plane_grid)
    with pytest.raises(ValidationError):
        quasimode_residual(q, aprof)


@pytest.fixture(scope="module")
def anh_profile():
    return make_profile(FieldSpec(kind="anharmonic",
                                  params={"gamma": 2.0}, R0=1.0))


def test_generic_residual_anharmonic(anh_profile):
    grid = RadialGrid(12.0, 3000)
    bs = [4.0, 9.0, 16.0]
    logs = []
    prev = math.inf
    for b in bs:
        pair = eigs_lowest(assemble_fiber(anh_profile, 0, b, grid), 1)
        res = generic_quasimode_residual(pair, 2.0, 0.2, anh_profile)
        assert 0.0 < res < prev
        prev = res
        logs.append(math.log(res))
    c1 = (logs[1] - logs[0]) / (bs[1] - bs[0])
    c2 = (logs[2] - logs[1]) / (bs[2] - bs[1])
    assert abs(c2 - c1) <= 0.10 * abs(c1)  # log-linear in b


def test_generic_residual_island():
    iprof = make_profile(FieldSpec(kind="island_annular",
                                   params={"rho1": 1.0, "rho2": 1.5},
                                   R0=1.5))
    grid = RadialGrid(1.5, 3000)
    bs = [25.0, 50.0, 100.0]
    logs = []
    for b in bs:
        op = assemble_fiber(iprof, 0, b, grid, boundary="neumann_far")
        pair = eigs_lowest(op, 1)
        res = generic_quasimode_residual(pair, 1.4, 0.2, iprof)
        logs.append(math.log(res))
    roots = [math.sqrt(b) for b in bs]
    c1 = (logs[1] - logs[0]) / (roots[1] - roots[0])
    c2 = (logs[2] - logs[1]) / (roots[2] - roots[1])
    assert c1 < 0 and c2 < 0
    assert abs(c2 - c1) <= 0.10 * abs(c1)  # log-linear in sqrt(b)


def test_generic_residual_vanished_cutoff(anh_profile):
    """Cutoff placed where the eigenfunction is below the resolution of the
    solve: nothing left but the matrix-level noise floor."""
    pair = eigs_lowest(assemble_fiber(anh_profile, 0, 4.0,
                                      RadialGrid(8.0, 2000)), 1)
    res = generic_quasimode_residual(pair, 5.0, 0.2, anh_profile)
    assert res <= 1e-10


def test_generic_residual_validation(anh_profile):
    grid = RadialGrid(12.0, 3000)
    pair = eigs_lowest(assemble_fiber(anh_profile, 0, 4.0, grid), 1)
    with pytest.raises(ValidationError):
        generic_quasimode_residual(pair, 14.0, 0.2,
                                   anh_profile)  # r0 outside source grid
    with pytest.raises(ValidationError):
        generic_quasimode_residual(pair, 0.1, 0.2,
                                   anh_profile)  # shoulder under-resolved
    iprof = make_profile(FieldSpec(kind="island_annular",
                                   params={"rho1": 1.0, "rho2": 1.5},
                                   R0=1.5))
    with pytest.raises(ValidationError, match="differs on"):
        generic_quasimode_residual(pair, 2.0, 0.2, iprof)  # other field


def test_tz_window_values():
    w = tz_window(0.1, 0.1, 0.2, 1.0)
    assert isinstance(w, TZWindow)
    assert w.half_width == pytest.approx(100.0 * math.exp(-1.0), rel=1e-12)
    assert w.depth == pytest.approx(1000.0 * math.exp(-2.0), rel=1e-12)
    assert tz_window(0.1, 0.02, 0.2, 1.0).half_width == pytest.approx(
        2500.0 * math.exp(-5.0), rel=1e-12)
    for bad in ((0.1, -0.1, 0.2, 1.0), (0.1, 0.1, 0.0, 1.0),
                (0.1, 0.1, 0.2, 0.0)):
        with pytest.raises(ValidationError):
            tz_window(*bad)


@given(h=st.floats(1e-3, 1.0), c=st.floats(1e-3, 5.0),
       r0=st.floats(0.1, 5.0))
@settings(deadline=None, max_examples=50)
def test_tz_window_relations(h, c, r0):
    assume(c * r0 * r0 / h < 600.0)  # keep S above the underflow threshold
    w = tz_window(0.5, h, c, r0)
    assert w.R == w.S * w.S
    assert w.R < w.S
    assert w.half_width == pytest.approx(math.sqrt(w.S) / h ** 2, rel=1e-12)
    assert w.depth == pytest.approx(w.S / h ** 3, rel=1e-12)


def test_tz_window_sharpens():
    # w(h)^2 / (h^-3 S(h)) = 1/h must grow along any decreasing h sequence
    ratios = [tz_window(0.5, h, 0.2, 1.0).half_width ** 2
              / tz_window(0.5, h, 0.2, 1.0).depth
              for h in (0.2, 0.1, 0.05, 0.02)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_tz_crossover():
    h_star = tz_crossover(0.2, 1.0)
    # the root of w(h) = 1 to 50 digits, 0.0111117153698388318...
    assert h_star == pytest.approx(0.0111117153698388318, rel=4e-16)
    # at the crossover the half-width is exactly one; below it, informative
    assert tz_window(0.5, h_star, 0.2, 1.0).half_width == pytest.approx(
        1.0, rel=1e-10)
    assert tz_window(0.5, 0.9 * h_star, 0.2, 1.0).half_width < 1.0
    # peak already below 1: the window is informative at every h
    assert tz_crossover(60.0, 1.0) is None
    # peak exactly 1 (c r0^2 = 4/e): the root is the peak, at the branch
    # point of Lambert W
    assert tz_crossover(4.0 / math.e, 1.0) == 1.0 / math.e
    assert tz_window(0.5, 1.0 / math.e, 4.0 / math.e,
                     1.0).half_width == pytest.approx(1.0, rel=1e-15)
    # a root below the smallest float is an input error, not a zero
    for c in (1e-320, 5e-324):
        with pytest.raises(ValidationError):
            tz_crossover(c, 1.0)
    with pytest.raises(ValidationError):
        tz_crossover(-0.2, 1.0)
