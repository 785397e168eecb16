import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from magres import cscale, radial
from magres.cli import main
from magres.cscale import (DET_BLOCK, PAIR_TOL, Resonance, ResonanceSet,
                           ScalingProfile, SliceWork, Window, _det_phase,
                           _contour_count, _ray_hits_window, _slice_radius,
                           _arnoldi, _spectrum_slice, _start_vector,
                           assemble_scaled_fiber, complex_spectrum,
                           continuum_motion, filter_resonances,
                           find_resonances, scaling_profile)
from magres.errors import (AmbiguousPairingError, NumericalError,
                           ValidationError)
from magres.fields import FieldSpec, make_profile, zero_profile
from magres.radial import (FiberOperator, RadialGrid, _ldl_factors,
                           assemble_fiber)

from conftest import FROZEN, certified_slice, slice_count
from oracles import det_phase_per_pivot

WIN = Window(0.1, 0.3, -0.12, -0.001)


@pytest.fixture(scope="module")
def reference_run(disk_profile):
    """h = 0.25 ground resonance of the unit disk, theta pair (0.5, 0.6)."""
    return find_resonances(disk_profile, 0.25, [0], WIN,
                           theta_pair=(0.5, 0.6),
                           grid=RadialGrid(18.0, 1200), R1=1.5, T0=6.0)


@pytest.fixture(scope="module")
def dense_reference(disk_profile):
    """Full dense spectra of the reference_run operators (N = 1200)."""
    grid = RadialGrid(18.0, 1200)
    return {theta: complex_spectrum(assemble_scaled_fiber(
                disk_profile, 0, 0.25, scaling_profile(theta, 1.5, 6.0), grid))
            for theta in (0.5, 0.6)}


def test_scaling_profile_values():
    sp = scaling_profile(0.3, 2.0, 5.0)
    assert sp.deform(1.0)[0] == 1.0 + 0.0j  # undeformed region, exact
    assert sp.deform(10.0)[0] == pytest.approx(10.0 * cmath.exp(0.3j),
                                               rel=1e-14)
    # quintic smoothstep is exactly 1/2 at the ramp midpoint
    assert np.angle(sp.deform(3.5)[0]) == pytest.approx(0.15, abs=1e-12)
    t = np.linspace(0.1, 10.0, 500)
    f, fp = sp.deform(t)
    # arg f = theta g is non-decreasing, up to the rounding of t e^{i theta g}
    assert np.all(np.diff(np.angle(f)) >= -1e-15)
    assert np.all(np.abs(fp) > 0.0)


def test_scaling_profile_validation():
    for theta, R1, T0 in ((-0.1, 2.0, 5.0), (0.75, 2.0, 5.0),
                          (0.3, 0.0, 5.0), (0.3, 5.0, 5.0), (0.3, 6.0, 5.0)):
        with pytest.raises(ValidationError):
            scaling_profile(theta, R1, T0)
    assert scaling_profile(0.0, 2.0, 5.0).theta == 0.0  # degenerate identity


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(min_value=0.0, max_value=0.7),
       R1=st.floats(min_value=1e-300, max_value=1e150),
       width=st.floats(min_value=7e-155, max_value=1e150))
@example(theta=0.7, R1=1e-154, width=7.5e-155)  # 1 / width^2 near overflow
@example(theta=0.7, R1=1e-9, width=1e150)  # T0 = 1e150
@example(theta=0.5, R1=1.5, width=4.5)  # the CLI's profile
def test_scaling_profile_is_its_closed_form(theta, R1, width):
    """What a validated profile holds without any check of its own, on
    4096 points of [1e-9, 2 T0]: f is t exactly up to R1, the full
    rotation t e^{i theta} from T0 on, 0 <= arg f <= theta, and
    |f'| >= 1, each up to rounding."""
    T0 = R1 + width
    assume(T0 <= 1e150)
    try:
        sp = scaling_profile(theta, R1, T0)
    except ValidationError:
        reject()  # the ramp T0 - R1 rounded outside float range
    t = np.linspace(1e-9, 2.0 * T0, 4096)
    f, fp = sp.deform(t)
    inner, outer = t <= R1, t >= T0
    assert np.array_equal(f[inner], t[inner].astype(complex))
    rotated = t[outer] * cmath.exp(1j * theta)
    assert np.all(np.abs(f[outer] - rotated) <= 1e-14 * t[outer])
    assert np.all(np.angle(f) >= -1e-15)
    assert np.all(np.angle(f) <= theta + 1e-15)
    assert np.all(np.abs(fp) >= 1.0 - 1e-15)


def test_theta_zero_matches_real_fiber(disk_profile):
    """At theta = 0 the scaled assembly, with no deformation anywhere, is
    the real 'h' fiber to an ulp in every entry, with imaginary parts
    exactly 0 and a real spectrum."""
    grid = RadialGrid(18.0, 600)
    sp = scaling_profile(0.0, 1.5, 6.0)
    for m in (0, 3, -2):
        op = assemble_scaled_fiber(disk_profile, m, 0.2, sp, grid)
        real_op = assemble_fiber(disk_profile, m, 0.2, grid,
                                 boundary="dirichlet_far", convention="h")
        np.testing.assert_array_max_ulp(op.diag.real, real_op.diag,
                                        maxulp=1)
        np.testing.assert_array_max_ulp(op.off.real, real_op.off, maxulp=1)
        assert not op.diag.imag.any() and not op.off.imag.any()
    vals = complex_spectrum(op)
    assert np.max(np.abs(vals.imag)) <= 1e-10


@pytest.mark.parametrize("m", [0, 3])
def test_scaled_fiber_is_the_real_fiber_inside_r1(disk_profile, m):
    """Up to R1 the deformation is the identity: every entry whose nodes
    and faces lie at or below R1 is the real 'h' fiber's, bit for bit,
    with imaginary part exactly 0."""
    grid = RadialGrid(18.0, 600)
    sp = scaling_profile(0.5, 1.5, 6.0)
    op = assemble_scaled_fiber(disk_profile, m, 0.2, sp, grid)
    real_op = assemble_fiber(disk_profile, m, 0.2, grid,
                             boundary="dirichlet_far", convention="h")
    assert (op.convention, op.boundary, op.scale) == ("h", "dirichlet_far",
                                                      0.2)
    n_in = int(np.sum(grid.faces <= sp.R1)) - 1  # nodes with both faces in
    assert n_in > 10
    assert np.array_equal(op.diag[:n_in].real, real_op.diag[:n_in])
    assert np.array_equal(op.off[:n_in - 1].real, real_op.off[:n_in - 1])
    assert not op.diag[:n_in].imag.any() and not op.off[:n_in - 1].imag.any()
    # beyond R1 the deformation acts
    assert op.diag[n_in:].imag.any()


def test_assemble_guards(disk_profile):
    sp = scaling_profile(0.3, 1.5, 6.0)
    grid = RadialGrid(18.0, 600)
    for h in (0.0, -0.2, math.inf, math.nan):  # refused by assemble_fiber
        with pytest.raises(ValidationError):
            assemble_scaled_fiber(disk_profile, 0, h, sp, grid)
    anh = make_profile(FieldSpec(kind="anharmonic", params={"gamma": 2.0},
                                 R0=1.0))
    with pytest.raises(ValidationError):
        assemble_scaled_fiber(anh, 0, 0.2, sp, grid)  # unbounded support
    sp_in = scaling_profile(0.3, 0.8, 6.0)
    with pytest.raises(ValidationError):
        assemble_scaled_fiber(disk_profile, 0, 0.2, sp_in, grid)  # R1 <= R0
    with pytest.raises(ValidationError):
        assemble_scaled_fiber(disk_profile, 0, 0.2, sp, RadialGrid(10.0, 600))


def test_spectrum_order_and_cap(disk_profile):
    sp = scaling_profile(0.3, 1.5, 6.0)
    vals = complex_spectrum(
        assemble_scaled_fiber(disk_profile, 0, 0.2, sp, RadialGrid(18.0, 400)))
    order = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(order, np.arange(len(vals)))
    big = assemble_scaled_fiber(disk_profile, 0, 0.2, sp,
                                RadialGrid(18.0, 6004))
    with pytest.raises(ValidationError):
        complex_spectrum(big)


def test_rotated_continuum_branch(disk_profile):
    sp = scaling_profile(0.3, 1.5, 6.0)
    vals = complex_spectrum(
        assemble_scaled_fiber(disk_profile, 0, 0.2, sp, RadialGrid(18.0, 600)))
    assert np.any(vals.imag < -0.01)  # genuinely non-real spectrum
    # pure AB tail with zero flux: the whole spectrum is the rotated ray
    spz = scaling_profile(0.4, 1.5, 6.0)
    free = complex_spectrum(
        assemble_scaled_fiber(zero_profile(1.0), 0, 0.2, spz,
                              RadialGrid(18.0, 600)))
    sel = free[(np.abs(free) > 0.05) & (np.abs(free) < 3.0)]
    args = np.angle(sel)
    assert abs(float(np.median(args)) + 0.8) <= 1e-3
    assert float(np.percentile(args, 95)) - float(np.percentile(args, 5)) \
        <= 0.01


def test_window_validation():
    with pytest.raises(ValidationError):
        Window(0.3, 0.1, -0.2, -0.1)  # empty in Re
    with pytest.raises(ValidationError):
        Window(0.1, 0.3, -0.1, 0.2)  # leaves the lower half-plane
    w = Window(0.1, 0.3, -0.2, -0.01)
    assert w.contains(0.2 - 0.05j)
    assert not w.contains(0.2 - 0.3j)
    assert not w.contains(0.5 - 0.05j)


def test_filter_identical_spectra_trivial():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    spec = [0.2 - 0.05j, 0.35 - 0.2j, 0.39 - 1e-12j, 0.8 - 0.1j]
    rs = filter_resonances(spec, spec, 1e-5, w)
    assert isinstance(rs, tuple)
    # both windowed points below the Im floor return with drift zero;
    # the near-real one is a threshold artifact, the 0.8 one lies outside
    assert len(rs) == 2
    assert all(r.drift == 0.0 for r in rs)
    assert [r.z for r in rs] == [0.2 - 0.05j, 0.35 - 0.2j]


def test_filter_unpaired_dropped():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    rs = filter_resonances([0.2 - 0.05j], [0.9 - 0.5j], 1e-5, w)
    assert len(rs) == 0


def test_filter_ambiguous_partners():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    spec2 = [0.2 + 4e-4 - 0.05j, 0.2 - 4e-4 - 0.05j]
    with pytest.raises(AmbiguousPairingError):
        filter_resonances([0.2 - 0.05j], spec2, 1e-3, w)


def test_filter_ambiguity_names_at_most_five_partners():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    spec2 = 0.2 - 0.05j + 1e-6 * np.arange(128)
    with pytest.raises(AmbiguousPairingError) as info:
        filter_resonances([0.2 - 0.05j], spec2, 1e-3, w)
    message = str(info.value)
    assert "128 partners" in message and message.endswith(", ...")
    assert message.count(",") == 5 and len(message) < 300


def test_filter_double_claim():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    spec1 = [0.2 - 0.05j, 0.2004 - 0.05j]
    with pytest.raises(AmbiguousPairingError):
        filter_resonances(spec1, [0.2002 - 0.05j], 1e-3, w)


def test_filter_partner_on_axis_skipped():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    # partner pairs within tol but sits on the continuum axis
    rs = filter_resonances([0.2 - 1e-3j], [0.2 - 1e-12j], 1e-2, w)
    assert len(rs) == 0


def test_filter_parameter_validation():
    w = Window(0.1, 0.4, -0.3, -1e-8)
    for tol in (0.0, 1.0, 1e300, math.nan):
        with pytest.raises(ValidationError):
            filter_resonances([], [], tol, w)
    with pytest.raises(ValidationError):
        filter_resonances([], [], 1e-5, w, theta_pair=(0.3, 0.3))
    with pytest.raises(ValidationError):
        filter_resonances([], [], 1e-5, w, theta_pair=(0.3, 0.9))
    # the rotated ray of theta = 0.25 crosses this rectangle
    with pytest.raises(ValidationError):
        filter_resonances([], [], 1e-5, w, theta_pair=(0.25, 0.35))


def test_filter_arg_cutoff():
    """A robust pair sitting below the shallower continuum ray is not a
    resonance; the window between the two rays is legal but stays empty."""
    w = Window(0.45, 0.52, -0.55, -0.45)
    z = 0.487 - 0.502j  # arg ~= -0.80, below -2*0.25
    rs = filter_resonances([z], [z], 1e-5, w, theta_pair=(0.25, 0.6))
    assert len(rs) == 0


def test_continuum_motion_synthetic():
    s1 = [0.30 - 0.10j, 0.20 - 0.05j, 0.40 - 1e-12j, 5.0 - 1.0j]
    s2 = [0.305 - 0.10j, 0.20 - 0.05j]
    d = continuum_motion(s1, s2, 1.0)
    assert d == pytest.approx(0.005)
    assert continuum_motion([0.2 - 1e-12j], s2, 1.0) is None
    # a point with no second-slice point to measure against is left out
    assert continuum_motion([0.002 - 0.002j], [], 0.01) is None


def test_resonance_results_hold_each_fact_once(reference_run):
    """A resonance and a set hold no input of the call: h, the angles, the
    window and the tolerance stay the caller's."""
    assert [f.name for f in dataclasses.fields(Resonance)] == [
        "z", "m", "drift"]
    assert [f.name for f in dataclasses.fields(ResonanceSet)] == [
        "resonances", "spectra", "radius", "work"]
    assert isinstance(reference_run, ResonanceSet)
    assert list(reference_run) == list(reference_run.resonances)


def test_reference_resonance(reference_run):
    assert len(reference_run) == 1
    r = reference_run.resonances[0]
    assert isinstance(r, Resonance)
    assert r.z == pytest.approx(FROZEN["disk_resonance_h025_n1200"], abs=1e-8)
    assert r.z.imag < 0.0
    assert r.drift <= 1e-5 * (1.0 + abs(r.z))
    assert cmath.phase(r.z) > -2.0 * 0.5
    assert set(reference_run.spectra) == {(0.5, 0), (0.6, 0)}


def test_reference_continuum_sweeps(disk_profile, reference_run):
    """Continuum points move two orders of magnitude more than the accepted
    resonance drifts under the same angle change, over |z| <= 0.5: read
    from certified slices of that disk on the run's fibers, since the run
    keeps only the window's disk."""
    r = reference_run.resonances[0]
    wide = [certified_slice(assemble_scaled_fiber(
                disk_profile, 0, 0.25, scaling_profile(theta, 1.5, 6.0),
                RadialGrid(18.0, 1200)), 0.5)[0] for theta in (0.5, 0.6)]
    motion = continuum_motion(*wide, 0.5)
    assert motion >= 10.0 * PAIR_TOL * (1.0 + abs(r.z))


def test_reference_robust_points_all_certify(reference_run, dense_reference):
    # pairing over the whole lower half-plane: every robust point, wherever
    # it sits, drifts within the certificate bound; the full dense spectra,
    # since the run keeps only its slice
    wide = Window(1e-6, 200.0, -200.0, -1e-12)
    rob = filter_resonances(dense_reference[0.5], dense_reference[0.6],
                            1e-5, wide)
    zs = [r.z for r in rob]
    assert any(abs(z - reference_run.resonances[0].z) < 1e-10 for z in zs)
    assert all(r.drift <= 1e-5 * (1.0 + abs(r.z)) for r in rob)


def test_resolution_dichotomy(disk_profile, dense_reference):
    """Refined-pair candidates converge under grid doubling; rotated
    continuum points jump by order one."""
    sp = scaling_profile(0.5, 1.5, 6.0)
    v600 = complex_spectrum(
        assemble_scaled_fiber(disk_profile, 0, 0.25, sp, RadialGrid(18.0, 600)))
    v1200 = dense_reference[0.5]
    zc = FROZEN["disk_resonance_h025_n1200"]
    # N = 2400 needs only the point nearest zc: a certified slice of the
    # disk |z| <= |zc| + 0.01 holds every eigenvalue within 0.01 of it
    v2400, _ = certified_slice(assemble_scaled_fiber(
        disk_profile, 0, 0.25, sp, RadialGrid(18.0, 2400)), abs(zc) + 0.01)
    z6 = v600[np.argmin(np.abs(v600 - zc))]
    z12 = v1200[np.argmin(np.abs(v1200 - zc))]
    z24 = v2400[np.argmin(np.abs(v2400 - zc))]
    assert abs(z24 - zc) < 0.01
    fine = z12 + (z12 - z6) / 3.0
    finer = z24 + (z24 - z12) / 3.0
    assert abs(finer - fine) < 1e-6
    cont = [z for z in v600 if 5.0 < abs(z) < 50.0 and z.imag < -1e-10]
    moves = [float(np.min(np.abs(v1200 - z))) for z in cont]
    assert max(moves) >= 0.5


def test_interior_independence(disk_profile, reference_run):
    shifted = find_resonances(disk_profile, 0.25, [0], WIN,
                              theta_pair=(0.5, 0.6),
                              grid=RadialGrid(18.0, 1200), R1=2.5, T0=6.0)
    assert len(shifted) == 1
    z0 = reference_run.resonances[0].z
    assert abs(shifted.resonances[0].z - z0) <= 1e-5 * (1.0 + abs(z0))


def test_small_angle_misses_resonance(disk_profile):
    """The h = 0.2 resonance has arg z ~= -0.16: angles below |arg z|/2
    cannot uncover it, larger ones certify it in the same window."""
    win = Window(0.15, 0.20, -0.0295, -0.0212)
    grid = RadialGrid(18.0, 800)
    missed = find_resonances(disk_profile, 0.2, [0], win,
                             theta_pair=(0.05, 0.1), grid=grid,
                             R1=1.5, T0=6.0)
    assert len(missed) == 0
    caught = find_resonances(disk_profile, 0.2, [0], win,
                             theta_pair=(0.5, 0.6), grid=grid,
                             R1=1.5, T0=6.0)
    assert len(caught) == 1
    assert caught.resonances[0].z.imag < 0.0


def test_find_resonances_keeps_degenerate_sectors(disk_profile, monkeypatch):
    """Equal resonances from distinct sectors are distinct rows."""
    z = 0.2 - 0.05j
    monkeypatch.setattr("magres.cscale._spectrum_slice",
                        lambda op, radius, count: (np.array([z]),
                                                   SliceWork()))
    rs = find_resonances(disk_profile, 0.25, [0, 1], WIN,
                         theta_pair=(0.5, 0.6), grid=RadialGrid(18.0, 400),
                         R1=1.5, T0=6.0)
    assert [(r.m, r.z) for r in rs.resonances] == [(0, z), (1, z)]


def test_one_real_fiber_per_sector(disk_profile, monkeypatch):
    """One call builds one real-fiber grid record (`_GridFiber`) for all
    its sectors, not one per sector; each sector takes its real fiber from
    it once, the one `assemble_fiber` gives bit for bit, and counts its
    inertia once; both angles deform that fiber and share the count."""
    calls = {"records": 0, "assemble": [], "count": 0}
    init, op = radial._GridFiber.__init__, radial._GridFiber.op
    fibers = []

    def building(record, *args):
        calls["records"] += 1
        init(record, *args)

    def assembling(record, m):
        calls["assemble"].append(m)
        fibers.append(op(record, m))
        return fibers[-1]

    def counting(*args):
        calls["count"] += 1
        return _ldl_factors(*args)
    monkeypatch.setattr(radial._GridFiber, "__init__", building)
    monkeypatch.setattr(radial._GridFiber, "op", assembling)
    monkeypatch.setattr("magres.cscale._ldl_factors", counting)
    ms, grid = [-2, -1, 0, 1, 2], RadialGrid(18.0, 400)
    rs = find_resonances(disk_profile, 0.25, ms, WIN, theta_pair=(0.5, 0.6),
                         grid=grid, R1=1.5, T0=6.0)
    assert calls == {"records": 1, "assemble": ms, "count": 5}
    assert sorted(rs.spectra) == [(t, m) for t in (0.5, 0.6) for m in ms]
    monkeypatch.undo()
    for real in fibers:
        want = assemble_fiber(disk_profile, real.m, 0.25, grid,
                              "dirichlet_far", "h")
        assert np.array_equal(real.diag, want.diag)
        assert np.array_equal(real.off, want.off)


def test_find_resonances_validation(disk_profile):
    anh = make_profile(FieldSpec(kind="anharmonic", params={"gamma": 2.0},
                                 R0=1.0))
    with pytest.raises(ValidationError):
        find_resonances(anh, 0.2, [0], WIN, theta_pair=(0.5, 0.6),
                        grid=RadialGrid(18.0, 400), R1=1.5, T0=6.0)
    with pytest.raises(ValidationError):
        find_resonances(disk_profile, 0.2, [0], WIN, theta_pair=(0.3, 0.3),
                        grid=RadialGrid(18.0, 400), R1=1.5, T0=6.0)
    for tol in (1.0, 1e300):  # pairs anything with anything
        with pytest.raises(ValidationError, match="pairing tolerance"):
            find_resonances(disk_profile, 0.2, [0], WIN,
                            theta_pair=(0.5, 0.6),
                            grid=RadialGrid(18.0, 400), R1=1.5, T0=6.0,
                            tol=tol)


@pytest.mark.parametrize("N", [400, 600])
@pytest.mark.parametrize("theta", [0.5, 0.6])
@pytest.mark.parametrize("field, h", [("disk", 0.25), ("disk", 0.1),
                                      ("zero", 0.2)])
def test_slice_matches_dense_in_disk(disk_profile, N, theta, field, h):
    """The certified slice is the dense spectrum cut to the slice disk."""
    profile = disk_profile if field == "disk" else zero_profile(1.0)
    op = assemble_scaled_fiber(profile, 0, h, scaling_profile(theta, 1.5, 6.0),
                               RadialGrid(18.0, N))
    radius = _slice_radius(Window(0.5 * h, 1.5 * h, -0.5 * h, -1e-12),
                           PAIR_TOL)
    dense = complex_spectrum(op)
    want = dense[np.abs(dense) <= radius]
    got, _ = certified_slice(op, radius)
    assert got.size == want.size > 0
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("theta", [0.5, 0.6])
@pytest.mark.parametrize("h", [0.25, 0.1])
@pytest.mark.parametrize("lo", [2.5, 4.5])
def test_slice_count_matches_dense_above_the_ground(disk_profile, theta, h,
                                                    lo):
    """Windows [lo h, (lo + 1) h] above the lowest Landau level: the
    certified count is the dense count, and the values agree where the
    window and the filter read them, |z| <= max|corner|: by at most 3.1e-9
    here (7.8e-10 at N = 400). Farther out the rotated continuum of the
    two solvers can differ by far more: by up to 6.2e-7 within twice that
    modulus."""
    win = Window(lo * h, (lo + 1.0) * h, -0.5 * h, -1e-12)
    op = assemble_scaled_fiber(disk_profile, 0, h,
                               scaling_profile(theta, 1.5, 6.0),
                               RadialGrid(18.0, 600))
    radius = _slice_radius(win, PAIR_TOL)
    dense = complex_spectrum(op)
    want = dense[np.abs(dense) <= radius]
    got, _ = certified_slice(op, radius)
    assert got.size == want.size > 0
    corner = max(abs(complex(re, im)) for re in (win.re_min, win.re_max)
                 for im in (win.im_min, win.im_max))
    for a, b in ((got, want), (want, got)):
        near = a[np.abs(a) <= corner]
        assert near.size > 0
        assert np.abs(near[:, None] - b[None, :]).min(axis=1).max() <= 1e-8


_bound = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(re=st.tuples(_bound, _bound), im=st.tuples(_bound, _bound),
       tol=st.floats(min_value=1e-12, max_value=0.5))
def test_slice_disk_is_the_disk_about_the_origin(re, im, tol):
    """Over windows in Im z <= 0: the radius is c + tol (1 + c), c =
    max|corner|, so the disk holds each corner with its pairing tolerance,
    and is never wider than |window centre| + half its diagonal, plus that
    tolerance."""
    (re_min, re_max), (im_min, im_max) = sorted(re), sorted(-abs(x)
                                                            for x in im)
    assume(re_min < re_max and im_min < im_max)
    win = Window(re_min, re_max, im_min, im_max)
    radius = _slice_radius(win, tol)
    corners = [complex(a, b) for a in (re_min, re_max)
               for b in (im_min, im_max)]
    c = max(abs(z) for z in corners)
    assert radius == c + tol * (1.0 + c)
    assert all(abs(z) + tol * (1.0 + abs(z)) <= radius for z in corners)
    window_centre = complex(0.5 * (re_min + re_max), 0.5 * (im_min + im_max))
    half_diagonal = 0.5 * abs(complex(re_max - re_min, im_max - im_min))
    assert radius <= ((abs(window_centre) + half_diagonal) * (1.0 + 1e-15)
                      + tol * (1.0 + c))


_side = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3),
                 st.floats(min_value=-1e3, max_value=-1e-6))


@settings(max_examples=300, deadline=None)
@given(re=st.tuples(_side, _side), im=st.tuples(_side, _side),
       theta=st.floats(min_value=0.0, max_value=0.7, exclude_min=True))
@example(re=(0.125, 0.375), im=(0.125, 1e-12), theta=0.5)  # CLI default
@example(re=(0.125, 0.375), im=(0.125, 1e-12), theta=0.6)  # at h = 0.25
@example(re=(0.0, 1.0), im=(7.49, 1.0), theta=math.pi / 8)  # 1 - i on the ray
# -2 theta rounds to 0: the window touches the negative real axis, where
# the subnormal Im u leaves cross products of 0, but lies behind the ray
@example(re=(-1.0, -0.25), im=(0.0, 1.0), theta=5e-324)
def test_ray_hits_window_iff_between_corner_angles(re, im, theta):
    """A window that holds the origin meets every ray. The ray
    e^{-2 i theta}[0, inf) meets any other window iff the line along u =
    e^{-2 i theta} meets it, that is the corners' cross products Re(u)
    Im(c) - Im(u) Re(c) do not all share one strict sign, and some corner
    lies on the ray's side of the origin, Re(conj(u) c) >= 0. A corner
    exactly on the ray counts as meeting it; draws with a corner angle
    within 1e-9 of the ray's are otherwise skipped, since rounding decides
    those."""
    (re_min, re_max), (im_min, im_max) = sorted(re), sorted(-abs(x)
                                                            for x in im)
    assume(re_min < re_max and im_min < im_max)
    win = Window(re_min, re_max, im_min, im_max)
    if win.contains(0j):
        assert _ray_hits_window(theta, win)
        return
    corners = [complex(a, b) for a in (re_min, re_max)
               for b in (im_min, im_max)]
    gaps = [abs(-abs(cmath.phase(c)) + 2.0 * theta) for c in corners]
    if min(gaps) == 0.0:
        assert _ray_hits_window(theta, win)
        return
    assume(min(gaps) > 1e-9)
    u = cmath.exp(-2j * theta)
    cross = [u.real * c.imag - u.imag * c.real for c in corners]
    ahead = any((u.conjugate() * c).real >= 0 for c in corners)
    assert _ray_hits_window(theta, win) == (ahead and not (
        all(x > 0 for x in cross) or all(x < 0 for x in cross)))


def test_singular_shift_is_numerical_error():
    """T decouples into 4 I and [[2, 1], [1, 0.5]], which is exactly
    singular: its LU factorization has a zero pivot."""
    n = 64
    diag = np.full(n, 4.0 + 0j)
    off = np.zeros(n - 1, dtype=complex)
    diag[-2:], off[-1] = (2.0, 0.5), 1.0
    op = FiberOperator(m=0, scale=1.0, convention="h",
                       boundary="dirichlet_far", grid=RadialGrid(18.0, n),
                       diag=diag, off=off, pot=np.zeros(n),
                       profile=zero_profile(1.0))
    with pytest.raises(NumericalError, match="singular"):
        _spectrum_slice(op, 1.0, 0)


def test_slice_disk_covers_what_the_diagnostics_read():
    """The filter reads the window and its pairing tolerance, and the slice
    disk is exactly the smallest disk about the origin that holds them."""
    radius = _slice_radius(WIN, PAIR_TOL)
    corners = [complex(a, b) for a in (WIN.re_min, WIN.re_max)
               for b in (WIN.im_min, WIN.im_max)]
    c = max(abs(z) for z in corners)
    assert all(abs(z) < radius for z in corners)
    assert radius == c + PAIR_TOL * (1.0 + c)


def test_reference_slice_matches_dense_diagnostics(reference_run,
                                                   dense_reference):
    """Filter and continuum motion read the same points from the slice as
    from the full dense spectra, over the slice disk."""
    r = reference_run.resonances[0]
    dense = filter_resonances(dense_reference[0.5], dense_reference[0.6],
                              PAIR_TOL, WIN, theta_pair=(0.5, 0.6), m=0)
    assert [x.z for x in dense] == pytest.approx([r.z], abs=1e-10)
    radius = reference_run.radius
    motion = continuum_motion(reference_run.spectra[(0.5, 0)],
                              reference_run.spectra[(0.6, 0)], radius)
    want = continuum_motion(dense_reference[0.5], dense_reference[0.6],
                            radius)
    assert motion == pytest.approx(want, abs=1e-9)


def _nearest_dropped(arnoldi):
    def dropping(factors, n, k, v0):
        vals, solves = arnoldi(factors, n, k, v0)
        return np.delete(vals, np.argmin(np.abs(vals))), solves
    return dropping


def test_slice_missing_eigenvalue_is_numerical_error(disk_profile,
                                                     monkeypatch):
    monkeypatch.setattr(cscale, "_arnoldi", _nearest_dropped(_arnoldi))
    with pytest.raises(NumericalError, match="incomplete"):
        find_resonances(disk_profile, 0.25, [0], WIN, theta_pair=(0.5, 0.6),
                        grid=RadialGrid(18.0, 400), R1=1.5, T0=6.0)


def _znaupd_answering(*replies):
    """A stub of `znaupd_wrap` that sets (ido, info) from `replies` in turn
    and records the resid it is handed at each call."""
    seen = []

    def znaupd(state, resid, *work):
        seen.append(resid.copy())
        state["ido"], state["info"] = replies[len(seen) - 1]
    return znaupd, seen


def test_slice_no_convergence_is_numerical_error(disk_profile, monkeypatch):
    monkeypatch.setattr(cscale, "znaupd_wrap", _znaupd_answering((99, 1))[0])
    with pytest.raises(NumericalError, match="Arnoldi"):
        find_resonances(disk_profile, 0.25, [0], WIN, theta_pair=(0.5, 0.6),
                        grid=RadialGrid(18.0, 400), R1=1.5, T0=6.0)


@pytest.mark.parametrize("reply, neupd_info, failure", [
    ((99, 1), 0, "znaupd info=1"),  # maxiter reached
    ((99, -9), 0, "znaupd info=-9"),
    ((2, 0), 0, "znaupd asked for ido=2"),
    ((3, 0), 0, "znaupd asked for ido=3"),
    ((99, 0), -14, "zneupd info=-14"),
])
def test_every_arpack_outcome_has_an_exit_code(reply, neupd_info, failure,
                                               monkeypatch, disk_config):
    """A non-zero info from either routine, and a request `_arnoldi` does
    not serve, is a NumericalError naming N, k and the code: `resonances`
    exits 3."""
    def zneupd(state, *args):
        state["info"] = neupd_info
    monkeypatch.setattr(cscale, "znaupd_wrap",
                        lambda state, *args: state.update(
                            ido=reply[0], info=reply[1]))
    monkeypatch.setattr(cscale, "zneupd_wrap", zneupd)
    with pytest.raises(NumericalError,
                       match=rf"N=64, k=5\): ARPACK {failure}$"):
        _arnoldi(None, 64, 5, np.ones(64, complex))
    assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                 "--grid-n", "480"]) == 3


def test_arnoldi_restart_vectors_are_seeded(monkeypatch):
    """A request for a random restart vector (ido 4) is served by SciPy's
    formula, complex and uniform on (-1, 1), from a fixed seed, so reruns
    agree bit for bit."""
    n, v0 = 64, np.arange(64, dtype=complex)
    rng = np.random.default_rng(0)
    want = [v0] + [rng.uniform(-1.0, 1.0, (n, 2)).view(complex).ravel()
                   for _ in range(2)]
    monkeypatch.setattr(cscale, "zneupd_wrap", lambda state, *args: None)
    for _ in range(2):
        znaupd, seen = _znaupd_answering((4, 0), (4, 0), (99, 0))
        monkeypatch.setattr(cscale, "znaupd_wrap", znaupd)
        vals, solves = _arnoldi(None, n, 3, v0)
        assert vals.size == 0 and solves == 0
        assert len(seen) == 3
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_start_vector_is_splitmix64():
    """The start vector repeats bit for bit, its entries are finite, real
    and in [-1, 1), all n differ at n = MAX_GRID_N, and its first 1000
    entries are splitmix64's first outputs from seed 0, by the scalar loop
    in Python integers."""
    n = radial.MAX_GRID_N
    v = _start_vector(n)
    assert v.dtype == complex and v.shape == (n,)
    assert np.array_equal(v, _start_vector(n))
    assert np.isfinite(v).all() and not v.imag.any()
    assert (-1.0 <= v.real).all() and (v.real < 1.0).all()
    assert np.unique(v.real).size == n
    mask, state, want = (1 << 64) - 1, 0, []
    for _ in range(1000):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        want.append((z >> 11) / 2.0 ** 52 - 1.0)
    assert want[0] == (0xE220A8397B1DCDAF >> 11) / 2.0 ** 52 - 1.0
    assert v[:1000].real.tolist() == want
    assert np.array_equal(_start_vector(5), v[:5])


@pytest.mark.parametrize("h, theta, n", [
    *((h, theta, 480) for h in (0.25, 0.2, 0.15) for theta in (0.5, 0.6)),
    (0.25, 0.5, 8000)])
def test_arnoldi_is_eigs(disk_profile, h, theta, n):
    """`_arnoldi` returns exactly what `scipy.sparse.linalg.eigs` returns
    for the same k, LU and the slice's own start vector, and counts the
    solves `eigs` makes: on the six slices of the seed-0 benchmark sweep,
    and on the N = 8000 fiber past the dense cap. `eigs` is handed a T
    that fails the test if applied."""
    op, radius = _cli_slice(disk_profile, 0, h, theta, n)
    if n == 8000:  # as `test_find_resonances_beyond_dense_cap` slices it
        radius = _slice_radius(WIN, PAIR_TOL)
    *factors, _ = cscale.zgttrf(op.off, op.diag, op.off)
    v0 = _start_vector(n)
    k = slice_count(op, radius) + 2
    T = spla.LinearOperator((n, n), dtype=complex,
                            matvec=lambda v: pytest.fail("eigs applied T"))
    applied = []

    def solve(b):
        applied.append(1)
        return cscale.zgttrs(*factors, b)[0]
    opinv = spla.LinearOperator((n, n), dtype=complex, matvec=solve)
    want = spla.eigs(T, k=k, sigma=0.0, OPinv=opinv, v0=v0,
                     return_eigenvectors=False)
    got, solves = _arnoldi(factors, n, k, v0)
    assert np.array_equal(got, want)
    assert solves == len(applied) > 2 * k  # the first basis has 2k + 1


def test_wide_disk_is_a_numerical_error(disk_profile, monkeypatch):
    """A disk holding N/2 eigenvalues or more is too wide to slice: a
    NumericalError that names the disk, N/2 and the fix, with no dense
    solve. `complex_spectrum` still gives the dense reference."""
    op = assemble_scaled_fiber(disk_profile, 0, 0.25,
                               scaling_profile(0.5, 1.5, 6.0),
                               RadialGrid(18.0, 128))
    dense = complex_spectrum(op)
    assert dense.size == 128
    assert np.all(np.diff(dense.real) >= 0.0)
    radius = float(np.sort(np.abs(dense))[100])
    monkeypatch.setattr(cscale, "complex_spectrum", lambda op: pytest.fail(
        "the slice ran the dense solve"))
    with pytest.raises(NumericalError, match=(
            rf"the disk \|z\| <= {radius:.6g} holds .* Arnoldi's k would "
            rf"reach N/2 = 64 \(N=128, m=0\); narrow --window or raise "
            rf"--grid-n")):
        certified_slice(op, radius)


def test_find_resonances_beyond_dense_cap(disk_profile):
    """N = 8000 is past the dense cap; the slice still certifies the
    frozen resonance."""
    grid = RadialGrid(18.0, 8000)
    op = assemble_scaled_fiber(disk_profile, 0, 0.25,
                               scaling_profile(0.5, 1.5, 6.0), grid)
    with pytest.raises(ValidationError):
        complex_spectrum(op)
    rs = find_resonances(disk_profile, 0.25, [0], WIN, theta_pair=(0.5, 0.6),
                         grid=grid, R1=1.5, T0=6.0)
    assert len(rs) == 1
    z = rs.resonances[0].z
    assert z == pytest.approx(FROZEN["disk_resonances"][0.25], abs=1e-4)
    assert rs.resonances[0].drift <= PAIR_TOL * (1.0 + abs(z))
    assert all(np.all(np.abs(v) <= rs.radius) for v in rs.spectra.values())


def _cli_slice(profile, m, h, theta, N):
    """The scaled fiber and the slice radius of `resonances` at this h."""
    op = assemble_scaled_fiber(profile, m, h, scaling_profile(theta, 1.5, 6.0),
                               RadialGrid(18.0, N))
    return op, _slice_radius(Window(0.5 * h, 1.5 * h, -0.5 * h, -1e-12),
                             PAIR_TOL)


@pytest.mark.parametrize("field", ["disk", "zero"])
@pytest.mark.parametrize("h", [0.3, 0.2, 0.12])
def test_predicted_count_is_not_below_the_disk_count(disk_profile, field, h):
    """The real fiber's inertia count below the radius, which sizes the
    Arnoldi run, is never below the scaled fiber's count in the disk."""
    profile = disk_profile if field == "disk" else zero_profile(1.0)
    for m in (0, 4, -6):
        for theta in (0.25, 0.5, 0.7):
            op, radius = _cli_slice(profile, m, h, theta, 256)
            dense = complex_spectrum(op)
            inside = int(np.sum(np.abs(dense) <= radius))
            assert inside <= slice_count(op, radius) <= inside + 8


def test_low_prediction_doubles_to_the_dense_slice(disk_profile,
                                                   monkeypatch):
    """A prediction far too low costs Arnoldi runs, not correctness."""
    asked = []

    def recording(factors, n, k, v0):
        asked.append(k)
        return _arnoldi(factors, n, k, v0)
    monkeypatch.setattr(cscale, "_arnoldi", recording)
    op, radius = _cli_slice(disk_profile, 0, 0.25, 0.5, 400)
    dense = complex_spectrum(op)
    want = dense[np.abs(dense) <= radius]
    got, _ = _spectrum_slice(op, radius, 1)
    assert asked[:3] == [3, 6, 12] and len(asked) >= 4
    assert got.size == want.size > 0
    assert np.max(np.abs(got - want)) <= 1e-9


def _known_nearest(disk_profile, k=40):
    """The h = 0.2, m = 0 fiber at N = 400 and its k eigenvalues nearest
    the origin, by distance, with those distances."""
    op, _ = _cli_slice(disk_profile, 0, 0.2, 0.5, 400)
    dense = complex_spectrum(op)
    known = dense[np.argsort(np.abs(dense))[:k]]
    return op, known, np.abs(known)


def test_first_sampling_steps_obey_the_rule(disk_profile, monkeypatch):
    """The first points close the circle in equal steps of at most an
    eighth of the margin to the farthest known eigenvalue, and of pi/4 in
    angle; a margin of 0 leaves no finite step."""
    op, known, dist = _known_nearest(disk_profile)
    firsts = []

    def recording(op, z):
        firsts.append(z)
        return det_phase(op, z)
    det_phase = cscale._det_phase
    monkeypatch.setattr(cscale, "_det_phase", recording)
    for i in (5, 30, 38):
        firsts.clear()
        circle = 0.5 * (dist[i] + dist[i + 1])
        margin = dist[-1] - circle
        assert _contour_count(op, circle, known)[0] == 0
        z = firsts[0]
        assert z[0] == circle and abs(z[-1] - circle) <= 1e-15 * circle
        steps = np.abs(np.diff(z))
        assert np.ptp(steps) <= 1e-12 * circle
        assert steps.max() <= min(margin / 8.0, 2.0 * circle
                                  * math.sin(math.pi / 8.0)) * (1.0 + 1e-12)
        assert z.size == max(math.ceil(16.0 * math.pi * circle / margin),
                             8) + 1
    with pytest.raises(NumericalError,
                       match="first sampling asks for inf, at steps of an "
                             "eighth of the margin 0 "):
        _contour_count(op, float(dist[-1]), known)


@pytest.mark.parametrize("i", [5, 30, 38])
def test_contour_count_reads_the_eigenvalues_known_misses(disk_profile, i):
    """The winding counts the eigenvalues inside the circle that the known
    values miss: none when all are known, one when the last inside is
    dropped, none when the first outside is dropped (its steps are
    bisected)."""
    op, known, dist = _known_nearest(disk_profile)
    circle = 0.5 * (dist[i] + dist[i + 1])
    assert _contour_count(op, circle, known)[0] == 0
    assert _contour_count(op, circle, np.delete(known, i))[0] == 1
    if i + 1 < dist.size - 1:  # the farthest value sets the margin
        points = _contour_count(op, circle, known)[1]
        missed, more = _contour_count(op, circle, np.delete(known, i + 1))
        assert missed == 0 and more > points


def test_contour_count_past_the_cap_is_numerical_error(disk_profile,
                                                        monkeypatch):
    """A count whose bisection would pass CONTOUR_CAP gives up, and says
    how many points its first sampling asked for, and the margin."""
    op, known, dist = _known_nearest(disk_profile)
    circle = 0.5 * (dist[30] + dist[31])
    margin = dist[-1] - circle
    first = math.ceil(16.0 * math.pi * circle / margin)
    assert _contour_count(op, circle, known)[1] > first + 1  # it bisects
    monkeypatch.setattr(cscale, "CONTOUR_CAP", first + 2)
    with pytest.raises(NumericalError,
                       match=f"within {first + 2} points: its first sampling "
                             f"asks for {first}, at steps of an eighth of "
                             f"the margin {margin:.3g} "):
        _contour_count(op, circle, known)


def test_contour_cap_error_names_the_fix(disk_profile, disk_config,
                                         monkeypatch, tmp_path, capsys):
    """A count whose first sampling would pass CONTOUR_CAP names N, m and
    the fix, as the N/2 error does: here the farthest known value lies a
    millionth of the radius beyond the circle. `resonances` exits 3 with
    that message."""
    op, known, dist = _known_nearest(disk_profile)
    with pytest.raises(NumericalError,
                       match=r"first sampling asks for \d+, .* \(N=400, "
                             r"m=0\); narrow --window or lower --grid-n$"):
        _contour_count(op, float(dist[-1]) * (1.0 - 1e-6), known)
    monkeypatch.setattr(cscale, "CONTOUR_CAP", 8)
    assert main(["resonances", "--field", str(disk_config), "--h", "0.25",
                 "--grid-n", "480", "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert "contour count did not resolve" in err
    assert "(N=480, m=0); narrow --window or lower --grid-n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("N", [64, 401, 480])
def test_det_phase_matches_the_per_pivot_reference(disk_profile, N):
    op = assemble_scaled_fiber(disk_profile, 3, 0.25,
                               scaling_profile(0.5, 1.5, 6.0),
                               RadialGrid(18.0, N))
    z = 0.2 - 0.05j + 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 97))
    got = _det_phase(op, z)
    want = det_phase_per_pivot(op.diag, op.off, z)
    assert np.max(np.abs(np.angle(np.exp(1j * (got - want))))) <= 1e-9


def test_zero_block_product_is_numerical_error():
    """det(T) = 2 * 0.5 - 1 = 0: the last pivot at z = 0 vanishes."""
    for n in (2, DET_BLOCK, 3 * DET_BLOCK + 2):
        diag = np.full(n, 4.0 + 0j)
        off = np.zeros(n - 1, dtype=complex)
        diag[-2:], off[-1] = (2.0, 0.5), 1.0
        op = SimpleNamespace(diag=diag, off=off)
        with pytest.raises(NumericalError, match="vanished"):
            _det_phase(op, np.array([0.5j, 0.0j]))
        assert np.isfinite(_det_phase(op, np.array([0.5j]))).all()
