import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dpttrs

import magres.radial as radial
from magres.errors import (DecayCheckError, NumericalError, TruncationError,
                           ValidationError)
from magres.fields import FieldSpec, make_profile, zero_profile
from magres.radial import (MAX_GRID_N, RadialGrid, anharmonic_levels,
                           assemble_fiber, check_ceiling,
                           dirichlet_disk_levels, eigs_lowest, fiber_levels,
                           island_neumann_levels, sector_sweep,
                           verify_ah_decay, verify_island_decay, well_levels)

from conftest import FROZEN
from oracles import (_sturm_counts, bessel_j_zero, fiber_levels_longdouble,
                     richardson_order)


def test_grid_validation():
    with pytest.raises(ValidationError):
        RadialGrid(0.0, 100)
    with pytest.raises(ValidationError):
        RadialGrid(math.inf, 100)
    with pytest.raises(ValidationError):
        RadialGrid(10.0, 32)
    for n in (MAX_GRID_N + 1, 4_000_000_000_000, 10 ** 400):  # no allocation
        with pytest.raises(ValidationError):
            RadialGrid(10.0, n)
    assert RadialGrid(10.0, MAX_GRID_N).N == MAX_GRID_N
    g = RadialGrid(10.0, 128)
    assert g.dr == pytest.approx(10.0 / 128)
    assert g.nodes[0] == pytest.approx(g.dr / 2)
    assert g.faces[0] == 0.0 and g.faces[-1] == pytest.approx(10.0)
    assert g.halved().N == 64
    with pytest.raises(ValidationError):
        RadialGrid(10.0, 65).halved()  # odd N cannot halve
    with pytest.raises(ValidationError, match="at least 128"):
        RadialGrid(10.0, 64).halved()  # refinement needs N/2 >= 64


def test_landau_plain_grid_invariant(disk_profile):
    """Plain-grid constant-field eigenvalues sit within 10 dr^2 of odd
    integers times b (full-plane field: big disk swallows the AB tail)."""
    prof = make_profile(FieldSpec("constant_disk", {"r0": 20.0}, R0=20.0))
    grid = RadialGrid(20.0, 2000)
    tol = 10.0 * grid.dr ** 2
    for m in (-2, 0, 3):
        vals = eigs_lowest(assemble_fiber(prof, m, 1.0, grid), 3).values
        for lam in vals:
            nearest = 2 * round((lam - 1) / 2) + 1
            assert abs(lam - nearest) < tol


def test_landau_refined_accuracy():
    prof = make_profile(FieldSpec("constant_disk", {"r0": 20.0}, R0=20.0))
    grid = RadialGrid(20.0, 4000)
    vals = fiber_levels(prof, 0, 1.0, grid, 3)
    assert np.allclose(vals, [1.0, 3.0, 5.0], atol=5e-9)


def test_convention_mapping_exact(disk_profile):
    """Assembling at h must equal h^2 times the b = 1/h assembly, entrywise."""
    grid = RadialGrid(12.0, 500)
    h = 0.25
    op_h = assemble_fiber(disk_profile, 1, h, grid, convention="h")
    op_b = assemble_fiber(disk_profile, 1, 1.0 / h, grid, convention="b")
    assert np.allclose(op_h.diag, h * h * op_b.diag, rtol=1e-15, atol=0)
    assert np.allclose(op_h.off, h * h * op_b.off, rtol=1e-15, atol=0)


def test_sector_symmetry_constant_field():
    """Lowest Landau level is sector-independent for m >= 0."""
    prof = make_profile(FieldSpec("constant_disk", {"r0": 18.0}, R0=18.0))
    grid = RadialGrid(18.0, 1500)
    lows = [fiber_levels(prof, m, 1.0, grid, 1)[0] for m in (0, 1, 2, 5)]
    assert max(lows) - min(lows) < 1e-7


def test_eigenvectors_orthonormal_weighted(anharmonic_profile):
    grid = RadialGrid(12.0, 1500)
    res = eigs_lowest(assemble_fiber(anharmonic_profile, 0, 1.0, grid), 4)
    w = grid.nodes * grid.dr
    gram = res.vectors.T @ (res.vectors * w[:, None])
    assert np.allclose(gram, np.eye(4), atol=1e-8)
    # deterministic sign: the dominant component is positive
    for j in range(4):
        i = int(np.argmax(np.abs(res.vectors[:, j])))
        assert res.vectors[i, j] > 0


def test_minmax_monotonicity(anharmonic_profile):
    """Enlarging the Dirichlet box never raises eigenvalues (beyond noise)."""
    lam_small = eigs_lowest(assemble_fiber(anharmonic_profile, 0, 1.0,
                                           RadialGrid(8.0, 1000)), 3).values
    lam_big = eigs_lowest(assemble_fiber(anharmonic_profile, 0, 1.0,
                                         RadialGrid(16.0, 2000)), 3).values
    assert np.all(lam_big <= lam_small + 1e-10)


def test_self_convergence_order(anharmonic_profile):
    vals = [eigs_lowest(assemble_fiber(anharmonic_profile, 0, 1.0,
                                       RadialGrid(12.0, n)), 1).values[0]
            for n in (800, 1600, 3200)]
    assert richardson_order(*vals) >= 1.9


def test_fiber_levels_count_guard(anharmonic_profile):
    # refinement also solves the halved grid, so k must stay below N/2
    grid = RadialGrid(12.0, 128)
    assert fiber_levels(anharmonic_profile, 0, 1.0, grid, 63).size == 63
    for k in (64, 0):
        with pytest.raises(ValidationError):
            fiber_levels(anharmonic_profile, 0, 1.0, grid, k)


def test_dirichlet_disk_vs_series_oracle():
    got = dirichlet_disk_levels(1.0, 3)
    # independent ladder: power-series Bessel zeros, all angular orders
    zeros = sorted(bessel_j_zero(nu, k) ** 2
                   for nu in range(4) for k in (1, 2))
    assert np.allclose(got, zeros[:4], atol=1e-7)
    # radius scaling
    got3 = dirichlet_disk_levels(3.0, 0)
    assert got3[0] == pytest.approx(got[0] / 9.0, rel=1e-8)


def test_dirichlet_disk_levels_run_no_eigensolve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the disk ladder reached a radial solve")
    for name in ("sector_sweep", "fiber_levels", "assemble_fiber", "_lowest"):
        monkeypatch.setattr(radial, name, no_solve)
    assert dirichlet_disk_levels(2.0, 4).shape == (5,)
    for rho1 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            dirichlet_disk_levels(rho1, 0)


@pytest.mark.parametrize("rho1", [1.0, 3.0])
def test_zero_field_dirichlet_disk_matches_bessel_zeros(rho1):
    """The solver's zero-field Dirichlet disk, on the ladder grid that
    ends at rho1, against power-series Bessel zeros j_{nu,k}^2 / rho1^2."""
    grid = RadialGrid(rho1, radial.LADDER_N)
    for m in (0, 1, -1, 2, 5):
        got = fiber_levels(zero_profile(R0=rho1), m, 1.0, grid, 3)
        want = [bessel_j_zero(abs(m), k) ** 2 / rho1 ** 2 for k in (1, 2, 3)]
        assert np.allclose(got, want, rtol=2e-9, atol=0.0), m
    # merged over the sectors, with +-m counted once, as the ladder counts
    merged = sorted(lam for m in range(0, 6) for lam in
                    fiber_levels(zero_profile(R0=rho1), m, 1.0, grid, 5))
    assert np.allclose(merged[:5], dirichlet_disk_levels(rho1, 4),
                       rtol=2e-9, atol=0.0)


def test_level_index_is_bounded_before_any_work(monkeypatch):
    """n + 1 must stay below N/2 of the ladder grid; a larger index is
    rejected before any sector list or Bessel zero."""
    def no_work(*args, **kwargs):
        raise AssertionError("an out-of-range index reached the ladder")
    for name in ("sector_sweep", "_solve_sectors", "jn_zeros",
                 "default_m_range"):
        monkeypatch.setattr(radial, name, no_work)
    top = radial.LADDER_N // 2 - 2
    for n in (top + 1, 10 ** 6, -1):
        for ladder in (lambda: anharmonic_levels(2.0, n),
                       lambda: well_levels(1.0, 0.1, n),
                       lambda: island_neumann_levels(1.0, 1.5, 25.0, n),
                       lambda: dirichlet_disk_levels(1.0, n)):
            with pytest.raises(ValidationError, match="level index"):
                ladder()
    radial._check_index(top)  # the largest index the ladder grid holds


def test_anharmonic_ladder_frozen():
    got = anharmonic_levels(2.0, 4)
    assert np.allclose(got, FROZEN["anharmonic_gamma2_ladder"], atol=1e-7)
    assert np.all(np.diff(got) > 0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_anharmonic_scaling_covariance(gamma):
    """lambda(b) = b^(2/(2+gamma)) lambda(1) across sectors."""
    prof = make_profile(FieldSpec("anharmonic", {"gamma": gamma}, R0=1.0))
    grid = RadialGrid(12.0, 2000)
    base = min(fiber_levels(prof, m, 1.0, grid, 1)[0] for m in range(-2, 3))
    for b in (2.0, 4.0):
        scaled = min(fiber_levels(prof, m, b, grid, 1)[0]
                     for m in range(-2, 3))
        assert scaled == pytest.approx(
            b ** (2.0 / (2.0 + gamma)) * base, abs=1e-7)


def test_anharmonic_guards(monkeypatch):
    with pytest.raises(ValidationError):
        anharmonic_levels(0.0, 1)
    # single-sector range cannot certify completeness of the merged ladder
    monkeypatch.setattr(radial, "default_m_range", lambda n_max: range(0, 1))
    with pytest.raises((NumericalError, TruncationError)):
        anharmonic_levels(2.0, 2)


def test_well_levels_m_edge_guard(monkeypatch):
    # the well ladder is certified like every merged ladder
    monkeypatch.setattr(radial, "default_m_range", lambda n_max: range(0, 1))
    with pytest.raises(NumericalError, match="m-range truncation"):
        well_levels(1.0, 0.1, 1)


def test_well_levels_frozen():
    for h, e0 in FROZEN["well_e0"].items():
        got = well_levels(1.0, h, 1)
        assert got[0] == pytest.approx(e0, abs=1e-9)
        assert got[1] == pytest.approx(FROZEN["well_e1"][h], abs=1e-9)


def test_well_truncation_guard(well_profile):
    # the ladder's r_max = 3 holds; a ladder truncated at 1.5 does not
    with pytest.raises(TruncationError):
        radial._merged_ladder(well_profile, 0.1, 1, 1.5, convention="h")


def _full_cap_ladder(profile, scale, n_max, r_max, boundary="dirichlet_far",
                     convention="b"):
    """The ladder as every sector of the cap gives it: all solved, merged,
    levels within a relative 1e-8 counted once."""
    rows, _ = sector_sweep(profile, scale, radial.default_m_range(n_max),
                           RadialGrid(r_max, radial.LADDER_N), n_max + 1,
                           boundary, convention)
    levels, homes = [], []
    for lam, m, k in rows:
        if not levels or abs(lam - levels[-1]) > 1e-8 * (1 + abs(levels[-1])):
            levels.append(lam)
            homes.append((m, k))
    return levels[: n_max + 1], homes[: n_max + 1]


def _assert_full_cap(case, well_profile, island_profile):
    """Levels and homes of the certified sweep of case = (model, x, n), x
    the well's h, the anharmonic gamma or the island b, equal, bit for bit,
    those of a solve of every sector of the cap; every sector of the cap
    is solved or certified, never both."""
    model, x, n = case
    if model == "well":
        ladder = radial._well_ladder(1.0, x, n)
        want = _full_cap_ladder(well_profile, x, n, ladder.r_max,
                                convention="h")
    elif model == "anharmonic":
        ladder = radial._anharmonic_ladder(x, n)
        profile = make_profile(FieldSpec("anharmonic", {"gamma": x}, R0=1.0))
        want = _full_cap_ladder(profile, 1.0, n, ladder.r_max)
    else:
        ladder = radial._island_ladder(1.0, 1.5, x, n)
        profile = zero_profile(R0=1.5) if x == 0.0 else island_profile
        want = _full_cap_ladder(profile, x or 1.0, n, 1.5, "neumann_far")
    assert ladder.levels.tolist() == want[0]
    assert ladder.homes == want[1]
    cap = list(radial.default_m_range(n))
    assert sorted(ladder.solved + ladder.certified) == cap
    assert set(ladder.fallback) <= set(ladder.solved)
    if ladder.certified:  # each counted 0 below the last shift
        assert ladder.shift == ladder.levels[-1] + ladder.margin


@pytest.mark.parametrize("case", [
    ("well", 0.1, 1), ("well", 0.025, 3), ("anharmonic", 2.0, 4),
    ("anharmonic", 0.5, 1), ("island", 0.0, 0), ("island", 200.0, 0),
    ("island", 25.0, 5)])
def test_certified_sweep_is_the_full_cap_ladder(case, well_profile,
                                                island_profile):
    """`_assert_full_cap` on fixed ladders of each model."""
    _assert_full_cap(case, well_profile, island_profile)


@settings(max_examples=20, deadline=None)
@example(case=("well", 0.1, 0))  # the n = 0 ladders of a seed-0
@example(case=("well", 0.05, 0))  # benchmark ladder_sweep pass
@example(case=("well", 0.025, 0))
@example(case=("island", 25.0, 0))
@example(case=("island", 50.0, 0))
@example(case=("island", 100.0, 0))
@given(case=st.one_of(
    st.tuples(st.just("well"), st.floats(0.02, 0.4), st.integers(0, 4)),
    st.tuples(st.just("anharmonic"), st.floats(0.25, 4.0), st.integers(0, 4)),
    st.tuples(st.just("island"), st.floats(0.0, 300.0), st.integers(0, 4))))
def test_certified_sweep_is_the_full_cap_ladder_at_random(
        case, well_profile, island_profile):
    """`_assert_full_cap` on random ladders: well h, anharmonic gamma or
    island b, and n <= 4."""
    _assert_full_cap(case, well_profile, island_profile)


def test_island_sweep_solves_past_a_non_monotone_gap():
    """At b = 25 the lowest island level of sector m dips again past m = 5:
    levels 4 and 5 live in m = 10 and m = 9. The outward sweep stops at
    |m| = 4 with a top level of 16.5, the certificates of m = 7..12 are
    refused at that shift, and those sectors are solved."""
    ladder = radial._island_ladder(1.0, 1.5, 25.0, 5)
    assert ladder.homes[4:] == [(10, 0), (9, 0)]
    assert ladder.fallback == list(range(7, 13))
    assert {5, 6, 13} <= set(ladder.certified)


def test_well_sweep_solves_only_the_inner_shells(monkeypatch):
    """well_levels(1.0, 0.1, 1) solves |m| <= 1 on both grids and
    certifies every other sector of the cap by one factorization per
    grid."""
    solves, factored, counted = [], [], {}
    lowest, count, factor = radial._lowest, radial._count_below, radial.dpttrf

    def counting_lowest(op, k, work):
        solves.append((op.m, op.grid.N))
        return lowest(op, k, work)

    def counting_factor(d, e, *args):
        factored.append(len(d))
        return factor(d, e, *args)

    def counting_below(pair, m, shift, k, work):  # its last count's dpttrf
        start = len(factored)
        below = count(pair, m, shift, k, work)
        counted[m] = sorted(factored[start:])
        return below
    monkeypatch.setattr(radial, "_lowest", counting_lowest)
    monkeypatch.setattr(radial, "dpttrf", counting_factor)
    monkeypatch.setattr(radial, "_count_below", counting_below)
    ladder = radial._well_ladder(1.0, 0.1, 1)
    assert sorted(solves) == sorted((m, N) for m in range(-1, 2)
                                    for N in (1500, 3000))
    assert ladder.solved == list(range(-1, 2)) and ladder.fallback == []
    assert ladder.certified == [m for m in radial.default_m_range(1)
                                if abs(m) > 1]
    assert {m: counted[m] for m in ladder.certified} == {
        m: [1500, 3000] for m in ladder.certified}
    # the margin covers 10x the Richardson correction and the 1e-8 dedup
    assert 1e-8 * (1 + ladder.levels[-1]) <= ladder.margin
    assert ladder.margin < 1e-4 * ladder.levels[-1]


def test_refused_certificates_fall_back_to_solves(monkeypatch):
    """With every count refused (k + 1: more than k levels below every
    shift), no shell counts 0, so the outward sweep solves every sector
    and the ladder comes out the same, bit for bit."""
    want = radial._well_ladder(1.0, 0.1, 1)
    monkeypatch.setattr(radial, "_count_below",
                        lambda pair, m, shift, k, work: k + 1)
    got = radial._well_ladder(1.0, 0.1, 1)
    assert got.levels.tolist() == want.levels.tolist()
    assert got.homes == want.homes
    assert got.certified == [] and got.fallback == []
    assert got.solved == list(radial.default_m_range(1))


def _records(*tridiagonals):
    """Stand-ins for the records of a `_grid_pair`: op(m) is (diag, off)
    whatever m is."""
    return tuple(SimpleNamespace(op=lambda m, t=t: SimpleNamespace(
        diag=t[0], off=t[1])) for t in tridiagonals)


def test_level_count_certifies_the_spectrum():
    """The count below a shift is the larger number of eigenvalues below
    it on the two grids: 0 exactly when every eigenvalue lies above the
    shift, k + 1 past k; a non-finite entry is refused (k + 1)."""
    rng = np.random.default_rng(7)
    pair = [(rng.uniform(1.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1))
            for n in (40, 20)]
    lams = [np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1)) for diag, off in pair]
    lam0 = min(lam[0] for lam in lams)
    k, work = 3, radial.Work()

    def count(shift, records=_records(*pair)):
        return radial._count_below(records, 0, shift, k, work)
    assert count(lam0 - 1e-9) == 0
    assert count(lam0 + 1e-9) == 1
    for lam in np.sort(np.concatenate(lams))[:8]:
        for shift in (lam - 1e-9, lam + 1e-9):
            want = max(int(np.sum(lam_grid < shift)) for lam_grid in lams)
            assert count(shift) == min(want, k + 1), shift
    assert work.factorizations == 2 * 18
    for value in (math.nan, math.inf):
        bad = pair[1][0].copy()
        bad[5] = value
        assert count(lam0 - 1.0, _records(pair[0], (bad, pair[1][1]))) \
            == k + 1


def test_truncated_ladder_grows_r_max_while_its_ceiling_fails(monkeypatch):
    """A well ladder whose r_max = 3 ceiling fails is solved again at 1.5x
    the radius; one that holds keeps r_max = 3. Past R_MAX_GROWTHS steps
    the truncation error stands and names the radius reached."""
    assert radial._well_ladder(1.0, 0.1, 0).r_max == 3.0
    grown = radial._well_ladder(1.0, 2.0, 0)
    assert grown.r_max == 4.5
    assert grown.levels[0] > 2.0  # above the magnetic bound b0 h
    radii = []

    def failing(profile, scale, ms, grid, top, convention="b"):
        radii.append(grid.r_max)
        raise TruncationError("ceiling below the top level")
    monkeypatch.setattr(radial, "check_ceiling", failing)
    with pytest.raises(TruncationError, match=r"up to r_max = 15.1875"):
        radial._well_ladder(1.0, 0.1, 0)
    assert radii == [3.0 * 1.5 ** i for i in range(radial.R_MAX_GROWTHS + 1)]


def test_island_levels_frozen():
    for b, ref in FROZEN["island_lowest"].items():
        got = island_neumann_levels(1.0, 1.5, b, 0)
        assert got[0] == pytest.approx(ref, abs=2e-6)


def test_island_zero_field_and_input_guard():
    # b = 0: Neumann disk Laplacian, lowest eigenvalue 0 (constants)
    got = island_neumann_levels(1.0, 1.5, 0.0, 0)
    assert abs(got[0]) < 1e-8
    with pytest.raises(ValidationError):
        island_neumann_levels(1.5, 1.0, 25.0, 0)


def test_window_truncation_guard(disk_profile):
    """A top level must clear the potential ceiling at r_max by 10."""
    with pytest.raises(TruncationError):
        check_ceiling(disk_profile, 1.0, [0], RadialGrid(40.0, 1000), 50.0)


@pytest.fixture(scope="module")
def ah_pairs(anharmonic_profile):
    base = eigs_lowest(
        assemble_fiber(anharmonic_profile, 0, 1.0, RadialGrid(12.0, 3000)), 1)
    doubled = eigs_lowest(
        assemble_fiber(anharmonic_profile, 0, 1.0, RadialGrid(24.0, 6000)), 1)
    return base, doubled


def test_ah_decay_stable_below_critical(ah_pairs):
    base, doubled = ah_pairs
    I = verify_ah_decay(base, 2.0, 0.05, doubled=doubled)
    assert I == pytest.approx(FROZEN["ah_decay_integral"], rel=1e-6)
    # stability under domain doubling, well inside the 1% target
    I2 = verify_ah_decay(doubled, 2.0, 0.05)
    assert abs(I2 - verify_ah_decay(base, 2.0, 0.05)) / I < 1e-4


def test_ah_decay_unweighted_energy_identity(ah_pairs):
    base, _ = ah_pairs
    I0 = verify_ah_decay(base, 2.0, 0.0)
    assert I0 <= 1.0 + base.values[0]


def test_ah_decay_supercritical_flagged(ah_pairs):
    base, doubled = ah_pairs
    for c0 in (0.1, 0.2):
        with pytest.raises(DecayCheckError):
            verify_ah_decay(base, 2.0, c0, doubled=doubled)
    with pytest.raises(ValidationError):
        verify_ah_decay(base, 2.0, 0.25)  # at the stated critical rate


def test_island_decay_energy_identity(island_profile):
    """With the exponential weight stripped, the decay integrand is the
    energy density: its integral is below 1 + lambda."""
    grid = RadialGrid(1.5, 3000)
    res = eigs_lowest(
        assemble_fiber(island_profile, 0, 100.0, grid,
                       boundary="neumann_far"), 1)
    r = grid.nodes
    f = res.vectors[:, 0]
    fp = np.gradient(f, r)
    a = np.asarray(island_profile.a(r), dtype=float)
    dens = f * f + fp * fp + (0.0 / r - 100.0 * a) ** 2 * f * f
    I_unweighted = float(np.trapezoid(dens * r, r))
    assert I_unweighted <= 1.0 + res.values[0]
    # weighted integral exists and is recorded (bound checked in acceptance)
    I = verify_island_decay(res, 100.0, 1.0)
    assert I > 0


def test_sector_sweep_rows_sorted(disk_profile):
    rows, _ = sector_sweep(disk_profile, 1.0, range(-2, 3),
                           RadialGrid(12.0, 800), 2)
    vals = [v for v, m, n in rows]
    assert vals == sorted(vals)


@pytest.mark.parametrize("N", [1500, 3000])
@pytest.mark.parametrize("case", [
    ("well_radial", {"b0": 1.0}, 1.0, 0.1, 3.0, "dirichlet_far", "h"),
    ("well_radial", {"b0": 1.0}, 1.0, 0.025, 3.0, "dirichlet_far", "h"),
    ("anharmonic", {"gamma": 2.0}, 1.0, 1.0, 12.0, "dirichlet_far", "b"),
    ("island_annular", {"rho1": 1.0, "rho2": 1.5}, 1.5, 200.0, 1.5,
     "neumann_far", "b")], ids=["well-0.1", "well-0.025", "anharmonic",
                                "island-200"])
def test_lowest_matches_longdouble_oracle(case, N):
    """Levels 0-2 of the certified inverse iteration against long-double
    Sturm multisection of the same grid matrix, within 1e-12 relative."""
    kind, params, R0, scale, r_max, boundary, convention = case
    profile = make_profile(FieldSpec(kind, params, R0=R0))
    op = assemble_fiber(profile, 0, scale, RadialGrid(r_max, N), boundary,
                        convention)
    kin = scale * scale if convention == "h" else 1.0
    want = fiber_levels_longdouble(r_max, N, op.pot, kin,
                                   radial.FAR_WEIGHT[boundary], 3)
    got, _ = radial._lowest(op, 3, radial.Work())
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_lowest_certifies_each_level(monkeypatch, well_profile):
    """The last factored shift of level j has exactly j eigenvalues below
    it and lies within 64 eps max|T_ii| below the returned level; the work
    record counts every factorization and solve."""
    factored = []
    ldl = radial._ldl_factors

    def recording(diag, off, shift, j):
        out = ldl(diag, off, shift, j)
        factored.append((j, shift, out[1] is not None))
        return out
    monkeypatch.setattr(radial, "_ldl_factors", recording)
    op = assemble_fiber(well_profile, 1, 0.05, RadialGrid(3.0, 1500),
                        convention="h")
    work = radial.Work()
    got, _ = radial._lowest(op, 4, work)
    tol = 64.0 * np.finfo(float).eps * op.diag.max()
    exact = np.linalg.eigvalsh(np.diag(op.diag) + np.diag(op.off, 1)
                               + np.diag(op.off, -1))
    for j, level in enumerate(got):
        shift = [s for i, s, ok in factored if i == j and ok][-1]
        assert 0.0 < level - shift <= 1.01 * tol
        assert exact[j - 1] < shift < exact[j] if j else shift < exact[0]
    assert work.bisections == 3  # coarse blocks {0}, {1} and {2, 3}
    assert work.factorizations == sum(ok for _, _, ok in factored)
    assert work.refused == sum(not ok for _, _, ok in factored)
    assert work.solves >= work.factorizations


@settings(max_examples=80, deadline=None)
@example(n=40, seed=1, scale=1e190, level=0.5, estimate="below", gap=1.0,
         twin=False)  # |T_ii| near 1e192: products of distances overflow
@example(n=2, seed=0, scale=1.0, level=0.5, estimate="on", gap=math.inf,
         twin=False)  # j = 1 from the floor, which has none below it
@example(n=2, seed=0, scale=1e-3, level=0.0, estimate="below", gap=0.0,
         twin=True)  # mu converges slowly onto a pair from far below
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       level=st.floats(0.0, 1.0, exclude_max=True),
       estimate=st.sampled_from(["on", "below", "cluster"]),
       gap=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, math.inf]),
       twin=st.booleans())
def test_inverse_iteration_certifies_level_j(n, seed, scale, level, estimate,
                                              gap, twin):
    """On random symmetric tridiagonals T = W + diag(V), W the weighted
    difference form and V >= 0, level j from any start orthogonal to the
    levels below: exactly j eigenvalues lie below the last shift (long
    double Sturm counts), and level j in [mu - tol, mu] up to 4 ulp and
    the eps max|T_ii| by which the form's quotient misses the rounded
    diagonal. The estimates are adversarial: on level j, below level j - 1
    (below the spectrum for j = 0) or inside a cluster of two weakly
    coupled copies of one matrix (twin), with any first gap. Near the
    float range the search and the solves must stay finite and raise no
    warning."""
    rng = np.random.default_rng(seed)
    w, pot = rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.0, 10.0, n)
    if twin:  # near-degenerate pairs: two copies coupled by 1e-6
        w, pot = np.concatenate([w, [1e-6], w]), np.concatenate([pot, pot])
    w, pot = scale * w, scale * pot
    faces = np.concatenate([[0.0], w, [0.0]])
    diag, off = pot + faces[:-1] + faces[1:], -w
    lam, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    size, tol = len(diag), radial.TOL_EPS * float(np.abs(diag).max())
    # a level within 1e3 tol of the one below has no certifying shift
    resolved = np.flatnonzero(np.diff(lam, prepend=-np.inf) > 1e3 * tol)
    j = int(resolved[int(level * len(resolved))])
    lower = np.ascontiguousarray(vecs[:, :j].T)
    x = rng.normal(size=size)
    x -= lower.T @ (lower @ x)
    mu = {"on": lam[j],
          "below": lam[max(j - 1, 0)] - 1e-2 * (lam[-1] - lam[0] + scale),
          "cluster": 0.5 * (lam[j] + lam[min(j + 1, size - 1)])}[estimate]

    def rayleigh(v, v2):
        dv = np.diff(v)
        return float(w @ (dv * dv) + (pot * v) @ v) / v2

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warns, then exits 1
        mu, v, shift, _ = radial._inverse_iteration(
            diag, off, tol, rayleigh, x, mu, gap * scale, lower,
            radial.Work(), "a random tridiagonal")
    # 4 ulp, and the form's quotient misses the rounded diag by eps |T_ii|
    slack = 4.0 * np.spacing(max(abs(mu), tol)) + tol / 64.0
    ld = np.longdouble
    below = _sturm_counts(diag.astype(ld), off.astype(ld) ** 2,
                          np.array([shift, mu - tol - slack, mu + slack],
                                   dtype=ld))
    assert below[0] == j
    assert below[1] <= j < below[2]
    assert abs(v @ v - 1.0) < 1e-14


def test_lowest_returns_unit_vectors_and_rescaling_changes_no_digit(
        monkeypatch, well_profile):
    """The ladder's solves stay unnormalized too and each vector comes back
    unit l2; rescaling every solve by a power of 2 (RESCALE forced to 1)
    returns the same levels and vectors, bit for bit."""
    op = assemble_fiber(well_profile, 1, 0.05, RadialGrid(3.0, 1500),
                        convention="h")
    vals, basis = radial._lowest(op, 4, radial.Work())
    assert np.all(np.abs(np.einsum("ij,ij->i", basis, basis) - 1.0) < 1e-15)
    monkeypatch.setattr(radial, "RESCALE", 1.0)
    forced_vals, forced_basis = radial._lowest(op, 4, radial.Work())
    assert np.array_equal(forced_vals, vals)
    assert np.array_equal(forced_basis, basis)


def _one_off_fiber(profile, m, scale, grid, boundary, convention):
    """(diag, off, V) of the fiber formed in one pass, without a grid
    record: a(r), the potential and the face-weighted stencil."""
    r, dr = grid.nodes, grid.dr
    a = np.asarray(profile.a(r), dtype=float)
    if convention == "b":
        kin, V = 1.0, (m / r - scale * a) ** 2
    else:
        kin, V = scale * scale, (scale * m / r - a) ** 2
    w = kin * grid.faces
    w_right = np.concatenate([w[1:-1], [radial.FAR_WEIGHT[boundary] * w[-1]]])
    diag = (w[:-1] + w_right) / (r * dr * dr) + V
    off = -w[1:-1] / (dr * dr * np.sqrt(r[:-1]) * np.sqrt(r[1:]))
    return diag, off, V


@pytest.mark.parametrize("N", [64, 128, 3000])
def test_fiber_from_its_grid_record_is_the_one_off_fiber(N):
    """Every entry of a sector's fiber, its kinetic half shared through the
    grid record, equals the one-pass assembly bit for bit: each field kind
    and the zero field, both conventions, both far ends, m = 0, +-1, +-40."""
    profiles = [make_profile(FieldSpec(kind, params, R0=1.0)) for kind, params
                in (("constant_disk", {"r0": 1.0}), ("anharmonic",
                                                     {"gamma": 2.0}),
                    ("well_radial", {"b0": 1.0}),
                    ("island_annular", {"rho1": 0.5, "rho2": 1.0}))]
    grid = RadialGrid(3.0, N)
    for profile in profiles + [zero_profile(R0=1.0)]:
        for boundary in ("dirichlet_far", "neumann_far"):
            for convention, scale in (("b", 2.5), ("h", 0.07)):
                for m in (0, 1, -1, 40, -40):
                    op = assemble_fiber(profile, m, scale, grid, boundary,
                                        convention)
                    want = _one_off_fiber(profile, m, scale, grid, boundary,
                                          convention)
                    for got, ref in zip((op.diag, op.off, op.pot), want):
                        assert np.array_equal(got, ref)


def test_well_ladder_evaluates_the_field_once_per_grid(monkeypatch):
    """well_levels(1.0, 0.1, 1) evaluates a(r) once on each grid it solves
    or certifies on: the two ladder grids and the coarse copy of each,
    shared by all sectors, plus the ceiling check's node at r_max."""
    calls = []

    def counting_profile(spec):
        profile = make_profile(spec)

        def a(r):
            r = np.asarray(r)
            calls.append((r.size, float(r.flat[-1])))
            return profile.a(r)
        return replace(profile, a=a)
    monkeypatch.setattr(radial, "make_profile", counting_profile)
    well_levels(1.0, 0.1, 1)
    grids = [call for call in calls if call[0] > 1]
    assert len(grids) == len(set(grids))
    N = radial.LADDER_N
    assert sorted(size for size, _ in grids) == sorted(
        [N, N // 2, N // 16, N // 32])
    assert len(calls) == len(grids) + 1


def test_sectors_share_their_grid_record_read_only(well_profile):
    """The sectors of one grid share its record's arrays, and none can be
    written; each sector's diag and potential are its own."""
    op = assemble_fiber(well_profile, 1, 0.05, RadialGrid(3.0, 800),
                        convention="h")
    record = op.record
    other = record.op(2)
    assert other.off is op.off and other.record is record
    for shared in (op.off, record.r, record.root, record.a, record.kinetic,
                   record.weights):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    assert op.diag.flags.writeable and op.pot.flags.writeable
    assert not np.array_equal(other.diag, op.diag)


def test_ldl_inertia_counts_the_levels_below_the_shift():
    """Restarted dpttrf counts, at every shift, the eigenvalues below it
    (np.linalg.eigvalsh), negative last pivot included; factors come only
    at the asked count and solve T - shift. A zero or non-finite pivot is
    refused."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        diag, off = rng.normal(0.0, 2.0, n), rng.normal(0.0, 1.0, n - 1)
        lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
        cuts = np.concatenate([[lam[0] - 1.0], (lam[1:] + lam[:-1]) / 2,
                               [lam[-1] + 1.0]])
        for below, shift in enumerate(cuts):
            count, factors = radial._ldl_factors(diag, off, shift, below)
            assert count == below and factors is not None
            d, e = factors
            assert int(np.sum(d < 0)) == below
            b = rng.normal(size=n)
            x, info = dpttrs(d, e, b)
            t = np.diag(diag - shift) + np.diag(off, 1) + np.diag(off, -1)
            assert info == 0 and np.allclose(t @ x, b, atol=1e-8)
            if below:
                assert radial._ldl_factors(diag, off, shift,
                                           below - 1) == (below, None)
            more = radial._ldl_factors(diag, off, shift, below + 1)
            assert more == (below, None)
    # only the last pivot negative: 2, 2 - 1/2, then -1 - 1/1.5
    diag, off = np.array([2.0, 2.0, -1.0]), np.array([1.0, 1.0])
    count, (d, _) = radial._ldl_factors(diag, off, 0.0, 1)
    assert count == 1 and d[-1] < 0 < d[:-1].min()
    # a zero pivot, a NaN and an infinity refuse the shift
    assert radial._ldl_factors(np.array([1.0, 1.0, 3.0]),
                               np.array([1.0, 1.0]), 0.0, 1) == (2, None)
    for bad in (math.nan, math.inf):
        diag = np.array([2.0, bad, 2.0])
        assert radial._ldl_factors(diag, off, 0.0, 0)[1] is None
        assert radial._ldl_factors(diag, off, 0.0, 1)[1] is None


def test_lowest_refuses_non_finite_fibers_and_its_iteration_cap(
        monkeypatch, anharmonic_profile):
    """An overflowed potential and a refinement that reaches MAX_SOLVES
    are numerical failures."""
    grid = RadialGrid(12.0, 800)
    op = assemble_fiber(anharmonic_profile, 0, 1.0, grid)
    bad = assemble_fiber(anharmonic_profile, 0, 1e200, grid)
    with pytest.raises(NumericalError, match="non-finite"):
        radial._lowest(bad, 1, radial.Work())
    monkeypatch.setattr(radial, "MAX_SOLVES", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        radial._lowest(op, 1, radial.Work())


def test_zero_field_neumann_ground_level_is_zero():
    """The constant is the exact m = 0 ground state of the zero-field
    Neumann disk on the grid, so level 0 converges to 0 itself."""
    op = assemble_fiber(zero_profile(R0=1.5), 0, 1.0,
                        RadialGrid(1.5, radial.LADDER_N), "neumann_far")
    got, _ = radial._lowest(op, 2, radial.Work())
    assert 0.0 <= got[0] < 1e-18
    assert got[1] == pytest.approx(bessel_j_zero(1, 1) ** 2 / 1.5 ** 2,
                                   rel=1e-6)


def test_lowest_levels_do_not_depend_on_how_many_are_solved(well_profile):
    """Level j comes out bit for bit the same whether 1, j + 1 or more
    levels are solved, across the coarse blocks {0}, {1}, {2, 3}, ...,
    {16..31}, {32..47}: the certified sweep solves only the levels below
    its shift and must equal a solve of every level."""
    op = assemble_fiber(well_profile, 2, 0.05, RadialGrid(3.0, 1500),
                        convention="h")
    full, _ = radial._lowest(op, 40, radial.Work())
    for k in (1, 2, 3, 5, 16, 17, 33):
        assert radial._lowest(op, k, radial.Work())[0].tolist() == \
            full[:k].tolist()


@pytest.mark.parametrize("case", [
    ("anharmonic", {"gamma": 2.0}, 1.0, 0, 1.0, 12.0, 3000, "b"),
    ("well_radial", {"b0": 1.0}, 1.0, 1, 0.05, 3.0, 1500, "h"),
    ("constant_disk", {"r0": 1.0}, 1.0, 0, 1.0, 20.0, 4000, "b")],
    ids=["anharmonic", "well", "disk"])
def test_eigs_lowest_returns_the_certified_levels(case):
    """eigs_lowest's values do not depend on k, and fiber_levels is their
    Richardson combination over (N, N/2), bit for bit: one solver gives
    every real fiber eigenpair."""
    kind, params, R0, m, scale, r_max, N, convention = case
    profile = make_profile(FieldSpec(kind, params, R0=R0))
    grid = RadialGrid(r_max, N)
    fine, coarse = (eigs_lowest(assemble_fiber(profile, m, scale, g,
                                               convention=convention),
                                4).values for g in (grid, grid.halved()))
    op = assemble_fiber(profile, m, scale, grid, convention=convention)
    assert eigs_lowest(op, 2).values.tolist() == fine[:2].tolist()
    assert fiber_levels(profile, m, scale, grid, 4,
                        convention=convention).tolist() == \
        ((4.0 * fine - coarse) / 3.0).tolist()


def test_eigs_lowest_refuses_a_complex_scaled_fiber(disk_profile):
    from magres.cscale import assemble_scaled_fiber, scaling_profile
    op = assemble_scaled_fiber(disk_profile, 0, 0.25,
                               scaling_profile(0.5, 1.5, 6.0),
                               RadialGrid(18.0, 480))
    with pytest.raises(ValidationError, match="real fibers"):
        eigs_lowest(op, 1)
