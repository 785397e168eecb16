import math
import warnings

import numpy as np
import pytest

from magres.errors import ValidationError
from magres.fields import FieldSpec, make_profile
from magres.levels import (ComparisonReport, ExpansionParams, compare,
                           expansion_real_part)
from magres.radial import RadialGrid, dirichlet_disk_levels, fiber_levels

from conftest import FROZEN
from oracles import bessel_j_zero


def test_params_validation():
    with pytest.raises(ValidationError):
        ExpansionParams(model="resonant", n=0, h=0.1)
    with pytest.raises(ValidationError):
        ExpansionParams(model="landau", n=-1, h=0.1)
    with pytest.raises(ValidationError):
        ExpansionParams(model="landau", n=0, h=0.0)
    with pytest.raises(ValidationError):
        ExpansionParams(model="landau", n=0, h=math.inf)


def test_missing_extras_rejected():
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="anharmonic", n=0, h=0.1,
                                            gamma=2.0))
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="step", n=0, h=0.1,
                                            beta=0.39, C1=0.037, C2=0.096,
                                            k0=1.0))  # k2 missing
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="well", n=0, h=0.1,
                                            b0=1.0, detH=1.0))
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="island", n=0, h=0.1))
    # domain constraints on the supplied extras
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="step", n=0, h=0.1,
                                            beta=0.39, C1=0.037, C2=0.096,
                                            k0=1.0, k2=0.5))
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="well", n=0, h=0.1,
                                            b0=-1.0, detH=1.0, trSqrtH=2.0))
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="anharmonic", n=3, h=0.1,
                                            gamma=2.0, lambdas=(1.3,)))
    with pytest.raises(ValidationError):
        expansion_real_part(ExpansionParams(model="island", n=2, h=0.1,
                                            ells=(5.78,)))


def test_expansion_values():
    assert expansion_real_part(
        ExpansionParams(model="landau", n=1, h=0.1)) == pytest.approx(0.3)
    assert expansion_real_part(
        ExpansionParams(model="well", n=0, h=0.1, b0=1.0, detH=1.0,
                        trSqrtH=2.0)) == pytest.approx(0.14)
    assert expansion_real_part(
        ExpansionParams(model="island", n=0, h=0.1,
                        ells=(5.7832,))) == pytest.approx(0.057832)
    lam = FROZEN["anharmonic_gamma2_ladder"]
    assert expansion_real_part(
        ExpansionParams(model="anharmonic", n=0, h=0.04, gamma=2.0,
                        lambdas=tuple(lam))) == pytest.approx(
        lam[0] * 0.04 ** 1.5, rel=1e-14)
    c = FROZEN["step_minus05"]
    got = expansion_real_part(
        ExpansionParams(model="step", n=0, h=0.01, beta=c["beta"],
                        C1=c["C1"], C2=c["C2"], k0=1.0, k2=-1.0))
    want = (c["beta"] * 0.01 - c["C1"] * 1e-3 + c["C2"] * 10.0 ** -3.5)
    assert got == pytest.approx(want, rel=1e-14)


def test_expansion_structure():
    # level index raises the value in every laddered family
    for kw in (dict(model="landau"),
               dict(model="well", b0=1.0, detH=1.0, trSqrtH=2.0),
               dict(model="step", beta=0.39, C1=0.037, C2=0.096,
                    k0=1.0, k2=-1.0)):
        vals = [expansion_real_part(ExpansionParams(n=n, h=0.05, **kw))
                for n in range(3)]
        assert vals[0] < vals[1] < vals[2]
    # interface correction enters with a negative h^{3/2} term
    base = dict(model="step", n=0, h=0.01, beta=0.39, C1=0.037, C2=0.096,
                k2=-1.0)
    assert expansion_real_part(ExpansionParams(k0=1.0, **base)) \
        < expansion_real_part(ExpansionParams(k0=0.0, **base))
    # scaling exponents: pure powers of h family by family
    for model, kw, expo in (("landau", {}, 1.0),
                            ("anharmonic", dict(gamma=2.0, lambdas=(1.3,)),
                             1.5),
                            ("island", dict(ells=(5.78,)), 2.0)):
        v1 = expansion_real_part(ExpansionParams(model=model, n=0, h=0.1,
                                                 **kw))
        v2 = expansion_real_part(ExpansionParams(model=model, n=0, h=0.2,
                                                 **kw))
        assert v2 / v1 == pytest.approx(2.0 ** expo, rel=1e-12)


def test_compare_well_remainder():
    """Direct well levels against b0 h + (2n sqrt(det H) + (Tr sqrt H)^2)/b0
    h^2: the remainder shrinks by 4x to 16x per halving."""
    hs = [0.1, 0.05, 0.025]
    rep = compare((ExpansionParams(model="well", n=0, h=h, b0=1.0, detH=1.0,
                                   trSqrtH=2.0), FROZEN["well_e0"][h])
                  for h in hs)
    assert isinstance(rep, ComparisonReport)
    diffs = [abs(r.diff) for r in rep.rows]
    for d1, d2 in zip(diffs, diffs[1:]):
        assert 4.0 <= d1 / d2 <= 16.0
    assert rep.rows[0].expected_order == 3.0
    assert rep.orders[("well", 0)] == pytest.approx(2.07, abs=0.3)


def test_compare_landau_vs_resonances():
    """Real parts of the disk resonances approach the Landau level h as h
    decreases, faster than linearly."""
    items = sorted(FROZEN["disk_resonances"].items(), reverse=True)
    rep = compare((ExpansionParams(model="landau", n=0, h=h), z.real)
                  for h, z in items)
    diffs = [abs(r.diff) for r in rep.rows]
    assert diffs[0] > diffs[1] > diffs[2]
    assert rep.orders[("landau", 0)] > 1.0


def test_compare_anharmonic_identity():
    """The anharmonic family is scale-covariant, so the expansion is exact:
    direct values sit on Lambda_0 h^{3/2} to the discretization floor."""
    aprof = make_profile(FieldSpec(kind="anharmonic", params={"gamma": 2.0},
                                   R0=1.0))
    grid = RadialGrid(12.0, 3000)
    lam = tuple(FROZEN["anharmonic_gamma2_ladder"])
    hs = [0.5, 0.25, 0.125]
    rep = compare((ExpansionParams(model="anharmonic", n=0, h=h, gamma=2.0,
                                   lambdas=lam),
                   h * h * fiber_levels(aprof, 0, 1.0 / h, grid, 1)[0])
                  for h in hs)
    for r in rep.rows:
        assert abs(r.diff) <= 1e-8


def test_compare_island_remainder():
    """ell_0 h^2 with the Dirichlet-disk ell_0: remainder is o(h^2), i.e.
    the remainder-to-h^2 ratio falls while the fitted order exceeds 2."""
    bs = [25, 50, 100, 200]
    rep = compare((ExpansionParams(model="island", n=0, h=1.0 / b,
                                   ells=(FROZEN["bessel_l0"],)),
                   FROZEN["island_lowest"][b] / b ** 2) for b in bs)
    ratios = [abs(r.diff) / r.h ** 2 for r in rep.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert rep.orders[("island", 0)] > 2.0
    # the csv ratio column carries exactly this diagnostic
    lines = list(rep.csv_lines())
    assert lines[0] == ("model,n,h,expansion,direct,diff,"
                        "ratio_to_expected,observed_order")
    assert len(lines) == 1 + len(bs)
    assert float(lines[1].split(",")[6]) == pytest.approx(ratios[0])


def test_compare_requires_three_h():
    with pytest.raises(ValidationError):
        compare((ExpansionParams(model="landau", n=0, h=h), h)
                for h in (0.2, 0.1))


def test_compare_requires_three_distinct_h():
    # three identical points fit no order: numpy's rank-deficient fit only
    # warned and reported a slope
    for hs in ((0.1, 0.1, 0.1), (0.2, 0.1, 0.1, 0.2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="distinct"):
                compare((ExpansionParams(model="landau", n=0, h=h), 1.1 * h)
                        for h in hs)
    rep = compare((ExpansionParams(model="landau", n=0, h=h), 1.1 * h)
                  for h in (0.2, 0.1, 0.1, 0.05))
    assert len(rep.rows) == 4
    assert rep.orders[("landau", 0)] == pytest.approx(1.0)


def test_compare_exact_match_has_no_order():
    # differences at exactly zero cannot support a log fit
    hs = (0.2, 0.1, 0.05)
    rep = compare((ExpansionParams(model="landau", n=1, h=h), 3.0 * h)
                  for h in hs)
    assert rep.orders[("landau", 1)] is None
    assert all(r.observed_order is None for r in rep.rows)
    assert all(r.diff == 0.0 for r in rep.rows)


def test_island_reference_levels():
    ells = dirichlet_disk_levels(1.0, 2)
    assert ells[0] == pytest.approx(FROZEN["bessel_l0"], abs=1e-5)
    assert ells[1] == pytest.approx(FROZEN["bessel_l1"], abs=1e-5)
    # independent series oracle for the Bessel zeros
    assert ells[0] == pytest.approx(bessel_j_zero(0, 1) ** 2, abs=1e-6)
    assert ells[1] == pytest.approx(bessel_j_zero(1, 1) ** 2, abs=1e-6)
    # Dirichlet scaling: radius 3 divides every level by 9
    scaled = dirichlet_disk_levels(3.0, 2)
    assert np.allclose(scaled, ells / 9.0, rtol=1e-9)
