import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from hypothesis import strategies as st

from magres.cli import main
from magres.errors import MagresError, NumericalError, ValidationError
from magres.fields import (FieldSpec, load_spec, make_profile, parse_spec,
                           spec_config, zero_profile)


REJECTED = [
    ("vortex", {}, 1.0),
    ("constant_disk", {"radius": 1.0}, 1.0),  # wrong name
    ("constant_disk", {}, 1.0),  # missing
    ("constant_disk", {"r0": math.nan}, 1.0),
    ("constant_disk", {"r0": 2.0}, 1.0),  # support beyond R0
    ("island_annular", {"rho1": 1.5, "rho2": 1.0}, 2.0),
    ("well_radial", {"b0": 0.0}, 1.0),
    ("island_annular", {"rho1": 0.0, "rho2": 1.0}, 2.0),
    ("anharmonic", {"gamma": -0.5}, 1.0),
    ("well_radial", {"b0": -1.0}, 1.0),
    ("constant_disk", {"r0": True}, 1.0),  # JSON true is not the number 1
]


def test_kind_validation(tmp_path, capsys):
    for kind, params, R0 in REJECTED:
        with pytest.raises(ValidationError):
            FieldSpec(kind, dict(params), R0=R0)
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"kind": kind, "params": params,
                                    "R0": R0}))
        assert main(["spectrum", "--field", str(path), "--grid-n", "64",
                     "--rmax", "2"]) == 2, (kind, params)
    assert capsys.readouterr().out == ""


def test_error_hierarchy():
    assert issubclass(ValidationError, MagresError)
    assert issubclass(ValidationError, ValueError)
    assert issubclass(NumericalError, MagresError)
    assert issubclass(NumericalError, RuntimeError)


def test_constant_disk_profile(disk_profile):
    p = disk_profile
    assert p.alpha == 0.5  # r0^2 / 2
    assert p.R0 == 1.0
    r_in = np.array([0.1, 0.5, 0.99])
    assert np.allclose(p.B(r_in), 1.0)
    assert np.allclose(p.a(r_in), r_in / 2.0)
    r_out = np.array([1.5, 3.0, 10.0])
    assert np.allclose(p.B(r_out), 0.0)
    assert np.allclose(p.a(r_out), 0.5 / r_out)
    # gauge continuity across the support edge
    assert abs(float(p.a(1.0 - 1e-12)) - float(p.a(1.0 + 1e-12))) < 1e-10


def test_anharmonic_profile(anharmonic_profile):
    p = anharmonic_profile
    assert math.isinf(p.alpha) and math.isinf(p.R0)
    r = np.array([0.3, 1.0, 2.5])
    assert np.allclose(p.B(r), r ** 2)
    assert np.allclose(p.a(r), r ** 3 / 4.0)


def test_well_profile(well_profile):
    p = well_profile
    r = np.array([0.2, 1.0, 1.7])
    assert np.allclose(p.B(r), 1.0 + r ** 2)
    assert np.allclose(p.a(r), r / 2.0 + r ** 3 / 4.0)


def test_island_profile(island_profile):
    p = island_profile
    assert np.isclose(p.alpha, (1.5 ** 2 - 1.0) / 2.0)
    assert np.allclose(p.B(np.array([0.2, 0.99])), 0.0)
    assert np.allclose(p.B(np.array([1.1, 1.49])), 1.0)
    assert np.allclose(p.a(np.array([0.3, 0.9])), 0.0)
    r = np.array([1.2, 1.4])
    assert np.allclose(p.a(r), (r ** 2 - 1.0) / (2 * r))
    r_out = np.array([2.0, 5.0])
    assert np.allclose(p.a(r_out), p.alpha / r_out)
    # continuity at both interfaces
    for edge in (1.0, 1.5):
        lo = float(p.a(edge - 1e-12))
        hi = float(p.a(edge + 1e-12))
        assert abs(lo - hi) < 1e-10


def test_zero_profile():
    p = zero_profile(R0=2.0)
    r = np.linspace(0.1, 5.0, 7)
    assert np.allclose(p.B(r), 0.0)
    assert np.allclose(p.a(r), 0.0)
    assert p.alpha == 0.0


@settings(max_examples=40, deadline=None)
@given(r0=st.floats(min_value=0.1, max_value=8.0),
       r=st.floats(min_value=1e-3, max_value=40.0))
def test_disk_gauge_matches_flux_integral(r0, r):
    """a(r) must equal (1/r) * int_0^r s B(s) ds for any disk radius."""
    p = make_profile(FieldSpec("constant_disk", {"r0": r0}, R0=r0))
    expected = (r / 2.0) if r <= r0 else r0 * r0 / (2.0 * r)
    assert float(p.a(r)) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(rho1=st.floats(min_value=0.2, max_value=2.0),
       width=st.floats(min_value=0.05, max_value=2.0))
def test_island_tail_carries_total_flux(rho1, width):
    rho2 = rho1 + width
    p = make_profile(
        FieldSpec("island_annular", {"rho1": rho1, "rho2": rho2}, R0=rho2))
    r = 3.0 * rho2
    assert float(p.a(r)) * r == pytest.approx(p.alpha, rel=1e-12)


def test_parse_spec_errors():
    good = {"kind": "constant_disk", "params": {"r0": 1.0}, "R0": 1.0}
    assert parse_spec(good).kind == "constant_disk"
    with pytest.raises(ValidationError):
        parse_spec([1, 2])
    with pytest.raises(ValidationError):
        parse_spec({**good, "extra": 1})
    with pytest.raises(ValidationError):
        parse_spec({"kind": "constant_disk"})


def test_load_spec(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(
        {"kind": "anharmonic", "params": {"gamma": 2.0}, "R0": 1.0}))
    assert load_spec(str(path)).params["gamma"] == 2.0
    with pytest.raises(ValidationError):
        load_spec(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_spec(str(bad))


def _closed_forms(kind, p, r):
    """a(r) and alpha as the four kinds wrote them out by hand, the
    island's r^2 - rho1^2 factored as (r - rho1)(r + rho1)."""
    if kind == "constant_disk":
        alpha = p["r0"] * p["r0"] / 2.0
        return np.where(r <= p["r0"], r / 2.0, alpha / r), alpha
    if kind == "anharmonic":
        return r ** (1.0 + p["gamma"]) / (2.0 + p["gamma"]), math.inf
    if kind == "well_radial":
        return p["b0"] * r / 2.0 + r ** 3 / 4.0, math.inf
    if kind == "island_annular":
        rho1, rho2 = p["rho1"], p["rho2"]
        alpha = (rho2 - rho1) * (rho2 + rho1) / 2.0
        annulus = (r - rho1) * (r + rho1) / (2.0 * r)
        return np.where(r < rho1, 0.0, np.where(r <= rho2, annulus,
                                                 alpha / r)), alpha
    return np.zeros_like(r), 0.0


_size = st.floats(min_value=0.05, max_value=10.0)
INTEGRATOR_CASES = {
    "constant_disk": st.fixed_dictionaries({"r0": _size}),
    "anharmonic": st.fixed_dictionaries(
        {"gamma": st.floats(min_value=0.0, max_value=6.0)}),
    "well_radial": st.fixed_dictionaries(
        {"b0": st.floats(min_value=0.01, max_value=10.0)}),
    "island_annular": st.tuples(_size, _size).filter(
        lambda t: t[0] != t[1]).map(
        lambda t: {"rho1": min(t), "rho2": max(t)}),
    "zero": st.just({}),
}


@pytest.mark.parametrize("kind", sorted(INTEGRATOR_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_piecewise_integrator(kind, data):
    """r a(r) is the flux integral inside pieces, at their ends and beyond
    the support; the tail carries alpha; a and alpha equal the hand-written
    closed forms bit for bit."""
    p = data.draw(INTEGRATOR_CASES[kind], label="params")
    if kind == "zero":
        prof, ends = zero_profile(R0=1.0), []
    else:
        R0 = max([1.0, *p.values()])
        prof = make_profile(FieldSpec(kind, dict(p), R0=R0))
        ends = sorted(x for lo, hi, _ in prof.spec.pieces for x in (lo, hi)
                      if 0.0 < x < math.inf)
    edge = max(ends, default=1.0)
    r = np.array(sorted({*ends, 0.37 * edge, 0.5 * edge, 0.99 * edge,
                         1.5 * edge, 4.0 * edge}))
    if kind in ("anharmonic", "well_radial"):
        r = np.array([0.05, 0.3, 1.0, 2.5])
    a = prof.a(r)
    want, alpha = _closed_forms(kind, p, r)
    assert np.array_equal(a, want) and prof.alpha == alpha
    for x, ax in zip(r, a):
        cuts = [0.0, *(e for e in ends if e < x), x]
        flux = sum(quad(lambda s: s * float(prof.B(s)), lo, hi,
                        epsabs=0.0, epsrel=1e-13)[0]
                   for lo, hi in zip(cuts, cuts[1:]))
        assert x * ax == pytest.approx(flux, rel=1e-10, abs=0.0)
    if math.isfinite(prof.alpha):  # the Aharonov-Bohm tail
        for x in (1.5 * edge, 4.0 * edge, 1e6 * edge):
            assert x * float(prof.a(x)) == pytest.approx(prof.alpha,
                                                          rel=1e-12, abs=0.0)
    else:
        assert math.isinf(prof.R0)


@pytest.mark.parametrize("config", [
    {"kind": "constant_disk", "params": {"r0": 1}, "R0": 1},
    {"kind": "anharmonic", "params": {"gamma": 2}, "R0": "unused"},
    {"kind": "well_radial", "params": {"b0": 1.0}, "R0": 1.0},
    {"kind": "island_annular", "params": {"rho1": 1.0, "rho2": 1.5},
     "R0": 2.0},
], ids=lambda c: c["kind"])
def test_spec_config_inverts_parse_spec(config):
    """Integer params keep their closed forms; the manifest block is the
    config."""
    spec = parse_spec(config)
    assert spec_config(spec) == config
    assert parse_spec(spec_config(spec)) == spec
    r = np.linspace(0.01, 5.0, 50)
    want, alpha = _closed_forms(spec.kind, spec.params, r)
    prof = make_profile(spec)
    assert np.array_equal(prof.a(r), want) and prof.alpha == alpha


def test_flux_is_bit_identical_over_many_radii():
    """alpha is summed from Python floats, where pow(x, 2.0) != x * x for
    about 0.08% of x; only the r^{p+1} * r form matches the closed forms on
    every one of these radii."""
    rng = np.random.default_rng(7)
    for r0, rho1, rho2 in rng.uniform(0.05, 10.0, (4000, 3)).tolist():
        disk = make_profile(FieldSpec("constant_disk", {"r0": r0}, R0=r0))
        assert disk.alpha == r0 * r0 / 2.0
        rho1, rho2 = min(rho1, rho2), max(rho1, rho2)
        island = make_profile(FieldSpec(
            "island_annular", {"rho1": rho1, "rho2": rho2}, R0=rho2))
        assert island.alpha == (rho2 - rho1) * (rho2 + rho1) / 2.0


def test_thin_annulus_keeps_its_flux():
    """An annulus one ulp wide: a difference of squares cancels to 2.17e-19
    where the flux integral is 3.47e-19."""
    rho1 = 0.05
    rho2 = math.nextafter(rho1, 1.0)
    island = make_profile(FieldSpec(
        "island_annular", {"rho1": rho1, "rho2": rho2}, R0=1.0))
    flux = quad(lambda s: s * float(island.B(s)), rho1, rho2,
                epsabs=0.0, epsrel=1e-13)[0]
    for got in (rho2 * float(island.a(rho2)), island.alpha):
        assert got == pytest.approx(flux, rel=1e-10, abs=0.0)
