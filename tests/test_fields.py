import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magres.errors import MagresError, NumericalError, ValidationError
from magres.fields import (FieldSpec, load_spec, make_profile, parse_spec,
                           zero_profile)


def test_kind_validation():
    with pytest.raises(ValidationError):
        FieldSpec("vortex", {}, R0=1.0)
    with pytest.raises(ValidationError):
        FieldSpec("constant_disk", {"radius": 1.0}, R0=1.0)  # wrong name
    with pytest.raises(ValidationError):
        FieldSpec("constant_disk", {}, R0=1.0)  # missing
    with pytest.raises(ValidationError):
        FieldSpec("constant_disk", {"r0": math.nan}, R0=1.0)
    with pytest.raises(ValidationError):
        FieldSpec("constant_disk", {"r0": 2.0}, R0=1.0)  # support beyond R0
    with pytest.raises(ValidationError):
        FieldSpec("island_annular", {"rho1": 1.5, "rho2": 1.0}, R0=2.0)
    with pytest.raises(ValidationError):
        FieldSpec("well_radial", {"b0": 0.0}, R0=1.0)


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
