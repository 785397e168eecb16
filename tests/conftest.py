"""Shared fixtures and frozen reference values.

Values in FROZEN were produced by the independent oracles in oracles.py or by
measurement scripts cross-checked against them, and are pinned here so the
suite detects regressions rather than recomputing its own answers.
"""

from __future__ import annotations

import json

import pytest

from magres.cscale import COUNT_REACH, _spectrum_slice
from magres.fields import FieldSpec, make_profile
from magres.radial import _ldl_factors, assemble_fiber


FROZEN = {
    # distinct low levels of the unit-scale |x|^2-field operator
    "anharmonic_gamma2_ladder": [1.30469423, 2.22255591, 2.93544183,
                                 3.52848915, 3.97861421],
    # step-interface band data (L=12, N=4800 unless noted)
    "step_minus1": {"beta": 0.59010612, "zeta": -0.76818365},
    "step_minus05": {"beta": 0.39123747, "zeta": -0.664313,
                     "mu2": 0.996726, "phi0": 0.500063,
                     "phi0p": -0.111901, "C1": 0.037173, "C2": 0.096244},
    "step_minus025": {"beta": 0.22996846, "zeta": -0.604687,  # L=16, N=6400
                      "mu2": 0.583194, "C1": 0.035803, "C2": 0.072249},
    "step_minus075": {"beta": 0.50535752, "zeta": -0.718378,
                      "mu2": 1.139609, "C1": 0.019655, "C2": 0.074832},
    # disk-field resonances, m=0, N=2000, r_max=18, R1=1.5, T0=6,
    # theta pair (0.5, 0.6)
    "disk_resonances": {
        0.25: complex(0.1934500318, -0.0609961860),
        0.20: complex(0.1703927865, -0.0273528041),
        0.15: complex(0.1389650836, -0.0068271553),
    },
    # same geometry at N=1200 (CLI-speed sanity value)
    "disk_resonance_h025_n1200": complex(0.1934549759, -0.0609918425),
    # lowest annulus-Neumann level at field strength b (rho1=1, rho2=1.5)
    "island_lowest": {25.0: 3.346987, 50.0: 3.903952,
                      100.0: 4.359139, 200.0: 4.723353},
    # Dirichlet disk references
    "bessel_l0": 5.783186,
    "bessel_l1": 14.681971,
    # lowest two levels of the radial-well operator, b0=1 (N=3000, r_max=3)
    "well_e0": {0.1: 0.1162849560, 0.05: 0.0544353876, 0.025: 0.0261700024},
    "well_e1": {0.1: 0.1310183089, 0.05: 0.0585904867, 0.025: 0.0272951492},
    # weighted anharmonic tail integral, gamma=2, c0=0.05 (N=3000, r_max=12)
    "ah_decay_integral": 6.0456679981,
}


def slice_count(op, radius):
    """The count that `find_resonances` sizes a slice of op with: the
    eigenvalues of the real fiber that op continues below COUNT_REACH
    times the radius."""
    real = assemble_fiber(op.profile, op.m, op.scale, op.grid,
                          "dirichlet_far", "h")
    return _ldl_factors(real.diag, real.off, COUNT_REACH * radius,
                        op.grid.N)[0]


def certified_slice(op, radius):
    """The certified slice |z| <= radius of op, sized as `find_resonances`
    sizes it, and its `SliceWork`."""
    return _spectrum_slice(op, radius, slice_count(op, radius))


@pytest.fixture(scope="session")
def disk_profile():
    return make_profile(FieldSpec("constant_disk", {"r0": 1.0}, R0=1.0))


@pytest.fixture(scope="session")
def anharmonic_profile():
    return make_profile(FieldSpec("anharmonic", {"gamma": 2.0}, R0=1.0))


@pytest.fixture(scope="session")
def island_profile():
    return make_profile(
        FieldSpec("island_annular", {"rho1": 1.0, "rho2": 1.5}, R0=1.5))


@pytest.fixture(scope="session")
def well_profile():
    return make_profile(FieldSpec("well_radial", {"b0": 1.0}, R0=1.0))


@pytest.fixture()
def anh_config(tmp_path):
    p = tmp_path / "anh.json"
    p.write_text(json.dumps({"kind": "anharmonic",
                             "params": {"gamma": 2.0}, "R0": 1.0}))
    return p


@pytest.fixture()
def disk_config(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text(json.dumps({"kind": "constant_disk",
                             "params": {"r0": 1.0}, "R0": 1.0}))
    return p
