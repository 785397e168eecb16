"""magres: spectra and resonances of 2D magnetic Laplacians with radial fields.

The package decomposes rotationally symmetric magnetic Schrodinger
operators on the plane into radial angular-momentum fibers and provides:

- field profiles with closed-form gauges (`fields`),
- real fiber spectra: Landau, anharmonic, radial-well, island and disk
  eigenvalues plus decay verifications (`radial`),
- the magnetic-step band function and its spectral constants (`stepband`),
- cutoff quasimodes, residual laws, and resonance-window arithmetic
  (`quasimode`),
- exterior complex scaling and theta-robust resonance extraction (`cscale`),
- eigenvalue expansions and comparison reports (`levels`),
- a reproducible command-line front end (`cli`).
"""

__version__ = "0.1.0"

from .errors import (AmbiguousPairingError, DecayCheckError, FlatBandError,
                     MagresError, MultipleMinimaError, NumericalError,
                     TruncationError, ValidationError)
from .fields import (FieldProfile, FieldSpec, load_spec, make_profile,
                     parse_spec, zero_profile)
from .radial import (EigenResult, FiberOperator, RadialGrid, anharmonic_levels,
                     assemble_fiber, dirichlet_disk_levels, eigs_lowest,
                     fiber_levels, island_neumann_levels, verify_ah_decay,
                     verify_island_decay, well_levels)
from .stepband import (BandSample, SpectralConstants, StepParams,
                       analyze_band, band_value, minimize_band,
                       spectral_constants)
from .quasimode import (Quasimode, TZWindow, build_quasimode,
                        generic_quasimode_residual, landau_radial, laguerre,
                        quasimode_residual, tz_crossover, tz_window)
from .cscale import (Resonance, ResonanceSet, ScalingProfile, Window,
                     assemble_scaled_fiber, complex_spectrum,
                     continuum_motion, filter_resonances, find_resonances,
                     scaling_profile)
from .levels import (ComparisonReport, ExpansionParams, compare,
                     expansion_real_part)
