"""Quantum-orbit simulator for two-colour orthogonally polarized HHG.

Strong-field-approximation harmonic dipoles built from complex saddle
points of the semiclassical action, for a driving field with an omega
component along x and a 2-omega component along y.  Includes orbit
classification, polarization-ellipse analysis, real-space trajectories,
relative-phase scans with Fourier fits, and a brute-force direct-integration
oracle.  All quantities are in atomic units.
"""

from .field import (ATOMIC_INTENSITY, NM_TO_OMEGA, SPEED_OF_LIGHT,
                    FieldParams, SamplingError, TargetParams, apot, apot_integral,
                    apot_sq_integral, convert_units, efield, lissajous)
from .saddle import (BranchLostError, CoalescenceError, NoConvergenceError,
                     SaddlePoint, action_value, continue_branches, hessian,
                     newton_solve, saddle_residual, seed_grid, solve_cycle,
                     stationary_momentum)
from .taxonomy import (OrbitLabel, classify, find_cutoff, relevance_mask,
                       track_branches)
from .dipole import (DipoleContribution, HarmonicDipole, HarmonicSpectrum,
                     PoleError, contribution, dme, harmonic_dipole, intensity,
                     ionisation_amplitude, labelled_orbits, spectrum)
from .polarization import (EllipseDecomposition, UndefinedEllipseError,
                           decompose, signed_axes, signed_axis_series)
from .trajectory import Orbit, closure_defect, displacement
from .phasescan import (ClassificationRefusedError, IllConditionedFitError,
                        ModulationFit, PhaseScan, align_shift,
                        classify_modality, fourier_fit, run_scan)
from .oracle import OracleConfig, ResolutionError, direct_dipole, windowed_dipole

__version__ = "1.0.0"
