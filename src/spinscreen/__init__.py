"""Orthonormal 6j screens: exact values, fast recursions, tetrahedral
geometry, semiclassical estimates, and the 9j five-point recurrence."""

from .errors import (CausticProximityWarning, ConvergenceFailure,
                     DegenerateFace, EmptyScreen, NegativeRadicand,
                     NoClassicalWindow, OutOfRange, OutsideDomain, ParityError,
                     PatternError, SpinScreenError)
from .exact import (SqrtRational, screen_oracle, sixj_exact, sixj_unit,
                    sixj_zero_entry, u_exact)
from .geometry import (CausticData, GeometricCoeffs, PotentialCurves,
                       Tetrahedron, cos_theta3, cos_theta3_grid, edge_length,
                       f_residual, f_transform, geometric_coeffs, heron_area,
                       lambda_quartic, potentials, ridges_and_caustics,
                       sin_theta3, volume_sq, volume_sq_gram, volume_sq_grid)
from .ninej import (NinejResidual, RecurrenceCoeffs9j, ReductionReport,
                    ninej_coeffs, ninej_exact, ninej_oracle, ninej_residual,
                    random_stencils, reduction_check)
from .recursion import (SCREEN_METHODS, row_by_threeterm, rows_by_threeterm,
                        screen_by_2d, screen_by_eigensolve, screen_by_threeterm)
from .screen import Screen, TridiagCoeffs, residual_threeterm, tridiag_coeffs
from .semiclassics import (BohrSommerfeld, DihedralAngles, PRComparison,
                           bohr_sommerfeld, dihedral_angles, local_momentum,
                           pr_amplitude, pr_compare, pr_phase)
from .spins import (CanonicalForm, ScreenParams, canonical_c_range_ok,
                    canonicalize, regge_conjugate, screen_ranges,
                    symmetry_orbit, triad_ok)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
