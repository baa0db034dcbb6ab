"""Transmission eigenvalues of spherically stratified media.

Numerical toolkit for the characteristic function d(k) of the interior
transmission problem: profile handling and the Liouville transformation,
forward shooting, transmutation-kernel solver, complex zero localization
by the argument principle, closed-form spectral asymptotics, and the
computable ingredients of the related uniqueness theorems.
"""

from . import errors
from .asymptotics import (AsymptoticCase, MatchReport, case_from_profile,
                          counting_check, match, predict_nonreal,
                          predict_real, solve_transcendental)
from .forward import (BoundaryValues, CharacteristicValue, characteristic,
                      characteristic_batch, scaled_characteristic, solve_ivp)
from .inverse import (UniquenessScenario, density_estimate, load_scenario,
                      smooth_bump, theorem3_epsilon, theorem4_threshold,
                      wronskian_g)
from .kernel import KernelGrid, boundary_traces, representation_boundary, solve_kernel
from .profiles import (ConstantProfile, LiouvilleData, RefractiveProfile, get_profile,
                       liouville_transform, load_profile, profile_from_dict,
                       subinterval_boundary, travel_time)
from .zeros import SearchReport, SpectralZero, count_zeros, find_zeros

__version__ = "0.1.0"
