"""Frequency-domain solver and exponential-stability certification for
linear evolutionary equations on finite-dimensional state spaces."""

from .errors import (CertificationError, ConfigError, DecayFitError,
                     EdgeMassError, EdgeMassWarning, GridMismatchError,
                     KernelAdmissibilityError, NonFiniteSymbolError,
                     QuadratureError, SingularFrequencyError)
from .signals import (Signal, SpectralSignal, TimeGrid, antiderivative,
                      derivative, edge_mass, fourier_laplace, gaussian_pulse,
                      inverse_fourier_laplace, signal_from_csv, signal_to_csv,
                      step_exp, support_lower_bound, translate, weighted_inner,
                      weighted_norm)
from .material import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel,
                       KernelMode, hermitian_part_min_eig, kernel_eval,
                       kernel_hat, kernel_weighted_l1)
from .spatial import (MixedTypeSystem, SpatialOperator, build_grad_1d,
                      build_mixed_type_system, indicators_from_intervals)
from .certify import (CertificationReport, KernelConditionReport,
                      SamplingConfig, certify, check_kernel_conditions,
                      closed_form_rate, solvability_constant,
                      solvability_lower_bound)
from .solver import (EvolutionaryProblem, apply_forward, convolve_time,
                     ivp_solve, solve, solve_integro)
from .analysis import (DecayFit, causality_check, fit_decay_rate,
                       profile_to_csv, verify_stability, weighted_norm_profile)

__version__ = "0.1.0"
