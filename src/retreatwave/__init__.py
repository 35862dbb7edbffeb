"""Retreating semi-waves and front-fixed simulation of a monostable
free-boundary problem.

The library computes the decreasing semi-wave profiles of
d*q'' - c*q' + f(q) = 0 with q(0) = delta > xi and q(inf) = xi, the
reaction's stable zero, selects the unique speed compatible with the
free-boundary law q'(0) = c*delta/d, simulates the PDE in front-fixed
coordinates, and checks that the simulated front speed and shifted profile
converge to the selected semi-wave.
"""

from .errors import (
    BoundViolationError,
    BracketError,
    InputError,
    IntegrationError,
    NumericalError,
    PerturbationError,
    SequenceOrderingError,
    VerificationFailure,
)
from .frontsolver import (
    FrontFixedState,
    Grid1D,
    InitialData,
    RunRecord,
    SolverConfig,
    constant_u0,
    exp_approach_u0,
    front_speed_from_state,
    profile_u0,
    run,
    step,
    table_u0,
)
from .phaseplane import (
    IntegrationOptions,
    PhaseTrajectory,
    SemiWaveProfile,
    closed_form_zero_speed,
    integrate_trajectories,
    integrate_trajectory,
    reconstruct_profile,
    residual_slope,
    saddle_slope,
)
from .reaction import (
    MonostabilityReport,
    PerturbationPair,
    ReactionFunction,
    make_logistic,
    make_perturbation_pair,
    make_polynomial,
    parse_reaction,
    validate_monostable,
)
from .verify import (
    ConvergenceReport,
    MonotonicityAudit,
    SandwichReport,
    profile_error,
    residual_monotonicity_audit,
    sandwich_check,
    speed_trend,
    truncation_correction,
)
from .wavespeed import (
    PerturbedSpeeds,
    SequenceRun,
    SpeedResult,
    SweepTable,
    bracket_low,
    bracketing_sequences,
    density_sweep,
    find_wave_speed,
    perturbed_wave_speeds,
    slope_residual,
)

__version__ = "0.1.0"
