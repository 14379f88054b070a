"""Surrogate-assisted optimization of robust pulses for spin ensembles.

The library simulates a driven two-level spin under static detuning and
drive-amplitude drift, averages fidelities over the ensemble's noise
distribution, replaces that expensive average with a cheap Kriging estimate
during derivative-free pulse search, and benchmarks the optimized pulses in
XY-8 AC magnetometry.
"""

__version__ = "0.1.0"

from .dynamics import (
    NoiseGrid,
    ensemble_objective,
    fidelities,
    gaussian_weight,
    propagate_many,
    state_fidelity_many,
)
from .fields import (
    ControlField,
    InvalidFieldError,
    constant_drive,
    enforce_amplitude_constraint,
    envelope,
    peak_amplitude,
    pm_field,
    quadratures,
    sfb_field,
)
from .kriging import (
    CorrelationParams,
    DegenerateDesignError,
    DegenerateValidationError,
    FitError,
    KrigingModel,
    fit,
    jittered_grid,
    loo_validate,
    surrogate_objective,
)
from .magnetometry import (
    AcSignal,
    NoiseSettings,
    PulseSequence,
    RamseyTrace,
    T2Estimate,
    build_xy8,
    default_shaped_pi_field,
    estimate_t2,
    ideal_phase,
    measure_t2,
    ou_step,
    simulate_ramsey,
)
from .neldermead import NMResult, nelder_mead
from .optimize import (
    ModelValidationError,
    OptConfig,
    OptRun,
    TrialStats,
    build_valid_surrogate,
    run_single,
    run_trials,
)

__all__ = [
    "AcSignal",
    "ControlField",
    "CorrelationParams",
    "DegenerateDesignError",
    "DegenerateValidationError",
    "FitError",
    "InvalidFieldError",
    "KrigingModel",
    "ModelValidationError",
    "NMResult",
    "NoiseGrid",
    "NoiseSettings",
    "OptConfig",
    "OptRun",
    "PulseSequence",
    "RamseyTrace",
    "T2Estimate",
    "TrialStats",
    "build_valid_surrogate",
    "build_xy8",
    "constant_drive",
    "default_shaped_pi_field",
    "enforce_amplitude_constraint",
    "ensemble_objective",
    "envelope",
    "estimate_t2",
    "fidelities",
    "fit",
    "gaussian_weight",
    "ideal_phase",
    "jittered_grid",
    "loo_validate",
    "measure_t2",
    "nelder_mead",
    "ou_step",
    "peak_amplitude",
    "pm_field",
    "propagate_many",
    "quadratures",
    "run_single",
    "run_trials",
    "sfb_field",
    "simulate_ramsey",
    "state_fidelity_many",
    "surrogate_objective",
]
