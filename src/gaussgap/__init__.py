"""Spectral gaps, invariant states and closed-form dynamics of Gaussian
quantum Markov semigroups given by GKLS parameters."""

from . import errors
from .classical import OuGenerator, lift_from_ou, ou_gap_1d, restrict_to_ou
from .dynamics import (
    GaussianStateParams,
    WeylCombo,
    char_fn,
    kernel_psd_check,
    kernel_s,
    kms_weyl_trace,
    norm_decay,
    sharpness_witness,
    state_evolve,
    weyl_evolve,
)
from .fock import (
    build_space,
    build_superoperator,
    oracle_char_fn,
    oracle_gap,
    oracle_kms_trace,
)
from .gap import (
    GapReport,
    analyze,
    gns_gap,
    kms_gap,
    no_gap_diagnosis,
    one_dim_closed_forms,
)
from .model import (
    DriftDiffusion,
    GklsModel,
    build_drift_diffusion,
    one_dim_family,
    validate,
)
from .stationary import (
    StationaryData,
    kms_covariance,
    solve_stationary,
    williamson,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GklsModel",
    "DriftDiffusion",
    "GapReport",
    "GaussianStateParams",
    "OuGenerator",
    "StationaryData",
    "WeylCombo",
    "analyze",
    "build_drift_diffusion",
    "build_space",
    "build_superoperator",
    "char_fn",
    "gns_gap",
    "kernel_psd_check",
    "kernel_s",
    "kms_covariance",
    "kms_gap",
    "kms_weyl_trace",
    "lift_from_ou",
    "no_gap_diagnosis",
    "norm_decay",
    "one_dim_closed_forms",
    "one_dim_family",
    "oracle_char_fn",
    "oracle_gap",
    "oracle_kms_trace",
    "ou_gap_1d",
    "restrict_to_ou",
    "sharpness_witness",
    "solve_stationary",
    "state_evolve",
    "validate",
    "weyl_evolve",
    "williamson",
]
