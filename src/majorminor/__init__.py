"""Particle solver and certification suite for major-minor mean field systems."""

from .grids import TimeGrid, NoiseBundle, build_grid, sample_noise
from .ensembles import (
    ControlField,
    ScenarioFeatures,
    conditional_features,
    inner_product_T,
    norm_T,
)
from .models import (
    CoefficientSet,
    LQParams,
    ModelConstants,
    MonotonicityData,
    PrimedCoefficientSet,
    clamp_coefficients,
    lq_monotonicity_data,
    make_lq_model,
    make_zero_model,
    split_q,
    theta_inverse,
)
from .solver import EnsembleState

__version__ = "0.1.0"
