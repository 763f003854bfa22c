"""Inference in multi-layer stochastic generative networks.

Estimate the input and hidden activations of a known alternating
linear/nonlinear chain from its observed output, predict the per-iteration
reconstruction error with a scalar state-evolution recursion, and compare
against MAP / Langevin-sampling baselines.
"""
from .engine import (
    EngineOptions,
    IterationRecord,
    MessageState,
    init_state,
    nmse_db,
    precision_update,
    extrinsic_mean,
    run,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EngineError,
    MlvampError,
    ObservationError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    paper_config,
    run_iteration_experiment,
    run_measurement_sweep,
)
from .network import (
    LinearStage,
    NetworkSpec,
    NonlinearStage,
    Trajectory,
    build_synthetic_network,
    load_network,
    sample_trajectory,
    save_network,
    svd_decompose_stage,
)
from .scalar_denoiser import (
    DenoiseResult,
    denoise_input,
    denoise_middle,
    denoise_output_nonlinear,
)
from .linear_denoiser import (
    component_solve,
    denoise_linear,
    denoise_linear_observed,
)
from .state_evolution import (
    LayerStatistics,
    SEState,
    run_se,
    stats_from_network,
)

__version__ = "0.1.0"
