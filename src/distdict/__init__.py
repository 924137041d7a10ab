"""Distributed dictionary learning over time-varying networks.

A simulator for networks of agents that jointly learn a dictionary from
column-partitioned data: every agent solves small strongly convex local
subproblems, a gradient tracker reconstructs the missing global gradient
information, and doubly stochastic consensus keeps the dictionary copies
together.
"""

from .agents import (AgentState, StepSchedule, coding_prox_weight,
                     coding_step, dictionary_step, gamma_sequence,
                     init_agents)
from .config import GraphSpec, RunConfig, build_run_config, load_config
from .core import (ProblemData, d_update_linearized, d_update_plain,
                   grad_codes, grad_dict, objective_global,
                   project_dictionary, sigma_max, soft_threshold,
                   x_update_linearized, x_update_plain)
from .denoise import DenoiseResult, denoise_image
from .imaging import (PgmError, assemble_patches, extract_patches,
                      patch_count, read_pgm, write_pgm)
from .metrics import (MetricsTrace, centralized_oracle, consensus_error,
                      diffusion_baseline, mean_dictionary, psnr_mse,
                      stationarity_gap)
from .network import (GraphSchedule, build_schedule, is_b_strongly_connected,
                      metropolis_weights, validate_weights)
from .protocol import (RoundState, check_round, consensus_step, run,
                       tracking_residual, tracking_step)
from .synthetic import (SyntheticInstance, make_standard_problem,
                        make_synthetic, make_test_image, partition_columns)

__version__ = "0.1.0"

__all__ = [
    "AgentState", "DenoiseResult", "GraphSchedule", "GraphSpec",
    "MetricsTrace", "PgmError", "ProblemData", "RoundState",
    "RunConfig", "StepSchedule", "SyntheticInstance", "assemble_patches",
    "build_run_config", "build_schedule", "centralized_oracle", "check_round",
    "coding_prox_weight", "coding_step", "consensus_error", "consensus_step",
    "d_update_linearized", "d_update_plain", "denoise_image",
    "dictionary_step", "diffusion_baseline", "extract_patches",
    "gamma_sequence", "grad_codes", "grad_dict", "init_agents",
    "is_b_strongly_connected", "load_config", "make_standard_problem",
    "make_synthetic", "make_test_image", "mean_dictionary",
    "metropolis_weights", "objective_global", "partition_columns",
    "patch_count", "project_dictionary", "psnr_mse", "read_pgm",
    "run", "sigma_max", "soft_threshold", "stationarity_gap",
    "tracking_residual", "tracking_step", "validate_weights", "write_pgm",
    "x_update_linearized", "x_update_plain", "__version__",
]
