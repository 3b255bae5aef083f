"""Degree-corrected stochastic block models with assortativity constraints.

Fit DC-SBMs by relocation local search, optionally constraining the block
parameter matrix to strong or weak assortativity (both solved exactly);
generate synthetic benchmark networks; evaluate partitions; and orchestrate
reproducible experiment sweeps.
"""

__version__ = "0.1.0"

from .core import (BlockStats, EmptyBlockMoveError, Graph, GraphFormatError,
                   Partition, apply_relocation, block_stats, edges_into_blocks,
                   load_edge_list, parse_edge_list, read_labels,
                   write_edge_list, write_labels)
from .likelihood import (log_likelihood, modularity, omega_mle,
                         profile_log_likelihood, profile_offset)
from .solver import (AssortativityMode, OmegaSolution, is_feasible,
                     lambda_profile_oracle, solve_constrained)
from .metrics import assortativity_level, count_assortative_communities, nmi
from .search import (FitConfig, FitResult, delta_relocation, fit, multi_start)
from .generators import (PpmSpec, SbmSpec, generate_ppm, generate_sbm,
                         ppm_rates, write_instance)
from .benchmark import (ExperimentPlan, model_fit_config, run_ppm_sweep,
                        run_real, run_sbm_ensemble)

__all__ = [
    "__version__",
    "Graph", "Partition", "BlockStats", "GraphFormatError",
    "EmptyBlockMoveError", "parse_edge_list", "load_edge_list",
    "write_edge_list", "read_labels", "write_labels", "block_stats",
    "apply_relocation", "edges_into_blocks",
    "log_likelihood", "omega_mle", "profile_log_likelihood",
    "profile_offset", "modularity",
    "AssortativityMode", "OmegaSolution", "is_feasible",
    "solve_constrained", "lambda_profile_oracle",
    "assortativity_level", "count_assortative_communities", "nmi",
    "FitConfig", "FitResult", "fit", "delta_relocation", "multi_start",
    "PpmSpec", "SbmSpec", "generate_ppm", "generate_sbm", "ppm_rates",
    "write_instance",
    "ExperimentPlan", "model_fit_config", "run_ppm_sweep",
    "run_sbm_ensemble", "run_real",
]
