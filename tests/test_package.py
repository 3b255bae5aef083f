import acsbm
from acsbm import (benchmark, core, generators, likelihood, metrics, search,
                   solver)

MODULES = (core, likelihood, solver, metrics, search, generators, benchmark)

# the package's list before it was built from the modules' lists
PREVIOUS_ALL = [
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


def test_package_republishes_each_module_all():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert acsbm.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(acsbm, name) is getattr(module, name), name
    assert set(PREVIOUS_ALL) <= set(acsbm.__all__)
    assert "MODEL_NAMES" in acsbm.__all__
