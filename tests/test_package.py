"""The package's public surface."""

import types

import v2vaoi

# Every public name of the package, pinned so that adding or removing one is
# a deliberate change to this list.
PUBLIC_NAMES = {
    "AllocationProblem",
    "AllocationResult",
    "AoiAges",
    "AoiConfig",
    "AoiSummary",
    "BACKBONE_CURVE",
    "CONSTANT_TRANSMISSION_CURVE",
    "ChannelParams",
    "ComparisonConfig",
    "DegradationCurve",
    "DistanceMatrix",
    "GeneticConfig",
    "GreedyConfig",
    "LINEAR_COEFFICIENT_CURVE",
    "PowerMatrix",
    "ScenarioSpec",
    "SceneApEstimate",
    "SnrClampWarning",
    "aoi_summary",
    "build_aoi_records",
    "check_feasible",
    "compute_delay_matrix",
    "compute_snr_matrix",
    "default_pa",
    "delay_mean",
    "delay_rmse",
    "delay_variance",
    "derive_seed",
    "estimate_ap",
    "estimate_scene_ap",
    "exact_pa",
    "generate_scene",
    "genetic_pa",
    "greedy_pa",
    "load_distance_matrix",
    "offdiag_mask",
    "offdiag_values",
    "probabilistic_round",
    "project_to_feasible",
    "run_comparison",
    "save_distance_matrix",
    "splitmix64",
}


def test_public_names_are_pinned():
    # submodules appear as attributes once anything imports them, so they
    # are not part of the pinned surface
    names = {
        name
        for name, value in vars(v2vaoi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
