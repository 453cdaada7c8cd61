"""The package's public surface."""

import os
import subprocess
import sys
import types
from pathlib import Path

import v2vaoi

# Every public name of the package, pinned so that adding or removing one is
# a deliberate change to this list.
PUBLIC_NAMES = {
    "AllocationProblem",
    "AllocationResult",
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
    "offdiag_values",
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


def test_cli_imports_no_thread_pool():
    # compare runs its trials serially, so no process loads concurrent.futures
    src = str(Path(v2vaoi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, v2vaoi.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "False\n"
