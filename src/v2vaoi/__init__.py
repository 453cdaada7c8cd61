"""V2V channel simulator: interference-limited links, max-min SNR power
allocation, information-age accounting, and a perception-quality proxy."""

from .allocator import (
    AllocationProblem,
    AllocationResult,
    GeneticConfig,
    GreedyConfig,
    check_feasible,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from .aoi import AoiConfig, AoiSummary, aoi_summary, build_aoi_records
from .channel import (
    ChannelParams,
    DistanceMatrix,
    PowerMatrix,
    compute_delay_matrix,
    compute_snr_matrix,
    offdiag_values,
)
from .metrics import (
    ComparisonConfig,
    delay_mean,
    delay_rmse,
    delay_variance,
    run_comparison,
)
from .proxy import (
    BACKBONE_CURVE,
    CONSTANT_TRANSMISSION_CURVE,
    LINEAR_COEFFICIENT_CURVE,
    DegradationCurve,
    SceneApEstimate,
    estimate_ap,
    estimate_scene_ap,
)
from .scenario import (
    ScenarioSpec,
    generate_scene,
    load_distance_matrix,
    save_distance_matrix,
)
from .seeds import derive_seed, splitmix64

__version__ = "0.1.0"
