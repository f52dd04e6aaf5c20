"""drapebench: quantify how garment drape degrades optical MoCap accuracy.

A self-contained simulation benchmark: parametric bodies perform known
motions under mass-spring cloth; virtual marker-based capture and ingested
marker-less estimates are scored against the anatomic ground-truth joints
with MPJPE and CRMSE, per drape class.
"""

__version__ = "0.1.0"

from .kinematics import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    procedural_motion,
    sequence_transforms,
    rescale_to_height,
)
from .bvh import BvhParseError, parse_bvh, write_bvh
from .mesh import TriMesh, cap_boundaries, enclosed_volume, surface_points
from .body import BUILD_CATALOG, Capsule, SkinnedBody, build_parametric_body
from .cloth import ClothParams, ClothState, SpringNetwork, build_spring_network, simulate_sequence
from .garment import (
    DRAPE_THRESHOLDS,
    Garment,
    classify_drape,
    generate_garment,
    measure_drape,
)
from .markers import (
    MarkerPlacement,
    MarkerTrajectory,
    add_marker_noise,
    place_markers,
    reconstruct_pose_from_markers,
    track_markers,
)
from .estimates import (
    ExternalEstimate,
    NormalizedEstimate,
    ingest_estimates,
    normalize_estimate,
    surrogate_estimator,
)
from .metrics import angles_from_positions, crmse, mpjpe
from .bench import (
    BenchConfig,
    BenchmarkReport,
    MethodSpec,
    MotionSpec,
    emit_plot_data,
    read_report,
    run_benchmark,
    write_report,
)
