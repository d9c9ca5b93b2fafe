"""Data-driven reachability for linear and piecewise-affine systems.

From bounded-noise trajectory data the library builds set-valued system
models (matrix zonotopes, optionally constrained by kernel consistency of
the recorded data), chooses the right inverse that maps data to models
(Frobenius-minimal pseudoinverse or a row-norm-minimizing alternative),
propagates reachable sets with guard splitting for piecewise dynamics,
and closes the loop with an online input design that keeps the collected
data informative.  The harness module runs the bundled experiments and
verifies every emitted set against fresh simulated trajectories.
"""

__version__ = "0.1.0"

from .harness import (
    ExperimentConfig,
    HarnessError,
    TrueSystem,
    bundled_config,
    collect_data,
    load_config,
    proxy_chain,
    run_lti_experiment,
    run_pwa_experiment,
    simulate_batch,
    true_noise_coefficients,
)
from .inputdesign import DesignConfig, delta_A, design_input, info_init, info_update
from .modelset import (
    DataSet,
    ModelSetBundle,
    build_model_sets,
    generator_norm_proxy,
)
from .reach import (
    Halfspace,
    PwaMode,
    PwaSpec,
    model_based_reference,
    partition_data_by_mode,
    propagate_lti,
    propagate_pwa,
)
from .rightinv import (
    RightInverseResult,
    pinv_right_inverse,
    row_norm_right_inverse,
    row_norm_sum,
    verify_sandwich,
)
from .selfcheck import run_selfcheck
from .sets import (
    ConstrainedMatrixZonotope,
    ConstrainedZonotope,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    contains_point,
    empty_set,
    halfspace_intersection,
    interval_hull,
    linear_map,
    minkowski_sum,
    reduce_girard,
    support,
    volume,
)

__all__ = [
    "__version__",
    "ConstrainedMatrixZonotope",
    "ConstrainedZonotope",
    "DataSet",
    "DesignConfig",
    "ExperimentConfig",
    "Halfspace",
    "HarnessError",
    "MatrixZonotope",
    "ModelSetBundle",
    "PwaMode",
    "PwaSpec",
    "RightInverseResult",
    "TrueSystem",
    "Zonotope",
    "bundled_config",
    "build_model_sets",
    "cartesian_product",
    "collect_data",
    "contains_point",
    "delta_A",
    "design_input",
    "empty_set",
    "generator_norm_proxy",
    "halfspace_intersection",
    "info_init",
    "info_update",
    "interval_hull",
    "linear_map",
    "load_config",
    "minkowski_sum",
    "model_based_reference",
    "partition_data_by_mode",
    "pinv_right_inverse",
    "propagate_lti",
    "propagate_pwa",
    "proxy_chain",
    "reduce_girard",
    "row_norm_right_inverse",
    "row_norm_sum",
    "run_lti_experiment",
    "run_pwa_experiment",
    "run_selfcheck",
    "simulate_batch",
    "support",
    "true_noise_coefficients",
    "verify_sandwich",
    "volume",
]
