"""Projection methods for split feasibility problems with fixed-point
constraints: exact projections onto standard convex sets, a taxonomy of
nonexpansive-type mappings, a hybrid inertial self-adaptive solver and a
reproducible benchmark harness.
"""

from .linalg import DimensionMismatch, LinearMap, as_vector, norm
from .sets import (
    AffineNullspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    Singleton,
    WholeSpace,
    check_projection_characterization,
    membership_residual,
)
from .mappings import (
    Mapping,
    average,
    estimate_demicontractive_modulus,
    fixed_point_residual,
    mapping_from_name,
    unit_interval_jump_map,
    verify_quasi_nonexpansive,
)
from .solver import (
    ParameterSchedule,
    RunHistory,
    ScheduleViolation,
    Seq,
    SfpProblem,
    StepperConfig,
    monitors,
    run,
    validate_schedule,
)
from .bench import (
    PRESETS,
    TABLE1_ROWS,
    ConfigError,
    build_example_s4,
    compare_to_table1,
    generate_random_sfp,
    run_experiment,
)

__version__ = "0.1.0"
