"""Strong-convergence iteration machinery on finite-dimensional lp spaces."""

from .geometry import LpSpace
from .sets import (
    AffineSet,
    Box,
    ConvexSet,
    EuclideanBall,
    HalfSpace,
    ProjectionResult,
    WholeSpace,
    generalized_projection,
)
from .operators import (
    DualityResidual,
    GradientOfQuadratic,
    LinearMonotone,
    MonotoneOperator,
    ResolventResult,
    resolvent,
)
from .mappings import (
    BlendMap,
    BlendSequence,
    Mapping,
    MappingSequence,
    ProjectionMap,
    ResolventMap,
    ResolventSequence,
)
from .schedules import (
    AlternatingSchedule,
    ConstantSchedule,
    DriftSchedule,
    LinearSchedule,
    PowerSchedule,
    ScheduleValidationError,
)
from .sequences import (
    ConvergentEvidence,
    NoRiseEvidence,
    RealSequencePrefix,
    TauCertificate,
    eventually_increasing_tau,
    example_sequence,
    mainge_tau,
    verify_example_claims,
    xu_recursion,
)
from .driver import (
    HalpernConfig,
    IterationTrace,
    RunStatus,
    halpern_step,
    reference_solution,
    run_halpern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
