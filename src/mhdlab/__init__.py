"""Numerical laboratory for the linearized incompressible MHD system:
unstable spectra, continuation rank tests, weighted-estimate verification,
and localized feedback stabilization on periodic/wall rectangles."""

__version__ = "0.1.0"

from .grid import BcKind, Grid, build_grid
from .geometry import (
    GeometryCase,
    OmegaSpec,
    RegionSet,
    WeightField,
    build_nested_regions,
    build_weight,
)
from .fields import BcTag, apply_bc
from .projection import helmholtz_project
from .equilibria import Equilibrium, make_equilibrium
from .operators import (
    GeneratorOperator,
    MhdSystem,
    assemble_adjoint,
    assemble_generator,
    oseen_minus,
    oseen_plus,
)
from .spectral import (
    EigenPair,
    GramMatrix,
    KalmanMatrix,
    SpectrumReport,
    adjoint_eigenpairs,
    compute_spectrum,
    kalman_rank,
    omega_fields,
    select_actuators,
    ucp_gram_test,
)
from .carleman import (
    CarlemanParams,
    Coefficients,
    Sweep,
    coefficients,
    draw_test_fields,
    inequality_sweep_stack,
)
from .stabilize import (
    ClosedLoop,
    FeedbackDesign,
    FeedbackGain,
    SimulationTrace,
    UnstableProjection,
    closed_loop,
    design_feedback,
    measure_decay,
    project_unstable,
    simulate_closed_loop,
    synthesize_feedback,
)
from .config import DEFAULT_CONFIG, RunConfig
