"""Numerical laboratory for the linearized incompressible MHD system:
unstable spectra, continuation rank tests, weighted-estimate verification,
and localized feedback stabilization on periodic/wall rectangles."""

__version__ = "0.1.0"

from .grid import BcKind, Grid, build_grid
from .geometry import (
    CutoffField,
    GeometryCase,
    OmegaSpec,
    RegionSet,
    WeightField,
    build_cutoff,
    build_nested_regions,
    build_weight,
)
from .fields import (
    BcTag,
    ScalarField,
    StateVector,
    VectorField2,
    apply_bc,
    curl2d,
    divergence,
    gradient,
    inner,
    laplacian,
    restrict,
    rot,
    weighted_norm2,
)
from .projection import helmholtz_project, project_state
from .equilibria import Equilibrium, make_equilibrium
from .operators import (
    CommutatorForcing,
    GeneratorOperator,
    MhdSystem,
    assemble_adjoint,
    assemble_generator,
    build_commutators,
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
    select_actuators,
    ucp_gram_test,
)
from .carleman import (
    CarlemanParams,
    Coefficients,
    EstimateReport,
    assemble_chi_system_residual,
    coefficients,
    draw_test_fields,
    final_estimate_eval,
    inequality_sweep_stack,
    make_omega_vanishing_state,
    tau_sweep_vanishing,
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
