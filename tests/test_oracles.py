"""The package holds the pipeline and the oracles live in tests/oracles.py:
each moved name is defined there only, and no pipeline or benchmark module
imports the oracles."""

import dataclasses
import importlib
import re
from pathlib import Path

import mhdlab
import oracles
from mhdlab.basis import SolenoidalBasis
from mhdlab.equilibria import Equilibrium
from mhdlab.geometry import WeightField
from mhdlab.grid import Grid
from mhdlab.operators import MhdSystem
from mhdlab.stabilize import FeedbackGain, UnstableProjection

ROOT = Path(__file__).resolve().parents[1]

# module of the package -> names that moved to the oracles
MOVED = {
    "operators": ["CommutatorForcing", "_chi_commutator", "build_commutators"],
    "errors": ["CommutatorSupportError"],
    "geometry": ["CutoffField", "build_cutoff"],
    "carleman": ["assemble_chi_system_residual", "make_omega_vanishing_state",
                 "tau_sweep_vanishing", "halving_exponents", "_star_integrals",
                 "_grad_energy"],
    "fields": ["gradient", "curl2d", "rot", "weighted_norm2", "ScalarField", "VectorField2",
               "StateVector", "inner", "restrict", "divergence", "laplacian",
               "gradient_matrix", "wide_laplacian_matrix", "_apply"],
    "equilibria": ["_advect", "forcings"],
    "projection": ["divergence_residual", "PoissonSolver", "_parity_null_vectors"],
    "stabilize": ["stable_complement_residual"],
}
MOVED_METHODS = ["pressure_from_state", "steady_rows", "pde_residual", "xi_row_leakage"]
# (class, method) -> the oracle function that replaced it
MOVED_TO_FUNCTIONS = {(MhdSystem, "to_state"): "to_state",
                      (UnstableProjection, "apply"): "unstable_component",
                      (Grid, "same_as"): "same_grid"}
# a moved name as code names or calls it
MOVED_USE = re.compile(
    r"\b(ScalarField|VectorField2|StateVector)\b"
    r"|\b(inner|restrict|divergence|laplacian|to_state|unstable_component|forcings|same_grid)\("
    r"|\.(apply|same_as)\("
)


def test_moved_names_live_in_the_oracles_only():
    for module, names in MOVED.items():
        mod = importlib.import_module(f"mhdlab.{module}")
        for name in names:
            assert hasattr(oracles, name), name
            assert not hasattr(mod, name), f"mhdlab.{module}.{name}"
            assert not hasattr(mhdlab, name), f"mhdlab.{name}"
    for name in MOVED_METHODS + ["elliptic_eigenvalue"]:
        assert not hasattr(MhdSystem, name), name
        if name in MOVED_METHODS:
            assert callable(getattr(oracles, name))
    for (cls, method), name in MOVED_TO_FUNCTIONS.items():
        assert not hasattr(cls, method), f"{cls.__name__}.{method}"
        assert callable(getattr(oracles, name)), name
        assert not hasattr(mhdlab, name), f"mhdlab.{name}"
    # the equilibrium keeps its fields, not the forcings that make them steady
    assert not {"f", "g"} & {f.name for f in dataclasses.fields(Equilibrium)}
    # deleted with no replacement, or built for no stage
    carleman = importlib.import_module("mhdlab.carleman")
    for name in ("final_estimate_eval", "EstimateReport", "_normalized_weight"):
        assert not hasattr(carleman, name), name
        assert not hasattr(mhdlab, name), name
    assert not hasattr(Equilibrium, "sup_fields")
    assert not hasattr(WeightField, "as_scalar")
    # the wall projection and boundary conditions: wall grids carry the
    # Carleman stage only, which builds no equilibrium
    for module, names in {"projection": ["_wall_pinv", "_DENSE_LIMIT"],
                          "fields": ["apply_bc", "BcTag"],
                          "equilibria": ["_BC_TOL"]}.items():
        mod = importlib.import_module(f"mhdlab.{module}")
        for name in names:
            assert not hasattr(mod, name), f"mhdlab.{module}.{name}"
            assert not hasattr(mhdlab, name), f"mhdlab.{name}"
    assert not hasattr(Grid, "boundary_mask")
    assert not hasattr(SolenoidalBasis, "diffusion_symbol")
    # the torus projects through the basis alone: no Poisson factorization
    projection = importlib.import_module("mhdlab.projection")
    for name in ("_solver", "spla"):
        assert not hasattr(projection, name), name
    assert not hasattr(SolenoidalBasis, "dense") and callable(oracles.dense_basis)
    # one forward eigensolver path: the dense one is the tests' reference
    spectral = importlib.import_module("mhdlab.spectral")
    operators = importlib.import_module("mhdlab.operators")
    assert not hasattr(MhdSystem, "dense") and callable(oracles.dense_spectrum)
    assert not hasattr(spectral, "_dense_eig")
    assert not hasattr(operators, "_DENSE_STATE_LIMIT")
    assert "strategy" not in {f.name for f in dataclasses.fields(spectral.SpectrumReport)}
    # members no stage reads
    assert not hasattr(SolenoidalBasis, "state_dim")
    assert not hasattr(WeightField, "grid")
    assert not {"K", "N"} & set(dir(FeedbackGain))


def test_one_generator_object():
    # MhdSystem is the generator R; the adjoint is read as its matrix.T
    modules = [importlib.import_module(f"mhdlab.{p.stem}")
               for p in (ROOT / "src" / "mhdlab").glob("[!_]*.py")]
    assert modules
    for name in ("GeneratorOperator", "assemble_generator", "assemble_adjoint"):
        assert not hasattr(mhdlab, name), f"mhdlab.{name}"
        for mod in modules:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"


def test_basis_builds_no_laplacian_symbols(box16):
    b = SolenoidalBasis.for_grid(box16)
    for name in ("pair_sym2", "pair_sym4", "spec_sym2", "spec_sym4"):
        assert not hasattr(b, name), name


def test_no_pipeline_or_benchmark_module_imports_the_oracles():
    sources = list((ROOT / "src" / "mhdlab").glob("*.py"))
    sources += list((ROOT / "perfbench").glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        assert "import oracles" not in text and "from oracles" not in text, path
        use = MOVED_USE.search(text)
        assert use is None, f"{path.name}: {use and use.group()}"
