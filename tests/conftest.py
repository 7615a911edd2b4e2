import numpy as np
import pytest

from mhdlab import (
    MhdSystem,
    OmegaSpec,
    build_grid,
    build_nested_regions,
    build_weight,
    make_equilibrium,
)
from oracles import build_cutoff

L = 2 * np.pi


@pytest.fixture(scope="session")
def box16():
    return build_grid(L, L, 16, 16)


@pytest.fixture(scope="session")
def box32():
    return build_grid(L, L, 32, 32)


@pytest.fixture(scope="session")
def channel():
    return build_grid(L, 2.0, 32, 16, "periodic", "wall")


@pytest.fixture(scope="session")
def regions32(box32):
    return build_nested_regions(box32, OmegaSpec(shape="disc", size=0.15 * L))


@pytest.fixture(scope="session")
def chi32(regions32):
    return build_cutoff(regions32)


@pytest.fixture(scope="session")
def psi32(regions32):
    return build_weight(regions32)


@pytest.fixture(scope="session")
def eq_zero32(box32):
    return make_equilibrium("zero", box32)


@pytest.fixture(scope="session")
def gen_shifted32(eq_zero32):
    return MhdSystem(eq_zero32, 1.5)


@pytest.fixture(scope="session")
def spectrum_shifted32(gen_shifted32):
    from mhdlab import compute_spectrum

    return compute_spectrum(gen_shifted32, 16)


@pytest.fixture(scope="session")
def adj_spectrum_shifted32(gen_shifted32, spectrum_shifted32):
    from mhdlab import adjoint_eigenpairs

    return adjoint_eigenpairs(gen_shifted32, spectrum_shifted32)
