import dataclasses

import numpy as np
import pytest

from mhdlab import build_grid, helmholtz_project, make_equilibrium
from mhdlab.basis import SolenoidalBasis
from mhdlab.equilibria import _DIV_TOL
from mhdlab.fields import divergence_matrix, vector_laplacian_matrix
from mhdlab.stabilize import control_fields
from oracles import ScalarField, VectorField2, dense_basis, divergence_residual, gradient
from oracles import laplacian_symbol, poisson_project, rot, solenoidal_basis_loop

L = 2 * np.pi


def _random_field(grid, rng, cplx=False):
    shape = grid.shape
    u1 = rng.normal(size=shape)
    u2 = rng.normal(size=shape)
    if cplx:
        u1 = u1 + 1j * rng.normal(size=shape)
        u2 = u2 + 1j * rng.normal(size=shape)
    return np.array([u1, u2])


def _assert_symbol_diagonalizes_laplacian(grid):
    b = SolenoidalBasis.for_grid(grid)
    for order in (2, 4):
        lap = vector_laplacian_matrix(grid, order)
        sym = laplacian_symbol(b, order)
        rng = np.random.default_rng(19)
        c = rng.normal(size=b.dim)
        f = b.synthesize(c)
        back = b.analyze((lap @ f.ravel()).reshape(f.shape))
        assert np.abs(back - sym * c).max() < 1e-9


class TestHelmholtz:
    def test_idempotent(self, box32):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = _random_field(box32, rng)
            pv = helmholtz_project(box32, v)
            ppv = helmholtz_project(box32, pv)
            num = np.linalg.norm(ppv.ravel() - pv.ravel())
            assert num <= 1e-10 * np.linalg.norm(v.ravel())

    def test_annihilates_gradients(self, box32):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = ScalarField(box32, rng.normal(size=box32.shape))
            gs = gradient(s)
            pg = VectorField2(box32, *helmholtz_project(box32, gs.array()))
            assert pg.norm() <= 1e-10 * max(gs.norm(), 1.0)

    def test_divergence_free_output(self, box32):
        rng = np.random.default_rng(13)
        for _ in range(10):
            v = _random_field(box32, rng)
            pv = helmholtz_project(box32, v)
            assert divergence_residual(box32, pv) <= 1e-10 * np.linalg.norm(v.ravel())

    def test_fixes_divergence_free_fields(self, box32):
        # rot of a stream function is exactly divergence free and zero mean
        rng = np.random.default_rng(14)
        psi = ScalarField(box32, rng.normal(size=box32.shape))
        v = rot(psi).array()
        pv = helmholtz_project(box32, v)
        assert np.abs(pv.ravel() - v.ravel()).max() <= 1e-10 * np.abs(v.ravel()).max()

    def test_complex_fields(self, box32):
        rng = np.random.default_rng(15)
        v = _random_field(box32, rng, cplx=True)
        pv = helmholtz_project(box32, v)
        assert divergence_residual(box32, pv) <= 1e-10 * np.linalg.norm(v.ravel())


TORUS_SHAPES = [(np.pi, 16, 12), (L, 32, 32)]


@pytest.mark.parametrize("shape", TORUS_SHAPES)
def test_leray_projection_is_the_basis_projection_plus_the_means(shape):
    # on the torus the kernel of the centered divergence is the span of the
    # solenoidal basis plus the componentwise means, so the Poisson
    # projection keeps the means and projects the rest onto the basis
    Ly, nx, ny = shape
    g = build_grid(L, Ly, nx, ny)
    b = SolenoidalBasis.for_grid(g)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(3, 2, 2) + g.shape)
    got = b.leray(a)
    for f, pf in zip(a.reshape((-1, 2) + g.shape), got.reshape((-1, 2) + g.shape)):
        pv = poisson_project(g, f)
        assert np.abs(pf - pv).max() <= 1e-13 * np.abs(f).max()
    # on the whole torus the applied control fields are that projection
    whole = np.ones(g.shape, dtype=bool)
    assert control_fields(b, a, whole).tobytes() == got.tobytes()


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape", TORUS_SHAPES)
def test_helmholtz_project_is_the_poisson_projection_on_the_torus(shape, cplx):
    # the package projects through the basis, without a Poisson problem of
    # its own, and agrees with the bordered Poisson solve
    Ly, nx, ny = shape
    g = build_grid(L, Ly, nx, ny)
    rng = np.random.default_rng(24)
    for _ in range(3):
        v = _random_field(g, rng, cplx)
        pv = helmholtz_project(g, v)
        assert pv.shape == v.shape and pv.dtype == v.dtype
        assert np.abs(pv - poisson_project(g, v)).max() <= 1e-13 * np.abs(v).max()


def _custom_pair(grid):
    """A custom (y_e, B_e): a vortex plus a gradient, and a field whose
    first component varies only in y and second only in x, so that its
    centered divergence is exactly zero."""
    X, Y = grid.meshgrid()
    ye = (np.sin(X) * np.cos(Y) + np.sin(2 * X), -np.cos(X) * np.sin(Y) + np.cos(Y))
    Be = (np.cos(Y), np.sin(2 * X))
    return {"y_e": ye, "B_e": Be}


class TestPeriodicEquilibria:
    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex", "custom"])
    def test_set_up_no_poisson_problem(self, kind):
        # the package has no pressure operator to build (test_oracles.py)
        g = build_grid(L, L, 24, 24)
        params = _custom_pair(g) if kind == "custom" else None
        make_equilibrium(kind, g, params)

    def test_exactly_solenoidal_fields_come_back_bit_identical(self):
        # shear, a uniform field and the custom B have exactly zero centered
        # divergence, so they are their own projection, bit for bit
        g = build_grid(L, L, 32, 32)
        X, Y = g.meshgrid()
        shear = make_equilibrium("shear", g, {"amplitude": 0.7, "mode": 2})
        expect = np.array([0.7 * np.sin(2 * np.pi * 2 * Y / g.Ly), 0 * Y])
        assert shear.y_e.tobytes() == expect.tobytes()
        ones = np.ones(g.shape)
        uniform = make_equilibrium("custom", g, {"B_e": (ones, 0.5 * ones)})
        assert uniform.B_e.tobytes() == np.array([ones, 0.5 * ones]).tobytes()
        assert not uniform.y_e.any()
        custom = make_equilibrium("custom", g, _custom_pair(g))
        assert custom.B_e.tobytes() == np.array(_custom_pair(g)["B_e"]).tobytes()

    @pytest.mark.parametrize("n", [32, 64])
    def test_projected_equilibria_are_solenoidal(self, n):
        g = build_grid(L, L, n, n)
        D = divergence_matrix(g)
        custom = make_equilibrium("custom", g, _custom_pair(g))
        for eq in (make_equilibrium("taylor_vortex", g), custom):
            scale = max(np.abs(eq.y_e).max(), np.abs(eq.B_e).max(), 1.0)
            for v in (eq.y_e, eq.B_e):
                assert np.abs(D @ v.ravel()).max() <= _DIV_TOL * scale
        # the gradient part of the custom velocity is gone
        ref = poisson_project(g, np.array(_custom_pair(g)["y_e"]))
        assert np.abs(custom.y_e - ref).max() <= 1e-13


class TestSolenoidalBasis:
    def test_dimension(self, box16):
        b = SolenoidalBasis.for_grid(box16)
        assert b.dim == box16.ncells + 2

    def test_columns_orthonormal_and_divfree(self):
        g = build_grid(L, L, 12, 12)
        b = SolenoidalBasis.for_grid(g)
        Z = dense_basis(b)
        gram = Z.T @ Z * g.cell_area
        assert np.abs(gram - np.eye(b.dim)).max() < 1e-12
        D = divergence_matrix(g)
        assert np.abs(D @ Z).max() < 1e-12

    def test_roundtrip(self, box16):
        b = SolenoidalBasis.for_grid(box16)
        rng = np.random.default_rng(17)
        c = rng.normal(size=b.dim)
        back = b.analyze(b.synthesize(c))
        assert np.abs(back - c).max() < 1e-12

    def test_expansion_is_projection_for_solenoidal_fields(self, box16):
        # reconstructing a projected zero-mean field reproduces it
        rng = np.random.default_rng(18)
        psi = ScalarField(box16, rng.normal(size=box16.shape))
        v = rot(psi)
        b = SolenoidalBasis.for_grid(box16)
        w = b.synthesize(b.analyze(np.stack([v.u1, v.u2])))
        assert np.abs(w.ravel() - v.ravel()).max() < 1e-11 * np.abs(v.ravel()).max()

    @pytest.mark.parametrize(
        "nx,ny", [(8, 8), (16, 12), (33, 31), (40, 48), (48, 40), (32, 32), (64, 64)]
    )
    def test_build_equals_the_loop_oracle(self, nx, ny):
        # array arithmetic in place of the per-mode loop: the same modes in
        # the same order, the same sines and the same dtypes, bit for bit
        g = build_grid(L, 0.75 * L, nx, ny)
        got, ref = SolenoidalBasis._build(g), solenoidal_basis_loop(g)
        assert got.dim == ref.dim
        for f in dataclasses.fields(SolenoidalBasis):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name

    def test_diffusion_symbol_diagonalizes_laplacian(self, box16):
        _assert_symbol_diagonalizes_laplacian(box16)

    def test_diffusion_symbol_decodes_non_square_grid(self):
        # on 16x12 a decoding with nx and ny swapped fails; on box16 it passes
        _assert_symbol_diagonalizes_laplacian(build_grid(L, np.pi, 16, 12))

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_transforms_equal_single_vectors(self, cplx):
        # batching must not change a bit: one ifft2/fft2 over the stack does
        # exactly what k separate transforms do
        g = build_grid(L, 0.75 * L, 16, 12)
        b = SolenoidalBasis.for_grid(g)
        rng = np.random.default_rng(20)
        C = rng.normal(size=(3, b.dim))
        if cplx:
            C = C + 1j * rng.normal(size=C.shape)
        F = b.synthesize(C)
        assert F.shape == (3, 2) + g.shape
        singles = np.stack([b.synthesize(c) for c in C])
        assert F.dtype == singles.dtype and F.tobytes() == singles.tobytes()

        stack = np.stack([_random_field(g, rng, cplx) for _ in range(3)])
        coeffs = b.analyze(stack)
        singles = np.stack([b.analyze(f) for f in stack])
        assert coeffs.dtype == singles.dtype and coeffs.tobytes() == singles.tobytes()
        nested = b.analyze(stack.reshape((1, 3, 2) + g.shape))[0]
        assert nested.tobytes() == coeffs.tobytes()

