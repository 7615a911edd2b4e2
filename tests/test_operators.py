import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mhdlab import (
    MhdSystem,
    build_grid,
    build_nested_regions,
    compute_spectrum,
    make_equilibrium,
    oseen_minus,
    oseen_plus,
)
from mhdlab.basis import SolenoidalBasis
from mhdlab.cli import main
from mhdlab.errors import ConfigurationError, NumericalError, ShapeError
from mhdlab.fields import dx_matrix, dy_matrix
from mhdlab.geometry import OmegaSpec
from mhdlab import operators
from mhdlab.operators import DiagonalSolver, is_diagonal, shifted_lu
from oracles import CommutatorSupportError, CutoffField, ScalarField, StateVector, VectorField2
from oracles import build_commutators, build_cutoff, divergence, forcings, pde_residual
from oracles import fourier_parts_unique, pressure_from_state, rot, symmetric_superlu, to_state
from oracles import dense_spectrum, xi_row_leakage

L = 2 * np.pi


class TestEquilibria:
    def test_zero(self, box32, eq_zero32):
        assert not eq_zero32.y_e.any()
        assert not eq_zero32.B_e.any()
        assert eq_zero32.grad_bound == 0.0

    def test_shear_divfree_and_forcing(self, box32):
        nu = 0.7
        eq = make_equilibrium("shear", box32, nu=nu)
        assert np.abs(divergence(VectorField2(box32, *eq.y_e)).values).max() < 1e-12
        _, Y = box32.meshgrid()
        f, g = forcings(eq)
        # f = -nu * Lap y_e; the discrete symbol multiplies sin y by
        # (2 - 2cos h)/h^2, within O(h^2) of 1
        assert np.abs(f.u1 - nu * np.sin(Y)).max() < 5e-3 * nu
        assert np.abs(f.u2).max() < 1e-12
        assert g.norm() == 0.0
        assert eq.grad_bound == pytest.approx(1.0, rel=1e-2)

    def test_taylor_vortex_divfree(self, box32):
        eq = make_equilibrium("taylor_vortex", box32)
        assert np.abs(divergence(VectorField2(box32, *eq.y_e)).values).max() < 1e-12
        assert np.isfinite(eq.grad_bound)

    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex", "custom"])
    def test_fields_are_arrays_and_forcings_an_oracle(self, box32, kind):
        # y_e and B_e are real (2, nx, ny) arrays and the equilibrium keeps no
        # forcings; the oracle's forcings hold the closed forms: shear drives
        # f = -nu Lap y_e and the custom B = (sin y, 0) drives g = -eta Lap B_e,
        # the same discrete sine, and the forcing of a vanishing field is zero
        _, Y = box32.meshgrid()
        nu, eta = 0.7, 0.6
        params = {"B_e": (np.sin(Y), np.zeros(box32.shape))} if kind == "custom" else None
        eq = make_equilibrium(kind, box32, params, nu=nu, eta=eta)
        for v in (eq.y_e, eq.B_e):
            assert type(v) is np.ndarray and v.dtype == np.float64
            assert v.shape == (2,) + box32.shape
        assert not {"f", "g"} & {fld.name for fld in dataclasses.fields(eq)}
        assert not hasattr(eq, "f") and not hasattr(eq, "g")
        f, g = forcings(eq)
        if kind in ("shear", "custom"):
            h, c = (f, nu) if kind == "shear" else (g, eta)
            assert np.abs(h.u1 - c * np.sin(Y)).max() < 5e-3 * c
            assert np.abs(h.u2).max() < 1e-12
        if kind in ("zero", "custom"):
            assert f.norm() == 0.0
        if kind != "custom":
            assert g.norm() == 0.0

    def test_custom_with_magnetic_part(self, box32):
        X, Y = box32.meshgrid()
        eq = make_equilibrium(
            "custom",
            box32,
            {"B_e": (np.sin(Y), np.zeros(box32.shape))},
        )
        assert np.linalg.norm(eq.B_e) > 0
        assert np.abs(divergence(VectorField2(box32, *eq.B_e)).values).max() < 1e-12

    def test_custom_component_off_the_grid_is_shape_error(self, box32):
        with pytest.raises(ShapeError, match="B_e"):
            make_equilibrium("custom", box32, {"B_e": (np.ones((16, 16)), np.zeros(box32.shape))})

    def test_unknown_kind(self, box32):
        with pytest.raises(ConfigurationError):
            make_equilibrium("vortex_street", box32)

    @pytest.mark.parametrize(
        "params",
        [{"amplitude": "2"}, {"amplitude": True}, {"amplitude": None}, {"mode": 1.5}, {"mode": "1"}],
    )
    def test_bad_params_are_config_errors(self, box32, params):
        with pytest.raises(ConfigurationError, match=next(iter(params))):
            make_equilibrium("shear", box32, params)

    @pytest.mark.parametrize(
        "kind, name",
        [("zero", "amplitude"), ("shear", "mode_x"), ("taylor_vortex", "mode"), ("custom", "amplitude")],
    )
    def test_param_the_kind_does_not_read_is_config_error(self, box32, kind, name):
        with pytest.raises(ConfigurationError, match=name):
            make_equilibrium(kind, box32, {name: 1})

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
    def test_nonfinite_param_is_config_error(self, box32, amplitude):
        with pytest.raises(ConfigurationError, match="amplitude"):
            make_equilibrium("shear", box32, {"amplitude": amplitude})

    def test_integral_float_mode_is_the_int(self, box32):
        a = make_equilibrium("shear", box32, {"mode": 2.0, "amplitude": 3})
        b = make_equilibrium("shear", box32, {"mode": 2, "amplitude": 3.0})
        assert np.array_equal(a.y_e[0], b.y_e[0])

    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex", "custom"])
    def test_wall_grids_build_no_equilibrium(self, channel, kind):
        # a grid with walls carries the Carleman stage only, which reads no
        # equilibrium; its params are still read first
        with pytest.raises(ConfigurationError, match="fully periodic"):
            make_equilibrium(kind, channel)
        with pytest.raises(ConfigurationError, match="nu"):
            make_equilibrium(kind, channel, nu=-1.0)


class TestOseen:
    def test_zero_field_gives_zero_operator(self, box32):
        e = np.zeros((2,) + box32.shape)
        assert oseen_plus(box32, e).nnz == 0 or np.abs(oseen_plus(box32, e).data).max() == 0

    def test_constant_field_is_advection(self, box32):
        ones = np.ones(box32.shape)
        e = np.array([ones, 0 * ones])
        rng = np.random.default_rng(0)
        v = rng.normal(size=2 * box32.ncells)
        expect = np.concatenate(
            [dx_matrix(box32) @ v[: box32.ncells], dx_matrix(box32) @ v[box32.ncells :]]
        )
        assert np.abs(oseen_plus(box32, e) @ v - expect).max() < 1e-12
        # zero-order term vanishes for constant fields: both variants agree
        assert np.abs(
            oseen_plus(box32, e) @ v - oseen_minus(box32, e) @ v
        ).max() < 1e-12

    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex"])
    def test_zero_field_skips_the_products_bit_for_bit(self, box32, kind):
        # the empty operator of a zero field gives R the arrays of the full
        # advection and gradient-coupling build of that zero field
        eq = make_equilibrium(kind, box32)
        zero = np.zeros((2,) + box32.shape)
        for op in (oseen_plus, oseen_minus):
            empty = op(box32, zero)
            assert empty.format == "csr" and empty.shape == (2 * box32.ncells,) * 2
            assert empty.nnz == 0
        R = MhdSystem(eq, 1.5).matrix
        with pytest.MonkeyPatch.context() as mp:
            full = operators._block_advection, operators._gradient_coupling
            mp.setattr(operators, "oseen_plus", lambda g, e: full[0](g, e) + full[1](g, e))
            mp.setattr(operators, "oseen_minus", lambda g, e: full[0](g, e) - full[1](g, e))
            built = MhdSystem(eq, 1.5).matrix
        for name in ("data", "indices", "indptr"):
            assert getattr(R, name).tobytes() == getattr(built, name).tobytes(), name

    def test_shear_on_constant_state(self, box32):
        _, Y = box32.meshgrid()
        e = np.array([np.sin(Y), np.zeros(box32.shape)])
        v = np.concatenate([np.zeros(box32.ncells), np.ones(box32.ncells)])
        got_plus = oseen_plus(box32, e) @ v
        got_minus = oseen_minus(box32, e) @ v
        cos_d = (dy_matrix(box32) @ np.sin(Y).ravel())  # discrete cos y
        assert np.abs(got_plus[: box32.ncells] - cos_d).max() < 1e-12
        assert np.abs(got_minus[: box32.ncells] + cos_d).max() < 1e-12
        assert np.abs(cos_d - np.cos(Y).ravel()).max() < 1e-2


class TestGenerator:
    def test_cache_is_neither_an_argument_nor_compared(self, box16):
        eq = make_equilibrium("zero", box16)
        with pytest.raises(TypeError):
            MhdSystem(eq, 0.0, {})
        built, fresh = MhdSystem(eq, 0.0), MhdSystem(eq, 0.0)
        assert built.matrix.nnz > 0
        assert built == fresh
        assert "_cache" not in repr(built)

    def test_zero_equilibrium_block_diagonal(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        amb = A.ambient_matrix()
        n2 = 2 * box16.ncells
        off1 = amb[:n2, n2:]
        off2 = amb[n2:, :n2]
        assert off1.nnz == 0 or np.abs(off1.data).max() == 0.0
        assert off2.nnz == 0 or np.abs(off2.data).max() == 0.0

    def test_shift_moves_spectrum_exactly(self, box16):
        eq = make_equilibrium("zero", box16)
        lam0 = np.sort(np.linalg.eigvalsh(MhdSystem(eq, 0.0).matrix.toarray()))
        lam5 = np.sort(np.linalg.eigvalsh(MhdSystem(eq, 0.5).matrix.toarray()))
        assert np.abs((lam0 + 0.5) - lam5).max() < 1e-10

    def test_shear_block_triangular(self, box16):
        eq = make_equilibrium("shear", box16)
        A = MhdSystem(eq, 0.0)
        amb = A.ambient_matrix()
        n2 = 2 * box16.ncells
        # B_e = 0 kills both coupling blocks; diagonal blocks differ
        assert np.abs(amb[:n2, n2:].data).max(initial=0.0) == 0.0
        assert np.abs(amb[n2:, :n2].data).max(initial=0.0) == 0.0
        d1 = amb[:n2, :n2] - amb[n2:, n2:]
        assert np.abs(d1.data).max() > 0

    def test_negative_shift_rejected(self, box16):
        eq = make_equilibrium("zero", box16)
        with pytest.raises(ConfigurationError, match="sigma must be >= 0"):
            MhdSystem(eq, -0.1)


def _smooth_random(grid, rng, kmax=3):
    """Random real trigonometric polynomial with modes |kx|, |ky| <= kmax."""
    X, Y = grid.meshgrid()
    out = np.zeros(grid.shape)
    for kx in range(-kmax, kmax + 1):
        for ky in range(kmax + 1):
            arg = 2 * np.pi * (kx * X / grid.Lx + ky * Y / grid.Ly)
            a, b = rng.normal(size=2)
            out += a * np.cos(arg) + b * np.sin(arg)
    return out


def _sparse_case(kind, nx, ny):
    g = build_grid(L, 0.75 * L, nx, ny) if nx != ny else build_grid(L, L, nx, ny)
    if kind == "uniform_B":
        ones = np.ones(g.shape)
        return make_equilibrium("custom", g, {"B_e": (ones, 0.5 * ones)})
    if kind == "random":
        rng = np.random.default_rng(11)
        fields = {name: (_smooth_random(g, rng), _smooth_random(g, rng)) for name in ("y_e", "B_e")}
        return make_equilibrium("custom", g, fields)
    return make_equilibrium(kind, g)


class TestSparseReducedMatrix:
    @pytest.mark.parametrize(
        "kind,nx,ny",
        [
            ("zero", 16, 16),
            ("shear", 16, 16),
            ("taylor_vortex", 16, 16),
            ("uniform_B", 16, 16),
            ("random", 16, 16),
            ("random", 16, 12),
            ("shear", 32, 32),
        ],
    )
    def test_matches_matvec(self, kind, nx, ny):
        eq = _sparse_case(kind, nx, ny)
        rng = np.random.default_rng(2)
        # oracle: the FFT matvec, the independent path through the ambient
        # matrix; the adjoint's R^T is held to its transpose by pairing
        A = MhdSystem(eq, 0.4)
        R = A.matrix
        assert sp.issparse(R) and sp.issparse(R.T)
        for x in rng.normal(size=(3, A.dim)):
            want = A.reduced_matvec(x)
            assert np.linalg.norm(R @ x - want) <= 1e-12 * np.linalg.norm(want)
            y = rng.normal(size=A.dim)
            lhs, rhs = np.dot(want, y), np.dot(x, R.T @ y)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(want) * np.linalg.norm(y)

    def test_adjoint_is_a_view_of_r(self, box16):
        A = MhdSystem(make_equilibrium("shear", box16), 0.4)
        R, Rt = A.matrix, A.matrix.T
        assert Rt.format == "csc" and np.shares_memory(Rt.data, R.data)
        assert (Rt != R.T.tocsr()).nnz == 0

    # a real shift, the closed loop's backward Euler step, and a complex
    # shift as in the adjoint inverse iteration
    @pytest.mark.parametrize("a, b", [(-0.3, 2.0), (1.0, -0.01), (-0.3 - 0.45j, 1.0)])
    def test_shifted_lu_solves_r_and_its_transpose(self, box16, a, b):
        A = MhdSystem(make_equilibrium("taylor_vortex", box16), 0.4)
        rng = np.random.default_rng(4)
        rhs = rng.normal(size=A.dim) + (1j * rng.normal(size=A.dim) if np.iscomplex(a) else 0.0)
        for M in (A.matrix, A.matrix.T):
            x = shifted_lu(M, a, b).solve(rhs)
            assert np.linalg.norm(b * (M @ x) + a * x - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_shifted_lu_fills_less_than_colamd(self, box32):
        # symmetric mode on R's nearly symmetric pattern: the backward Euler
        # factor on taylor_vortex keeps about 0.7 of COLAMD's L+U entries
        R = MhdSystem(make_equilibrium("taylor_vortex", box32), 0.0).matrix
        lu = shifted_lu(R, 1.0, -0.01)
        colamd = spla.splu(sp.identity(R.shape[0], format="csc") - 0.01 * R.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)

    def test_singular_shift_is_a_numerical_error(self, box16):
        # on the zero equilibrium R is diagonal, so shifting by one of its
        # entries leaves a zero pivot
        A = MhdSystem(make_equilibrium("zero", box16), 1.5)
        a = -A.matrix[0, 0]
        with pytest.raises(NumericalError, match="singular") as exc:
            shifted_lu(A.matrix, a, 1.0)
        assert exc.value.detail == {"a": a, "b": 1.0}

    def test_stored_zeros_off_the_diagonal_do_not_count(self):
        # one predicate picks the diagonal spectrum and the diagonal solves
        mat = sp.csr_matrix(([2.0, 0.0, 3.0], ([0, 0, 1], [0, 1, 1])), shape=(2, 2))
        assert mat.nnz == 3
        assert is_diagonal(mat)
        assert isinstance(shifted_lu(mat, 1.0, -0.1), DiagonalSolver)
        mat.data[1] = 1e-300
        assert not is_diagonal(mat)
        assert isinstance(shifted_lu(mat, 1.0, -0.1), spla.SuperLU)

    def test_fourier_parts_sum_duplicate_entries(self, box16):
        # halving every entry and storing it twice gives the ambient matrix
        # back exactly once the duplicates are summed
        amb = MhdSystem(make_equilibrium("shear", box16), 0.0).ambient_matrix()
        assert amb.has_canonical_format
        twice = sp.csr_matrix(
            (np.repeat(0.5 * amb.data, 2), np.repeat(amb.indices, 2), 2 * amb.indptr),
            shape=amb.shape,
        )
        ref = list(operators._fourier_parts(amb, box16))
        for dup in (twice, twice.tocoo()):
            assert not dup.has_canonical_format
            got = list(operators._fourier_parts(dup, box16))
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                for name in ("data", "indices", "indptr"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize(
        "kind,nx,ny",
        [
            ("zero", 16, 16),
            ("shear", 16, 16),
            ("taylor_vortex", 16, 16),
            ("uniform_B", 16, 16),
            ("random", 16, 16),
            ("random", 16, 12),
            ("zero", 12, 16),
        ],
    )
    def test_fourier_parts_equal_the_unique_oracle(self, kind, nx, ny):
        # the presence mask and the per-offset phases give the parts that
        # sorting the keys and one phase row per term give, byte for byte
        eq = _sparse_case(kind, nx, ny)
        amb = MhdSystem(eq, 0.0).ambient_matrix()
        got = list(operators._fourier_parts(amb, eq.grid))
        ref = list(fourier_parts_unique(amb, eq.grid))
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            for name in ("data", "indices", "indptr"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_sparse_in_the_basis(self, box32):
        nnz = {
            kind: MhdSystem(make_equilibrium(kind, box32), 0.0).matrix.nnz
            for kind in ("zero", "shear", "taylor_vortex")
        }
        assert nnz == {"zero": 2052, "shear": 5882, "taylor_vortex": 9684}


def _mode_values(basis, diagonal):
    """A block's diagonal entries by flat fft2 index: both members of a
    conjugate pair read their cos column, a self-conjugate mode its e_x
    column; the zero mode reads nan."""
    vals = np.full(basis.grid.ncells, np.nan)
    vals[basis.pair_kflat] = vals[basis.pair_negkflat] = diagonal[basis.pair_cos_col]
    x = basis.spec_dir == 0
    vals[basis.spec_kflat[x]] = diagonal[basis.spec_col[x]]
    return vals


class TestRestSymbols:
    """At rest R is sigma + diag(nu*s, eta*s), read off the Laplacian
    symbol with no ambient operator built."""

    @pytest.mark.parametrize(
        "Lx,Ly,nx,ny",
        [(L, 0.75 * L, 16, 12), (L, 0.75 * L, 12, 16), (L, L, 32, 32), (L, np.pi, 24, 24)],
    )
    def test_equals_the_ambient_reduction(self, Lx, Ly, nx, ny):
        g = build_grid(Lx, Ly, nx, ny)
        A = MhdSystem(make_equilibrium("zero", g, nu=0.7, eta=1.3), 1.5)
        assert A.at_rest
        ref = operators._reduce_ambient(A.ambient_matrix(), A.basis)
        ref = ref + A.sigma * sp.identity(ref.shape[0])
        R = A.matrix
        assert is_diagonal(R) and R.nnz == A.dim
        assert abs(R - ref).max() <= 1e-14 * abs(ref).max()

    def test_a_zero_custom_pair_is_at_rest(self, box16):
        zeros = np.zeros((2,) + box16.shape)
        custom = MhdSystem(make_equilibrium("custom", box16, {"y_e": zeros, "B_e": zeros}), 1.5)
        zero = MhdSystem(make_equilibrium("zero", box16), 1.5)
        assert custom.at_rest
        for name in ("data", "indices", "indptr"):
            assert getattr(custom.matrix, name).tobytes() == getattr(zero.matrix, name).tobytes()
        assert not MhdSystem(make_equilibrium("shear", box16), 1.5).at_rest

    def test_zero_run_builds_no_ambient_operator(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a zero run built part of the ambient operator")

        monkeypatch.setattr(operators.MhdSystem, "ambient_matrix", refuse)
        monkeypatch.setattr(operators, "_fourier_parts", refuse)
        monkeypatch.setattr(operators, "vector_laplacian_matrix", refuse)
        monkeypatch.setattr(SolenoidalBasis, "synthesis_matrix", refuse)
        assert main(["all", "--seed", "7", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("nx,ny", [(16, 12), (32, 32), (33, 31)])
    def test_mirrored_modes_get_equal_bits(self, nx, ny):
        # the symbol is even in each frequency, and so are its bits:
        # (mx, my) and its mirrors (-mx, my), (mx, -my), and on a square box
        # (my, mx), share one diagonal entry
        g = build_grid(L, L if nx == ny else 0.75 * L, nx, ny)
        A = MhdSystem(make_equilibrium("zero", g, nu=0.7, eta=1.3), 1.5)
        diag, m = A.matrix.diagonal(), A.basis.dim
        mx, my = np.divmod(np.arange(g.ncells), ny)
        mirrors = [((-mx) % nx) * ny + my, mx * ny + (-my) % ny]
        if nx == ny:
            mirrors.append(my * ny + mx)
        for block in (diag[:m], diag[m:]):
            vals = _mode_values(A.basis, block)
            assert np.isnan(vals[0]) and not np.isnan(vals[1:]).any()
            for mirror in mirrors:
                assert vals[1:].tobytes() == vals[mirror][1:].tobytes()


class TestDiagonalShiftedSolve:
    """On the zero equilibrium R is diagonal, and so is every shifted
    operator; for a real shift shifted_lu divides by its diagonal with
    SuperLU's bits."""

    @pytest.fixture(scope="class")
    def zero_r(self, box32):
        return MhdSystem(make_equilibrium("zero", box32), 1.5).matrix

    def test_backward_euler_step_keeps_superlu_bits(self, zero_r):
        dt = 0.01
        solver = shifted_lu(zero_r, 1.0, -dt)
        assert isinstance(solver, DiagonalSolver)
        lu = symmetric_superlu(zero_r, 1.0, -dt)
        rng = np.random.default_rng(5)
        for rhs in (rng.normal(size=zero_r.shape[0]), rng.normal(size=(zero_r.shape[0], 3))):
            got, want = solver.solve(rhs), lu.solve(rhs)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_complex_shift_gets_superlu(self, zero_r):
        # a complex shift like the adjoint inverse iteration's, which a
        # diagonal R does not run (its adjoint is its forward report), is
        # factored by SuperLU: only a real diagonal divides
        mu = -0.04 + 0.46j + 1e-5
        rng = np.random.default_rng(6)
        rhs = rng.normal(size=zero_r.shape[0]) + 1j * rng.normal(size=zero_r.shape[0])
        for M in (zero_r, zero_r.T):
            solver = shifted_lu(M, -mu, 1.0)
            assert isinstance(solver, spla.SuperLU)
            x = solver.solve(rhs)
            assert np.linalg.norm(M @ x - mu * x - rhs) <= 1e-13 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("kind", ["shear", "taylor_vortex"])
    def test_non_diagonal_generators_get_superlu(self, box16, kind):
        R = MhdSystem(make_equilibrium(kind, box16), 1.5).matrix
        assert not is_diagonal(R)
        for a, b in ((1.0, -0.01), (0.04 - 0.46j, 1.0)):
            assert isinstance(shifted_lu(R, a, b), spla.SuperLU)
            assert isinstance(shifted_lu(R.T, a, b), spla.SuperLU)


class TestReducedMatvec:
    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex"])
    def test_equals_per_field_composition(self, box16, kind):
        # the batched matvec must match, bit for bit, one synthesis per field,
        # the ambient product and one analysis per field
        eq = make_equilibrium(kind, box16)
        rng = np.random.default_rng(3)
        system = MhdSystem(eq, 0.4)
        basis, m, n = system.basis, system.basis.dim, 2 * box16.ncells
        amb = system.ambient_matrix()
        xr = rng.normal(size=system.dim)
        for x in (xr, xr + 1j * rng.normal(size=system.dim)):
            flat = np.concatenate([basis.synthesize(x[:m]).ravel(), basis.synthesize(x[m:]).ravel()])
            out = amb @ flat
            want = np.concatenate([
                basis.analyze(out[:n].reshape((2,) + box16.shape)),
                basis.analyze(out[n:].reshape((2,) + box16.shape)),
            ]) + system.sigma * x
            got = system.reduced_matvec(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAdjoint:
    def test_zero_equilibrium_self_adjoint(self, box16):
        eq = make_equilibrium("zero", box16)
        system = MhdSystem(eq, 0.0)
        A = system.matrix.toarray()
        Astar = system.matrix.T.toarray()
        assert np.abs(A - Astar).max() < 1e-11

    def test_pairing_identity(self, box16):
        eq = make_equilibrium("taylor_vortex", box16)
        A = MhdSystem(eq, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = rng.normal(size=A.dim)
            v = rng.normal(size=A.dim)
            lhs = np.dot(A.reduced_matvec(u), v)
            rhs = np.dot(u, A.matrix.T @ v)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_adjoint_spectrum_conjugate(self, box16):
        eq = make_equilibrium("shear", box16)
        system = MhdSystem(eq, 0.0)
        lam = np.linalg.eigvals(system.matrix.toarray())
        lam_adj = np.linalg.eigvals(system.matrix.T.toarray())
        key = lambda z: (round(z.real, 8), round(z.imag, 8))
        a = sorted(np.conj(lam_adj), key=key)
        b = sorted(lam, key=key)
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-8


class TestPressure:
    def test_zero_state(self, gen_shifted32):
        s = StateVector.zeros(gen_shifted32.grid)
        p = pressure_from_state(gen_shifted32, s)
        assert np.abs(p.values).max() == 0.0

    def test_zero_equilibrium_gives_zero_pressure(self, box32, gen_shifted32):
        rng = np.random.default_rng(6)
        x = rng.normal(size=gen_shifted32.dim)
        s = to_state(gen_shifted32, x)
        p = pressure_from_state(gen_shifted32, s)
        assert np.abs(p.values).max() < 1e-12

    def test_poisson_identity_residual(self, box32):
        from mhdlab.fields import divergence_matrix
        from oracles import wide_laplacian_matrix

        eq = make_equilibrium("taylor_vortex", box32)
        A = MhdSystem(eq, 0.0)
        rng = np.random.default_rng(7)
        psi1 = ScalarField(box32, rng.normal(size=box32.shape))
        psi2 = ScalarField(box32, rng.normal(size=box32.shape))
        s = StateVector(rot(psi1), rot(psi2))
        p = pressure_from_state(A, s)
        b = A.blocks()
        D = divergence_matrix(box32)
        rhs = -(D @ (b["L1"] @ s.phi.ravel())) + D @ (b["L2"] @ s.xi.ravel())
        resid = wide_laplacian_matrix(box32) @ p.values.ravel() - rhs
        assert np.abs(resid).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_div_oseen_first_order_identity(self):
        # div L1(phi) = 2 tr(grad y_e grad phi) for solenoidal fields; the two
        # discrete evaluations agree to O(h^2), measured order >= 1.8
        errs = {}
        for n in (32, 64):
            g = build_grid(L, L, n, n)
            X, Y = g.meshgrid()
            eq = make_equilibrium("shear", g)
            phi = VectorField2(g, np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y))
            from mhdlab.fields import divergence_matrix

            lhs = divergence_matrix(g) @ (oseen_plus(g, eq.y_e) @ phi.ravel())
            Dx, Dy = dx_matrix(g), dy_matrix(g)
            d = lambda a, m: (m @ a.ravel())
            # independent oracle: the double sum 2 * (d_i e_j)(d_j phi_i)
            rhs = 2.0 * (
                d(eq.y_e[0], Dx) * d(phi.u1, Dx)
                + d(eq.y_e[1], Dx) * d(phi.u1, Dy)
                + d(eq.y_e[0], Dy) * d(phi.u2, Dx)
                + d(eq.y_e[1], Dy) * d(phi.u2, Dy)
            )
            errs[n] = np.abs(lhs - rhs).max()
        order = np.log2(errs[32] / errs[64])
        assert order >= 1.8


class TestCommutators:
    def _eigpair(self, gen):
        rep = compute_spectrum(gen, 4)
        return rep.pairs[0]

    def test_constant_cutoff_gives_zero(self, box32, regions32, eq_zero32):
        chi1 = CutoffField(regions32, np.ones(box32.shape), 0.0, 1.0)
        rng = np.random.default_rng(8)
        s = StateVector(
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
        )
        p = ScalarField(box32, rng.normal(size=box32.shape))
        f = build_commutators(chi1, s, p, MhdSystem(eq_zero32), check_support=False)
        assert f.F_chi.norm() == 0.0
        assert f.G_chi.norm() == 0.0
        assert np.abs(f.T_chi.values).max() == 0.0

    def test_support_contained_exactly(self, box32, regions32, chi32):
        eq = make_equilibrium("taylor_vortex", box32)
        rng = np.random.default_rng(9)
        s = StateVector(
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
        )
        p = ScalarField(box32, rng.normal(size=box32.shape))
        f = build_commutators(chi32, s, p, MhdSystem(eq))
        outside = regions32.omega | regions32.omega1 | regions32.omega0
        assert f.F_chi.magnitude()[outside].max() == 0.0
        assert f.G_chi.magnitude()[outside].max() == 0.0
        assert np.abs(f.T_chi.values)[outside].max() == 0.0
        assert f.max_outside_omega_star <= 1e-12 * f.scale

    def test_laplacian_commutator_matches_leibniz(self, regions32, chi32, eq_zero32):
        # [chi,Lap]phi = -phi Lap chi - 2 grad chi . grad phi + O(h^2),
        # compared on the transition band where all fields are smooth; the
        # expansion takes the fourth-order stencils of the system's Laplacian
        from mhdlab.fields import laplacian_matrix

        def d4(f, h, axis):
            return (8 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
                    - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12 * h)

        errs = {}
        for n in (32, 64):
            g = build_grid(L, L, n, n)
            regions = build_nested_regions(g, OmegaSpec(size=0.15 * L))
            chi = build_cutoff(regions)
            eq = make_equilibrium("zero", g)
            X, Y = g.meshgrid()
            s = StateVector(
                VectorField2(g, np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)),
                VectorField2.zeros(g),
            )
            p = ScalarField(g, np.zeros(g.shape))
            f = build_commutators(chi, s, p, MhdSystem(eq))
            c, u = chi.values, s.phi.u1
            lap_chi = (laplacian_matrix(g, 4) @ c.ravel()).reshape(g.shape)
            grads = d4(c, g.hx, 0) * d4(u, g.hx, 0) + d4(c, g.hy, 1) * d4(u, g.hy, 1)
            leib1 = -u * lap_chi - 2.0 * grads
            band = regions.omega_star
            errs[n] = np.abs(f.F_chi.u1 - leib1)[band].max()
        assert errs[32] < 0.2  # bounded constant at unit field scale
        assert errs[32] / errs[64] > 2.5  # O(h^2)-ish decay

    def test_zero_order_in_state(self, box32, regions32, chi32, eq_zero32):
        # [L_i,chi] sees only the pointwise state: adding a constant to the
        # state changes the commutator by the commutator of the constant
        eq = make_equilibrium("taylor_vortex", box32)
        ones = VectorField2(box32, np.ones(box32.shape), np.ones(box32.shape))
        zeros2 = VectorField2.zeros(box32)
        p0 = ScalarField(box32, np.zeros(box32.shape))
        rng = np.random.default_rng(10)
        v = rot(ScalarField(box32, rng.normal(size=box32.shape)))
        sA = StateVector(v, zeros2)
        vB = VectorField2(box32, v.u1 + 1.0, v.u2 + 1.0)
        sB = StateVector(vB, zeros2)
        sC = StateVector(ones, zeros2)
        chi = chi32
        def strip_lap(state):
            # cancel the shared diffusive commutator to isolate [L1, chi]
            full = build_commutators(chi, state, p0, MhdSystem(eq), check_support=False)
            diff_only = build_commutators(
                chi, state, p0, MhdSystem(make_equilibrium("zero", box32)), check_support=False
            )
            return full.F_chi.ravel() - diff_only.F_chi.ravel()
        delta = strip_lap(sB) - strip_lap(sA) - strip_lap(sC)
        assert np.abs(delta).max() < 1e-11

    def test_thin_guard_layer_raises(self, box32, regions32, eq_zero32):
        # chi that transitions immediately leaks commutator support
        bad_vals = np.where(regions32.omega | regions32.omega1, 1.0, 0.0)
        bad = CutoffField(regions32, bad_vals, 0.0, 1.0)
        rng = np.random.default_rng(11)
        s = StateVector(
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
        )
        p = ScalarField(box32, rng.normal(size=box32.shape))
        with pytest.raises(CommutatorSupportError):
            build_commutators(bad, s, p, MhdSystem(eq_zero32))


class TestPdeResidual:
    def test_eigenpair_residual_small(self, gen_shifted32):
        rep = compute_spectrum(gen_shifted32, 10)
        for pair in rep.pairs[:4]:
            out = pde_residual(gen_shifted32, pair.lam, to_state(gen_shifted32, pair.coeffs))
            assert out["relative"] <= 1e-6

    def test_xi_leakage_reported_for_coupled_equilibrium(self, box16):
        X, Y = box16.meshgrid()
        eq = make_equilibrium(
            "custom",
            box16,
            {"B_e": (np.sin(Y), np.zeros(box16.shape))},
        )
        A = MhdSystem(eq, 0.0)
        rep = dense_spectrum(A, 4)
        leak = xi_row_leakage(A, to_state(A, rep.pairs[0].coeffs))
        assert leak < 0.3  # O(h^2) scale, strictly a diagnostic
        assert leak > 0.0
