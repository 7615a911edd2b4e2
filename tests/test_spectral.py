import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from mhdlab import (
    MhdSystem,
    OmegaSpec,
    build_grid,
    build_nested_regions,
    compute_spectrum,
    kalman_rank,
    make_equilibrium,
    omega_fields,
    select_actuators,
    ucp_gram_test,
)
from mhdlab import spectral
from mhdlab.errors import ConfigurationError, NumericalError, UncontrollableError
from mhdlab.spectral import (
    CLUSTER_RTOL,
    RESIDUAL_BOUND,
    _cluster,
    _complete_clusters,
    _sort_key,
    adjoint_eigenpairs,
)
from oracles import StateVector, VectorField2, dense_spectrum, inner, laplacian_symbol, restrict
from oracles import to_state

L = 2 * np.pi


def fourier_generator_eigenvalues(Lx, Ly, nu, eta, sigma, count, kmax=8):
    """Independent oracle: continuum eigenvalues sigma - {nu,eta}|k|^2 with
    one solenoidal polarization per nonzero wavevector and field branch."""
    vals = []
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if (kx, ky) == (0, 0):
                continue
            k2 = (2 * np.pi * kx / Lx) ** 2 + (2 * np.pi * ky / Ly) ** 2
            vals.append(sigma - nu * k2)
            vals.append(sigma - eta * k2)
    vals.sort(reverse=True)
    return vals[:count]


# frozen from the oracle above on the square 2*pi box, nu = eta = 1, sigma = 0
FROZEN_LEADING_12 = [-1.0] * 8 + [-2.0] * 4


def _case_system(kind: str, n: int, sigma: float):
    """The shifted generator on the n x n box; "uniform_field" is the
    API-only constant magnetic equilibrium B_e = (1, 0)."""
    grid = build_grid(L, L, n, n)
    if kind == "uniform_field":
        ones = np.ones(grid.shape)
        return MhdSystem(make_equilibrium("custom", grid, {"B_e": (ones, 0 * ones)}), sigma)
    return MhdSystem(make_equilibrium(kind, grid), sigma)


# (kind, n, sigma) where shift-invert Arnoldi, asked for 12 values with one
# BLAS thread, returns fewer members of a degenerate stable cluster than the
# dense solve
CLUSTER_GAP_CASES = [("uniform_field", 24, 1.2)]
# zero's R is diagonal, so shift-invert reads its spectrum off the diagonal
DIAGONAL_CASE = ("zero", 16, 1.5)
# shift-invert returns whole clusters here; on taylor_vortex that follows the
# roundoff of the projected equilibrium and is no guarantee (ROADMAP item 1)
WHOLE_CLUSTER_CASES = [DIAGONAL_CASE, ("taylor_vortex", 16, 1.5)]


def _cluster_members(case) -> list[tuple[float, float, int, int]]:
    """Per eigenvalue of the dense spectrum (count 12): its real and
    imaginary part, and how many members its cluster has in the dense and
    in the shift-invert spectrum."""
    A = _case_system(*case)
    dense, si = (
        np.array([p.lam for p in rep.pairs])
        for rep in (dense_spectrum(A, 12), compute_spectrum(A, 12))
    )
    tol = CLUSTER_RTOL * max(1.0, np.abs(dense).max())
    return [
        (lam.real, lam.imag, *(int(np.sum(np.abs(lams - lam) <= tol)) for lams in (dense, si)))
        for lam in dense
    ]


def _in_fresh_interpreter(call: str, threads: int):
    """The JSON value of ``call``, an expression in this module's names,
    evaluated in a fresh interpreter with ``threads`` BLAS threads."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, path)),
    )
    code = f"import json, test_spectral as t; print(json.dumps(t.{call}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


# grids of the zero equilibrium, whose R is diagonal in the solenoidal basis
DIAGONAL_GRIDS = [(16, 16), (32, 32), (40, 48)]


def _zero_system(nx: int, ny: int) -> MhdSystem:
    return MhdSystem(make_equilibrium("zero", build_grid(L, L, nx, ny)), 1.5)


def _diagonal_spectra(grids) -> list[list[str]]:
    """The shift-invert spectra of zero on ``grids``, each pair as the hex
    of its eigenvalue and residual and a digest of its coefficient bytes."""
    return [
        [
            f"{p.lam.real.hex()} {p.lam.imag.hex()} {p.residual.hex()} "
            + hashlib.sha256(p.coeffs.tobytes()).hexdigest()
            for p in compute_spectrum(_zero_system(*g), 16).pairs
        ]
        for g in grids
    ]


@pytest.fixture(scope="module", params=DIAGONAL_GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def zero_diagonal(request):
    A = _zero_system(*request.param)
    return A, compute_spectrum(A, 16)


class TestDiagonalGenerator:
    """Shift-invert on a diagonal R reads the spectrum off the diagonal."""

    def test_no_arnoldi(self, zero_diagonal, monkeypatch):
        A, rep = zero_diagonal

        def refuse(*args):
            raise AssertionError("the spectrum of a diagonal R ran the Arnoldi path")

        monkeypatch.setattr(spectral, "_forward_lu", refuse)
        monkeypatch.setattr(spectral, "_shift_invert_eig", refuse)
        again = compute_spectrum(A, 16)
        assert [p.lam for p in again.pairs] == [p.lam for p in rep.pairs]

    def test_eigenvalues_are_the_laplacian_symbol(self, zero_diagonal):
        # as a multiset of whole clusters: the first value left out lies
        # beyond the cluster tolerance of the last one kept
        A, rep = zero_diagonal
        sym = laplacian_symbol(A.basis, 4)
        oracle = np.sort(np.concatenate([A.sigma + A.nu * sym, A.sigma + A.eta * sym]))[::-1]
        got = np.sort([p.lam.real for p in rep.pairs])[::-1]
        assert all(p.lam.imag == 0.0 for p in rep.pairs)
        assert np.abs(got - oracle[: got.size]).max() <= 1e-12
        assert got[-1] - oracle[got.size] > CLUSTER_RTOL * max(1.0, np.abs(oracle).max())

    def test_matches_dense(self, zero_diagonal):
        A, rep = zero_diagonal
        dense = dense_spectrum(A, 16)
        a, b = (np.array([p.lam for p in r.pairs]) for r in (rep, dense))
        assert a.size == b.size
        dist = np.abs(a[:, None] - b[None, :])
        assert dist[linear_sum_assignment(dist)].max() <= 1e-12
        assert (rep.N, rep.M, rep.ell, rep.K) == (dense.N, dense.M, dense.ell, dense.K)
        # LAPACK's back substitution on a diagonal matrix gives unit vectors
        # too, so both sides hold the same columns of the identity
        cols = [sorted(np.flatnonzero(p.coeffs).tolist() for p in r.pairs) for r in (rep, dense)]
        assert cols[0] == cols[1] and all(len(c) == 1 for c in cols[0])

    def test_exact_pairs_on_unit_vectors(self, zero_diagonal):
        A, rep = zero_diagonal
        cols = []
        for p in rep.pairs:
            assert p.residual == 0.0
            assert np.isrealobj(p.coeffs)
            (j,) = np.flatnonzero(p.coeffs)
            assert p.coeffs[j] == 1.0
            assert A.matrix[j, j] == p.lam
            cols.append(j)
        assert len(set(cols)) == len(cols)

    def test_same_bits_at_one_and_two_blas_threads(self):
        call = f"_diagonal_spectra({DIAGONAL_GRIDS!r})"
        assert _in_fresh_interpreter(call, threads=1) == _in_fresh_interpreter(call, threads=2)

    def test_small_count_matches_dense_on_a_non_square_grid(self):
        # at 40x48 the |k| = 1 values split into two groups 3.5e-6 apart;
        # the cluster tolerance follows the first count values, not the
        # whole diagonal, so count 4 keeps one group, as dense does
        A = _zero_system(40, 48)
        rep, dense = compute_spectrum(A, 4), dense_spectrum(A, 4)
        counts = [(r.N, r.M, r.ell, r.K) for r in (rep, dense)]
        assert counts == [(4, 1, [4], 4)] * 2
        a, b = (np.array([p.lam for p in r.pairs]) for r in (rep, dense))
        assert a.size == b.size == 4
        dist = np.abs(a[:, None] - b[None, :])
        assert dist[linear_sum_assignment(dist)].max() <= 1e-12

    def test_order_is_the_sort_key_order(self):
        # lexsort on (-Re, Im) is stable, so ties (here also between +0.0
        # and -0.0) keep index order, as sorted(key=_sort_key) does; an
        # ndarray's diagonal() keeps the signed zeros a sparse one would sum
        rng = np.random.default_rng(4)
        parts = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
        ties = np.empty(80, complex)
        ties.real, ties.imag = rng.choice(parts, 80), rng.choice(parts, 80)
        zero = _zero_system(40, 48).matrix
        cases = [(np.diag(ties), 80), (zero, 16), (zero, 400)]
        for matrix, count in cases:
            diag = matrix.diagonal().astype(complex)
            values = diag.tolist()
            order = np.array(sorted(range(len(values)), key=lambda i: _sort_key(values[i])))
            keep = order[_complete_clusters(diag[order], count)]
            lams, vecs = spectral._diagonal_eig(matrix, count)
            assert vecs.argmax(axis=0).tolist() == keep.tolist()
            assert lams.tobytes() == diag[keep].tobytes()

    @pytest.mark.parametrize(
        "case",
        [("shear", 16, 1.5), ("taylor_vortex", 16, 1.5), ("uniform_field", 24, 1.2)],
        ids=lambda c: f"{c[0]}{c[1]}",
    )
    def test_other_generators_run_arnoldi_once(self, case, monkeypatch):
        calls = []
        arnoldi = spectral._shift_invert_eig

        def counted(*args):
            calls.append(1)
            return arnoldi(*args)

        monkeypatch.setattr(spectral, "_shift_invert_eig", counted)
        compute_spectrum(_case_system(*case), 12)
        assert len(calls) == 1


class TestSpectrum:
    def test_fourier_ground_truth_16(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        rep = dense_spectrum(A, 12)
        oracle = fourier_generator_eigenvalues(L, L, 1.0, 1.0, 0.0, 12)
        assert oracle == FROZEN_LEADING_12
        got = np.array([p.lam.real for p in rep.pairs])[:12]
        assert np.abs((got - np.array(oracle)) / np.array(oracle)).max() < 5e-3
        assert np.abs(np.array([p.lam.imag for p in rep.pairs][:12])).max() < 1e-10

    def test_shift_invert_matches_dense(self):
        # compared as multisets: the order inside a degenerate cluster
        # follows roundoff, and a cut at 10 may take different members of a
        # conjugate cluster, so each side's first 10 are matched one to one
        # into the other side's whole list.  On the uniform field that
        # fails in the stable clusters (the FOUND the xfail below pins), so
        # there only the unstable pairs are matched.  The order of clusters
        # with equal real parts follows roundoff too, so ell is compared
        # sorted.
        for case in [("shear", 16, 1.5), *WHOLE_CLUSTER_CASES, *CLUSTER_GAP_CASES]:
            A = _case_system(*case)
            dense, si = dense_spectrum(A, 10), compute_spectrum(A, 10)
            a_all, b_all = (np.array([p.lam for p in r.pairs]) for r in (dense, si))
            cut = dense.N if case[0] == "uniform_field" else 10
            for a, b in ((a_all[:cut], b_all), (b_all[:cut], a_all)):
                dist = np.abs(a[:, None] - b[None, :])
                assert dist[linear_sum_assignment(dist)].max() < 1e-9, case
            counts = [(r.N, r.M, sorted(r.ell), r.K) for r in (dense, si)]
            assert counts[0] == counts[1], case

    @pytest.mark.parametrize(
        "case",
        WHOLE_CLUSTER_CASES
        + [
            pytest.param(case, marks=pytest.mark.xfail(
                raises=AssertionError,
                reason="FOUND (CHANGES.md): shift-invert Arnoldi misses members of degenerate "
                "stable clusters inside its disc, not only where k cuts a cluster",
            ))
            for case in CLUSTER_GAP_CASES
        ],
        ids=lambda c: f"{c[0]}{c[1]}",
    )
    def test_shift_invert_returns_whole_clusters(self, case):
        # in a fresh interpreter with one BLAS thread, as measured: Arnoldi's
        # gaps depend on the roundoff of the thread count
        for re_lam, im_lam, in_dense, in_si in _in_fresh_interpreter(
            f"_cluster_members({case!r})", threads=1
        ):
            assert in_si == in_dense, f"cluster at {re_lam:.4f}{im_lam:+.4f}i"

    def test_shift_invert_inner_solves_take_few_matvecs(self, box16, monkeypatch):
        # the sparse LU solves the shifted system, advection included, so
        # each inner solve is one refinement step: one FFT matvec, no GMRES
        A = MhdSystem(make_equilibrium("shear", box16), 1.5)
        calls = {"matvec": 0, "gmres": 0}
        per_solve = []
        matvec, refine, gmres = A.reduced_matvec, spectral._refine_shifted_solve, spla.gmres

        def counting_matvec(x):
            calls["matvec"] += 1
            return matvec(x)

        def counting_refine(*args):
            before = calls["matvec"]
            out = refine(*args)
            per_solve.append(calls["matvec"] - before)
            return out

        def counting_gmres(*args, **kwargs):
            calls["gmres"] += 1
            return gmres(*args, **kwargs)

        monkeypatch.setattr(A, "reduced_matvec", counting_matvec)
        monkeypatch.setattr(spectral, "_refine_shifted_solve", counting_refine)
        monkeypatch.setattr(spla, "gmres", counting_gmres)
        compute_spectrum(A, 10)
        assert calls["gmres"] == 0
        assert per_solve and set(per_solve) == {1}

    @pytest.mark.parametrize("kind", ["zero", "shear", "taylor_vortex"])
    def test_refine_shifted_solve_only_rescales_the_lu_solve(self, box32, kind):
        # the refinement step returns s times the bare LU solve, s within
        # rounding of 1: the LU already solves the shifted system
        A = MhdSystem(make_equilibrium(kind, box32), 1.5)
        si = A.sigma + A.eq.grad_bound + 1.0
        lu = spectral._forward_lu(A, si)
        rng = np.random.default_rng(17)
        for _ in range(4):
            b = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
            x = spectral._refine_shifted_solve(A, lu, si, b)
            y = spectral._lu_solve(lu, b)
            s = np.vdot(y, x) / np.vdot(y, y)
            assert np.linalg.norm(x - s * y) <= 1e-14 * np.linalg.norm(x)
            assert abs(s - 1) <= 1e-13

    def test_refine_shifted_solve_is_first_gmres_iteration(self, box16, monkeypatch):
        # oracle: the inner solve it replaces, scipy's GMRES preconditioned
        # by the same LU; on every right-hand side ARPACK passes, the one
        # refinement step must give the same bits, and the one two-column LU
        # solve the bits of two one-column solves
        A = MhdSystem(make_equilibrium("shear", box16), 1.5)
        rhs = []
        refine = spectral._refine_shifted_solve

        def recording(A_, lu, si, b):
            rhs.append((lu, si, np.array(b)))
            return refine(A_, lu, si, b)

        monkeypatch.setattr(spectral, "_refine_shifted_solve", recording)
        compute_spectrum(A, 10)
        assert rhs
        dim = A.dim
        for lu, si, b in rhs:
            op = spla.LinearOperator(
                (dim, dim), matvec=lambda x: A.reduced_matvec(x) - si * x, dtype=complex
            )
            M = spla.LinearOperator(
                (dim, dim), matvec=lambda x: lu.solve(x.real) + 1j * lu.solve(x.imag), dtype=complex
            )
            x, info = spla.gmres(op, b, M=M, rtol=1e-12, atol=0.0, maxiter=400)
            assert info == 0
            assert np.array_equal(refine(A, lu, si, b), x)
            two_solves = lu.solve(b.real) + 1j * lu.solve(b.imag)
            assert np.array_equal(spectral._lu_solve(lu, b), two_solves)

    def test_inner_solve_miss_is_numerical_error(self, box16, monkeypatch):
        # an LU of the wrong shift leaves a residual far above the inner
        # tolerance: one step cannot close it, and the run stops (exit 3)
        A = MhdSystem(make_equilibrium("shear", box16), 1.5)
        si = A.sigma + A.eq.grad_bound + 1.0
        b = np.cos(0.7 * np.arange(A.dim)) + 0.3 + 0j
        with pytest.raises(NumericalError, match="inner solve") as exc:
            spectral._refine_shifted_solve(A, spectral._forward_lu(A, 1.01 * si), si, b)
        assert exc.value.detail["residual"] > 1e-12
        assert exc.value.detail["preconditioned_residual"] > 1e-12

        forward_lu = spectral._forward_lu
        monkeypatch.setattr(spectral, "_forward_lu", lambda A, si: forward_lu(A, 1.01 * si))
        with pytest.raises(NumericalError, match="inner solve") as exc:
            compute_spectrum(A, 10)
        assert exc.value.detail["solves"] == 1

    def test_unstable_counts_shifted(self, spectrum_shifted32):
        rep = spectrum_shifted32
        # sigma = 1.5: only |k|^2 = 1 is unstable -> 4 wavevectors x 2 fields
        assert rep.N == 8
        assert rep.M == 1
        assert rep.ell == [8]
        assert rep.K == 8
        assert sum(rep.ell) == rep.N
        assert rep.distinct[0].real == pytest.approx(0.5, abs=1e-3)

    def test_residual_bound_and_normalization(self, gen_shifted32, spectrum_shifted32):
        for p in spectrum_shifted32.pairs:
            assert p.residual <= 1e-8
            assert to_state(gen_shifted32, p.coeffs).norm() == pytest.approx(1.0, abs=1e-9)

    def test_ordering_deterministic(self, box16):
        eq = make_equilibrium("shear", box16)
        A = MhdSystem(eq, 0.5)
        r1 = dense_spectrum(A, 8)
        r2 = dense_spectrum(A, 8)
        for p1, p2 in zip(r1.pairs, r2.pairs):
            assert p1.lam == p2.lam
            assert np.array_equal(p1.coeffs, p2.coeffs)
        res = [p.lam.real for p in r1.pairs]
        assert res == sorted(res, reverse=True)

    def test_truncation_keeps_interleaved_cluster_members(self):
        # roundoff in the real parts interleaves a conjugate pair of 2-fold
        # clusters in sort order as +, -, -, +; cutting after the first "-"
        # must still keep the trailing "+"
        lams = np.array([
            0.5,
            -0.03996 + 2e-15 + 0.4604j,
            -0.03996 + 1e-15 - 0.4604j,
            -0.03996 - 1e-15 - 0.4604j,
            -0.03996 - 2e-15 + 0.4604j,
            -0.9,
        ])
        assert sorted(lams, key=_sort_key) == list(lams)
        kept = {1: [0], 2: [0, 1, 4], 3: [0, 1, 2, 3, 4], 5: [0, 1, 2, 3, 4], 6: list(range(6))}
        for how_many, want in kept.items():
            assert _complete_clusters(lams, how_many).tolist() == want
        ids, _ = _cluster(list(lams[_complete_clusters(lams, 3)]))
        assert ids == [0, 1, 2, 2, 1]

    def test_how_many_validation(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        for how_many in (0, A.dim + 1):
            with pytest.raises(ConfigurationError, match="how_many"):
                compute_spectrum(A, how_many)

    def test_wall_grids_rejected(self, channel):
        # no generator is built on a grid with walls: its equilibrium is not
        with pytest.raises(ConfigurationError, match="fully periodic"):
            make_equilibrium("zero", channel)

    def test_residual_gate_names_the_eigenvalue(self, box16):
        # a pair off its eigenvalue by 1e-6 has residual 1e-6 on R, above
        # RESIDUAL_BOUND: the report refuses it and names the eigenvalue
        A = MhdSystem(make_equilibrium("shear", box16), 0.4)
        fwd = dense_spectrum(A, 4)
        lams = np.array([p.lam for p in fwd.pairs])
        vecs = np.column_stack([p.coeffs for p in fwd.pairs]).astype(complex)
        report = spectral._report(A.matrix, A.sigma, lams, vecs)
        assert [p.lam for p in report.pairs] == list(lams)
        lams[1] += 1e-6
        with pytest.raises(NumericalError, match="residual") as exc:
            spectral._report(A.matrix, A.sigma, lams, vecs)
        assert exc.value.detail["lambda"] == lams[1]


class TestAdjointSpectrum:
    def test_self_adjoint_case_identical(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        fwd = dense_spectrum(A, 8)
        adj = adjoint_eigenpairs(A, fwd)
        a = np.array([p.lam.real for p in fwd.pairs[:8]])
        b = np.array([p.lam.real for p in adj.pairs[:8]])
        assert np.abs(a - b).max() < 1e-9

    def test_conjugate_eigenvalues(self, box16):
        eq = make_equilibrium("taylor_vortex", box16)
        A = MhdSystem(eq, 0.4)
        fwd = dense_spectrum(A, 10)
        adj = adjoint_eigenpairs(A, fwd)
        key = lambda z: (round(z.real, 7), round(z.imag, 7))
        a = sorted([np.conj(p.lam) for p in adj.pairs[:10]], key=key)
        b = sorted([p.lam for p in fwd.pairs[:10]], key=key)
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-8
        assert fwd.N == adj.N

    def test_nothing_to_derive_for_a_stable_spectrum(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        unstable = dense_spectrum(A, 4).unstable_part()
        assert (unstable.pairs, unstable.N, unstable.M, unstable.K) == ([], 0, 0, 0)
        assert adjoint_eigenpairs(A, unstable) is unstable

    @pytest.mark.parametrize(
        "solver", [compute_spectrum, dense_spectrum], ids=["shift_invert", "dense"]
    )
    def test_diagonal_generator_is_its_own_adjoint(self, box16, monkeypatch, solver):
        # R^T = R, so the forward report is the adjoint one and nothing is
        # solved: a shifted_lu call would raise
        A = MhdSystem(make_equilibrium("zero", box16), 1.5)
        fwd = solver(A, 12).unstable_part()
        assert fwd.N > 0

        def no_solve(*args):
            raise AssertionError("shifted_lu called for a diagonal R")

        monkeypatch.setattr(spectral, "shifted_lu", no_solve)
        assert adjoint_eigenpairs(A, fwd) is fwd
        Rt = A.matrix.T
        for p in fwd.pairs:
            assert np.linalg.norm(Rt @ p.coeffs - p.lam * p.coeffs) <= p.residual

    def test_non_diagonal_generator_runs_inverse_iteration(self, box16, monkeypatch):
        A = MhdSystem(make_equilibrium("shear", box16), 1.5)
        fwd = compute_spectrum(A, 12).unstable_part()
        calls, shifted_lu = [], spectral.shifted_lu

        def counted(*args):
            calls.append(args)
            return shifted_lu(*args)

        monkeypatch.setattr(spectral, "shifted_lu", counted)
        adj = adjoint_eigenpairs(A, fwd)
        assert adj is not fwd and len(calls) == fwd.M > 0
        assert all(a is not f for a, f in zip(adj.pairs, fwd.pairs))
        Rt = A.matrix.T
        for p in adj.pairs:
            assert p.residual <= RESIDUAL_BOUND
            assert np.linalg.norm(Rt @ p.coeffs - p.lam * p.coeffs) <= RESIDUAL_BOUND


def _uniform_b_eq(grid):
    ones = np.ones(grid.shape)
    return make_equilibrium("custom", grid, {"B_e": (ones, 0.0 * ones)})


# equilibrium, grid size, sigma.  The unstable clusters are real of
# multiplicity 8 (zero) and 6 (shear); conjugate singles and real pairs
# (taylor_vortex); conjugate pairs and a real 4-fold cluster (uniform B, the
# closed-loop fixture of test_coupled_modes).  Shear and taylor_vortex are
# not normal, so there the forward eigenvectors are not the adjoint ones.
ADJOINT_CASES = {
    "zero": ("zero", 16, 1.5),
    "shear": ("shear", 16, 1.5),
    "taylor_vortex": ("taylor_vortex", 16, 1.5),
    "uniform_B": (_uniform_b_eq, 24, 1.2),
}


def _by_cluster(rep):
    ids = np.asarray(rep.cluster_ids)
    return [[rep.pairs[i] for i in np.flatnonzero(ids == ci)] for ci in range(ids.max() + 1)]


@pytest.fixture(scope="module", params=list(ADJOINT_CASES))
def derived(request):
    kind, n, sigma = ADJOINT_CASES[request.param]
    grid = build_grid(L, L, n, n)
    eq = kind(grid) if callable(kind) else make_equilibrium(kind, grid)
    A = MhdSystem(eq, sigma)
    fwd = dense_spectrum(A, 12)
    Rt = A.matrix.T.toarray()
    lams, vecs = sla.eig(Rt)
    return dict(
        grid=grid,
        A=A,
        fwd=fwd,
        adj=adjoint_eigenpairs(A, fwd),
        Rt=Rt,
        oracle_lams=lams,
        oracle_vecs=vecs,
    )


class TestDerivedAdjoint:
    """The adjoint derived from the forward clusters against a dense
    eigendecomposition of R^T."""

    def _oracle(self, d, cluster):
        lam = np.mean([p.lam for p in cluster])
        tol = CLUSTER_RTOL * max(1.0, max(abs(p.lam) for p in d["adj"].pairs))
        idx = np.flatnonzero(np.abs(d["oracle_lams"] - lam) <= tol)
        assert idx.size == len(cluster)
        return d["oracle_lams"][idx], d["oracle_vecs"][:, idx]

    def test_counts_equal_forward(self, derived):
        fwd, adj = derived["fwd"], derived["adj"]
        assert (adj.N, adj.M, adj.ell, adj.K) == (fwd.N, fwd.M, fwd.ell, fwd.K)
        assert len(adj.pairs) == len(fwd.pairs)
        assert adj.N > 0

    def test_eigenvalues_match_oracle(self, derived):
        for cl in _by_cluster(derived["adj"]):
            lams, _ = self._oracle(derived, cl)
            got = np.sort_complex(np.array([p.lam for p in cl]))
            assert np.abs(got - np.sort_complex(lams)).max() <= 1e-10

    def test_eigenspaces_match_oracle(self, derived):
        for cl in _by_cluster(derived["adj"]):
            _, vecs = self._oracle(derived, cl)
            C = np.column_stack([p.coeffs for p in cl])
            assert np.max(sla.subspace_angles(C, vecs)) <= 1e-8

    def test_residuals_within_bound(self, derived):
        Rt = derived["Rt"]
        for p in derived["adj"].pairs:
            assert p.residual <= RESIDUAL_BOUND
            assert np.linalg.norm(Rt @ p.coeffs - p.lam * p.coeffs) <= RESIDUAL_BOUND

    def test_cluster_bases_orthonormal(self, derived):
        for cl in _by_cluster(derived["adj"]):
            C = np.column_stack([p.coeffs for p in cl])
            assert np.abs(C.conj().T @ C - np.eye(len(cl))).max() <= 1e-12

    def test_gram_independent_of_forward_cluster_basis(self, derived):
        # mixing each forward cluster by a unitary matrix changes the start
        # of the inverse iteration, not the subspace it converges to
        fwd, A = derived["fwd"], derived["A"]
        X, Y = derived["grid"].meshgrid()
        omega = (X - 0.5 * L) ** 2 + (Y - 0.45 * L) ** 2 <= (0.2 * L) ** 2
        rng = np.random.default_rng(3)
        pairs = []
        for cl in _by_cluster(fwd):
            ell = len(cl)
            U = sla.qr(rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell)))[0]
            mixed = np.column_stack([p.coeffs for p in cl]) @ U
            pairs += [replace(p, coeffs=c) for p, c in zip(cl, mixed.T)]
        ids = sorted(fwd.cluster_ids)
        again = adjoint_eigenpairs(A, replace(fwd, pairs=pairs, cluster_ids=ids))
        assert again.ell == derived["adj"].ell
        for a, b in zip(derived["adj"].unstable_clusters(), again.unstable_clusters()):
            dA = derived["grid"].cell_area
            s0 = ucp_gram_test(omega_fields(A, a, omega), dA).sigma_min
            s1 = ucp_gram_test(omega_fields(A, b, omega), dA).sigma_min
            assert abs(s1 - s0) <= 1e-10 * s0


def _synthetic_field(grid, seed):
    """A random solenoidal state of unit norm as a (2, 2, nx, ny) array."""
    rng = np.random.default_rng(seed)
    from oracles import ScalarField, rot

    phi = rot(ScalarField(grid, rng.normal(size=grid.shape)))
    xi = rot(ScalarField(grid, rng.normal(size=grid.shape)))
    nrm = StateVector(phi, xi).norm()
    return np.array([[phi.u1, phi.u2], [xi.u1, xi.u2]]) / nrm


def _state(grid, f):
    return StateVector(VectorField2(grid, *f[0]), VectorField2(grid, *f[1]))


def _omega_inner_reference(a, b, omega):
    """The omega inner product written with the field-level helpers."""
    return inner(restrict(a.phi, omega), restrict(b.phi, omega)) + inner(
        restrict(a.xi, omega), restrict(b.xi, omega)
    )


@pytest.fixture(scope="module")
def shear_shifted32(box32):
    """shear at sigma = 1.5 and its derived adjoint spectrum.  Its R is not
    diagonal, and its unstable adjoint cluster is complex."""
    A = MhdSystem(make_equilibrium("shear", box32), 1.5)
    return A, adjoint_eigenpairs(A, compute_spectrum(A, 16))


class TestOmegaFields:
    @pytest.fixture
    def clusters(self, shear_shifted32):
        """The system, its complex unstable cluster and a real one made of
        its real parts."""
        A, adj = shear_shifted32
        cl = adj.unstable_clusters()[0]
        return A, {"complex": cl, "real": [replace(p, coeffs=p.coeffs.real.copy()) for p in cl]}

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_each_pair_synthesized_alone_bit_for_bit(self, regions32, clusters, kind):
        omega = regions32.omega
        A, cl = clusters[0], clusters[1][kind]
        F = omega_fields(A, cl, omega)
        assert F.shape == (len(cl), 2, 2) + omega.shape
        assert np.isrealobj(F) == (kind == "real")
        for f, p in zip(F, cl):
            st = to_state(A, p.coeffs)
            phi, xi = restrict(st.phi, omega), restrict(st.xi, omega)
            for got, want in zip(f.reshape(4, *omega.shape), (phi.u1, phi.u2, xi.u1, xi.u2)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_gram_and_kalman_entries_match_field_inner_products(self, regions32, clusters, kind):
        omega, grid = regions32.omega, regions32.grid
        A, cl = clusters[0], clusters[1][kind]
        F = omega_fields(A, cl, omega)
        states = [to_state(A, p.coeffs) for p in cl]
        G = np.array([[_omega_inner_reference(a, b, omega) for b in states] for a in states])
        assert np.array_equal(ucp_gram_test(F, grid.cell_area).entries, G)
        acts = select_actuators([F], grid.cell_area)
        assert acts.shape == F.shape and np.isrealobj(acts)
        M = np.array(
            [[_omega_inner_reference(_state(grid, u), a, omega) for u in acts] for a in states]
        )
        assert np.array_equal(kalman_rank(acts, [F], grid.cell_area)[0].entries, M)


class TestGram:
    def test_single_mode_gram_is_norm(self, box16, regions16=None):
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        f = _synthetic_field(box16, 1)
        gm = ucp_gram_test((f * regions.omega)[None], box16.cell_area)
        p = _state(box16, f)
        expect = (
            inner(restrict(p.phi, regions.omega), restrict(p.phi, regions.omega))
            + inner(restrict(p.xi, regions.omega), restrict(p.xi, regions.omega))
        ).real
        assert gm.sigma_min == pytest.approx(expect, rel=1e-12)
        assert gm.passed

    def test_degenerate_fixture_fails(self, box16):
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        omega = regions.omega
        a = _synthetic_field(box16, 2)
        b_deg = _synthetic_field(box16, 3)
        b_deg[..., omega] = a[..., omega]
        mask = ~omega
        a_on_omega = np.where(mask, 0.0, a)
        b_on_omega = np.where(mask, 0.0, b_deg)
        gm = ucp_gram_test(np.array([a_on_omega, b_on_omega]), box16.cell_area)
        assert gm.sigma_min <= 1e-10
        assert not gm.passed
        gm_full = ucp_gram_test(np.array([a, b_deg]) * omega, box16.cell_area)
        assert gm_full.sigma_min <= 1e-10

    def test_shifted_box_gram_vs_quadrature_oracle(
        self, gen_shifted32, adj_spectrum_shifted32, regions32, box32
    ):
        cl = adj_spectrum_shifted32.unstable_clusters()[0]
        gm = ucp_gram_test(omega_fields(gen_shifted32, cl, regions32.omega), box32.cell_area)
        assert gm.passed and gm.sigma_min > 1e-6
        # quadrature oracle: raw cellwise sums, no package inner products
        omega = regions32.omega
        dA = box32.cell_area
        ell = len(cl)
        states = [to_state(gen_shifted32, p.coeffs) for p in cl]
        G = np.zeros((ell, ell), dtype=complex)
        for a in range(ell):
            for b in range(ell):
                pa, pb = states[a], states[b]
                acc = 0.0
                for fa, fb in ((pa.phi, pb.phi), (pa.xi, pb.xi)):
                    acc = acc + np.sum(
                        (np.conj(fa.u1) * fb.u1 + np.conj(fa.u2) * fb.u2)[omega]
                    )
                G[a, b] = acc * dA
        svals = np.linalg.svd(G, compute_uv=False)
        assert gm.sigma_min == pytest.approx(float(svals[-1]), rel=1e-10)

    def test_gram_monotone_in_omega(self, gen_shifted32, adj_spectrum_shifted32, box32):
        cl = adj_spectrum_shifted32.unstable_clusters()[0]
        X, Y = box32.meshgrid()
        r = np.hypot(X - np.pi, Y - np.pi)
        small = r <= 0.12 * L
        big = r <= 0.18 * L
        assert np.all(big[small])
        gm_small = ucp_gram_test(omega_fields(gen_shifted32, cl, small), box32.cell_area)
        gm_big = ucp_gram_test(omega_fields(gen_shifted32, cl, big), box32.cell_area)
        assert gm_big.sigma_min >= gm_small.sigma_min - 1e-12

    def test_empty_cluster_rejected(self, box16):
        with pytest.raises(ConfigurationError):
            ucp_gram_test(np.zeros((0, 2, 2) + box16.shape), box16.cell_area)


class TestActuatorsAndKalman:
    def test_no_unstable_modes(self, regions32):
        assert len(select_actuators([], regions32.grid.cell_area)) == 0

    def test_single_mode_actuator(self, box16):
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        f = _synthetic_field(box16, 4)
        acts = select_actuators([(f * regions.omega)[None]], box16.cell_area)
        assert len(acts) == 1
        u = _state(box16, acts[0])
        outside = ~regions.omega
        assert np.all(u.phi.u1[outside] == 0.0)
        assert np.all(u.xi.u2[outside] == 0.0)
        nrm = (
            inner(restrict(u.phi, regions.omega), restrict(u.phi, regions.omega))
            + inner(restrict(u.xi, regions.omega), restrict(u.xi, regions.omega))
        ).real
        assert nrm == pytest.approx(1.0, rel=1e-10)

    def test_constructed_rank_full(self, gen_shifted32, adj_spectrum_shifted32, regions32):
        clusters = [
            omega_fields(gen_shifted32, cl, regions32.omega)
            for cl in adj_spectrum_shifted32.unstable_clusters()
        ]
        dA = regions32.grid.cell_area
        acts = select_actuators(clusters, dA)
        for km in kalman_rank(acts, clusters, dA):
            assert km.passed and km.rank == km.ell

    def test_zeroed_actuators_rank_zero(self, box16):
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        f = _synthetic_field(box16, 5) * regions.omega
        zero_act = np.zeros((1, 2, 2) + box16.shape)
        km = kalman_rank(zero_act, [f[None]], box16.cell_area)[0]
        assert km.rank == 0 and not km.passed

    def test_restricted_eigenfunction_row(self, box16):
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        omega = regions.omega
        f = _synthetic_field(box16, 6)
        u = (f * omega)[None]
        km = kalman_rank(u, [u], box16.cell_area)[0]
        p = _state(box16, f)
        norm_sq = (
            inner(restrict(p.phi, omega), restrict(p.phi, omega))
            + inner(restrict(p.xi, omega), restrict(p.xi, omega))
        ).real
        assert km.entries[0, 0].real == pytest.approx(norm_sq, rel=1e-12)
        assert km.rank == 1

    def test_multiplicity_2_1_synthetic(self, box16):
        # two distinct clusters with ell = (2, 1): per-cluster rank equals ell
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        omega = regions.omega
        c1 = np.array([_synthetic_field(box16, 7), _synthetic_field(box16, 8)]) * omega
        c2 = _synthetic_field(box16, 9)[None] * omega
        acts = select_actuators([c1, c2], box16.cell_area)
        assert len(acts) == 2
        for km, ell in zip(kalman_rank(acts, [c1, c2], box16.cell_area), (2, 1)):
            assert km.ell == ell
            assert km.rank == ell
            assert km.passed

    def test_gram_failure_blocks_actuators(self, box16):
        # an identical copy: the omega-Gram is singular and the second
        # actuator lies in the span of the first
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        a = _synthetic_field(box16, 10) * regions.omega
        with pytest.raises(UncontrollableError):
            select_actuators([np.array([a, a.copy()])], box16.cell_area)

    def test_gram_kalman_agreement_randomized(self, box16):
        # with actuators = omega-restricted eigenfunctions, Kalman rank
        # succeeds exactly when the omega-Gram is nondegenerate
        regions = build_nested_regions(box16, OmegaSpec(shape="disc", size=0.15 * L))
        omega = regions.omega
        rng = np.random.default_rng(123)
        agreements = 0
        for trial in range(20):
            ell = int(rng.integers(1, 4))
            cluster = np.array(
                [_synthetic_field(box16, 100 + 10 * trial + j) for j in range(ell)]
            )
            degenerate = trial % 2 == 1 and ell >= 2
            if degenerate:
                cluster[1][..., omega] = cluster[0][..., omega]
            fields = cluster * omega
            gm = ucp_gram_test(fields, box16.cell_area)
            km = kalman_rank(fields, [fields], box16.cell_area)[0]
            assert km.passed == gm.passed
            agreements += 1
        assert agreements == 20
