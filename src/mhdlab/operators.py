"""Oseen blocks and the coupled generator.

The generator acts on stacked solenoidal states (phi, xi).  Its ambient form
is the sparse block matrix

    [ nu*Lap - Lplus(y_e)      +Lplus(B_e)      ]
    [ +Lminus(B_e)             eta*Lap - Lminus(y_e) ]   + sigma*I

and the operator actually analyzed is its restriction to the solenoidal
basis, which realizes the Helmholtz-projected dynamics exactly (projecting
either one or both rows coincides on that subspace; the tests measure the
off-subspace remainder of the xi row as a leakage diagnostic).

sigma is an explicit artificial spectral shift used to manufacture unstable
spectra on demand; it commutes with everything downstream.

At rest (``y_e`` and ``B_e`` identically zero) the Oseen blocks vanish and
the generator is sigma plus a Stokes block and a magnetic-diffusion block.
Their eigenfunctions are the solenoidal Fourier modes, so R is the diagonal
sigma + nu*s(k), sigma + eta*s(k), s the symbol of the fourth-order Laplacian
stencil at each basis column's wavevector, and no ambient matrix is built.
Every other equilibrium is reduced through the ambient matrix: its Fourier
parts (``_fourier_parts``) carried to basis coefficients.  The couplings
have closed-form symbols too, but assembling them changes the last bits of
R, and with them the order of a degenerate cluster the benchmark compares
in order, so they wait for that comparison to take any order.

One ``MhdSystem`` holds the reduced generator R of a run.  R is real, so the
adjoint is its transpose, read where it is needed as ``matrix.T``: a view of
R's arrays, solved by the same ``shifted_lu`` as R.  That solve is a sparse
LU, or a division when the shifted operator is real and diagonal, as the
closed loop's is at rest.

The diffusion blocks take a fourth-order stencil so that computed
eigenvalues carry more accuracy than the generic second-order field
operators; all other blocks are second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import SolenoidalBasis
from .equilibria import Equilibrium
from .errors import AssemblyError, ConfigurationError, NumericalError
from .fields import dx_matrix, dy_matrix, vector_laplacian_matrix
from .grid import Grid

# Fourier modes of a coefficient field, and entries of the reduced matrix,
# below this share of the largest one are roundoff of exact zeros.
_ROUNDOFF_RTOL = 1e-14
# Entries per part of the Fourier-space ambient matrix; bounds the memory of
# the assembly when an equilibrium carries many modes.
_PART_ENTRIES = 1 << 21


def _block_advection(grid: Grid, e: np.ndarray) -> sp.csr_matrix:
    """(e . grad) acting on stacked [v1; v2]."""
    adv = sp.diags(e[0].ravel()) @ dx_matrix(grid) + sp.diags(e[1].ravel()) @ dy_matrix(grid)
    return sp.block_diag([adv, adv], format="csr")


def _gradient_coupling(grid: Grid, e: np.ndarray) -> sp.csr_matrix:
    """(v . grad) e as a multiplication operator on stacked [v1; v2]."""
    Dx, Dy = dx_matrix(grid), dy_matrix(grid)
    d = lambda arr, m: (m @ arr.ravel())
    return sp.bmat(
        [
            [sp.diags(d(e[0], Dx)), sp.diags(d(e[0], Dy))],
            [sp.diags(d(e[1], Dx)), sp.diags(d(e[1], Dy))],
        ],
        format="csr",
    )


def oseen_plus(grid: Grid, e: np.ndarray) -> sp.csr_matrix:
    """First-order Oseen operator v -> (e.grad)v + (v.grad)e on stacked
    [v1; v2], for a (2, nx, ny) coefficient field e; empty when e is
    identically zero."""
    if not np.any(e):
        return sp.csr_matrix((2 * grid.ncells,) * 2)
    return _block_advection(grid, e) + _gradient_coupling(grid, e)


def oseen_minus(grid: Grid, e: np.ndarray) -> sp.csr_matrix:
    """Sign-flipped Oseen operator v -> (e.grad)v - (v.grad)e on stacked
    [v1; v2], for a (2, nx, ny) coefficient field e; empty when e is
    identically zero."""
    if not np.any(e):
        return sp.csr_matrix((2 * grid.ncells,) * 2)
    return _block_advection(grid, e) - _gradient_coupling(grid, e)


def _fourier_parts(amb: sp.spmatrix, grid: Grid) -> Iterator[sp.csr_matrix]:
    """``amb`` with every ncells x ncells block conjugated by fft2, as a sum
    of sparse parts of at most about _PART_ENTRIES entries each.

    A block is a periodic stencil, sum_s diag(a_s) shift_s over offsets s.
    Under fft2 the shift is the phase exp(2 pi i q.s/n) on amplitude q and
    diag(a_s) the cyclic convolution with fft2(a_s)/ncells, so amplitude q
    feeds amplitude q + m for each mode m of a_s.  Modes below _ROUNDOFF_RTOL
    times the largest of their field are dropped.
    """
    nx, ny = grid.shape
    n = grid.ncells
    nblk = amb.shape[1] // n
    coo = sp.coo_matrix(amb)
    # each (term, row) below takes one entry, so duplicates must be summed
    # first; a canonical matrix has none
    if not getattr(amb, "has_canonical_format", False):
        coo.sum_duplicates()
    rb, r = np.divmod(coo.row, n)
    cb, c = np.divmod(coo.col, n)
    # one coefficient field per (block, offset) term, in key order; the keys
    # lie below nblk^2 n, so a presence mask orders them without a sort
    offset = ((c // ny - r // ny) % nx) * ny + (c - r) % ny
    key = (rb * nblk + cb) * n + offset
    present = np.zeros(nblk * nblk * n, dtype=bool)
    present[key] = True
    terms = np.flatnonzero(present)
    term = np.searchsorted(terms, key)
    coef = np.zeros((terms.size, n))
    coef[term, r] = coo.data
    modes = np.fft.fft2(coef.reshape(-1, nx, ny)).reshape(terms.size, n) / n
    t, m = np.nonzero(np.abs(modes) >= _ROUNDOFF_RTOL * np.abs(modes).max(axis=1, keepdims=True))

    def signed(flat):
        kx, ky = np.divmod(flat, ny)
        return (kx + nx // 2) % nx - nx // 2, (ky + ny // 2) % ny - ny // 2

    # one phase row per distinct offset; signed offsets and frequencies make
    # the phase at -q the exact conjugate of the one at q
    offsets, at = np.unique(terms % n, return_inverse=True)
    (sx, sy), (qx, qy) = signed(offsets), signed(np.arange(n))
    phase = np.exp(2j * np.pi * (np.outer(sx, qx) / nx + np.outer(sy, qy) / ny))
    # the terms of one block that carry mode m act on amplitude q together;
    # a block's terms are in offset order, so each row of weights sums its
    # phases in term order
    groups, group = np.unique((terms[t] // n) * n + m, return_inverse=True)
    weights = sp.csr_matrix((modes[t, m], (group, at[t])), shape=(groups.size, offsets.size))
    (rblk, cblk), (mx, my) = np.divmod(groups // n, nblk), np.divmod(groups % n, ny)
    q = np.arange(n)
    step = max(1, _PART_ENTRIES // n)
    for g in (slice(lo, lo + step) for lo in range(0, groups.size, step)):
        rows = rblk[g, None] * n + ((q // ny + mx[g, None]) % nx) * ny + (q + my[g, None]) % ny
        cols = cblk[g, None] * n + q
        vals = weights[g] @ phase
        yield sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=amb.shape)


def _reduce_ambient(amb: sp.spmatrix, basis: SolenoidalBasis) -> sp.csr_matrix:
    """The ambient matrix ``amb`` on stacked [phi; xi] restricted to the
    basis, real(S^H amb S) * cell_area / ncells with S the basis' synthesis
    map on each field (no shift).

    In the fft2 amplitudes of its fields the ambient matrix couples a mode
    only to the modes its coefficient fields shift it by (``_fourier_parts``);
    the synthesis map and its Parseval adjoint carry that to basis
    coefficients, so the basis itself is never materialized.  Entries below
    _ROUNDOFF_RTOL of the largest are dropped.
    """
    g = basis.grid
    synth = sp.block_diag([basis.synthesis_matrix()] * 2, format="csr")
    red = sp.csr_matrix((synth.shape[1],) * 2)
    for part in _fourier_parts(amb, g):
        red += ((g.cell_area / g.ncells) * (synth.conj().T @ (part @ synth))).real
    red.data[np.abs(red.data) < _ROUNDOFF_RTOL * np.abs(red.data).max(initial=0.0)] = 0.0
    red.eliminate_zeros()
    return red


def _laplacian_symbol(basis: SolenoidalBasis) -> np.ndarray:
    """Per basis column, the symbol of the fourth-order Laplacian stencil at
    the column's wavevector, decoded from its flat fft2 index
    k = mx * ny + my.

    The symbol is even in each frequency, so each axis' table is taken at
    the distance min(m, n - m) to the zero mode: mirrored modes get the
    same bits.
    """
    g = basis.grid

    def axis(n: int, h: float) -> np.ndarray:
        m = np.arange(n)
        a = 2 * np.pi * np.minimum(m, n - m) / n
        return (-2 * np.cos(2 * a) + 32 * np.cos(a) - 30) / (12 * h**2)

    sx, sy = axis(g.nx, g.hx), axis(g.ny, g.hy)

    def sym(kflat):
        mx, my = np.divmod(kflat, g.ny)
        return sx[mx] + sy[my]

    out = np.empty(basis.dim)
    out[basis.pair_cos_col] = out[basis.pair_sin_col] = sym(basis.pair_kflat)
    out[basis.spec_col] = sym(basis.spec_kflat)
    return out


# ---------------------------------------------------------------------------
# Coupled system
# ---------------------------------------------------------------------------

@dataclass
class MhdSystem:
    """Discrete linearized MHD system around one equilibrium, and its reduced
    generator R (shift included): the operator the pipeline multiplies by
    and factors, read as R^T for the adjoint."""

    eq: Equilibrium
    sigma: float = 0.0
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigurationError("the spectral shift sigma must be >= 0")

    @property
    def grid(self) -> Grid:
        return self.eq.grid

    @property
    def nu(self) -> float:
        return self.eq.nu

    @property
    def eta(self) -> float:
        return self.eq.eta

    @property
    def basis(self) -> SolenoidalBasis:
        return SolenoidalBasis.for_grid(self.grid)

    @property
    def dim(self) -> int:
        """Reduced state dimension: basis coefficients of phi and xi."""
        return 2 * self.basis.dim

    # -- ambient blocks ----------------------------------------------------
    def blocks(self) -> dict[str, sp.csr_matrix]:
        if "blocks" not in self._cache:
            g = self.grid
            self._cache["blocks"] = {
                "vlap": vector_laplacian_matrix(g, 4),
                "L1": oseen_plus(g, self.eq.y_e),
                "L2": oseen_plus(g, self.eq.B_e),
                "M1": oseen_minus(g, self.eq.y_e),
                "M2": oseen_minus(g, self.eq.B_e),
            }
        return self._cache["blocks"]

    def ambient_matrix(self) -> sp.csr_matrix:
        """Unprojected block generator on stacked [phi; xi] (no shift)."""
        if "ambient" not in self._cache:
            b = self.blocks()
            top = sp.hstack([self.nu * b["vlap"] - b["L1"], b["L2"]])
            bot = sp.hstack([b["M2"], self.eta * b["vlap"] - b["M1"]])
            mat = sp.vstack([top, bot], format="csr")
            if not np.all(np.isfinite(mat.data)):
                raise AssemblyError("generator assembly produced non-finite entries")
            self._cache["ambient"] = mat
        return self._cache["ambient"]

    # -- reduced operator ---------------------------------------------------
    def reduced_matvec(self, x: np.ndarray) -> np.ndarray:
        """Reduced generator times x through the ambient matrix, with one
        synthesis and one analysis of the (phi, xi) stack: the FFT path,
        independent of the sparse ``reduced_matrix``."""
        basis = self.basis
        x = np.asarray(x)
        flat = basis.synthesize(x.reshape(2, basis.dim)).reshape(-1)
        out = self._ambient_operand(flat.dtype) @ flat
        y = basis.analyze(out.reshape((2, 2) + self.grid.shape)).reshape(-1)
        return y + self.sigma * x

    def _ambient_operand(self, dtype) -> sp.csr_matrix:
        """The ambient matrix in the dtype of the vectors it multiplies,
        built once.

        scipy would otherwise copy the real data to complex on every complex
        product; either way each output entry sums the same terms in the
        same order, so the products are the same to the bit.
        """
        key = ("ambient_operand", np.dtype(dtype).kind == "c")
        if key not in self._cache:
            amb = self.ambient_matrix()
            self._cache[key] = amb.astype(np.result_type(amb.dtype, dtype), copy=False)
        return self._cache[key]

    @property
    def at_rest(self) -> bool:
        """Whether the equilibrium carries no field: y_e and B_e are
        identically zero."""
        return not (np.any(self.eq.y_e) or np.any(self.eq.B_e))

    def reduced_matrix(self) -> sp.csr_matrix:
        """Reduced generator (shift included) as a sparse matrix.

        At rest it is the diagonal sigma + nu*s, sigma + eta*s of the Stokes
        and magnetic-diffusion blocks, s the fourth-order Laplacian symbol
        per basis column (``_laplacian_symbol``); otherwise it is the ambient
        matrix restricted to the basis (``_reduce_ambient``) plus sigma.
        """
        if "reduced" not in self._cache:
            if self.at_rest:
                s = _laplacian_symbol(self.basis)
                diag = self.sigma + np.concatenate([self.nu * s, self.eta * s])
                if not np.all(np.isfinite(diag)):
                    raise AssemblyError("generator assembly produced non-finite entries")
                n = diag.size
                red = sp.csr_matrix((diag, np.arange(n), np.arange(n + 1)), shape=(n, n))
            else:
                red = _reduce_ambient(self.ambient_matrix(), self.basis)
                red = red + self.sigma * sp.identity(red.shape[0])
            self._cache["reduced"] = red.tocsr()
        return self._cache["reduced"]

    @property
    def matrix(self) -> sp.csr_matrix:
        """The cached sparse R; its transpose ``matrix.T`` is a CSC view of
        R's arrays, built without a copy."""
        return self.reduced_matrix()


def is_diagonal(matrix: sp.spmatrix) -> bool:
    """Whether every nonzero entry of ``matrix`` lies on its diagonal;
    explicitly stored zeros do not count."""
    coo = matrix.tocoo()
    return not np.any(coo.data[coo.row != coo.col])


class DiagonalSolver:
    """The solve of a real diagonal shifted operator: a division by its
    diagonal, in SuperLU's arithmetic."""

    def __init__(self, diagonal: np.ndarray):
        self.diagonal = diagonal

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """rhs divided by the diagonal, row by row, for a 1-D or 2-D rhs."""
        # transposed, rhs runs along the diagonal on its last axis
        return (np.asarray(rhs).T / self.diagonal).T


def shifted_lu(matrix: sp.spmatrix, a: complex, b: float) -> spla.SuperLU | DiagonalSolver:
    """Solver of a*I + b*matrix, for R or R^T: the shifted solve shared by
    the adjoint inverse iteration and implicit time stepping.

    A real diagonal a*I + b*matrix (R on the zero equilibrium, whose
    solenoidal Fourier modes are its eigenfunctions, with a real shift as in
    the closed loop) gets a ``DiagonalSolver``, which divides by the
    diagonal.  That keeps SuperLU's bits: it factors a diagonal matrix as
    L = I and U = the diagonal, so its solve is one division per entry too.

    Every other matrix gets a sparse LU in SuperLU's symmetric mode: a
    minimum-degree ordering of A^T + A, applied to rows and columns alike,
    with diagonal pivots preferred and partial pivoting kept at the default
    threshold.  Advection couples a Fourier mode q only to q +- m, so R's
    pattern is nearly symmetric, the case that mode is made for: on
    taylor_vortex at 32^2 the backward Euler factor keeps 0.71 of the L+U
    entries of SuperLU's default COLAMD factor, and a solve takes two thirds
    of the time.

    A singular shift (on the diagonal path, a zero or unstored diagonal
    entry) raises NumericalError.
    """
    shifted = a * sp.identity(matrix.shape[0], format="csc") + b * matrix.tocsc()
    if np.isrealobj(shifted) and is_diagonal(shifted):
        diagonal = shifted.diagonal()
        zeros = np.flatnonzero(diagonal == 0)
        if zeros.size:
            raise NumericalError(
                f"shifted generator a*I + b*R is singular: zero diagonal entry {zeros[0]}",
                detail={"a": a, "b": b},
            )
        return DiagonalSolver(diagonal)
    try:
        return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise NumericalError(
            f"shifted generator a*I + b*R is singular: {exc}", detail={"a": a, "b": b}
        ) from exc
