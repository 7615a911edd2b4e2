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

One ``MhdSystem`` holds the reduced generator R of a run.  R is real, so the
adjoint is its transpose, read where it is needed as ``matrix.T``: a view of
R's arrays, factored by the same ``shifted_lu`` as R.

The diffusion blocks take a fourth-order stencil on fully periodic grids so
that computed eigenvalues carry more accuracy than the generic second-order
field operators, and a second-order one with walls; all other blocks are
second order.
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

_DENSE_STATE_LIMIT = 4400  # reduced state dimension cap for the dense strategy
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
    [v1; v2], for a (2, nx, ny) coefficient field e."""
    return _block_advection(grid, e) + _gradient_coupling(grid, e)


def oseen_minus(grid: Grid, e: np.ndarray) -> sp.csr_matrix:
    """Sign-flipped Oseen operator v -> (e.grad)v - (v.grad)e on stacked
    [v1; v2], for a (2, nx, ny) coefficient field e."""
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
    coo.sum_duplicates()
    rb, r = np.divmod(coo.row, n)
    cb, c = np.divmod(coo.col, n)
    # one coefficient field per (block, offset) term
    offset = ((c // ny - r // ny) % nx) * ny + (c - r) % ny
    terms, term = np.unique((rb * nblk + cb) * n + offset, return_inverse=True)
    coef = np.zeros((terms.size, n))
    coef[term, r] = coo.data
    modes = np.fft.fft2(coef.reshape(-1, nx, ny)).reshape(terms.size, n) / n
    t, m = np.nonzero(np.abs(modes) >= _ROUNDOFF_RTOL * np.abs(modes).max(axis=1, keepdims=True))

    def signed(flat):
        kx, ky = np.divmod(flat, ny)
        return (kx + nx // 2) % nx - nx // 2, (ky + ny // 2) % ny - ny // 2

    # signed offsets and frequencies make the phase at -q the exact
    # conjugate of the one at q
    (sx, sy), (qx, qy) = signed(terms % n), signed(np.arange(n))
    phase = np.exp(2j * np.pi * (np.outer(sx, qx) / nx + np.outer(sy, qy) / ny))
    # the terms of one block that carry mode m act on amplitude q together
    groups, group = np.unique((terms[t] // n) * n + m, return_inverse=True)
    weights = sp.csr_matrix((modes[t, m], (group, t)), shape=(groups.size, terms.size))
    (rblk, cblk), (mx, my) = np.divmod(groups // n, nblk), np.divmod(groups % n, ny)
    q = np.arange(n)
    step = max(1, _PART_ENTRIES // n)
    for g in (slice(lo, lo + step) for lo in range(0, groups.size, step)):
        rows = rblk[g, None] * n + ((q // ny + mx[g, None]) % nx) * ny + (q + my[g, None]) % ny
        cols = cblk[g, None] * n + q
        vals = weights[g] @ phase
        yield sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=amb.shape)


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
                "vlap": vector_laplacian_matrix(g, 4 if g.fully_periodic else 2),
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

    def reduced_matrix(self) -> sp.csr_matrix:
        """Reduced generator (shift included) as a sparse matrix.

        In the fft2 amplitudes of its fields the ambient matrix couples a
        mode only to the modes its coefficient fields shift it by
        (``_fourier_parts``); the basis' synthesis map and its Parseval
        adjoint carry that to basis coefficients, so the basis itself is
        never materialized.
        """
        if "reduced" not in self._cache:
            g = self.grid
            synth = sp.block_diag([self.basis.synthesis_matrix()] * 2, format="csr")
            red = sp.csr_matrix((synth.shape[1],) * 2)
            for part in _fourier_parts(self.ambient_matrix(), g):
                red += ((g.cell_area / g.ncells) * (synth.conj().T @ (part @ synth))).real
            red.data[np.abs(red.data) < _ROUNDOFF_RTOL * np.abs(red.data).max(initial=0.0)] = 0.0
            red.eliminate_zeros()
            self._cache["reduced"] = (red + self.sigma * sp.identity(red.shape[0])).tocsr()
        return self._cache["reduced"]

    @property
    def matrix(self) -> sp.csr_matrix:
        """The cached sparse R; its transpose ``matrix.T`` is a CSC view of
        R's arrays, built without a copy."""
        return self.reduced_matrix()

    def dense(self) -> np.ndarray:
        """R as an array, for the dense spectral strategy."""
        if self.dim > _DENSE_STATE_LIMIT:
            raise ConfigurationError(
                f"reduced state dimension {self.dim} exceeds the dense cap "
                f"{_DENSE_STATE_LIMIT} of the dense spectral strategy"
            )
        return self.matrix.toarray()


def shifted_lu(matrix: sp.spmatrix, a: complex, b: float) -> spla.SuperLU:
    """Sparse LU of a*I + b*matrix, for R or R^T: the shifted solve shared by
    the adjoint inverse iteration and implicit time stepping.

    SuperLU runs in its symmetric mode: a minimum-degree ordering of
    A^T + A, applied to rows and columns alike, with diagonal pivots
    preferred and partial pivoting kept at the default threshold.  Advection
    couples a Fourier mode q only to q +- m, so R's pattern is nearly
    symmetric, the case that mode is made for: on taylor_vortex at 32^2
    the backward Euler factor keeps 0.71 of the L+U entries of SuperLU's
    default COLAMD factor, and a solve takes two thirds of the time.
    """
    shifted = a * sp.identity(matrix.shape[0], format="csc") + b * matrix.tocsc()
    try:
        return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise NumericalError(
            f"shifted generator a*I + b*R is singular: {exc}", detail={"a": a, "b": b}
        ) from exc
