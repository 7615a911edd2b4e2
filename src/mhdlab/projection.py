"""Helmholtz decomposition via the composed pressure Poisson problem.

The projector is P v = v - grad(q) with div(grad(q)) = div(v), where div and
grad are the same centered matrices used everywhere else.  Using the literal
composition div(grad(.)) (the "wide" Laplacian) makes the projected field
discretely divergence-free to solver accuracy and the projector exactly
idempotent, at the price of a known singular subspace on periodic grids
(grid-parity constants) which is handled by a bordered factorization.

On grids with wall directions the composed operator is non-symmetric and
rank-deficient without a usable bordered form; there we fall back to a dense
least-squares pseudo-inverse and report the achieved divergence residual.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fields import divergence_matrix, gradient_matrix, wide_laplacian_matrix
from .grid import Grid

_DENSE_LIMIT = 4100  # cells; wall-grid pseudo-inverse guard


def _parity_null_vectors(grid: Grid) -> np.ndarray:
    """Orthonormal null basis of the wide Laplacian on a fully periodic grid."""
    def axis_nulls(n: int) -> list[np.ndarray]:
        vecs = [np.ones(n)]
        if n % 2 == 0:
            vecs.append((-1.0) ** np.arange(n))
        return vecs

    cols = []
    for ax in axis_nulls(grid.nx):
        for ay in axis_nulls(grid.ny):
            v = np.outer(ax, ay).ravel()
            cols.append(v / np.linalg.norm(v))
    return np.array(cols).T


class PoissonSolver:
    """Direct solver for the composed pressure Poisson operator of one grid."""

    def __init__(self, grid: Grid, tol: float = 1e-12):
        self.grid = grid
        self.tol = tol
        self.L = wide_laplacian_matrix(grid)
        if grid.fully_periodic:
            V = _parity_null_vectors(grid)
            self.null = V
            k = V.shape[1]
            bordered = sp.bmat(
                [[self.L, sp.csr_matrix(V)], [sp.csr_matrix(V.T), None]], format="csc"
            )
            self._lu = spla.splu(bordered)
            self._nborder = k
            self._dense_pinv = None
        else:
            if grid.ncells > _DENSE_LIMIT:
                raise NumericalError(
                    "wall-grid pressure Poisson uses a dense factorization; "
                    f"grid has {grid.ncells} cells (limit {_DENSE_LIMIT})"
                )
            self.null = None
            self._lu = None
            self._dense_pinv = np.linalg.pinv(self.L.toarray(), rcond=1e-10)

    def solve(self, rhs: np.ndarray, ref: float | None = None) -> tuple[np.ndarray, float]:
        """Return (solution, residual relative to max(|rhs|, ref)); zero mean.

        ref guards the relative test when rhs is numerically zero (e.g. the
        divergence of an already projected field).
        """
        rhs = np.asarray(rhs).ravel()
        scale = max(np.linalg.norm(rhs), ref or 0.0)
        if scale == 0.0:
            return np.zeros_like(rhs), 0.0
        if self._lu is not None:
            x = self._solve_bordered(rhs)
            # one refinement sweep buys ~3 digits on the composed operator
            x = x + self._solve_bordered(rhs - self.L @ x)
        else:
            x = self._dense_pinv @ rhs
        res = np.linalg.norm(self.L @ x - rhs) / scale
        x = x - x.mean()
        return x, float(res)

    def _solve_bordered(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            re = self._lu.solve(np.concatenate([rhs.real, np.zeros(self._nborder)]))
            im = self._lu.solve(np.concatenate([rhs.imag, np.zeros(self._nborder)]))
            return re[: rhs.size] + 1j * im[: rhs.size]
        aug = self._lu.solve(np.concatenate([rhs, np.zeros(self._nborder)]))
        return aug[: rhs.size]

    def solve_checked(self, rhs: np.ndarray, ref: float | None = None) -> np.ndarray:
        x, res = self.solve(rhs, ref)
        if res > self.tol and self.grid.fully_periodic:
            raise NumericalError(
                "pressure Poisson solve did not reach tolerance",
                detail={"residual": res, "tol": self.tol},
            )
        return x


def _solver(grid: Grid) -> PoissonSolver:
    if "poisson" not in grid._cache:
        grid._cache["poisson"] = PoissonSolver(grid)
    return grid._cache["poisson"]


def helmholtz_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Project a (2, nx, ny) field onto the discretely divergence-free
    subspace; returns a new array of the same shape.

    Gradient fields map to zero; fields already in the range are returned
    unchanged to solver tolerance; the projector is idempotent.
    """
    solver = _solver(grid)
    flat = v.reshape(-1)
    div_v = divergence_matrix(grid) @ flat
    # derivative-scaled reference keeps the tolerance meaningful for
    # already-solenoidal inputs whose divergence is roundoff
    ref = float(np.linalg.norm(flat)) * 2.0 / min(grid.hx, grid.hy)
    q = solver.solve_checked(div_v, ref) if grid.fully_periodic else solver.solve(div_v, ref)[0]
    corr = gradient_matrix(grid) @ q
    return (flat - corr).reshape(v.shape)
