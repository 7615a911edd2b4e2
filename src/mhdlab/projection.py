"""Helmholtz projection onto the kernel of the centered divergence.

On fully periodic grids the projector is the discrete Leray projection of
the solenoidal basis (``SolenoidalBasis.leray``): the basis coefficients
synthesized back, plus the componentwise means.  It is exactly idempotent
and leaves the field discretely divergence free to roundoff.

On grids with wall directions there is no such basis.  There P v = v -
grad(q) with div(grad(q)) = div(v), where div and grad are the same centered
matrices used everywhere else; the composed operator is non-symmetric and
rank-deficient, so q comes from a dense least-squares pseudo-inverse.

A field whose centered divergence is exactly zero is its own projection and
comes back as an unchanged copy on either kind of grid.
"""

from __future__ import annotations

import numpy as np

from .basis import SolenoidalBasis
from .errors import NumericalError
from .fields import divergence_matrix, gradient_matrix, wide_laplacian_matrix
from .grid import Grid

_DENSE_LIMIT = 4100  # cells; wall-grid pseudo-inverse guard


def _wall_pinv(grid: Grid) -> np.ndarray:
    """Cached pseudo-inverse of the composed div grad operator of a wall grid."""
    if "poisson_pinv" not in grid._cache:
        if grid.ncells > _DENSE_LIMIT:
            raise NumericalError(
                "wall-grid pressure Poisson uses a dense factorization; "
                f"grid has {grid.ncells} cells (limit {_DENSE_LIMIT})"
            )
        grid._cache["poisson_pinv"] = np.linalg.pinv(
            wide_laplacian_matrix(grid).toarray(), rcond=1e-10
        )
    return grid._cache["poisson_pinv"]


def helmholtz_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Project a (2, nx, ny) field onto the discretely divergence-free
    subspace; returns a new array of the same shape.

    Gradient fields map to zero, fields with exactly zero divergence are
    returned bit for bit, and the projector is idempotent.
    """
    flat = v.reshape(-1)
    div_v = divergence_matrix(grid) @ flat
    if not div_v.any():
        return v.copy()
    if grid.fully_periodic:
        return SolenoidalBasis.for_grid(grid).leray(v)
    q = _wall_pinv(grid) @ div_v
    q = q - q.mean()
    return (flat - gradient_matrix(grid) @ q).reshape(v.shape)
