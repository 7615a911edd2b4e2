"""Second-order differential operators on grid fields, as sparse matrices.

A field is a plain real or complex array, (nx, ny) for a scalar and
(2, nx, ny) for a vector field [u1, u2]; the package keeps no field
container.  All stencils are second-order centered with periodic wrap or
one-sided closures at wall rings.  A fourth-order variant of the Laplacian
is available on fully periodic grids for consumers that need extra
eigenvalue accuracy; the default everywhere is order 2.

Flattening convention: C-order raveling, so a vector field flattens to the
stacked [u1; u2] and a state to [phi; xi].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import BcKind, Grid


# ---------------------------------------------------------------------------
# 1-D stencil matrices (CSR), cached per grid
# ---------------------------------------------------------------------------

def _d1_periodic(n: int, h: float) -> sp.csr_matrix:
    e = np.ones(n) / (2 * h)
    m = sp.diags([e[:-1], -e[:-1]], [1, -1], shape=(n, n)).tolil()
    m[0, n - 1] = -1 / (2 * h)
    m[n - 1, 0] = 1 / (2 * h)
    return m.tocsr()


def _d1_wall(n: int, h: float) -> sp.csr_matrix:
    m = sp.diags(
        [np.full(n - 1, 1 / (2 * h)), np.full(n - 1, -1 / (2 * h))], [1, -1]
    ).tolil()
    m[0, :3] = np.array([-3, 4, -1]) / (2 * h)
    m[n - 1, n - 3:] = np.array([1, -4, 3]) / (2 * h)
    return m.tocsr()


def _d2_periodic(n: int, h: float, order: int) -> sp.csr_matrix:
    if order == 2:
        e = np.ones(n)
        m = sp.diags([e[:-1], -2 * e, e[:-1]], [1, 0, -1]).tolil()
        m[0, n - 1] = 1.0
        m[n - 1, 0] = 1.0
        return (m / h**2).tocsr()
    if order == 4:
        idx = np.arange(n)
        rows, cols, vals = [], [], []
        stencil = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}
        for off, c in stencil.items():
            rows.append(idx)
            cols.append((idx + off) % n)
            vals.append(np.full(n, c / (12 * h**2)))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
    raise ConfigurationError(f"unsupported stencil order {order}")


def _d2_wall(n: int, h: float, order: int) -> sp.csr_matrix:
    if order != 2:
        raise ConfigurationError("wall directions support order-2 stencils only")
    e = np.ones(n)
    m = sp.diags([e[:-1], -2 * e, e[:-1]], [1, 0, -1]).tolil()
    m[0, :4] = np.array([2, -5, 4, -1])
    m[n - 1, n - 4:] = np.array([-1, 4, -5, 2])
    return (m / h**2).tocsr()


def _first_derivatives(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Dx and Dy, built once per grid for every stencil order."""
    if "d1" not in grid._cache:
        d1x = (_d1_periodic if grid.bc_x is BcKind.periodic else _d1_wall)(grid.nx, grid.hx)
        d1y = (_d1_periodic if grid.bc_y is BcKind.periodic else _d1_wall)(grid.ny, grid.hy)
        grid._cache["d1"] = (
            sp.kron(d1x, sp.identity(grid.ny, format="csr"), format="csr"),
            sp.kron(sp.identity(grid.nx, format="csr"), d1y, format="csr"),
        )
    return grid._cache["d1"]


def dx_matrix(grid: Grid) -> sp.csr_matrix:
    return _first_derivatives(grid)[0]


def dy_matrix(grid: Grid) -> sp.csr_matrix:
    return _first_derivatives(grid)[1]


def laplacian_matrix(grid: Grid, order: int = 2) -> sp.csr_matrix:
    key = ("lap", order)
    if key not in grid._cache:
        d2x = (_d2_periodic if grid.bc_x is BcKind.periodic else _d2_wall)(grid.nx, grid.hx, order)
        d2y = (_d2_periodic if grid.bc_y is BcKind.periodic else _d2_wall)(grid.ny, grid.hy, order)
        ix, iy = sp.identity(grid.nx, format="csr"), sp.identity(grid.ny, format="csr")
        grid._cache[key] = sp.kron(d2x, iy, format="csr") + sp.kron(ix, d2y, format="csr")
    return grid._cache[key]


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps stacked [u1; u2] to the scalar divergence."""
    if "div" not in grid._cache:
        grid._cache["div"] = sp.hstack([dx_matrix(grid), dy_matrix(grid)], format="csr")
    return grid._cache["div"]


def vector_laplacian_matrix(grid: Grid, order: int = 2) -> sp.csr_matrix:
    lap = laplacian_matrix(grid, order)
    return sp.block_diag([lap, lap], format="csr")

