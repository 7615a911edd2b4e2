"""Discrete scalar/vector fields and second-order differential operators.

All stencils are second-order centered with periodic wrap or one-sided
closures at wall rings.  A fourth-order variant of the Laplacian is available
on fully periodic grids for consumers that need extra eigenvalue accuracy;
the default everywhere is order 2.

Flattening convention: C-order raveling of (nx, ny) arrays; a vector field
stacks [u1; u2], a state stacks [phi; xi].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ShapeError
from .grid import BcKind, Grid


class BcTag(str, Enum):
    velocity_dirichlet = "velocity_dirichlet"
    magnetic_tangential = "magnetic_tangential"


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"scalar field shape {self.values.shape} != grid {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area))


@dataclass
class VectorField2:
    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    bc_tag: BcTag | None = None

    def __post_init__(self):
        self.u1 = np.asarray(self.u1)
        self.u2 = np.asarray(self.u2)
        if self.u1.shape != self.grid.shape or self.u2.shape != self.grid.shape:
            raise ShapeError("vector component shape does not match grid")

    def ravel(self) -> np.ndarray:
        return np.concatenate([self.u1.ravel(), self.u2.ravel()])

    @classmethod
    def from_flat(cls, grid: Grid, flat: np.ndarray, bc_tag: BcTag | None = None):
        n = grid.ncells
        return cls(grid, flat[:n].reshape(grid.shape), flat[n:].reshape(grid.shape), bc_tag)

    @classmethod
    def zeros(cls, grid: Grid, dtype=float, bc_tag: BcTag | None = None):
        return cls(grid, np.zeros(grid.shape, dtype), np.zeros(grid.shape, dtype), bc_tag)

    def norm(self) -> float:
        s = np.sum(np.abs(self.u1) ** 2) + np.sum(np.abs(self.u2) ** 2)
        return float(np.sqrt(s * self.grid.cell_area))

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.abs(self.u1) ** 2 + np.abs(self.u2) ** 2)


@dataclass
class StateVector:
    phi: VectorField2
    xi: VectorField2

    def __post_init__(self):
        if not self.phi.grid.same_as(self.xi.grid):
            raise ShapeError("state components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @classmethod
    def zeros(cls, grid: Grid, dtype=float):
        return cls(VectorField2.zeros(grid, dtype), VectorField2.zeros(grid, dtype))

    def norm(self) -> float:
        return float(np.sqrt(self.phi.norm() ** 2 + self.xi.norm() ** 2))


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


def _axis_ops(grid: Grid, order: int = 2):
    key = ("ops", order)
    if key not in grid._cache:
        d1x = (_d1_periodic if grid.bc_x is BcKind.periodic else _d1_wall)(grid.nx, grid.hx)
        d1y = (_d1_periodic if grid.bc_y is BcKind.periodic else _d1_wall)(grid.ny, grid.hy)
        d2x = (
            _d2_periodic(grid.nx, grid.hx, order)
            if grid.bc_x is BcKind.periodic
            else _d2_wall(grid.nx, grid.hx, order)
        )
        d2y = (
            _d2_periodic(grid.ny, grid.hy, order)
            if grid.bc_y is BcKind.periodic
            else _d2_wall(grid.ny, grid.hy, order)
        )
        ix, iy = sp.identity(grid.nx, format="csr"), sp.identity(grid.ny, format="csr")
        grid._cache[key] = {
            "Dx": sp.kron(d1x, iy, format="csr"),
            "Dy": sp.kron(ix, d1y, format="csr"),
            "Lap": sp.kron(d2x, iy, format="csr") + sp.kron(ix, d2y, format="csr"),
        }
    return grid._cache[key]


def dx_matrix(grid: Grid) -> sp.csr_matrix:
    return _axis_ops(grid)["Dx"]


def dy_matrix(grid: Grid) -> sp.csr_matrix:
    return _axis_ops(grid)["Dy"]


def laplacian_matrix(grid: Grid, order: int = 2) -> sp.csr_matrix:
    return _axis_ops(grid, order)["Lap"]


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps stacked [u1; u2] to the scalar divergence."""
    return sp.hstack([dx_matrix(grid), dy_matrix(grid)], format="csr")


def gradient_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps a scalar to the stacked gradient [d/dx; d/dy]."""
    return sp.vstack([dx_matrix(grid), dy_matrix(grid)], format="csr")


def wide_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Composition div(grad(.)), the Laplacian seen by the pressure space."""
    key = "wide_lap"
    if key not in grid._cache:
        grid._cache[key] = (divergence_matrix(grid) @ gradient_matrix(grid)).tocsr()
    return grid._cache[key]


def vector_laplacian_matrix(grid: Grid, order: int = 2) -> sp.csr_matrix:
    lap = laplacian_matrix(grid, order)
    return sp.block_diag([lap, lap], format="csr")


# ---------------------------------------------------------------------------
# Field-level operators
# ---------------------------------------------------------------------------

def _apply(grid: Grid, mat: sp.csr_matrix, arr: np.ndarray) -> np.ndarray:
    return (mat @ arr.ravel()).reshape(grid.shape)


def divergence(v: VectorField2) -> ScalarField:
    g = v.grid
    out = _apply(g, dx_matrix(g), v.u1) + _apply(g, dy_matrix(g), v.u2)
    return ScalarField(g, out)


def laplacian(f: ScalarField | VectorField2, order: int = 2):
    g = f.grid
    lap = laplacian_matrix(g, order)
    if isinstance(f, ScalarField):
        return ScalarField(g, _apply(g, lap, f.values))
    return VectorField2(g, _apply(g, lap, f.u1), _apply(g, lap, f.u2))


def apply_bc(v: VectorField2, tag: BcTag | str) -> VectorField2:
    """Enforce the tagged boundary condition on the wall cell ring.

    velocity_dirichlet zeroes both components.  magnetic_tangential zeroes
    the normal component and adjusts the tangential ring values so the
    one-sided scalar curl vanishes on the ring (the in-plane reduction of
    a vanishing tangential curl).  Fully periodic grids are returned as-is.
    """
    try:
        tag = BcTag(tag)
    except ValueError as exc:
        raise ConfigurationError(f"unknown boundary tag {tag!r}") from exc
    g = v.grid
    if g.fully_periodic:
        return VectorField2(g, v.u1.copy(), v.u2.copy(), tag)
    u1, u2 = v.u1.astype(np.result_type(v.u1, float)).copy(), v.u2.astype(
        np.result_type(v.u2, float)
    ).copy()
    if tag is BcTag.velocity_dirichlet:
        ring = g.boundary_mask()
        u1[ring] = 0.0
        u2[ring] = 0.0
        return VectorField2(g, u1, u2, tag)

    # magnetic_tangential: xi . n = 0 and scalar curl = 0 on the ring
    for _ in range(2):  # second sweep closes corner coupling on box domains
        if g.bc_x is BcKind.wall:
            u1[0, :] = 0.0
            u1[-1, :] = 0.0
            dyu1 = _apply(g, dy_matrix(g), u1)
            u2[0, :] = (4 * u2[1, :] - u2[2, :] - 2 * g.hx * dyu1[0, :]) / 3.0
            u2[-1, :] = (4 * u2[-2, :] - u2[-3, :] + 2 * g.hx * dyu1[-1, :]) / 3.0
        if g.bc_y is BcKind.wall:
            u2[:, 0] = 0.0
            u2[:, -1] = 0.0
            dxu2 = _apply(g, dx_matrix(g), u2)
            u1[:, 0] = (4 * u1[:, 1] - u1[:, 2] - 2 * g.hy * dxu2[:, 0]) / 3.0
            u1[:, -1] = (4 * u1[:, -2] - u1[:, -3] + 2 * g.hy * dxu2[:, -1]) / 3.0
    return VectorField2(g, u1, u2, tag)


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def inner(a, b) -> complex:
    """Grid L2 inner product, conjugate-linear in the first argument."""
    av, bv = a.ravel(), b.ravel()
    if av.shape != bv.shape:
        raise ShapeError("inner product of mismatched fields")
    g = a.grid if hasattr(a, "grid") else b.grid
    return complex(np.vdot(av, bv) * g.cell_area)


def restrict(v: VectorField2, region: np.ndarray) -> VectorField2:
    """Zero the field outside a cell mask (indicator multiplication)."""
    m = region.astype(v.u1.dtype if np.iscomplexobj(v.u1) else float)
    return VectorField2(v.grid, v.u1 * m, v.u2 * m, v.bc_tag)

