"""Uniform 2-D tensor grids on a rectangle [0,Lx] x [0,Ly].

Periodic directions carry points x_i = i*h (no boundary cells, wrap-around
stencils).  Wall directions carry cell centers x_i = (i+1/2)*h with the walls
on the faces x=0 and x=L; the outermost cell ring plays the role of the
discrete boundary for boundary conditions and one-sided stencil closures.
Both conventions keep h = L/n exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError

MIN_CELLS = 8


class BcKind(str, Enum):
    periodic = "periodic"
    wall = "wall"


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    Lx: float
    Ly: float
    bc_x: BcKind
    bc_y: BcKind
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def fully_periodic(self) -> bool:
        return self.bc_x is BcKind.periodic and self.bc_y is BcKind.periodic

    @property
    def x(self) -> np.ndarray:
        if self.bc_x is BcKind.periodic:
            return np.arange(self.nx) * self.hx
        return (np.arange(self.nx) + 0.5) * self.hx

    @property
    def y(self) -> np.ndarray:
        if self.bc_y is BcKind.periodic:
            return np.arange(self.ny) * self.hy
        return (np.arange(self.ny) + 0.5) * self.hy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    def boundary_mask(self) -> np.ndarray:
        """Cells forming the discrete boundary ring (wall directions only)."""
        mask = np.zeros(self.shape, dtype=bool)
        if self.bc_x is BcKind.wall:
            mask[0, :] = True
            mask[-1, :] = True
        if self.bc_y is BcKind.wall:
            mask[:, 0] = True
            mask[:, -1] = True
        return mask


def build_grid(
    Lx: float,
    Ly: float,
    nx: int,
    ny: int,
    bc_x: BcKind | str = BcKind.periodic,
    bc_y: BcKind | str = BcKind.periodic,
) -> Grid:
    if Lx <= 0 or Ly <= 0:
        raise ConfigurationError(f"domain extents must be positive, got {Lx} x {Ly}")
    if nx < MIN_CELLS or ny < MIN_CELLS:
        raise ConfigurationError(
            f"cell counts must be >= {MIN_CELLS}, got {nx} x {ny}"
        )
    return Grid(int(nx), int(ny), float(Lx), float(Ly), BcKind(bc_x), BcKind(bc_y))
