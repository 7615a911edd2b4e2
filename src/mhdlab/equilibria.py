"""Manufactured steady states.

Equilibria are chosen analytically divergence free, boundary conditions are
applied on wall grids, and the result is Helmholtz-projected to make the
discrete divergence vanish to roundoff.  On the torus that projection is the
solenoidal basis's Leray projection, so no pressure Poisson problem is set up
there.  A field whose discrete divergence is already exactly zero (``zero``,
``shear``, a uniform field) comes back bit for bit.  The body
forcings that make such a pair steady are the residuals of the steady
momentum/induction balance, so no nonlinear solve is involved; no stage reads
them, and the tests compute them with the ``forcings`` oracle.  Both fields
are real (2, nx, ny) arrays.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EquilibriumError, ShapeError
from .fields import BcTag, apply_bc, divergence_matrix, dx_matrix, dy_matrix
from .grid import Grid
from .projection import helmholtz_project

_DIV_TOL = 1e-10
_BC_TOL = 1e-8


@dataclass
class Equilibrium:
    grid: Grid
    y_e: np.ndarray  # (2, nx, ny)
    B_e: np.ndarray  # (2, nx, ny)
    nu: float
    eta: float
    grad_bound: float = 0.0
    kind: str = "custom"


def _partials(grid: Grid, v: np.ndarray) -> list[np.ndarray]:
    """Centered d/dx and d/dy of u1, then of u2."""
    Dx, Dy = dx_matrix(grid), dy_matrix(grid)
    return [(m @ u.ravel()).reshape(grid.shape) for u in v for m in (Dx, Dy)]


def _grad_mag(grid: Grid, v: np.ndarray) -> np.ndarray:
    return np.sqrt(sum(np.abs(d) ** 2 for d in _partials(grid, v)))


def _magnitude(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)


def config_number(val, name: str) -> float:
    """val as a float; only a finite real number that is not a bool is taken."""
    finite = isinstance(val, numbers.Real) and abs(val) <= sys.float_info.max
    if isinstance(val, bool) or not finite:
        raise ConfigurationError(f"{name} must be a finite number, got {val!r}")
    return float(val)


def config_int(val, name: str) -> int:
    """val as an int; only an integral config_number is taken."""
    if not config_number(val, name).is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {val!r}")
    return int(val)


# the params each kind reads; any other is a ConfigurationError
_PARAMS = {
    "zero": (),
    "shear": ("amplitude", "mode"),
    "taylor_vortex": ("amplitude", "mode_x", "mode_y"),
    "custom": ("y_e", "B_e"),
}


def _param(params: dict, name: str, read=config_number):
    """params[name], default 1, read strictly."""
    return read(params.get(name, 1), f"equilibrium param {name!r}")


def make_equilibrium(
    kind: str,
    grid: Grid,
    params: dict | None = None,
    nu: float = 1.0,
    eta: float = 1.0,
) -> Equilibrium:
    """Build one of the stock equilibria (zero, shear, taylor_vortex, custom)."""
    params = dict(params or {})
    if kind not in _PARAMS:
        raise ConfigurationError(f"unknown equilibrium kind {kind!r}")
    for name in params:
        if name not in _PARAMS[kind]:
            raise ConfigurationError(f"{kind} equilibria take no param {name!r}")
    if nu <= 0 or eta <= 0:
        raise ConfigurationError("viscosity and resistivity must be positive")
    X, Y = grid.meshgrid()
    ye, Be = np.zeros((2,) + grid.shape), np.zeros((2,) + grid.shape)

    if kind == "shear":
        amp = _param(params, "amplitude")
        q = _param(params, "mode", config_int)
        ye[0] = amp * np.sin(2 * np.pi * q * Y / grid.Ly)
    elif kind == "taylor_vortex":
        amp = _param(params, "amplitude")
        p = _param(params, "mode_x", config_int)
        q = _param(params, "mode_y", config_int)
        a, b = 2 * np.pi * p / grid.Lx, 2 * np.pi * q / grid.Ly
        ye[0] = amp * np.sin(a * X) * np.cos(b * Y)
        ye[1] = -amp * (a / b) * np.cos(a * X) * np.sin(b * Y)
    elif kind == "custom":
        for name, v in (("y_e", ye), ("B_e", Be)):
            val = params.get(name)
            if val is None:
                continue
            u1, u2 = val(X, Y) if callable(val) else val
            u1, u2 = np.asarray(u1, float), np.asarray(u2, float)
            if u1.shape != grid.shape or u2.shape != grid.shape:
                raise ShapeError(f"{name} component shape does not match grid")
            v[0], v[1] = u1, u2

    if not grid.fully_periodic:
        ye = apply_bc(grid, ye, BcTag.velocity_dirichlet)
        Be = apply_bc(grid, Be, BcTag.magnetic_tangential)
    scale = max(_magnitude(ye).max(), _magnitude(Be).max(), 1.0)
    ye = helmholtz_project(grid, ye)
    Be = helmholtz_project(grid, Be)
    if not grid.fully_periodic:
        ring = grid.boundary_mask()
        bc_err = max(
            np.abs(ye[0][ring]).max(initial=0.0), np.abs(ye[1][ring]).max(initial=0.0)
        )
        if bc_err > _BC_TOL * scale:
            raise EquilibriumError(
                f"projection broke the velocity boundary condition ({bc_err:.2e})"
            )
        bn_err = 0.0
        if grid.bc_x == "wall":
            bn_err = max(np.abs(Be[0, 0, :]).max(), np.abs(Be[0, -1, :]).max())
        if grid.bc_y == "wall":
            bn_err = max(bn_err, np.abs(Be[1, :, 0]).max(), np.abs(Be[1, :, -1]).max())
        if bn_err > _BC_TOL * scale:
            raise EquilibriumError(
                f"projection broke the magnetic normal-trace condition ({bn_err:.2e})"
            )
    D = divergence_matrix(grid)
    div_err = max(np.abs(D @ ye.reshape(-1)).max(), np.abs(D @ Be.reshape(-1)).max())
    if div_err > _DIV_TOL * scale:
        raise EquilibriumError(f"equilibrium not discretely divergence free ({div_err:.2e})")

    grad_bound = float((_grad_mag(grid, ye) + _grad_mag(grid, Be)).max())
    return Equilibrium(grid, ye, Be, nu, eta, grad_bound, kind)
