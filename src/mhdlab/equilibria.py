"""Manufactured steady states on the torus.

Equilibria are chosen analytically divergence free and projected with the
solenoidal basis's Leray projection (``helmholtz_project``), which makes the
discrete divergence vanish to roundoff without a pressure Poisson problem.
A field whose discrete divergence is already exactly zero (``zero``,
``shear``, a uniform field) comes back bit for bit.  Wall grids carry only
the Carleman stage, which never reads an equilibrium, so none is built
there.  The body forcings that make such a pair steady are the residuals of
the steady momentum/induction balance, so no nonlinear solve is involved; no
stage reads them, and the tests compute them with the ``forcings`` oracle.
Both fields are real (2, nx, ny) arrays.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EquilibriumError, ShapeError
from .fields import divergence_matrix, dx_matrix, dy_matrix
from .grid import Grid
from .projection import helmholtz_project

_DIV_TOL = 1e-10


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


# the params each kind reads, each with the reader of its value; any other
# param is a ConfigurationError.  The custom fields are taken as given.
_PARAMS = {
    "zero": {},
    "shear": {"amplitude": config_number, "mode": config_int},
    "taylor_vortex": {"amplitude": config_number, "mode_x": config_int, "mode_y": config_int},
    "custom": {"y_e": None, "B_e": None},
}
# the kinds a config names; custom fields are given through the API only
STOCK_KINDS = tuple(k for k in _PARAMS if k != "custom")


def read_params(
    kind: str, params: dict | None = None, nu: float = 1.0, eta: float = 1.0
) -> dict:
    """The params of one kind as ``make_equilibrium`` reads them, each
    numeric one read strictly with default 1; builds no field.

    Raises ConfigurationError on an unknown kind or param, a value of the
    wrong kind, or a viscosity or resistivity that is not positive.
    """
    params = dict(params or {})
    if kind not in _PARAMS:
        raise ConfigurationError(f"unknown equilibrium kind {kind!r}")
    for name in params:
        if name not in _PARAMS[kind]:
            raise ConfigurationError(f"{kind} equilibria take no param {name!r}")
    if nu <= 0 or eta <= 0:
        raise ConfigurationError(
            f"viscosity nu and resistivity eta must be positive, got {nu} and {eta}"
        )
    if kind == "custom":
        return params
    return {
        name: read(params.get(name, 1), f"equilibrium param {name!r}")
        for name, read in _PARAMS[kind].items()
    }


def make_equilibrium(
    kind: str,
    grid: Grid,
    params: dict | None = None,
    nu: float = 1.0,
    eta: float = 1.0,
) -> Equilibrium:
    """Build one of the stock equilibria (zero, shear, taylor_vortex, custom)
    on a fully periodic grid."""
    p = read_params(kind, params, nu, eta)
    if not grid.fully_periodic:
        raise ConfigurationError(
            "equilibria are built on fully periodic grids only: "
            "a grid with walls carries the Carleman stage alone"
        )
    X, Y = grid.meshgrid()
    ye, Be = np.zeros((2,) + grid.shape), np.zeros((2,) + grid.shape)

    if kind == "shear":
        ye[0] = p["amplitude"] * np.sin(2 * np.pi * p["mode"] * Y / grid.Ly)
    elif kind == "taylor_vortex":
        amp = p["amplitude"]
        a, b = 2 * np.pi * p["mode_x"] / grid.Lx, 2 * np.pi * p["mode_y"] / grid.Ly
        ye[0] = amp * np.sin(a * X) * np.cos(b * Y)
        ye[1] = -amp * (a / b) * np.cos(a * X) * np.sin(b * Y)
    elif kind == "custom":
        for name, v in (("y_e", ye), ("B_e", Be)):
            val = p.get(name)
            if val is None:
                continue
            u1, u2 = val(X, Y) if callable(val) else val
            u1, u2 = np.asarray(u1, float), np.asarray(u2, float)
            if u1.shape != grid.shape or u2.shape != grid.shape:
                raise ShapeError(f"{name} component shape does not match grid")
            v[0], v[1] = u1, u2

    scale = max(_magnitude(ye).max(), _magnitude(Be).max(), 1.0)
    ye = helmholtz_project(grid, ye)
    Be = helmholtz_project(grid, Be)
    D = divergence_matrix(grid)
    div_err = max(np.abs(D @ ye.reshape(-1)).max(), np.abs(D @ Be.reshape(-1)).max())
    if div_err > _DIV_TOL * scale:
        raise EquilibriumError(f"equilibrium not discretely divergence free ({div_err:.2e})")

    grad_bound = float((_grad_mag(grid, ye) + _grad_mag(grid, Be)).max())
    return Equilibrium(grid, ye, Be, nu, eta, grad_bound, kind)
