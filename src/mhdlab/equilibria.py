"""Manufactured steady states and their residual forcings.

Equilibria are chosen analytically divergence free, boundary conditions are
applied on wall grids, the result is Helmholtz-projected to make the discrete
divergence exactly zero, and the body forcings are then DEFINED as the
residuals of the steady momentum/induction balance.  The triple therefore
satisfies the steady system exactly by construction; no nonlinear solve is
involved.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EquilibriumError
from .fields import (
    BcTag,
    VectorField2,
    apply_bc,
    divergence,
    dx_matrix,
    dy_matrix,
    laplacian,
)
from .grid import Grid
from .projection import helmholtz_project

_DIV_TOL = 1e-10
_BC_TOL = 1e-8


@dataclass
class Equilibrium:
    grid: Grid
    y_e: VectorField2
    B_e: VectorField2
    nu: float
    eta: float
    f: VectorField2 = field(repr=False, default=None)
    g: VectorField2 = field(repr=False, default=None)
    grad_bound: float = 0.0
    kind: str = "custom"


def _partials(v: VectorField2) -> list[np.ndarray]:
    """Centered d/dx and d/dy of u1, then of u2."""
    g = v.grid
    Dx, Dy = dx_matrix(g), dy_matrix(g)
    return [(m @ u.ravel()).reshape(g.shape) for u in (v.u1, v.u2) for m in (Dx, Dy)]


def _advect(e: VectorField2, v: VectorField2) -> VectorField2:
    """(e . grad) v with centered first derivatives."""
    u1x, u1y, u2x, u2y = _partials(v)
    return VectorField2(v.grid, e.u1 * u1x + e.u2 * u1y, e.u1 * u2x + e.u2 * u2y)


def _grad_mag(v: VectorField2) -> np.ndarray:
    return np.sqrt(sum(np.abs(d) ** 2 for d in _partials(v)))


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
    zeros = np.zeros(grid.shape)

    if kind == "zero":
        ye = VectorField2(grid, zeros.copy(), zeros.copy())
        Be = VectorField2(grid, zeros.copy(), zeros.copy())
    elif kind == "shear":
        amp = _param(params, "amplitude")
        q = _param(params, "mode", config_int)
        ye = VectorField2(grid, amp * np.sin(2 * np.pi * q * Y / grid.Ly), zeros.copy())
        Be = VectorField2(grid, zeros.copy(), zeros.copy())
    elif kind == "taylor_vortex":
        amp = _param(params, "amplitude")
        p = _param(params, "mode_x", config_int)
        q = _param(params, "mode_y", config_int)
        a, b = 2 * np.pi * p / grid.Lx, 2 * np.pi * q / grid.Ly
        ye = VectorField2(
            grid,
            amp * np.sin(a * X) * np.cos(b * Y),
            -amp * (a / b) * np.cos(a * X) * np.sin(b * Y),
        )
        Be = VectorField2(grid, zeros.copy(), zeros.copy())
    else:  # custom
        def pick(name):
            val = params.get(name)
            if val is None:
                return VectorField2(grid, zeros.copy(), zeros.copy())
            u1, u2 = val(X, Y) if callable(val) else val
            return VectorField2(grid, np.asarray(u1, float), np.asarray(u2, float))
        ye = pick("y_e")
        Be = pick("B_e")

    if not grid.fully_periodic:
        ye = apply_bc(ye, BcTag.velocity_dirichlet)
        Be = apply_bc(Be, BcTag.magnetic_tangential)
    scale = max(ye.magnitude().max(), Be.magnitude().max(), 1.0)
    if ye.norm() > 0:
        ye = helmholtz_project(ye)
    if Be.norm() > 0:
        Be = helmholtz_project(Be)
    if not grid.fully_periodic:
        ring = grid.boundary_mask()
        bc_err = max(
            np.abs(ye.u1[ring]).max(initial=0.0), np.abs(ye.u2[ring]).max(initial=0.0)
        )
        if bc_err > _BC_TOL * scale:
            raise EquilibriumError(
                f"projection broke the velocity boundary condition ({bc_err:.2e})"
            )
        bn_err = 0.0
        if grid.bc_x == "wall":
            bn_err = max(np.abs(Be.u1[0, :]).max(), np.abs(Be.u1[-1, :]).max())
        if grid.bc_y == "wall":
            bn_err = max(bn_err, np.abs(Be.u2[:, 0]).max(), np.abs(Be.u2[:, -1]).max())
        if bn_err > _BC_TOL * scale:
            raise EquilibriumError(
                f"projection broke the magnetic normal-trace condition ({bn_err:.2e})"
            )
    div_err = max(
        np.abs(divergence(ye).values).max(), np.abs(divergence(Be).values).max()
    )
    if div_err > _DIV_TOL * scale:
        raise EquilibriumError(f"equilibrium not discretely divergence free ({div_err:.2e})")

    ye.bc_tag, Be.bc_tag = BcTag.velocity_dirichlet, BcTag.magnetic_tangential

    # forcings = residuals of the steady balance (zero equilibrium pressure gauge)
    lap_y = laplacian(ye)
    lap_B = laplacian(Be)
    adv_yy = _advect(ye, ye)
    adv_BB = _advect(Be, Be)
    adv_yB = _advect(ye, Be)
    adv_By = _advect(Be, ye)
    f = VectorField2(
        grid,
        -nu * lap_y.u1 + adv_yy.u1 - adv_BB.u1,
        -nu * lap_y.u2 + adv_yy.u2 - adv_BB.u2,
    )
    gforce = VectorField2(
        grid,
        -eta * lap_B.u1 + adv_yB.u1 - adv_By.u1,
        -eta * lap_B.u2 + adv_yB.u2 - adv_By.u2,
    )
    grad_bound = float((_grad_mag(ye) + _grad_mag(Be)).max())
    return Equilibrium(grid, ye, Be, nu, eta, f, gforce, grad_bound, kind)
