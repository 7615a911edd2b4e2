"""Numerical verification of the weighted-estimate machinery.

Two checks live here:

* coefficient formulas of the pointwise estimate (exact arithmetic in the
  inputs);
* the integrated inequality over the working band G for fields with zero
  Cauchy data on its boundary, with an empirically located threshold tau0
  and an optional calibrated tau^2 correction bound.  ``sweep`` draws the
  seeded test fields and checks them at every tau in one call, and returns
  a ``Sweep`` of (tau, field) arrays.

The cutoff-system residual and the tau-sweep bounds are test oracles, in
the tests' ``oracles`` module.

All weighted quadratures share the normalization exp(2*tau*(psi - max psi))
over the band G, evaluated on the cells of G only: the inequalities are
invariant under constant shifts of psi, and the normalization keeps every
exponential at most 1.  Far enough above the tau range the grid resolves, a
field's weighted integrals underflow; the check then raises
``NumericalError`` naming tau rather than pass on zeros.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import CauchyDataError, ConfigurationError, NumericalError
from .fields import dx_matrix, dy_matrix, laplacian_matrix
from .geometry import RegionSet, WeightField
from .grid import Grid

PASS_SLACK = 1e-8
CAUCHY_TOL = 1e-10
# Test fields are drawn and checked in stacks of at most about this many
# grid cells (fields x components x cells), so the memory of a sweep does
# not grow with the number of fields.
_BLOCK_CELLS = 1 << 14
# Seeded test fields: cosine modes per component, their largest wavenumber,
# and the cells next to dG on which a field and its gradient vanish.
_FIELD_MODES = 6
_FIELD_KMAX = 4
_MARGIN_CELLS = 2.5


@dataclass
class CarlemanParams:
    tau: float
    delta0: float = 0.5
    epsilon: float = 0.5
    rho: float = 1.0
    kgrad: float = 1.0
    tau2_bound: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.delta0 < 1.0):
            raise ConfigurationError("delta0 must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        if self.tau <= 0.0:
            raise ConfigurationError("tau must be positive")
        if self.tau2_bound < 0.0:
            raise ConfigurationError("tau2_bound must be >= 0")

    @classmethod
    def for_weight(cls, tau: float, weight: WeightField, delta0=0.5, epsilon=0.5, tau2_bound=0.0):
        return cls(tau, delta0, epsilon, weight.rho, weight.kgrad, tau2_bound)


class Coefficients(NamedTuple):
    c_grad: float
    c_zero: float
    c_rhs: float


def coefficients(p: CarlemanParams) -> Coefficients:
    """Pointwise-estimate coefficients; c_grad <= 0 signals tau too small.

    c_grad = delta0*(2*rho*tau - eps/2), c_zero = 4*rho*k^2*tau^3*(1-delta0)
    (leading order; the tau^2 correction is carried separately as a bound),
    c_rhs = 1 + 1/eps.
    """
    c_grad = p.delta0 * (2.0 * p.rho * p.tau - p.epsilon / 2.0)
    c_zero = 4.0 * p.rho * p.kgrad**2 * p.tau**3 * (1.0 - p.delta0)
    c_rhs = 1.0 + 1.0 / p.epsilon
    return Coefficients(c_grad, c_zero, c_rhs)


class Sweep(NamedTuple):
    """The weighted inequality per (tau, field): each entry is an
    (n_tau, n_fields) array, row i for params_seq[i].  The lhs terms carry
    their coefficients, the integrals over G do not; ``margin`` is rhs_main
    minus both lhs terms."""

    lhs_grad: np.ndarray
    lhs_zero: np.ndarray
    rhs_main: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    integral_grad: np.ndarray
    integral_zero: np.ndarray
    integral_rhs: np.ndarray


def _boundary_rings(region: np.ndarray) -> np.ndarray:
    """Cells of the region adjacent to its complement plus the outside ring."""
    inner = region & ~_erode(region)
    outer = _dilate(region) & ~region
    return inner | outer


def _erode(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        out &= np.roll(m, shift, axis=ax)
    return out


def _dilate(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        out |= np.roll(m, shift, axis=ax)
    return out


def _band_weight(psi: WeightField, G: np.ndarray, tau: float) -> np.ndarray:
    """The normalized weight at tau on the cells of G; built once per
    (G, tau) and kept on psi."""
    key = (G.tobytes(), tau)
    if key not in psi._cache:
        on_G = psi.psi[G]
        psi._cache[key] = np.exp(2.0 * tau * (on_G - float(on_G.max())))
    return psi._cache[key]


def _band_rings(psi: WeightField, G: np.ndarray) -> np.ndarray:
    """The boundary rings of G as a flat cell mask; built once per G and
    kept on psi."""
    key = ("rings", G.tobytes())
    if key not in psi._cache:
        psi._cache[key] = _boundary_rings(G).ravel()
    return psi._cache[key]


def _stencils(grid: Grid) -> sp.csr_matrix:
    """[Dx; Dy; Lap] stacked by rows, cached on the grid.  A product with
    fields as columns gives all their gradients and Laplacians at once, and
    every row keeps its entries in order, so each column is the product
    with that field alone."""
    key = "carleman_stencils"
    if key not in grid._cache:
        grid._cache[key] = sp.vstack(
            [dx_matrix(grid), dy_matrix(grid), laplacian_matrix(grid)], format="csr"
        )
    return grid._cache[key]


def _density(v: np.ndarray) -> np.ndarray:
    """Pointwise |f|^2, summed over the component axis 1."""
    return (np.abs(v) ** 2).sum(axis=1)


def _check_cauchy(mag: np.ndarray, gmag: np.ndarray, ring: np.ndarray) -> None:
    """Raise unless each field's magnitude ``mag`` and gradient magnitude
    ``gmag`` (cells x fields) vanish on the ring cells, relative to their
    maxima; the first failing field decides the message."""

    def on_ring(m):
        scale = np.maximum(m.max(axis=0), 1e-300)
        return m[ring].max(axis=0, initial=0.0) > CAUCHY_TOL * scale

    trace, normal = on_ring(mag), on_ring(gmag)
    failed = np.flatnonzero(trace | normal)
    if failed.size and trace[failed[0]]:
        raise CauchyDataError("field trace on the region boundary exceeds tolerance")
    if failed.size:
        raise CauchyDataError(
            "normal-derivative trace on the region boundary exceeds tolerance"
        )


def inequality_sweep_stack(
    fields: np.ndarray,
    psi: WeightField,
    params_seq: list[CarlemanParams],
) -> Sweep:
    """Weighted inequality over G for every field of a stack, each with zero
    Cauchy data on dG, at every entry of params_seq.  The stack is (field,
    component, x, y) on psi's grid, with one component for scalar fields and
    two (u1, u2) for vector fields.

    One sparse product gives the gradients and Laplacians of the whole
    stack, held as cells x components x fields.  The squared integrands on
    G become the C-contiguous rows of one array, and each tau reduces its
    weight against every row, so each sum runs over the same terms in the
    same order as for the field alone: the results do not depend on how
    the fields are stacked.

    Raises NumericalError naming tau when a field's integral of |grad w|^2,
    |w|^2 or |lap w|^2 over G is positive but its weighted integral at tau
    underflows below the smallest normal float: the inequality would then
    pass on zeros.
    """
    g = psi.regions.grid
    G = psi.regions.G
    n, ncomp = fields.shape[:2]
    cols = fields.reshape(n, ncomp, g.ncells).transpose(2, 1, 0)
    dx, dy, lap = (_stencils(g) @ cols.reshape(g.ncells, -1)).reshape(3, *cols.shape)
    grad2 = np.abs(dx) ** 2 + np.abs(dy) ** 2  # |grad w_c|^2 per component c
    mag = np.abs(cols[:, 0]) if ncomp == 1 else np.sqrt(_density(cols))
    _check_cauchy(mag, np.sqrt(grad2).max(axis=1), _band_rings(psi, G))
    # per field: |grad w_c|^2 for each c, |w|^2, |lap w|^2, on the cells of G
    on_G = G.ravel()
    rows = np.concatenate(
        [grad2[on_G], _density(cols[on_G])[:, None], _density(lap[on_G])[:, None]], axis=1
    )
    rows = np.ascontiguousarray(rows.transpose(2, 1, 0))
    prod = np.empty_like(rows)
    # the three integrals over G without the weight, per field
    U = rows.sum(axis=2)
    positive = np.stack([U[:, :ncomp].sum(axis=1), U[:, ncomp], U[:, ncomp + 1]]) > 0

    dA = g.cell_area
    per_tau = []
    for params in params_seq:
        tau = params.tau
        S = np.multiply(_band_weight(psi, G, tau), rows, out=prod).sum(axis=2) * dA
        I_grad, I_zero, I_rhs = S[:, :ncomp].sum(axis=1), S[:, ncomp], S[:, ncomp + 1]
        if (positive & (np.stack([I_grad, I_zero, I_rhs]) < np.finfo(float).tiny)).any():
            raise NumericalError(
                f"weighted integrals over G underflow at tau = {tau:g}; "
                "tau lies above the range this grid resolves",
                {"tau": tau},
            )
        c_grad, c_zero, c_rhs = coefficients(params)
        c_zero_eff = max(c_zero - params.tau2_bound * tau**2, 0.0)
        lhs_grad = c_grad * I_grad
        lhs_zero = c_zero_eff * I_zero
        rhs_main = c_rhs * I_rhs
        margin = rhs_main - (lhs_grad + lhs_zero)
        passed = margin >= -PASS_SLACK * np.maximum(rhs_main, 1e-300)
        per_tau.append((lhs_grad, lhs_zero, rhs_main, margin, passed, I_grad, I_zero, I_rhs))
    return Sweep(*(np.array(column) for column in zip(*per_tau)))


def sweep(
    psi: WeightField,
    rng: np.random.Generator,
    n_fields: int,
    params_seq: list[CarlemanParams],
    h_ref: float | None = None,
) -> Sweep:
    """The weighted inequality for n_fields seeded scalar
    ``draw_test_fields`` fields at every entry of params_seq: the stacks'
    sweeps joined along the field axis, in draw order."""
    stacks = [
        inequality_sweep_stack(fields, psi, params_seq)
        for fields in draw_test_fields(psi.regions, rng, n_fields, h_ref=h_ref)
    ]
    return Sweep(*(np.concatenate(column, axis=1) for column in zip(*stacks)))


# ---------------------------------------------------------------------------
# Seeded test fields
# ---------------------------------------------------------------------------

def _band_mollifier(regions: RegionSet, h_ref: float | None = None) -> np.ndarray:
    """C^2 bump over the band G, exactly zero within _MARGIN_CELLS cells of dG.

    h_ref sets the cell size the margin is measured in; the default (the
    larger spacing) is safe for isotropic nests, while strongly anisotropic
    collars can pass the band-normal spacing instead.
    """
    g = regions.grid
    h = h_ref if h_ref is not None else max(g.hx, g.hy)
    d = regions.dist_to_omega
    lo = _MARGIN_CELLS * h
    hi = regions.omega1_width + regions.omega_star_width - _MARGIN_CELLS * h
    if hi - lo <= 0:
        raise ConfigurationError(
            "band too thin for the requested Cauchy margin; widen the bands "
            "or pass a smaller h_ref"
        )
    t = (d - lo) / (hi - lo)
    prof = np.where((t > 0) & (t < 1), (np.clip(t, 0, 1) * (1 - np.clip(t, 0, 1))) ** 3, 0.0)
    prof *= 64.0  # unit peak
    prof[~regions.G] = 0.0
    return prof


def _cosine_sums(
    grid: Grid, rng: np.random.Generator, count: int, n_modes: int, kmax: int
) -> np.ndarray:
    """count random smooth fields, each a sum of n_modes cosine modes.

    The draws come sum by sum and, per mode, as integers (the wavevector),
    uniform (the phase), normal (the amplitude).  The cosines are then
    evaluated on the whole (count, nx, ny) stack, mode by mode; the x and y
    parts of each phase are formed on the axes and meet in one sum.
    """
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij", sparse=True)
    draws = np.array([
        (*rng.integers(-kmax, kmax + 1, size=2), rng.uniform(0, 2 * np.pi), rng.normal())
        for _ in range(count * n_modes)
    ]).reshape(count, n_modes, 4)
    f = np.zeros((count, *grid.shape))
    for kx, ky, phase, amp in draws.transpose(1, 2, 0)[..., None, None]:
        f += amp * np.cos(2 * np.pi * (kx * X / grid.Lx + ky * Y / grid.Ly) + phase)
    return f


def draw_test_fields(
    regions: RegionSet,
    rng: np.random.Generator,
    n_fields: int,
    kind: str = "scalar",
    h_ref: float | None = None,
) -> Iterator[np.ndarray]:
    """n_fields random smooth bumps compactly supported in G with zero
    Cauchy data, in (field, component, x, y) stacks of at most about
    _BLOCK_CELLS cells.  Each component is a sum of _FIELD_MODES cosines
    with wavenumbers up to _FIELD_KMAX, times the band mollifier.

    A vector field draws u1 before u2.  The fields, and the draws they take
    from rng, do not depend on the block size.
    """
    g = regions.grid
    moll = _band_mollifier(regions, h_ref)
    ncomp = 1 if kind == "scalar" else 2
    step = max(1, _BLOCK_CELLS // (ncomp * g.ncells))
    for lo in range(0, n_fields, step):
        n = min(step, n_fields - lo)
        f = _cosine_sums(g, rng, n * ncomp, _FIELD_MODES, _FIELD_KMAX)
        yield moll * f.reshape(n, ncomp, *g.shape)


def calibrate_tau2_bound(
    psi: WeightField,
    tau_list: list[float],
    delta0: float = 0.5,
    epsilon: float = 0.5,
    n_fields: int = 20,
    seed: int = 7,
) -> float:
    """Smallest c2 >= 0 such that the inequality holds on n_fields seeded
    ``draw_test_fields`` fields (cosine sums times the band mollifier) after
    weakening the zero-order coefficient by c2*tau^2."""
    params = [CarlemanParams.for_weight(tau, psi, delta0, epsilon) for tau in tau_list]
    s = sweep(psi, np.random.default_rng(seed), n_fields, params)
    tau2 = np.array([tau**2 for tau in tau_list])[:, None]
    short = (s.margin < 0) & (s.integral_zero > 0)
    need = (-s.margin[short] / (tau2 * s.integral_zero)[short]).max(initial=0.0)
    return 1.05 * float(need)


def find_tau0(taus: list[float], passed: np.ndarray) -> float | None:
    """Smallest tau from which every larger tau in the grid passes
    everywhere; ``passed`` is a Sweep's (tau, field) array, row i for
    taus[i]."""
    tau0 = None
    for tau, ok in sorted(zip(taus, passed.all(axis=1)), reverse=True):
        if not ok:
            break
        tau0 = tau
    return tau0
