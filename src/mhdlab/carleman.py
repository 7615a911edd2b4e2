"""Numerical verification of the weighted-estimate machinery.

Four independent checks live here:

* coefficient formulas of the pointwise estimate (exact arithmetic in the
  inputs);
* the integrated inequality over the working band G for fields with zero
  Cauchy data on its boundary, with an empirically located threshold tau0
  and an optional calibrated tau^2 correction bound;
* the cutoff-system residual: multiplying an eigen-solution by chi and
  moving the commutator forcings to the right-hand side must reproduce the
  bare eigen-residual exactly, in discrete algebra;
* the final two-sided band estimate and the tau-sweep bounds whose decay
  in tau forces the state to vanish on the inner band.

All weighted quadratures share the normalization exp(2*tau*(psi - max psi))
over the integration region; the inequalities are invariant under constant
shifts of psi and the normalization keeps every exponential in range.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import CauchyDataError, ConfigurationError
from .fields import (
    ScalarField,
    StateVector,
    VectorField2,
    dx_matrix,
    dy_matrix,
    gradient,
    laplacian,
    laplacian_matrix,
    weighted_norm2,
)
from .geometry import CutoffField, RegionSet, WeightField
from .grid import Grid
from .operators import MhdSystem, build_commutators

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


@dataclass
class EstimateReport:
    tau_used: float
    lhs_grad: float
    lhs_zero: float
    rhs_main: float
    margin: float
    passed: bool
    tau_too_small: bool
    tau2_bound: float
    weight_shift: float
    integral_grad: float = 0.0
    integral_zero: float = 0.0
    integral_rhs: float = 0.0


def _normalized_weight(psi: np.ndarray, tau: float, region: np.ndarray) -> tuple[np.ndarray, float]:
    shift = float(psi[region].max())
    return np.exp(2.0 * tau * (psi - shift)), shift


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


def _band_weight(psi: WeightField, G: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """The normalized weight at tau on the cells of G, and its shift; built
    once per (G, tau) and kept on psi."""
    key = (G.tobytes(), tau)
    if key not in psi._cache:
        Wn, shift = _normalized_weight(psi.psi, tau, G)
        psi._cache[key] = (Wn[G], shift)
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
) -> list[list[EstimateReport]]:
    """Weighted inequality over G for every field of a stack, each with zero
    Cauchy data on dG: one list per field, one report per entry of
    params_seq.  The stack is (field, component, x, y) on psi's grid, with
    one component for scalar fields and two (u1, u2) for vector fields.

    One sparse product gives the gradients and Laplacians of the whole
    stack, held as cells x components x fields.  The squared integrands on
    G become the C-contiguous rows of one array, and each tau reduces its
    weight against every row, so each sum runs over the same terms in the
    same order as for the field alone: the reports do not depend on how
    the fields are stacked.
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

    dA = g.cell_area
    reports = [[] for _ in range(n)]
    for params in params_seq:
        tau = params.tau
        Wg, shift = _band_weight(psi, G, tau)
        S = np.multiply(Wg, rows, out=prod).sum(axis=2) * dA
        I_grad, I_zero, I_rhs = S[:, :ncomp].sum(axis=1), S[:, ncomp], S[:, ncomp + 1]
        c_grad, c_zero, c_rhs = coefficients(params)
        c_zero_eff = max(c_zero - params.tau2_bound * tau**2, 0.0)
        lhs_grad = c_grad * I_grad
        lhs_zero = c_zero_eff * I_zero
        rhs_main = c_rhs * I_rhs
        margin = rhs_main - (lhs_grad + lhs_zero)
        passed = margin >= -PASS_SLACK * np.maximum(rhs_main, 1e-300)
        per_field = zip(
            lhs_grad.tolist(), lhs_zero.tolist(), rhs_main.tolist(), margin.tolist(),
            passed.tolist(), I_grad.tolist(), I_zero.tolist(), I_rhs.tolist(),
        )
        for field_reports, (lg, lz, rm, mg, ok, ig, iz, ir) in zip(reports, per_field):
            field_reports.append(EstimateReport(
                tau, lg, lz, rm, mg, ok, bool(c_grad <= 0), params.tau2_bound, shift,
                ig, iz, ir,
            ))
    return reports


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


def make_omega_vanishing_state(
    regions: RegionSet, rng: np.random.Generator
) -> tuple[StateVector, ScalarField]:
    """Synthetic (state, pressure) pair that is exactly zero on omega and
    within two cells of it."""
    g = regions.grid
    h = max(g.hx, g.hy)
    d = regions.dist_to_omega
    lo = 2.0 * h
    t = np.clip((d - lo) / (4 * h), 0.0, 1.0)
    rise = np.where(d > lo, 10 * t**3 - 15 * t**4 + 6 * t**5, 0.0)
    phi1, phi2, xi1, xi2, p = rise * _cosine_sums(g, rng, 5, 5, 3)
    return StateVector(VectorField2(g, phi1, phi2), VectorField2(g, xi1, xi2)), ScalarField(g, p)


def calibrate_tau2_bound(
    psi: WeightField,
    tau_list: list[float],
    delta0: float = 0.5,
    epsilon: float = 0.5,
    n_fields: int = 20,
    seed: int = 7,
) -> float:
    """Smallest c2 >= 0 such that the inequality holds on a Gaussian-bump
    library after weakening the zero-order coefficient by c2*tau^2."""
    rng = np.random.default_rng(seed)
    need = 0.0
    params = [CarlemanParams.for_weight(tau, psi, delta0, epsilon) for tau in tau_list]
    for fields in draw_test_fields(psi.regions, rng, n_fields):
        for reports in inequality_sweep_stack(fields, psi, params):
            for tau, rep in zip(tau_list, reports):
                if rep.margin < 0 and rep.integral_zero > 0:
                    need = max(need, -rep.margin / (tau**2 * rep.integral_zero))
    return 1.05 * need


def find_tau0(reports_by_tau: dict[float, list[EstimateReport]]) -> float | None:
    """Smallest tau from which every larger tau in the grid passes everywhere."""
    taus = sorted(reports_by_tau)
    tau0 = None
    for tau in reversed(taus):
        if all(r.passed for r in reports_by_tau[tau]):
            tau0 = tau
        else:
            break
    return tau0


# ---------------------------------------------------------------------------
# Cutoff-system residual
# ---------------------------------------------------------------------------

def assemble_chi_system_residual(
    system: MhdSystem,
    lam_generator: complex,
    s: StateVector,
    p: ScalarField,
    chi: CutoffField,
) -> dict:
    """Residual of the chi-multiplied eigen-system with commutator forcings.

    For an exact discrete eigen-solution the residual equals chi times the
    bare eigen-residual, so it inherits the eigensolver tolerance.
    """
    g = system.grid
    forcing = build_commutators(chi, s, p, system)
    lam = system.elliptic_eigenvalue(lam_generator)
    chi1 = chi.values.ravel()
    chi2 = np.concatenate([chi1] * 2)
    r_phi, r_xi = system.steady_rows(
        lam, chi2 * s.phi.ravel(), chi2 * s.xi.ravel(), chi1 * p.values.ravel()
    )
    r_phi = r_phi - forcing.F_chi.ravel()
    r_xi = r_xi - forcing.G_chi.ravel()
    scale = max(s.norm(), 1e-300)
    dA = np.sqrt(g.cell_area)
    return {
        "residual_phi": float(np.linalg.norm(r_phi) * dA),
        "residual_xi": float(np.linalg.norm(r_xi) * dA),
        "max_norm": float(max(np.abs(r_phi).max(), np.abs(r_xi).max())),
        "relative": float(
            (np.linalg.norm(r_phi) + np.linalg.norm(r_xi)) * dA / scale
        ),
        "forcing": forcing,
    }


# ---------------------------------------------------------------------------
# Final band estimate and tau-sweep
# ---------------------------------------------------------------------------

def _grad_energy(v: VectorField2, W: ScalarField | float, region: np.ndarray) -> float:
    """Weighted squared gradients of both components of v over region."""
    g1 = gradient(ScalarField(v.grid, v.u1))
    g2 = gradient(ScalarField(v.grid, v.u2))
    return weighted_norm2(g1, W, region) + weighted_norm2(g2, W, region)


def _star_integrals(
    s: StateVector, p: ScalarField, W: ScalarField | float, star: np.ndarray
) -> tuple[float, float]:
    """The transition-region integrals of |grad p|^2 + |p|^2 + |phi|^2 +
    |xi|^2 and of |grad phi|^2 + |grad xi|^2 + |phi|^2 + |xi|^2 + |p|^2,
    summed in that order with weight W."""
    n_p, n_phi, n_xi = (weighted_norm2(f, W, star) for f in (p, s.phi, s.xi))
    I_p = weighted_norm2(gradient(p), W, star) + n_p + n_phi + n_xi
    I_u = _grad_energy(s.phi, W, star) + _grad_energy(s.xi, W, star) + n_phi + n_xi + n_p
    return I_p, I_u


def _default_constants(system: MhdSystem, chi: CutoffField, lam: complex) -> dict:
    """Explicit, recorded stand-ins for the implicit constants of the final
    estimate (7-term Cauchy-Schwarz split of the right-hand side)."""
    eq = system.eq
    sup_e = eq.sup_fields()
    gb = eq.grad_bound
    chi_s = chi.as_scalar()
    grad_chi = gradient(chi_s).magnitude().max()
    lap_chi = np.abs(laplacian(chi_s).values).max()
    c_lambda_e = 7.0 * (sup_e**2 + 2.0 * gb**2 + abs(lam) ** 2 + 1.0)
    c_ye_be = 16.0 * gb**2 + 1.0
    c_chi = float((lap_chi + grad_chi * (2.0 + 2.0 * sup_e + 1.0)) ** 2 + 1.0)
    return {
        "C_lambda_e": float(c_lambda_e),
        "C_ye_be": float(c_ye_be),
        "C_chi": c_chi,
        "c_chi": c_chi,
    }


def final_estimate_eval(
    system: MhdSystem,
    lam_generator: complex,
    s: StateVector,
    p_field: ScalarField,
    chi: CutoffField,
    psi: WeightField,
    params: CarlemanParams,
    constants: dict | None = None,
) -> dict:
    """Evaluate both sides of the combined band estimate at one tau.

    LHS: three weighted integrals of the cutoff state/pressure over the band
    G; RHS: two integrals over the transition region only.  The absorbed
    constants have no canonical values, so explicit recorded stand-ins are
    used and pass/fail is reported per tau rather than asserted.
    """
    g = system.grid
    regions = psi.regions
    G = regions.G
    tau = params.tau
    lam = system.elliptic_eigenvalue(lam_generator)
    consts = constants or _default_constants(system, chi, lam)

    Wn, shift = _normalized_weight(psi.psi, tau, G)
    Wf = ScalarField(g, Wn)

    chi_arr = chi.values
    phi_c = VectorField2(g, chi_arr * s.phi.u1, chi_arr * s.phi.u2)
    xi_c = VectorField2(g, chi_arr * s.xi.u1, chi_arr * s.xi.u2)
    p_c = ScalarField(g, chi_arr * p_field.values)

    I_grad_chi = _grad_energy(phi_c, Wf, G) + _grad_energy(xi_c, Wf, G)
    I_zero_chi = weighted_norm2(phi_c, Wf, G) + weighted_norm2(xi_c, Wf, G)
    I_p_chi = weighted_norm2(p_c, Wf, G)
    I_star_p, I_star_u = _star_integrals(s, p_field, Wf, regions.omega_star)

    rho, kk, d0, eps = params.rho, params.kgrad, params.delta0, params.epsilon
    base = d0 * (2 * rho * tau - eps / 2)  # the divided constant of the estimate
    zero3 = max(4 * rho * kk**2 * tau**3 * (1 - d0) - params.tau2_bound * tau**2, 0.0)
    lhs1 = (base - consts["C_lambda_e"] - consts["C_ye_be"] / base) * I_grad_chi if base > 0 else 0.0
    lhs2 = (zero3 - consts["C_lambda_e"] - consts["C_ye_be"] / base) * I_zero_chi if base > 0 else 0.0
    lhs3 = (zero3 / base) * I_p_chi if base > 0 else 0.0
    rhs = (consts["C_chi"] / base) * I_star_p + consts["c_chi"] * I_star_u if base > 0 else np.inf

    lhs = lhs1 + lhs2 + lhs3
    return {
        "tau": tau,
        "lhs_grad": lhs1,
        "lhs_zero": lhs2,
        "lhs_pressure": lhs3,
        "lhs_total": lhs,
        "rhs_total": rhs,
        "passed": bool(lhs <= rhs + PASS_SLACK * max(abs(rhs), 1e-300)),
        "constants": consts,
        "weight_shift": shift,
        "tau_positive": bool(base > 0),
    }


def tau_sweep_vanishing(
    s: StateVector,
    p_field: ScalarField,
    regions: RegionSet,
    tau_list: list[float],
) -> dict:
    """Decay table of the band bounds for an omega-vanishing solution.

    The transition-region integrals are fixed numbers for a fixed solution;
    the bounds C1/tau^4 + C2/tau^3 (state) and C1/tau^3 + C2/tau^2
    (pressure) then decay monotonically, which is the vanishing mechanism.
    """
    if not tau_list:
        raise ConfigurationError("tau sweep needs a nonempty tau list")
    omega = regions.omega
    scale = max(s.phi.magnitude().max(), s.xi.magnitude().max(),
                np.abs(p_field.values).max(), 1e-300)
    on_omega = max(
        s.phi.magnitude()[omega].max(initial=0.0),
        s.xi.magnitude()[omega].max(initial=0.0),
        np.abs(p_field.values)[omega].max(initial=0.0),
    )
    if on_omega > 1e-12 * scale:
        raise CauchyDataError("state does not vanish on omega")

    C1, C2 = _star_integrals(s, p_field, 1.0, regions.omega_star)
    taus = sorted(float(t) for t in tau_list)
    rows = [
        {
            "tau": t,
            "bound_state": C1 / t**4 + C2 / t**3,
            "bound_pressure": C1 / t**3 + C2 / t**2,
        }
        for t in taus
    ]
    bs = [r["bound_state"] for r in rows]
    bp = [r["bound_pressure"] for r in rows]
    return {
        "C1": C1,
        "C2": C2,
        "rows": rows,
        "monotone_state": all(b2 < b1 for b1, b2 in zip(bs, bs[1:])),
        "monotone_pressure": all(b2 < b1 for b1, b2 in zip(bp, bp[1:])),
    }


def halving_exponents(sweep: dict) -> tuple[float, float]:
    """Observed decay exponents between tau and 2*tau rows (lower bounds)."""
    rows = {r["tau"]: r for r in sweep["rows"]}
    exps_s, exps_p = [], []
    for t, r in rows.items():
        r2 = rows.get(2 * t)
        if r2 is not None:
            exps_s.append(np.log2(r["bound_state"] / r2["bound_state"]))
            exps_p.append(np.log2(r["bound_pressure"] / r2["bound_pressure"]))
    if not exps_s:
        raise ConfigurationError("tau list has no tau, 2*tau pairs")
    return float(min(exps_s)), float(min(exps_p))
