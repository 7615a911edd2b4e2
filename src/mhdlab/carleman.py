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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CauchyDataError, ConfigurationError
from .fields import (
    ScalarField,
    StateVector,
    VectorField2,
    density,
    gradient,
    laplacian,
    weighted_norm2,
)
from .geometry import CutoffField, RegionSet, WeightField
from .operators import MhdSystem, build_commutators

PASS_SLACK = 1e-8
CAUCHY_TOL = 1e-10


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


def _check_cauchy(w, grads: list[VectorField2], region: np.ndarray) -> None:
    """Raise unless w and its gradient (``grads``, one per component) vanish
    on the boundary rings of the region."""
    ring = _boundary_rings(region)
    mag = w.magnitude() if isinstance(w, VectorField2) else np.abs(w.values)
    scale = max(float(mag.max()), 1e-300)
    if float(mag[ring].max(initial=0.0)) > CAUCHY_TOL * scale:
        raise CauchyDataError(
            "field trace on the region boundary exceeds tolerance"
        )
    gm = np.maximum.reduce([gr.magnitude() for gr in grads])
    gscale = max(float(gm.max()), 1e-300)
    if float(gm[ring].max(initial=0.0)) > CAUCHY_TOL * gscale:
        raise CauchyDataError(
            "normal-derivative trace on the region boundary exceeds tolerance"
        )


def integrated_inequality_sweep(
    w: ScalarField | VectorField2,
    psi: WeightField,
    params_seq: list[CarlemanParams],
    region: np.ndarray | None = None,
    check_cauchy: bool = True,
) -> list[EstimateReport]:
    """Weighted inequality over G for a field with zero Cauchy data on dG,
    one report per entry of params_seq.

    The Cauchy data, the gradient, the Laplacian and the squared integrands
    on G depend only on the field, so they are computed once; each tau then
    reduces its weight against them.  Every sum runs over the same terms in
    the same order as a single check would, so the reports are the same to
    the bit.
    """
    G = psi.regions.G if region is None else region
    if isinstance(w, VectorField2):
        grads = [gradient(ScalarField(w.grid, w.u1)), gradient(ScalarField(w.grid, w.u2))]
    else:
        grads = [gradient(w)]
    if check_cauchy:
        _check_cauchy(w, grads, G)
    dA = w.grid.cell_area
    dens_grad = [density(gr)[G] for gr in grads]
    dens_zero = density(w)[G]
    dens_rhs = density(laplacian(w))[G]

    reports = []
    for params in params_seq:
        tau = params.tau
        Wg, shift = _band_weight(psi, G, tau)
        I_grad = sum(float(np.sum(Wg * d) * dA) for d in dens_grad)
        I_zero = float(np.sum(Wg * dens_zero) * dA)
        I_rhs = float(np.sum(Wg * dens_rhs) * dA)

        c_grad, c_zero, c_rhs = coefficients(params)
        c_zero_eff = max(c_zero - params.tau2_bound * tau**2, 0.0)
        lhs_grad = c_grad * I_grad
        lhs_zero = c_zero_eff * I_zero
        rhs_main = c_rhs * I_rhs
        margin = rhs_main - (lhs_grad + lhs_zero)
        reports.append(EstimateReport(
            tau_used=tau,
            lhs_grad=lhs_grad,
            lhs_zero=lhs_zero,
            rhs_main=rhs_main,
            margin=margin,
            passed=bool(margin >= -PASS_SLACK * max(rhs_main, 1e-300)),
            tau_too_small=bool(c_grad <= 0),
            tau2_bound=params.tau2_bound,
            weight_shift=shift,
            integral_grad=I_grad,
            integral_zero=I_zero,
            integral_rhs=I_rhs,
        ))
    return reports


def integrated_inequality_check(
    w: ScalarField | VectorField2,
    psi: WeightField,
    params: CarlemanParams,
    region: np.ndarray | None = None,
    check_cauchy: bool = True,
) -> EstimateReport:
    """Weighted inequality over G for a field with zero Cauchy data on dG."""
    return integrated_inequality_sweep(w, psi, [params], region, check_cauchy)[0]


# ---------------------------------------------------------------------------
# Seeded test fields
# ---------------------------------------------------------------------------

def _band_mollifier(
    regions: RegionSet, margin_cells: float = 2.5, h_ref: float | None = None
) -> np.ndarray:
    """C^2 bump over the band G, exactly zero within the margin of dG.

    h_ref sets the cell size the margin is measured in; the default (the
    larger spacing) is safe for isotropic nests, while strongly anisotropic
    collars can pass the band-normal spacing instead.
    """
    g = regions.grid
    h = h_ref if h_ref is not None else max(g.hx, g.hy)
    d = regions.dist_to_omega
    lo = margin_cells * h
    hi = regions.omega1_width + regions.omega_star_width - margin_cells * h
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


def make_test_field(
    regions: RegionSet,
    rng: np.random.Generator,
    kind: str = "scalar",
    n_modes: int = 6,
    kmax: int = 4,
    margin_cells: float = 2.5,
    h_ref: float | None = None,
) -> ScalarField | VectorField2:
    """Random smooth bump compactly supported in G with zero Cauchy data."""
    g = regions.grid
    X, Y = g.meshgrid()
    moll = _band_mollifier(regions, margin_cells, h_ref)

    def smooth():
        f = np.zeros(g.shape)
        for _ in range(n_modes):
            kx, ky = rng.integers(-kmax, kmax + 1, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            f += rng.normal() * np.cos(2 * np.pi * (kx * X / g.Lx + ky * Y / g.Ly) + phase)
        return f

    if kind == "scalar":
        return ScalarField(g, moll * smooth())
    return VectorField2(g, moll * smooth(), moll * smooth())


def make_omega_vanishing_state(
    regions: RegionSet, rng: np.random.Generator, margin_cells: float = 2.0
) -> tuple[StateVector, ScalarField]:
    """Synthetic (state, pressure) pair that is exactly zero on omega."""
    g = regions.grid
    h = max(g.hx, g.hy)
    d = regions.dist_to_omega
    t = np.clip((d - margin_cells * h) / (4 * h), 0.0, 1.0)
    rise = np.where(d > margin_cells * h, 10 * t**3 - 15 * t**4 + 6 * t**5, 0.0)
    X, Y = g.meshgrid()

    def smooth():
        f = np.zeros(g.shape)
        for _ in range(5):
            kx, ky = rng.integers(-3, 4, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            f += rng.normal() * np.cos(2 * np.pi * (kx * X / g.Lx + ky * Y / g.Ly) + phase)
        return f

    phi = VectorField2(g, rise * smooth(), rise * smooth())
    xi = VectorField2(g, rise * smooth(), rise * smooth())
    p = ScalarField(g, rise * smooth())
    return StateVector(phi, xi), p


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
    for _ in range(n_fields):
        w = make_test_field(psi.regions, rng, "scalar")
        for tau, rep in zip(tau_list, integrated_inequality_sweep(w, psi, params)):
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
    import scipy.sparse as sp

    from .fields import gradient_matrix

    g = system.grid
    b = system.blocks()
    forcing = build_commutators(
        chi, s, p, system.eq, diffusion_order=system.diffusion_order
    )
    lam = system.elliptic_eigenvalue(lam_generator)
    chi2 = np.concatenate([chi.values.ravel()] * 2)
    chi1 = chi.values.ravel()
    phi_c = chi2 * s.phi.ravel()
    xi_c = chi2 * s.xi.ravel()
    p_c = chi1 * p.values.ravel()

    r_phi = (
        -system.nu * (b["vlap"] @ phi_c)
        + b["L1"] @ phi_c
        - b["L2"] @ xi_c
        + gradient_matrix(g) @ p_c
        - lam * phi_c
        - forcing.F_chi.ravel()
    )
    r_xi = (
        -system.eta * (b["vlap"] @ xi_c)
        + b["M1"] @ xi_c
        - b["M2"] @ phi_c
        - lam * xi_c
        - forcing.G_chi.ravel()
    )
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
    star = regions.omega_star
    tau = params.tau
    lam = system.elliptic_eigenvalue(lam_generator)
    consts = constants or _default_constants(system, chi, lam)

    Wn, shift = _normalized_weight(psi.psi, tau, G)
    Wf = ScalarField(g, Wn)

    chi_arr = chi.values
    phi_c = VectorField2(g, chi_arr * s.phi.u1, chi_arr * s.phi.u2)
    xi_c = VectorField2(g, chi_arr * s.xi.u1, chi_arr * s.xi.u2)
    p_c = ScalarField(g, chi_arr * p_field.values)

    def grad_energy(v: VectorField2, region):
        g1 = gradient(ScalarField(g, v.u1))
        g2 = gradient(ScalarField(g, v.u2))
        return weighted_norm2(g1, Wf, region) + weighted_norm2(g2, Wf, region)

    I_grad_chi = grad_energy(phi_c, G) + grad_energy(xi_c, G)
    I_zero_chi = weighted_norm2(phi_c, Wf, G) + weighted_norm2(xi_c, Wf, G)
    I_p_chi = weighted_norm2(p_c, Wf, G)

    I_star_p = (
        weighted_norm2(gradient(p_field), Wf, star)
        + weighted_norm2(p_field, Wf, star)
        + weighted_norm2(s.phi, Wf, star)
        + weighted_norm2(s.xi, Wf, star)
    )
    I_star_u = (
        grad_energy(s.phi, star)
        + grad_energy(s.xi, star)
        + weighted_norm2(s.phi, Wf, star)
        + weighted_norm2(s.xi, Wf, star)
        + weighted_norm2(p_field, Wf, star)
    )

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
    psi: WeightField | None = None,
) -> dict:
    """Decay table of the band bounds for an omega-vanishing solution.

    The transition-region integrals are fixed numbers for a fixed solution;
    the bounds C1/tau^4 + C2/tau^3 (state) and C1/tau^3 + C2/tau^2
    (pressure) then decay monotonically, which is the vanishing mechanism.
    """
    if not tau_list:
        raise ConfigurationError("tau sweep needs a nonempty tau list")
    g = s.grid
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

    star = regions.omega_star
    gradp = gradient(p_field)
    def grad_energy(v: VectorField2, region):
        g1 = gradient(ScalarField(g, v.u1))
        g2 = gradient(ScalarField(g, v.u2))
        return weighted_norm2(g1, 1.0, region) + weighted_norm2(g2, 1.0, region)

    C1 = (
        weighted_norm2(gradp, 1.0, star)
        + weighted_norm2(p_field, 1.0, star)
        + weighted_norm2(s.phi, 1.0, star)
        + weighted_norm2(s.xi, 1.0, star)
    )
    C2 = (
        grad_energy(s.phi, star)
        + grad_energy(s.xi, star)
        + weighted_norm2(s.phi, 1.0, star)
        + weighted_norm2(s.xi, 1.0, star)
        + weighted_norm2(p_field, 1.0, star)
    )
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
