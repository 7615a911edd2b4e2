"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
criterion lines as they complete."""

import time

import numpy as np
import pytest

from mhdlab import (
    MhdSystem,
    OmegaSpec,
    adjoint_eigenpairs,
    build_grid,
    build_nested_regions,
    closed_loop,
    coefficients,
    compute_spectrum,
    helmholtz_project,
    make_equilibrium,
    omega_fields,
    oseen_plus,
    ucp_certificate,
    ucp_gram_test,
)
from mhdlab import carleman
from mhdlab.carleman import find_tau0
from mhdlab.fields import divergence_matrix, dx_matrix, dy_matrix
from oracles import ScalarField, StateVector, VectorField2, build_commutators
from oracles import divergence_residual, gradient, halving_exponents, make_omega_vanishing_state
from oracles import pde_residual, pressure_from_state, rot, tau_sweep_vanishing, to_state
from oracles import wide_laplacian_matrix

L = 2 * np.pi


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ground_truth_spectra():
    """Criterion 1 data: zero equilibrium, periodic 2*pi box, sigma = 0."""
    t0 = time.perf_counter()
    out = {}
    for n in (32, 64):
        grid = build_grid(L, L, n, n)
        eq = make_equilibrium("zero", grid)
        A = MhdSystem(eq, 0.0)
        out[n] = (A, compute_spectrum(A, 12))
    out["runtime"] = time.perf_counter() - t0
    return out


def test_criterion_1_spectral_ground_truth(ground_truth_spectra):
    exact = np.array([-1.0] * 8 + [-2.0] * 4)
    errs = {}
    for n in (32, 64):
        lams = np.array([p.lam.real for p in ground_truth_spectra[n][1].pairs[:12]])
        errs[n] = float(np.abs((lams - exact) / exact).max())
    runtime = ground_truth_spectra["runtime"]
    ok = errs[32] <= 1e-3 and errs[32] / errs[64] >= 3.0 and runtime <= 60.0
    _report(
        1,
        ok,
        f"rel err {errs[32]:.2e} @32 (<=1e-3), improvement {errs[32]/errs[64]:.1f}x "
        f"(>=3x), runtime {runtime:.1f}s (<=60s)",
    )


def test_criterion_2_eigenproblem_residual(ground_truth_spectra, gen_shifted32):
    worst = 0.0
    checked = 0
    for A, rep in (ground_truth_spectra[32], (None, None)):
        if rep is None:
            break
        for pair in rep.pairs:
            worst = max(worst, pde_residual(A, pair.lam, to_state(A, pair.coeffs))["relative"])
            checked += 1
    rep_shift = compute_spectrum(gen_shifted32, 16)
    for pair in rep_shift.pairs:
        state = to_state(gen_shifted32, pair.coeffs)
        worst = max(worst, pde_residual(gen_shifted32, pair.lam, state)["relative"])
        checked += 1
    ok = worst <= 1e-6
    _report(2, ok, f"{checked} eigenpairs, max steady-form residual {worst:.2e} (<=1e-6)")


def test_criterion_3_helmholtz(box32):
    rng = np.random.default_rng(2024)
    worst_idem = worst_annih = worst_div = 0.0
    for i in range(100):
        if i % 2 == 0:
            v = rng.normal(size=(2,) + box32.shape)
            pv = helmholtz_project(box32, v)
            ppv = helmholtz_project(box32, pv)
            scale = np.linalg.norm(v.ravel())
            worst_idem = max(worst_idem, np.linalg.norm(ppv.ravel() - pv.ravel()) / scale)
            worst_div = max(worst_div, divergence_residual(box32, pv) / scale)
        else:
            s = ScalarField(box32, rng.normal(size=box32.shape))
            gs = gradient(s)
            pg = VectorField2(box32, *helmholtz_project(box32, gs.array()))
            worst_annih = max(worst_annih, pg.norm() / gs.norm())
    ok = worst_idem <= 1e-10 and worst_annih <= 1e-10 and worst_div <= 1e-10
    _report(
        3,
        ok,
        f"idempotence {worst_idem:.2e}, gradient annihilation {worst_annih:.2e}, "
        f"divergence {worst_div:.2e} (all <=1e-10, 100 fields)",
    )


def test_criterion_4_ucp_kalman(gen_shifted32, adj_spectrum_shifted32, regions32):
    omega, dA = regions32.omega, regions32.grid.cell_area
    cert = ucp_certificate(gen_shifted32, adj_spectrum_shifted32, omega)
    sigma_mins = [gm.sigma_min for gm in cert.grams]
    ranks_ok = cert.kalman_passed

    # synthetic omega-degenerate fixture must fail: the second eigenfunction
    # takes the first one's values on omega
    degenerate = omega_fields(gen_shifted32, cert.clusters[0][:2], omega)
    degenerate[1][..., omega] = degenerate[0][..., omega]
    gm_deg = ucp_gram_test(degenerate, dA)
    ok = (
        min(sigma_mins) > 1e-6
        and ranks_ok
        and gm_deg.sigma_min <= 1e-10
    )
    _report(
        4,
        ok,
        f"min Gram sigma_min {min(sigma_mins):.2e} (>1e-6), "
        f"Kalman ranks full: {ranks_ok}, degenerate fixture {gm_deg.sigma_min:.2e} (<=1e-10)",
    )


def test_criterion_5_carleman_coefficients():
    cases = [
        ((1.0, 1.0, 1.0), (0.875, 2.0, 3.0)),
        ((2.0, 3.0, 10.0), (19.875, 36000.0, 3.0)),
        ((0.5, 2.0, 4.0), (0.5 * 4.0 - 0.125, 2.0 * 0.5 * 4.0 * 64.0, 3.0)),
    ]
    ok = True
    for (rho, k, tau), expect in cases:
        got = coefficients(tau, rho, k)
        ok &= got.c_grad == expect[0] and got.c_zero == expect[1] and got.c_rhs == expect[2]
    _report(5, ok, "coefficients(rho,k,tau,1/2,1/2) == (rho*tau - 1/8, 2*rho*k^2*tau^3, 3) exactly")


@pytest.fixture(scope="module")
def carleman_sweep(regions32, psi32):
    taus = [c * 4.0 / regions32.diameter for c in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    return taus, carleman.sweep(psi32, np.random.default_rng(777), 100, taus)


def test_criterion_6_integrated_inequality(carleman_sweep, psi32):
    taus, s = carleman_sweep
    tau0 = find_tau0(taus, s.passed)
    pass_above = tau0 is not None and all(
        passed.all() for t, passed in zip(taus, s.passed) if t >= tau0
    )
    slopes = []
    for lhs_zero, integral_zero in zip(s.lhs_zero.T, s.integral_zero.T):
        xs = [np.log(t) for t in taus]
        ys = np.log(lhs_zero / integral_zero)
        slopes.append(np.polyfit(xs, ys, 1)[0])
    slope_ok = all(abs(s - 3.0) <= 0.2 for s in slopes)
    ok = pass_above and slope_ok
    _report(
        6,
        ok,
        f"100 fields pass for all tau >= tau0 = {tau0:.3f}; zero-order log-log "
        f"slope in [{min(slopes):.3f}, {max(slopes):.3f}] (3.0 +- 0.2)",
    )


def test_criterion_7_commutator_support(box32, regions32, chi32, gen_shifted32):
    rng = np.random.default_rng(99)
    eq_coupled = make_equilibrium(
        "custom",
        box32,
        {
            "y_e": (np.sin(box32.meshgrid()[1]), np.zeros(box32.shape)),
            "B_e": (np.sin(box32.meshgrid()[1]), np.zeros(box32.shape)),
        },
    )
    worst = 0.0
    for trial in range(5):
        s = StateVector(
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
            rot(ScalarField(box32, rng.normal(size=box32.shape))),
        )
        p = ScalarField(box32, rng.normal(size=box32.shape))
        f = build_commutators(chi32, s, p, MhdSystem(eq_coupled))
        worst = max(worst, f.max_outside_omega_star / f.scale)
    rep = compute_spectrum(gen_shifted32, 4)
    pair = rep.pairs[0]
    state = to_state(gen_shifted32, pair.coeffs)
    p = pressure_from_state(gen_shifted32, state)
    f = build_commutators(chi32, state, p, gen_shifted32)
    worst = max(worst, f.max_outside_omega_star / f.scale)
    ok = worst <= 1e-12
    _report(7, ok, f"max |F|,|G|,|T| outside the transition band {worst:.2e} x scale (<=1e-12)")


def test_criterion_8_pressure_identity():
    worst_res = 0.0
    errs = {}
    for n in (32, 64):
        g = build_grid(L, L, n, n)
        eq = make_equilibrium("shear", g)
        A = MhdSystem(eq, 0.0)
        X, Y = g.meshgrid()
        phi = VectorField2(g, np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y))
        xi = rot(ScalarField(g, np.cos(X) + np.sin(Y)))
        s = StateVector(phi, xi)
        p = pressure_from_state(A, s)
        b = A.blocks()
        D = divergence_matrix(g)
        rhs = -(D @ (b["L1"] @ phi.ravel())) + D @ (b["L2"] @ xi.ravel())
        res = np.abs(wide_laplacian_matrix(g) @ p.values.ravel() - rhs).max()
        worst_res = max(worst_res, res / max(np.abs(rhs).max(), 1.0))
        # first-order form of div L1: discrete double-sum oracle
        lhs = D @ (oseen_plus(g, eq.y_e) @ phi.ravel())
        Dx, Dy = dx_matrix(g), dy_matrix(g)
        d = lambda a, m: m @ a.ravel()
        oracle = 2.0 * (
            d(eq.y_e[0], Dx) * d(phi.u1, Dx)
            + d(eq.y_e[1], Dx) * d(phi.u1, Dy)
            + d(eq.y_e[0], Dy) * d(phi.u2, Dx)
            + d(eq.y_e[1], Dy) * d(phi.u2, Dy)
        )
        errs[n] = np.abs(lhs - oracle).max()
    order = float(np.log2(errs[32] / errs[64]))
    ok = worst_res <= 1e-10 and order >= 1.8
    _report(
        8,
        ok,
        f"Poisson identity residual {worst_res:.2e} (<=1e-10); first-order form "
        f"agreement order {order:.2f} (>=1.8)",
    )


def test_criterion_9_tau_sweep_vanishing(regions32):
    rng = np.random.default_rng(31)
    s, p = make_omega_vanishing_state(regions32, rng)
    sweep = tau_sweep_vanishing(s, p, regions32, [1.0, 2.0, 4.0, 8.0, 16.0])
    es, ep = halving_exponents(sweep)
    ok = sweep["monotone_state"] and sweep["monotone_pressure"] and es >= 3.0 and ep >= 2.0
    _report(
        9,
        ok,
        f"bounds decrease monotonically; halving exponents state {es:.2f} (>=3), "
        f"pressure {ep:.2f} (>=2)",
    )


def test_criterion_10_closed_loop():
    t0 = time.perf_counter()
    grid = build_grid(L, np.pi, 32, 32)
    eq = make_equilibrium("zero", grid)
    sigma, gamma = 1.5, 1.0
    A = MhdSystem(eq, sigma)
    rep = compute_spectrum(A, 12)
    arep = adjoint_eigenpairs(A, rep)
    N = rep.N
    regions = build_nested_regions(
        grid,
        OmegaSpec(size=0.08 * L),
        omega1_width=0.04 * L,
        omega_star_width=0.08 * L,
    )
    cert = ucp_certificate(A, arep, regions.omega)

    def experiment(g, T):
        # one seed, so the open and the closed loop start from the same state
        rng = np.random.default_rng(8)
        return closed_loop(A, rep, cert, g, T, 0.01, rng)

    closed, opened = experiment(gamma, 8.0), experiment(None, 2.0)
    gain, rate, target = closed.design.gain, closed.decay_rate, closed.energy_rate_target
    open_trace = opened.trace
    runtime = time.perf_counter() - t0

    ok = (
        N in (2, 4)
        and np.max(gain.achieved_poles.real) <= -gamma + 1e-8
        and abs(rate - target) <= 0.15 * target
        and open_trace.energies[-1] > open_trace.energies[0]
        and runtime <= 300.0
    )
    _report(
        10,
        ok,
        f"N={N} (in {{2,4}}), max closed pole {np.max(gain.achieved_poles.real):.6f} "
        f"(<=-1+1e-8), energy rate {rate:.3f} vs target {target:.3f} (15%), "
        f"open loop grows: {open_trace.energies[-1] > open_trace.energies[0]}, "
        f"pipeline {runtime:.1f}s (<=300s)",
    )
