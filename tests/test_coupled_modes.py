"""Uniform-field coupled dynamics: an independent oracle for the coupling.

With a stationary velocity equilibrium and a constant magnetic equilibrium
b = (b1, b2), each Fourier polarization obeys the 2x2 system

    d/dt [a_phi; a_xi] = [[nu*s2(k), i*sb], [i*sb, eta*s2(k)]],

where s2 is the diffusion symbol and sb the centered symbol of (b . grad).
Its eigenvalues nu*s2 +- i*|sb| (for nu = eta) are oscillatory pairs, which
pins the sign and placement of both coupling blocks and drives the complex
eigenpair handling through clustering, continuation tests and feedback.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from mhdlab import (
    MhdSystem,
    OmegaSpec,
    adjoint_eigenpairs,
    build_grid,
    build_nested_regions,
    closed_loop,
    design_feedback,
    kalman_rank,
    make_equilibrium,
    omega_fields,
    project_unstable,
    ucp_certificate,
)
from mhdlab.stabilize import control_fields
from oracles import dense_spectrum, pde_residual, poisson_control_fields, to_state
from oracles import xi_row_leakage

L = 2 * np.pi


def _uniform_field_eq(grid, b=(1.0, 0.0)):
    ones = np.ones(grid.shape)
    return make_equilibrium(
        "custom", grid, {"B_e": (b[0] * ones, b[1] * ones)}
    )


def oracle_uniform_field_eigs(grid, nu, eta, sigma, b, count, order=4):
    """Enumerate the per-wavevector 2x2 eigenvalues of the coupled symbol."""
    def d2(m, n, h):
        a = 2 * np.pi * m / n
        if order == 2:
            return (2 * np.cos(a) - 2) / h**2
        return (-2 * np.cos(2 * a) + 32 * np.cos(a) - 30) / (12 * h**2)

    vals = []
    for mx in range(grid.nx):
        for my in range(grid.ny):
            if (mx, my) == (0, 0):
                continue
            s2 = d2(mx, grid.nx, grid.hx) + d2(my, grid.ny, grid.hy)
            sb = b[0] * np.sin(2 * np.pi * mx / grid.nx) / grid.hx + b[1] * np.sin(
                2 * np.pi * my / grid.ny
            ) / grid.hy
            block = np.array([[nu * s2, 1j * sb], [1j * sb, eta * s2]])
            vals.extend(np.linalg.eigvals(block) + sigma)
    vals.sort(key=lambda z: (-z.real, z.imag))
    return np.array(vals[:count])


def test_uniform_field_oscillatory_spectrum(box16):
    eq = _uniform_field_eq(box16)
    A = MhdSystem(eq, 0.0)
    rep = dense_spectrum(A, 12)
    got = np.array([p.lam for p in rep.pairs[:12]])
    want = oracle_uniform_field_eigs(box16, 1.0, 1.0, 0.0, (1.0, 0.0), 12)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    got_s = np.array(sorted(got, key=key))
    want_s = np.array(sorted(want, key=key))
    assert np.abs(got_s - want_s).max() < 1e-9
    # axis-aligned modes oscillate at the advective frequency sin(h)/h
    freq = np.sin(box16.hx) / box16.hx
    imag_parts = sorted({round(abs(z.imag), 6) for z in got_s})
    assert imag_parts[0] == 0.0
    assert imag_parts[-1] == pytest.approx(freq, abs=1e-6)


def test_uniform_field_pressure_and_residual_exact(box16):
    # constant-coefficient coupling keeps the solenoidal subspace exactly
    # invariant: the steady-form residual stays at solver level
    eq = _uniform_field_eq(box16)
    A = MhdSystem(eq, 1.2)
    rep = dense_spectrum(A, 8)
    for pair in rep.pairs[:8]:
        state = to_state(A, pair.coeffs)
        out = pde_residual(A, pair.lam, state)
        assert out["relative"] < 1e-9
        assert xi_row_leakage(A, state) < 1e-10


def test_uniform_field_complex_cluster_structure():
    grid = build_grid(L, L, 24, 24)
    eq = _uniform_field_eq(grid)
    A = MhdSystem(eq, 1.2)
    rep = dense_spectrum(A, 12)
    # sigma - |k|^2 unstable only at |k|^2 = 1: conjugate advective pair from
    # (+-1, 0) plus a real 4-fold cluster from (0, +-1)
    assert rep.N == 8
    assert rep.M == 3
    assert sorted(rep.ell) == [2, 2, 4]
    assert rep.K == 4
    lams = sorted(rep.distinct, key=lambda z: z.imag)
    assert lams[0].imag == pytest.approx(-np.sin(grid.hx) / grid.hx, abs=1e-8)
    assert lams[-1].imag == pytest.approx(np.sin(grid.hx) / grid.hx, abs=1e-8)


def test_uniform_field_closed_loop():
    grid = build_grid(L, L, 24, 24)
    eq = _uniform_field_eq(grid)
    sigma, gamma = 1.2, 0.8
    A = MhdSystem(eq, sigma)
    rep = dense_spectrum(A, 12)
    arep = adjoint_eigenpairs(A, rep)
    regions = build_nested_regions(
        grid,
        OmegaSpec(size=0.15 * L),
        omega1_width=0.06 * L,
        omega_star_width=0.12 * L,
    )
    omega = regions.omega
    cert = ucp_certificate(A, arep, omega)

    out = closed_loop(A, rep, cert, gamma, 8.0, 0.01, np.random.default_rng(21))
    assert out.design.proj.N == 8
    assert np.max(out.design.gain.achieved_poles.real) <= -gamma + 1e-8
    target = out.energy_rate_target
    assert abs(out.decay_rate - target) <= 0.2 * target
    # realized actuator signals are real and the applied fields stay in omega
    assert np.isrealobj(out.trace.amplitudes)
    fields = control_fields(A.basis, cert.actuators, omega)
    assert np.all(fields[:, 0, 0][:, ~omega] == 0.0)


@pytest.fixture(scope="module")
def uniform24():
    """The closed-loop fixture above: clusters ell = (2, 2, 4), K = 4."""
    grid = build_grid(L, L, 24, 24)
    eq = _uniform_field_eq(grid)
    A = MhdSystem(eq, 1.2)
    rep = dense_spectrum(A, 12)
    arep = adjoint_eigenpairs(A, rep)
    regions = build_nested_regions(
        grid,
        OmegaSpec(size=0.15 * L),
        omega1_width=0.06 * L,
        omega_star_width=0.12 * L,
    )
    proj = project_unstable(rep.unstable_clusters(), arep.unstable_clusters())
    return dict(A=A, rep=rep, arep=arep, omega=regions.omega, projector=proj.V @ proj.W.T)


def test_uniform_field_control_fields_equal_the_poisson_projection(uniform24):
    A, omega = uniform24["A"], uniform24["omega"]
    actuators = ucp_certificate(A, uniform24["arep"], omega).actuators
    got = control_fields(A.basis, actuators, omega)
    ref = poisson_control_fields(A.grid, actuators, omega)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def _mixed_report(rep, rng):
    """The report with each unstable cluster's eigenbasis mixed by a random
    unitary (orthogonal for a real cluster) Q: new vector a is
    sum_b Q[b, a] v_b."""
    pairs = list(rep.pairs)
    ids = np.asarray(rep.cluster_ids)
    for ci in range(rep.M):
        members = np.flatnonzero(ids == ci)
        ell = len(members)
        if abs(pairs[members[0]].lam.imag) > 1e-10:
            Z = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
        else:
            Z = rng.normal(size=(ell, ell))
        Q, _ = np.linalg.qr(Z)
        C = np.column_stack([pairs[i].coeffs for i in members]) @ Q
        for a, i in enumerate(members):
            pairs[i] = replace(pairs[i], coeffs=C[:, a])
    return replace(rep, pairs=pairs)


@pytest.mark.parametrize("seed", range(10))
def test_closed_loop_independent_of_cluster_basis(uniform24, seed):
    # LAPACK may return any basis of a degenerate cluster; certificates and
    # pole placement must not depend on which one
    A, omega, gamma = uniform24["A"], uniform24["omega"], 0.8
    mixed = _mixed_report(uniform24["arep"], np.random.default_rng(seed))
    cert = ucp_certificate(A, mixed, omega)
    assert sorted(len(c) for c in cert.clusters) == [2, 2, 4]
    assert len(cert.actuators) == 4 and cert.kalman_passed
    for km in cert.kalman:
        assert km.rank == km.ell

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no non-converged pole placement
        design = design_feedback(A, uniform24["rep"].unstable_clusters(), cert, gamma)
    assert np.max(design.gain.achieved_poles.real) <= -gamma + 1e-8
    # the whole oblique projector, not only the poles, is the unrotated one
    P, ref = design.proj.V @ design.proj.W.T, uniform24["projector"]
    assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)


def test_kalman_rejects_actuators_missing_a_cluster(uniform24):
    # the first four orthonormalized omega-restrictions, taken in cluster
    # order, all come from the complex clusters and leave the real 4-fold
    # cluster only rounding-level pairings; those must not count as rank
    omega, A = uniform24["omega"], uniform24["A"]
    clusters = uniform24["arep"].unstable_clusters()
    complex_cls = [omega_fields(A, c, omega) for c in clusters if abs(c[0].lam.imag) > 1e-10]
    real_cl = next(omega_fields(A, c, omega) for c in clusters if abs(c[0].lam.imag) <= 1e-10)
    assert len(real_cl) == 4
    candidates = []
    for f in (f for F in complex_cls for f in F):
        r = f.ravel()
        candidates += [r.real, r.imag]
    # Gram-Schmidt on omega (the restrictions vanish elsewhere)
    Q, _ = np.linalg.qr(np.column_stack(candidates[:4]))
    grid = A.grid
    actuators = Q.T.reshape((4, 2, 2) + grid.shape)

    reports = kalman_rank(actuators, [real_cl, *complex_cls], grid.cell_area)
    real_km = reports[0]
    assert real_km.ell == 4
    assert real_km.rank < 4
    assert not real_km.passed
    # every pairing value is rounding-level, below the absolute floor
    assert real_km.singular_values[0] <= real_km.threshold
    assert all(km.passed for km in reports[1:])
