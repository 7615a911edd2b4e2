"""Unstable-subspace projection, feedback synthesis, closed-loop simulation.

The unstable component is isolated with the biorthogonal forward/adjoint
eigenbasis; complex conjugate pairs are folded into real columns so gains
and actuator signals stay real.  Feedback places the poles of the reduced
unstable block at or below -gamma with one Sylvester solve; the loop is
closed through omega-localized actuator fields and simulated with an
implicit step for the stiff generator and an explicit step for the control
coupling.  ``closed_loop`` runs the whole stabilization experiment from a
forward spectrum and its derived adjoint.

States are real arrays of reduced (basis) coefficients from the initial
state to the trace, and the applied fields are one real (K, 2, 2, nx, ny)
array computed with the solenoidal basis, so no state container is built
and no pressure Poisson problem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConfigurationError,
    FitError,
    NumericalError,
    ProjectionConditionError,
    UncontrollableError,
)
from .basis import SolenoidalBasis
from .operators import MhdSystem, shifted_lu
from .spectral import CLUSTER_RTOL, EigenPair, SpectrumReport

COND_LIMIT = 1e10
MIN_FIT_SAMPLES = 10  # samples measure_decay needs in its window
POLE_TOL = 1e-8
BLOWUP_FACTOR = 1e6
# A mode reached by less than this share of ||B|| needs gains whose rounding
# in the closed block comes within two orders of POLE_TOL.
HAUTUS_RTOL = 1e-6
# Relative spacing of the pole targets below -gamma.
POLE_SPREAD = 0.02
# Largest Frobenius norm of a gain the closed loop is run with.  The stock
# placements on zero and shear at 32^2-64^2 need 28-37; the gains measured
# to blow the loop up (5.9e4 and more) came from a nearly singular
# Sylvester X.
GAIN_LIMIT = 1e4


@dataclass
class UnstableProjection:
    """Real biorthogonal bases of the unstable subspace (reduced coords)."""

    V: np.ndarray          # forward basis columns, (dim, N)
    W: np.ndarray          # adjoint basis columns, (dim, N)
    pairing: np.ndarray    # W^T V, (N, N)
    cond: float
    lambdas: np.ndarray    # open-loop unstable eigenvalues

    @property
    def N(self) -> int:
        return self.V.shape[1]

    @cached_property
    def _pairing_lu(self):
        return sla.lu_factor(self.pairing)

    def coords(self, x: np.ndarray) -> np.ndarray:
        return sla.lu_solve(self._pairing_lu, self.W.T @ x)


def _realify(pairs: list[EigenPair]) -> tuple[np.ndarray, np.ndarray]:
    """Real column basis from eigenpairs; conjugate pairs give (Re, Im).

    The ell pairs of one real cluster (eigenvalues equal within CLUSTER_RTOL)
    give the first ell left singular vectors of [Re C, Im C], C their
    eigenvectors: an orthonormal real basis of the cluster's eigenspace
    whichever complex basis of it the eigensolver returned.
    """
    tol = CLUSTER_RTOL * max(1.0, max(abs(p.lam) for p in pairs))
    cols, lams = [], []
    used = [False] * len(pairs)
    for i, p in enumerate(pairs):
        if used[i]:
            continue
        if abs(p.lam.imag) < 1e-10:
            members = [
                j for j in range(i, len(pairs))
                if not used[j] and abs(pairs[j].lam.imag) < 1e-10
                and abs(pairs[j].lam - p.lam) <= tol
            ]
            C = np.column_stack([pairs[j].coeffs for j in members])
            U = np.linalg.svd(np.hstack([np.real(C), np.imag(C)]), full_matrices=False)[0]
            cols.extend(U[:, : len(members)].T)
            lam = float(np.mean([pairs[j].lam.real for j in members]))
            lams.extend([lam] * len(members))
            for j in members:
                used[j] = True
        else:
            for j in range(i + 1, len(pairs)):
                if not used[j] and abs(pairs[j].lam - np.conj(p.lam)) < 1e-8:
                    used[j] = True
                    break
            re, im = np.real(p.coeffs), np.imag(p.coeffs)
            cols.append(re / np.linalg.norm(re))
            cols.append(im / np.linalg.norm(im))
            lams.extend([p.lam, np.conj(p.lam)])
            used[i] = True
    return np.array(cols).T, np.asarray(lams)


def project_unstable(
    forward_pairs: list[EigenPair], adjoint_pairs: list[EigenPair]
) -> UnstableProjection:
    """Biorthogonal projector onto the span of the unstable eigenfunctions."""
    if not forward_pairs:
        raise ConfigurationError("no unstable eigenpairs to project onto")
    V, lams = _realify(forward_pairs)
    W, _ = _realify(adjoint_pairs)
    if V.shape != W.shape:
        raise ConfigurationError(
            "forward and adjoint unstable bases have mismatched dimensions"
        )
    pairing = W.T @ V
    svals = np.linalg.svd(pairing, compute_uv=False)
    smin = float(svals[-1]) if svals.size else 0.0
    # columns are unit vectors, so 1/smin is the projector's norm
    cond = float(max(svals[0], 1.0) / smin) if smin > 0 else np.inf
    if cond > COND_LIMIT:
        raise ProjectionConditionError(
            f"biorthogonal pairing condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    return UnstableProjection(V, W, pairing, cond, lams)


@dataclass
class FeedbackGain:
    gain: np.ndarray            # (K, N) actuator amplitudes from unstable coords
    achieved_poles: np.ndarray
    gain_norm: float            # Frobenius norm of gain
    cond_x: float               # condition number of the Sylvester solution X


def _pole_targets(open_loop: np.ndarray, gamma: float) -> np.ndarray:
    """Distinct targets with real parts <= -gamma, keeping pair frequencies.

    Real eigenvalues move to spread real targets; complex pairs keep their
    imaginary parts (moving an oscillation onto the real axis costs large
    gains for weakly coupled inputs, and only the real part matters).
    """
    targets = []
    used = np.zeros(len(open_loop), dtype=bool)
    slot = 0
    for i, lam in enumerate(open_loop):
        if used[i]:
            continue
        if abs(lam.imag) < 1e-9:
            targets.append(-gamma * (1.0 + POLE_SPREAD * slot))
            used[i] = True
            slot += 1
        else:
            for j in range(i + 1, len(open_loop)):
                if not used[j] and abs(open_loop[j] - np.conj(lam)) < 1e-7:
                    used[j] = True
                    break
            re = -gamma * (1.0 + POLE_SPREAD * slot)
            im = abs(lam.imag) * (1.0 + 0.5 * POLE_SPREAD * slot)
            targets.extend([re + 1j * im, re - 1j * im])
            used[i] = True
            slot += 1
    if len(targets) != len(open_loop):
        raise UncontrollableError(
            "open-loop block eigenvalues do not pair into conjugates"
        )
    return np.asarray(targets)


def _hautus_check(A: np.ndarray, B: np.ndarray, eigenvalues: np.ndarray) -> None:
    """Raise unless the inputs reach every eigenvalue of the block.

    By the Hautus test (A, B) is controllable iff [lam*I - A, B] has full row
    rank at each eigenvalue lam.  Its smallest singular value is at most
    |w^H B| for a unit left eigenvector w, so it measures how much of the
    inputs' strength reaches that mode; it must exceed HAUTUS_RTOL * ||B||,
    whatever the size of A.
    """
    norm_b = np.linalg.norm(B, 2) if B.size else 0.0
    if norm_b == 0.0:
        raise UncontrollableError("input map is zero; the rank condition failed upstream")
    floor = HAUTUS_RTOL * norm_b
    eye = np.eye(A.shape[0])
    for lam in eigenvalues:
        smin = sla.svdvals(np.hstack([lam * eye - A, B]))[-1]
        if smin <= floor:
            raise UncontrollableError(
                f"input map does not reach the block eigenvalue {lam:.6g}: "
                f"Hautus sigma_min {smin:.3e} <= {HAUTUS_RTOL:g} * ||B|| = {floor:.3e}"
            )


def _target_matrix(targets: np.ndarray) -> np.ndarray:
    """Real matrix with the given spectrum: a diagonal entry per real target
    and a block [[re, im], [-im, re]] per conjugate pair (adjacent targets)."""
    F = np.zeros((len(targets), len(targets)))
    i = 0
    while i < len(targets):
        re, im = targets[i].real, targets[i].imag
        if im == 0.0:
            F[i, i] = re
            i += 1
        else:
            F[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
            i += 2
    return F


def synthesize_feedback(
    unstable_block: np.ndarray,
    input_map: np.ndarray,
    gamma: float,
) -> FeedbackGain:
    """Pole placement moving the unstable block below -gamma.

    The input map must reach every eigenvalue of the block (``_hautus_check``),
    else UncontrollableError names the unreached eigenvalue before any pole
    placement.  Real parts of the targets are distinct values <= -gamma;
    conjugate-pair symmetry is preserved so the gain (and the realized
    control) is real.

    Placement is exact by Sylvester's equation (Bhattacharyya and de Souza,
    Systems & Control Letters 1982): with F a real matrix whose eigenvalues
    are the targets and G = B^T, the solution X of A X - X F = B G gives
    gain = G X^-1 and A - B gain = X F X^-1.  The closed-loop block is
    verified to satisfy Re(lambda) <= -gamma + POLE_TOL, and the gain to
    have a Frobenius norm of at most GAIN_LIMIT: a placement that passes
    the pole test only through a nearly singular X drives the loop with
    gains whose rounding the simulation cannot follow.  Either failure is
    an UncontrollableError that names cond(X).
    """
    A = np.atleast_2d(np.asarray(unstable_block, dtype=float))
    N = A.shape[0]
    if N == 0:
        return FeedbackGain(np.zeros((0, 0)), np.zeros(0), 0.0, 1.0)
    B = np.atleast_2d(np.asarray(input_map, dtype=float))
    if B.shape[0] != N:
        raise ConfigurationError("input map row count must match the block size")
    if gamma <= 0:
        raise ConfigurationError("target decay rate gamma must be positive")
    open_loop = np.linalg.eigvals(A)
    _hautus_check(A, B, open_loop)
    targets = _pole_targets(open_loop, gamma)
    G = B.T
    X = sla.solve_sylvester(A, -_target_matrix(targets), B @ G)
    try:
        gain = sla.solve(X.T, G.T).T
    except sla.LinAlgError as exc:
        raise UncontrollableError(f"pole placement failed: {exc}") from exc
    achieved = np.linalg.eigvals(A - B @ gain)
    cond_x = float(np.linalg.cond(X))
    if np.max(achieved.real) > -gamma + POLE_TOL:
        raise UncontrollableError(
            f"closed-loop block kept an eigenvalue at {np.max(achieved.real):.6f} "
            f"(Sylvester solution cond {cond_x:.3e})"
        )
    gain_norm = float(np.linalg.norm(gain))
    if gain_norm > GAIN_LIMIT:
        raise UncontrollableError(
            f"pole placement needs a gain of Frobenius norm {gain_norm:.3e} > {GAIN_LIMIT:.0e} "
            f"(Sylvester solution cond {cond_x:.3e})"
        )
    return FeedbackGain(gain, achieved, gain_norm, cond_x)


def _real_block(proj: UnstableProjection, A: MhdSystem) -> np.ndarray:
    """Unstable block in the real basis: diagonal for real spectra, else the
    projected operator itself."""
    if np.all(np.abs(np.imag(proj.lambdas)) < 1e-10):
        return np.diag(np.real(proj.lambdas))
    return np.real(proj.coords(A.matrix @ proj.V))


@dataclass
class FeedbackDesign:
    proj: UnstableProjection
    input_map: np.ndarray       # (N, K) unstable coords of the applied fields
    gain: FeedbackGain | None   # None when no gain was asked for
    drive: np.ndarray           # (dim, K) reduced coords of the applied fields
    leakage: list[float]        # share of each applied field outside the reduced space


def design_feedback(
    A: MhdSystem,
    forward_pairs: list[EigenPair],
    adjoint_pairs: list[EigenPair],
    actuators: np.ndarray,
    m_mask: np.ndarray,
    gamma: float | None,
) -> FeedbackDesign:
    """Unstable projection, input map and block, and the gain placing the
    block's poles below -gamma (no gain when gamma is None: open loop).

    The input map holds the unstable coordinates of the fields the loop
    actually applies (``control_fields``), not of the raw actuators; their
    reduced coordinates and leakage are kept for the closed loop.
    """
    proj = project_unstable(forward_pairs, adjoint_pairs)
    basis = A.basis
    fields = control_fields(basis, actuators, m_mask)
    drive = basis.analyze(fields).reshape(len(fields), A.dim).T
    input_map = proj.coords(drive)
    # the basis is orthonormal, so the kept part of a field has the norm of
    # its coefficients (Parseval)
    norms = np.sqrt(np.sum(fields**2, axis=(1, 2, 3, 4)) * basis.grid.cell_area)
    lost = np.sqrt(np.maximum(norms**2 - np.sum(drive**2, axis=0), 0.0))
    leakage = [float(lo / nf) if nf else 0.0 for lo, nf in zip(lost, norms)]
    block = _real_block(proj, A)
    gain = synthesize_feedback(block, input_map, gamma) if gamma is not None else None
    return FeedbackDesign(proj, input_map, gain, drive, leakage)


@dataclass
class SimulationTrace:
    times: np.ndarray
    energies: np.ndarray
    energies_unstable: np.ndarray
    amplitudes: np.ndarray          # (nsteps+1, K)
    states: np.ndarray | None = field(default=None, repr=False)


def control_fields(basis: SolenoidalBasis, actuators: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Applied spatial profiles of the (K, 2, 2, nx, ny) actuator array:
    indicator of omega times the Leray projection of each actuator
    (``SolenoidalBasis.leray``), as an array of the same shape.

    Projection first (it spreads support), localization last, so the
    applied field is exactly zero outside omega; the discarded
    non-solenoidal part (and the means) show up as reported leakage of the
    reduced drive.
    """
    return omega * basis.leray(actuators)


def simulate_closed_loop(
    A: MhdSystem,
    design: FeedbackDesign | None,
    x0: np.ndarray,
    T: float,
    dt: float,
    store_states: bool = False,
) -> SimulationTrace:
    """March d/dt x = A x + sum_j b_j alpha_j, alpha = -gain * coords(x),
    from the real reduced coefficients x0.

    The drive b_j, the projection and the gain come from ``design``; without
    a gain the applied amplitudes are zero, and without a design the loop is
    open with no unstable projection.  Implicit in the stiff generator,
    explicit in the (bounded) control coupling; dt must resolve the fastest
    retained closed-loop rate.

    The implicit step solves with ``shifted_lu`` of I - dt*A, built once: a
    sparse LU, or on a diagonal R (the zero equilibrium) a division by the
    diagonal of I - dt*A, which gives the same bits as SuperLU's solve.  A
    step touches the dim-sized state only through the energy x.x, the
    product W^T x, the drive, written into one buffer and added in place,
    and that solve; the rest is N-dimensional.  The unstable
    coordinates c = pairing^-1 W^T x of every step are kept, one row each,
    and the unstable energies ||V c||^2 = c.(V^T V).c and the amplitudes
    -gain c are read from them after the loop.
    """
    if T <= 0 or dt <= 0:
        raise ConfigurationError("simulation horizon and step must be positive")
    proj = design.proj if design is not None else None
    gain = design.gain if design is not None else None
    if gain is not None:
        rate = max(np.max(np.abs(gain.achieved_poles.real)), np.max(np.abs(proj.lambdas.real)))
        if dt * rate > 0.5:
            raise ConfigurationError(
                f"dt*max|Re lambda| = {dt * rate:.3f} > 0.5; refine the time step"
            )

    lu = shifted_lu(A.matrix, 1.0, -dt)  # backward Euler step I - dt*A
    x = np.array(x0, dtype=float)  # stepped in place: the caller's x0 stays
    nsteps = int(round(T / dt))
    K = design.drive.shape[1] if design is not None else 0
    times = dt * np.arange(nsteps + 1)
    energies = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, A.dim)) if store_states else None
    if proj is not None:
        Wt, pinv = proj.W.T, np.linalg.inv(proj.pairing)
        coords = np.zeros((nsteps + 1, proj.N))
    if gain is not None:
        dt_gain = dt * -gain.gain
        push = np.empty(A.dim)

    e0 = float(x @ x)
    for k in range(nsteps + 1):
        energies[k] = float(x @ x)
        if states is not None:
            states[k] = x
        if energies[k] > BLOWUP_FACTOR * max(e0, 1e-300):
            raise NumericalError(
                "simulation energy exceeded the blow-up guard",
                detail={"step": k, "energy": energies[k]},
            )
        if proj is not None:
            coords[k] = pinv @ (Wt @ x)
        if k == nsteps:
            break
        if gain is not None:
            x += np.matmul(design.drive, dt_gain @ coords[k], out=push)
        x = lu.solve(x)

    if proj is None:
        energies_unstable = np.zeros(nsteps + 1)
    else:
        energies_unstable = np.einsum("ki,ij,kj->k", coords, proj.V.T @ proj.V, coords)
    amplitudes = coords @ -gain.gain.T if gain is not None else np.zeros((nsteps + 1, K))
    return SimulationTrace(times, energies, energies_unstable, amplitudes, states)


def measure_decay(
    trace: SimulationTrace,
    window: tuple[float, float],
    use_unstable: bool = False,
) -> tuple[float, float]:
    """Least-squares exponential rate of the energy over a time window.

    Returns (rate, confidence half-width) for energy ~ exp(-rate * t).
    """
    t0, t1 = window
    sel = (trace.times >= t0) & (trace.times <= t1)
    if int(sel.sum()) < MIN_FIT_SAMPLES:
        raise FitError(f"decay window holds fewer than {MIN_FIT_SAMPLES} samples")
    e = (trace.energies_unstable if use_unstable else trace.energies)[sel]
    if np.any(e <= 0):
        raise FitError("energies in the fit window must be positive")
    t = trace.times[sel]
    logs = np.log(e)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
    slope = coef[0]
    n = len(t)
    if n > 2 and res.size:
        s2 = float(res[0]) / (n - 2)
        se = np.sqrt(s2 / np.sum((t - t.mean()) ** 2))
    else:
        se = 0.0
    return float(-slope), float(1.96 * se)


def initial_state(
    A: MhdSystem, proj: UnstableProjection | None, rng: np.random.Generator
) -> np.ndarray:
    """Reduced coefficients of the start of the stabilization experiment:
    every unstable mode at unit amplitude plus a 0.01 normal perturbation,
    or a random unit state when there is no unstable projection."""
    if proj is None:
        x0 = rng.normal(size=A.dim)
        return x0 / np.linalg.norm(x0)
    return 0.01 * rng.normal(size=A.dim) + proj.V @ np.ones(proj.N)


@dataclass
class ClosedLoop:
    design: FeedbackDesign | None       # None without unstable pairs
    trace: SimulationTrace
    decay_rate: float
    rate_half_width: float
    energy_rate_target: float | None    # None without a gain


def closed_loop(
    A: MhdSystem,
    forward: SpectrumReport,
    adjoint: SpectrumReport,
    actuators: np.ndarray,
    m_mask: np.ndarray,
    gamma: float | None,
    T: float,
    dt: float,
    rng: np.random.Generator,
) -> ClosedLoop:
    """The stabilization experiment on the unstable pairs of a forward
    spectrum and its adjoint.

    Designs the feedback (no gain when gamma is None: open loop), starts
    from ``initial_state`` drawn from rng, marches to T and fits the energy
    decay over (T/2, T).  The energy of the closed loop decays at twice its
    slowest rate, the placed -gamma or the first stable eigenvalue, so the
    target is 2 min(gamma, |Re lambda_next|).  Without unstable pairs
    nothing is designed and the loop runs open.
    """
    design = None
    if forward.N > 0:
        design = design_feedback(
            A,
            [p for p in forward.pairs if p.unstable],
            [p for p in adjoint.pairs if p.unstable],
            actuators,
            m_mask,
            gamma,
        )
    x0 = initial_state(A, design.proj if design is not None else None, rng)
    trace = simulate_closed_loop(A, design, x0, T, dt)
    rate, hw = measure_decay(trace, (T / 2, T))
    target = None
    if design is not None and gamma is not None:
        lam_next = forward.lambda_next_stable()
        target = 2.0 * (min(gamma, abs(lam_next.real)) if lam_next is not None else gamma)
    return ClosedLoop(design, trace, rate, hw, target)

