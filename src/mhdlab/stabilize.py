"""Unstable-subspace projection, feedback synthesis, closed-loop simulation.

The unstable component is isolated with the biorthogonal forward/adjoint
eigenbasis; complex conjugate pairs are folded into real columns so gains
and actuator signals stay real.  Feedback places the poles of the reduced
unstable block at or below -gamma; the loop is closed through omega-localized
actuator fields and simulated with an implicit step for the stiff generator
and an explicit step for the control coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.signal import place_poles

from .errors import (
    ConfigurationError,
    FitError,
    NumericalError,
    ProjectionConditionError,
    UncontrollableError,
)
from .fields import StateVector, restrict
from .operators import GeneratorOperator
from .projection import project_state
from .spectral import EigenPair

COND_LIMIT = 1e10
POLE_TOL = 1e-8
BLOWUP_FACTOR = 1e6


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

    def coords(self, x: np.ndarray) -> np.ndarray:
        return sla.solve(self.pairing, self.W.T @ x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.V @ self.coords(x)


def _realify(pairs: list[EigenPair]) -> tuple[np.ndarray, np.ndarray]:
    """Real column basis from eigenpairs; conjugate pairs give (Re, Im)."""
    cols, lams = [], []
    used = [False] * len(pairs)
    for i, p in enumerate(pairs):
        if used[i]:
            continue
        c = p.coeffs
        if abs(p.lam.imag) < 1e-10:
            v = np.real(c)
            nrm = np.linalg.norm(v)
            if nrm < 1e-8:  # purely imaginary vector of a real eigenvalue
                v = np.imag(c)
                nrm = np.linalg.norm(v)
            cols.append(v / nrm)
            lams.append(p.lam.real)
            used[i] = True
        else:
            for j in range(i + 1, len(pairs)):
                if not used[j] and abs(pairs[j].lam - np.conj(p.lam)) < 1e-8:
                    used[j] = True
                    break
            re, im = np.real(c), np.imag(c)
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
    gamma: float
    target_poles: np.ndarray
    achieved_poles: np.ndarray
    closed_block: np.ndarray

    @property
    def K(self) -> int:
        return self.gain.shape[0]

    @property
    def N(self) -> int:
        return self.gain.shape[1]


def _pole_targets(open_loop: np.ndarray, gamma: float, spread: float) -> np.ndarray:
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
            targets.append(-gamma * (1.0 + spread * slot))
            used[i] = True
            slot += 1
        else:
            for j in range(i + 1, len(open_loop)):
                if not used[j] and abs(open_loop[j] - np.conj(lam)) < 1e-7:
                    used[j] = True
                    break
            re = -gamma * (1.0 + spread * slot)
            im = abs(lam.imag) * (1.0 + 0.5 * spread * slot)
            targets.extend([re + 1j * im, re - 1j * im])
            used[i] = True
            slot += 1
    if len(targets) != len(open_loop):
        raise UncontrollableError(
            "open-loop block eigenvalues do not pair into conjugates"
        )
    return np.asarray(targets)


def synthesize_feedback(
    unstable_block: np.ndarray,
    input_map: np.ndarray,
    gamma: float,
    pole_spread: float = 0.02,
) -> FeedbackGain:
    """Pole placement moving the unstable block below -gamma.

    Real parts of the targets are distinct values <= -gamma; conjugate-pair
    symmetry is preserved so the gain (and the realized control) is real.
    The closed-loop block A - B*gain is verified to satisfy
    Re(lambda) <= -gamma + 1e-8.
    """
    A = np.atleast_2d(np.asarray(unstable_block, dtype=float))
    N = A.shape[0]
    if N == 0:
        return FeedbackGain(np.zeros((0, 0)), gamma, np.zeros(0), np.zeros(0), A)
    B = np.atleast_2d(np.asarray(input_map, dtype=float))
    if B.shape[0] != N:
        raise ConfigurationError("input map row count must match the block size")
    if gamma <= 0:
        raise ConfigurationError("target decay rate gamma must be positive")
    if np.linalg.matrix_rank(B, tol=1e-10) < min(N, B.shape[1]) or B.shape[1] == 0:
        raise UncontrollableError(
            "input map is rank deficient; the rank condition failed upstream"
        )
    targets = _pole_targets(np.linalg.eigvals(A), gamma, pole_spread)
    try:
        placed = place_poles(A, B, targets)
        gain = placed.gain_matrix
    except ValueError as exc:
        raise UncontrollableError(f"pole placement failed: {exc}") from exc
    closed = A - B @ gain
    achieved = np.linalg.eigvals(closed)
    if np.max(achieved.real) > -gamma + POLE_TOL:
        raise UncontrollableError(
            f"closed-loop block kept an eigenvalue at {np.max(achieved.real):.6f}"
        )
    return FeedbackGain(gain, gamma, targets, achieved, closed)


def _real_block(proj: UnstableProjection, A: GeneratorOperator) -> np.ndarray:
    """Unstable block in the real basis: diagonal for real spectra, else the
    projected operator itself."""
    if np.all(np.abs(np.imag(proj.lambdas)) < 1e-10):
        return np.diag(np.real(proj.lambdas))
    AV = np.column_stack([A.matvec(proj.V[:, j]) for j in range(proj.N)])
    return np.real(sla.solve(proj.pairing, proj.W.T @ AV))


@dataclass
class FeedbackDesign:
    proj: UnstableProjection
    input_map: np.ndarray       # (N, K) unstable coords of the applied fields
    block: np.ndarray           # (N, N) open-loop unstable block, real basis
    gain: FeedbackGain | None   # None when no gain was asked for


def design_feedback(
    A: GeneratorOperator,
    forward_pairs: list[EigenPair],
    adjoint_pairs: list[EigenPair],
    actuators: list[StateVector],
    m_mask: np.ndarray,
    gamma: float | None,
) -> FeedbackDesign:
    """Unstable projection, input map and block, and the gain placing the
    block's poles below -gamma (no gain when gamma is None: open loop).

    The input map holds the unstable coordinates of the fields the loop
    actually applies (``control_fields``), not of the raw actuators.
    """
    proj = project_unstable(forward_pairs, adjoint_pairs)
    fields = control_fields(actuators, m_mask)
    input_map = np.zeros((proj.N, len(fields)))
    for j, f in enumerate(fields):
        input_map[:, j] = proj.coords(np.real(A.from_state(f)))
    block = _real_block(proj, A)
    gain = synthesize_feedback(block, input_map, gamma) if gamma is not None else None
    return FeedbackDesign(proj, input_map, block, gain)


@dataclass
class SimulationTrace:
    times: np.ndarray
    energies: np.ndarray
    energies_unstable: np.ndarray
    amplitudes: np.ndarray          # (nsteps+1, K)
    states: np.ndarray | None = field(default=None, repr=False)
    control_support_leakage: list[float] = field(default_factory=list)

    def validate(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trace times must be strictly increasing")
        if np.any(self.energies < 0):
            raise ConfigurationError("trace energies must be nonnegative")


def control_fields(
    actuators: list[StateVector], m_mask: np.ndarray
) -> list[StateVector]:
    """Applied spatial profiles: indicator times projected actuator.

    Projection first (it spreads support), localization last, so the applied
    field is exactly zero outside omega; the discarded non-solenoidal part
    shows up as reported leakage of the reduced drive.
    """
    out = []
    for u in actuators:
        pu = project_state(u)
        out.append(StateVector(restrict(pu.phi, m_mask), restrict(pu.xi, m_mask)))
    return out


def simulate_closed_loop(
    A: GeneratorOperator,
    gain: FeedbackGain | None,
    actuators: list[StateVector],
    m_mask: np.ndarray,
    y0: StateVector,
    T: float,
    dt: float,
    proj: UnstableProjection | None = None,
    store_states: bool = False,
) -> SimulationTrace:
    """March d/dt x = A x + sum_j b_j alpha_j, alpha = -gain * coords(x).

    Implicit in the stiff generator, explicit in the (bounded) control
    coupling; dt must resolve the fastest retained closed-loop rate.
    """
    if T <= 0 or dt <= 0:
        raise ConfigurationError("simulation horizon and step must be positive")
    closed_loop = gain is not None and gain.N > 0
    if closed_loop and proj is None:
        raise ConfigurationError("closed-loop simulation needs the unstable projection")
    if closed_loop:
        rate = max(np.max(np.abs(gain.achieved_poles.real)), np.max(np.abs(proj.lambdas.real)))
        if dt * rate > 0.5:
            raise ConfigurationError(
                f"dt*max|Re lambda| = {dt * rate:.3f} > 0.5; refine the time step"
            )

    Ared = A.dense()
    dim = Ared.shape[0]
    lu = sla.lu_factor(np.eye(dim) - dt * Ared)

    applied = control_fields(actuators, m_mask) if actuators else []
    drive = np.zeros((dim, len(applied)))
    leakage = []
    for j, f in enumerate(applied):
        b = A.from_state(f)
        drive[:, j] = np.real(b)
        recon = A.to_state(np.real(b))
        nf = f.norm()
        leakage.append(float(np.sqrt(max(nf**2 - recon.norm() ** 2, 0.0)) / nf) if nf else 0.0)

    x = np.real(A.from_state(y0))
    nsteps = int(round(T / dt))
    K = drive.shape[1]
    times = np.zeros(nsteps + 1)
    energies = np.zeros(nsteps + 1)
    energies_unstable = np.zeros(nsteps + 1)
    amplitudes = np.zeros((nsteps + 1, K))
    states = np.zeros((nsteps + 1, dim)) if store_states else None

    e0 = float(x @ x)
    for k in range(nsteps + 1):
        times[k] = k * dt
        energies[k] = float(x @ x)
        if proj is not None:
            xu = proj.apply(x)
            energies_unstable[k] = float(xu @ xu)
        if closed_loop:
            alpha = -gain.gain @ proj.coords(x)
            amplitudes[k, : alpha.size] = alpha
        else:
            alpha = np.zeros(K)
        if states is not None:
            states[k] = x
        if energies[k] > BLOWUP_FACTOR * max(e0, 1e-300):
            raise NumericalError(
                "simulation energy exceeded the blow-up guard",
                detail={"step": k, "energy": energies[k]},
            )
        if k == nsteps:
            break
        rhs = x + dt * (drive @ alpha) if K else x.copy()
        x = sla.lu_solve(lu, rhs)

    trace = SimulationTrace(
        times, energies, energies_unstable, amplitudes, states, leakage
    )
    trace.validate()
    return trace


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
    if int(sel.sum()) < 10:
        raise FitError("decay window holds fewer than 10 samples")
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


def stable_complement_residual(
    trace: SimulationTrace, A: GeneratorOperator, proj: UnstableProjection, dt: float
) -> float:
    """Discrete variation-of-constants check for the stable complement.

    Recomputes each implicit step restricted to the complement and returns
    the largest mismatch against the stored trajectory.
    """
    if trace.states is None:
        raise ConfigurationError("trace was not stored with states")
    Ared = A.dense()
    dim = Ared.shape[0]
    lu = sla.lu_factor(np.eye(dim) - dt * Ared)
    worst = 0.0
    for k in range(len(trace.times) - 1):
        x = trace.states[k]
        xnext = trace.states[k + 1]
        zeta = x - proj.apply(x)
        zeta_next = xnext - proj.apply(xnext)
        # control drive enters the complement only through its stable part
        step_in = trace.states[k + 1] - sla.lu_solve(lu, trace.states[k])
        pred = sla.lu_solve(lu, zeta) + (step_in - proj.apply(step_in))
        worst = max(worst, float(np.max(np.abs(pred - zeta_next))))
    return worst
