"""Eigenanalysis of the coupled generator and the rank tests behind the
unique continuation property.

The forward spectrum of a diagonal R is read off its diagonal: at rest the
eigenfunctions are the basis' Fourier modes, so no solver runs, every
cluster comes out whole and every residual is 0.  Every other R goes to a
shift-inverted Arnoldi iteration whose inner solve is one refinement step
of a sparse LU of R - si I (``_forward_lu``) against the FFT matvec
``MhdSystem.reduced_matvec``, with its residual checked on the sparse R:
the LU solves the shifted system, advection included.  The step is the
first iteration of scipy's GMRES with the LU as preconditioner, bit for
bit, and the pipeline's one FFT product; the eigen-residuals are taken on
R, the operator the closed loop steps.  Passing the bare LU to ARPACK
instead would reorder a degenerate complex cluster, so it waits until the
benchmark compares eigenvalues in any order.  Until then the forward
factor is pinned too: it keeps SuperLU's default COLAMD ordering, where
``operators.shifted_lu`` (the adjoint and the closed loop) runs in
symmetric mode, because any other factor changes the Arnoldi's arithmetic,
reorders that cluster or costs shifted solves.
Shift-invert solves the forward operator only: the adjoint eigenfunctions
are derived from the forward clusters by inverse iteration on one
``shifted_lu`` per cluster, a sparse LU.  A diagonal R is its own
transpose, so there the forward report is the adjoint one and nothing is
solved.  Eigenvalues are clustered into distinct values with a relative
tolerance, giving the unstable count N, the number of distinct unstable
values M, their geometric multiplicities, and K = max multiplicity.

The continuation test itself is algebraic: a cluster's adjoint eigenfunctions
restricted to the control patch omega must stay linearly independent (their
omega-Gram matrix must be far from singular), and actuators built from those
restrictions must give a full-rank pairing matrix per cluster, which is the
finite-dimensional controllability condition.  The three certificates read
one array per cluster, its eigenfunctions synthesized at once and restricted
to omega (``omega_fields``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, NumericalError, UncontrollableError
from .operators import MhdSystem, is_diagonal, shifted_lu

RESIDUAL_BOUND = 1e-8
CLUSTER_RTOL = 1e-6
RANK_RTOL = 1e-8
GRAM_THRESHOLD = 1e-6  # least omega-Gram singular value that passes UCP
# The adjoint inverse iteration shifts off a cluster mean lam by this share
# of max(1, |lam|), and takes a fixed number of steps.
ADJOINT_SHIFT_RTOL = 1e-5
ADJOINT_STEPS = 3
# Relative tolerance of each inner solve of the shift-invert Arnoldi.
INNER_RTOL = 1e-12
_LARTG = sla.get_lapack_funcs("lartg", dtype=complex)


@dataclass
class EigenPair:
    lam: complex
    residual: float
    coeffs: np.ndarray = field(repr=False)

    @property
    def unstable(self) -> bool:
        return self.lam.real >= 0.0


@dataclass
class SpectrumReport:
    pairs: list[EigenPair]
    cluster_ids: list[int]
    distinct: list[complex]
    N: int
    M: int
    ell: list[int]
    K: int
    sigma: float = 0.0

    def unstable_part(self) -> "SpectrumReport":
        """The report cut to its clusters 0..M-1, each whole: those with an
        unstable pair.  N, M, ell and K are unchanged."""
        keep = [i for i, c in enumerate(self.cluster_ids) if c < self.M]
        return replace(
            self,
            pairs=[self.pairs[i] for i in keep],
            cluster_ids=[self.cluster_ids[i] for i in keep],
        )

    def unstable_clusters(self) -> list[list[EigenPair]]:
        out = []
        for ci in range(self.M):
            out.append(
                [p for p, c in zip(self.pairs, self.cluster_ids) if c == ci and p.unstable]
            )
        return out

    def lambda_next_stable(self) -> complex | None:
        stable = [p.lam for p in self.pairs if not p.unstable]
        return stable[0] if stable else None


def _sort_key(lam: complex):
    return (-lam.real, lam.imag)


def _phase_fix(vec: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(vec)))
    piv = vec[j]
    if np.abs(piv) == 0:
        return vec
    return vec * (np.abs(piv) / piv)


def _cluster(lams: list[complex]) -> tuple[list[int], list[complex]]:
    """Group sorted eigenvalues into distinct values (relative tolerance)."""
    if not lams:
        return [], []
    tol = CLUSTER_RTOL * max(1.0, max(abs(l) for l in lams))
    ids, reps = [], []
    for lam in lams:
        for ci, rep in enumerate(reps):
            if abs(lam - rep) <= tol:
                ids.append(ci)
                break
        else:
            reps.append(lam)
            ids.append(len(reps) - 1)
    return ids, reps


def _complete_clusters(lams: np.ndarray, how_many: int) -> np.ndarray:
    """Indices, in sort order, of the first how_many eigenvalues and of
    every other one within the cluster tolerance of one of them.

    Members of a cluster need not be adjacent in sort order (roundoff in
    the real parts interleaves conjugate clusters), so truncating at
    how_many must not split one.  The tolerance scales with the first
    how_many values, which anchor the clusters, whatever the length of
    ``lams`` (a diagonal R passes its whole diagonal).
    """
    tol = CLUSTER_RTOL * max(1.0, float(np.abs(lams[:how_many]).max()))
    dist = np.abs(lams[:, None] - lams[None, :how_many]).min(axis=1)
    return np.flatnonzero(dist <= tol)


def _diagonal_eig(matrix: sp.spmatrix, how_many: int):
    """The leading eigenpairs of a diagonal ``matrix``: its diagonal in sort
    order, cut after how_many entries and completed over the whole diagonal
    so that every cluster is whole, with unit coefficient vectors.

    In-cluster order is index order, and no solver or BLAS call is made, so
    the result depends on neither.
    """
    diag = matrix.diagonal().astype(complex)
    # lexsort is stable, so this is the _sort_key order with ties in index order
    order = np.lexsort((diag.imag, -diag.real))
    keep = order[_complete_clusters(diag[order], how_many)]
    vecs = np.zeros((diag.size, len(keep)))
    vecs[keep, np.arange(len(keep))] = 1.0
    return diag[keep], vecs


def _lu_solve(lu: spla.SuperLU, x: np.ndarray) -> np.ndarray:
    """A real LU applied to the real and imaginary parts of a complex x, as
    the two columns of one solve."""
    y = lu.solve(np.column_stack([x.real, x.imag]))
    return y[:, 0] + 1j * y[:, 1]


def _forward_lu(A: MhdSystem, si: float) -> spla.SuperLU:
    """The real LU of R - si I that the refinement step applies, in
    SuperLU's default COLAMD ordering: the forward Arnoldi's factor, pinned
    bit for bit with ``_refine_shifted_solve`` (in symmetric mode its
    shear 32^2 run needs 160 shifted solves instead of 134)."""
    shifted = -si * sp.identity(A.dim, format="csc") + A.matrix.tocsc()
    try:
        return spla.splu(shifted)
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise NumericalError(
            f"shifted generator R - si*I is singular: {exc}", detail={"si": si}
        ) from exc


def _refine_shifted_solve(
    A: MhdSystem, lu: spla.SuperLU, si: float, b: np.ndarray
) -> np.ndarray:
    """x with (R - si I) x = b: one refinement step of the real LU of
    R - si I against the FFT matvec.

    This is the first iteration of scipy's GMRES (1.17.1) with the LU as
    left preconditioner and b as right-hand side, in its arithmetic and
    operation order, so the Arnoldi iteration gets the same bits; it only
    solves with the LU for b once and makes one FFT matvec.  Both of
    GMRES's tests must pass: the preconditioned residual (|s| beta, or an
    exact breakdown of the Krylov space) and the true residual, the latter
    on the sparse R the LU factors.  A miss raises NumericalError.
    """
    b = np.asarray(b, dtype=complex)
    bnorm = np.linalg.norm(b)
    atol = INNER_RTOL * bnorm
    v = _lu_solve(lu, b)
    beta = np.linalg.norm(v)
    v *= 1 / beta
    w = _lu_solve(lu, A.reduced_matvec(v) - si * v)
    h0 = np.linalg.norm(w)
    h = np.vdot(v, w)
    w -= h * v
    h1 = np.linalg.norm(w)
    breakdown = h1 <= np.finfo(float).eps * h0
    c, s, mag = _LARTG(h, 0.0 if breakdown else h1)
    S0 = np.complex128(beta)
    presid = np.abs(-np.conjugate(s) * S0)
    # scipy's back substitution and x += y @ v[:1], on zero x
    y = np.array([c * S0 if mag != 0 else 0], dtype=complex)
    if y[0] != 0:
        y[0] /= np.complex128(mag)
    x = np.zeros_like(v)
    x += y @ v[None, :]
    rnorm = np.linalg.norm(b - (A.matrix @ x - si * x))
    if not ((presid <= beta * min(1.0, atol / bnorm) or breakdown) and rnorm <= atol):
        raise NumericalError(
            f"inner solve of the shift-inverted operator missed its tolerance {INNER_RTOL}",
            detail={
                "preconditioned_residual": float(presid / beta),
                "residual": float(rnorm / bnorm),
            },
        )
    return x


def _shift_invert_eig(A: MhdSystem, how_many: int):
    dim = A.dim
    si = A.sigma + A.eq.grad_bound + 1.0
    # si is real, so R - si I is real: one real LU solves the real and
    # imaginary parts, and one refinement step against the FFT matvec
    # finishes each inner solve (_refine_shifted_solve).
    lu = _forward_lu(A, si)
    solves = 0

    def solve_shifted(b):
        nonlocal solves
        solves += 1
        try:
            return _refine_shifted_solve(A, lu, si, b)
        except NumericalError as exc:
            exc.detail["solves"] = solves
            raise

    opinv = spla.LinearOperator((dim, dim), matvec=solve_shifted, dtype=complex)
    # complex, so that ARPACK runs in complex arithmetic; in shift-invert
    # mode it applies only OPinv and never calls this matvec
    aop = spla.LinearOperator((dim, dim), matvec=A.matrix.dot, dtype=complex)
    k = min(how_many + 8, dim - 2)
    v0 = np.cos(0.7 * np.arange(dim)) + 0.3  # deterministic start vector
    try:
        lams, vecs = spla.eigs(
            aop, k=k, sigma=si, OPinv=opinv, which="LM", v0=v0, tol=1e-12, maxiter=600
        )
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(
            "shift-invert Arnoldi did not converge", detail={"solves": solves, "k": k}
        ) from exc
    order = sorted(range(len(lams)), key=lambda i: _sort_key(lams[i]))
    return lams[order], vecs[:, order]


def compute_spectrum(A: MhdSystem, how_many: int) -> SpectrumReport:
    """Leading (largest real part) eigenpairs of the reduced generator: read
    off the diagonal of a diagonal R, from shift-invert Arnoldi otherwise."""
    if how_many < 1 or how_many > A.dim:
        raise ConfigurationError(
            f"how_many={how_many} outside 1..{A.dim} for this operator"
        )
    if is_diagonal(A.matrix):
        return _report(A.matrix, A.sigma, *_diagonal_eig(A.matrix, how_many))
    lams, vecs = _shift_invert_eig(A, how_many)
    keep = _complete_clusters(lams, how_many)
    return _report(A.matrix, A.sigma, lams[keep], vecs[:, keep])


def _report(matrix, sigma: float, lams: np.ndarray, vecs: np.ndarray) -> SpectrumReport:
    """Checked, normalized eigenpairs of ``matrix`` (R or R^T) and their
    cluster structure; the residuals of all pairs come from one product with
    it."""
    cols = [c / np.linalg.norm(c) for c in map(_phase_fix, vecs.T)]
    V = np.column_stack(cols)
    residuals = np.linalg.norm(matrix @ V - V * lams, axis=0)
    pairs = []
    for lam, c, res in zip(lams, cols, residuals.tolist()):
        if res > RESIDUAL_BOUND:
            raise NumericalError(
                f"eigenpair residual {res:.2e} exceeds {RESIDUAL_BOUND}",
                detail={"lambda": complex(lam)},
            )
        if np.max(np.abs(c.imag)) < 1e-12 * np.max(np.abs(c.real), initial=1e-300):
            c = c.real.astype(float)
        pairs.append(EigenPair(complex(lam), res, c))

    # unstable pairs come first, so clusters are numbered from the most
    # unstable downward and the unstable ones occupy ids 0..M-1
    ids, reps = _cluster([p.lam for p in pairs])
    M = len({ci for p, ci in zip(pairs, ids) if p.unstable})
    ell = [sum(1 for p, c in zip(pairs, ids) if c == i and p.unstable) for i in range(M)]
    N = sum(1 for p in pairs if p.unstable)
    K = max(ell) if ell else 0
    return SpectrumReport(
        pairs=pairs,
        cluster_ids=ids,
        distinct=reps[:M],
        N=N,
        M=M,
        ell=ell,
        K=K,
        sigma=sigma,
    )


def adjoint_eigenpairs(A: MhdSystem, forward: SpectrumReport) -> SpectrumReport:
    """Eigenpairs of the adjoint R^T (``A.matrix.T``) at the eigenvalues of
    a forward spectrum of A, cluster by cluster.

    R is real, so R^T has the same eigenvalues as R, and a left eigenvector w
    pairs with the right one v at the same eigenvalue under the bilinear form
    w^T v.  The conjugates of a cluster's forward eigenvectors therefore
    start with a nonzero component on each wanted adjoint eigenvector (the
    pairing v^T conj(v) is ||v||^2).  A few steps of block inverse iteration
    with one ``shifted_lu`` of R^T - mu I, mu just off the cluster mean,
    converge onto the cluster's invariant subspace; the Schur vectors of the
    projected ell x ell matrix give an orthonormal basis of it, with the
    diagonal of the Schur form as the eigenvalues.  Clusters keep the
    forward order, and every pair passes the same checks as a forward one.
    A forward report without pairs (such as the unstable part of a stable
    spectrum, N = M = K = 0) has nothing to derive and stands for its
    adjoint.

    A diagonal R (``is_diagonal``, the zero equilibrium) is its own
    transpose, so its forward pairs are adjoint pairs exactly, residuals
    included; they are real unit vectors on its diagonal (``_diagonal_eig``).
    The forward report is then returned as it was given, and no shifted
    solve, QR or Schur step runs.
    """
    if not forward.pairs or is_diagonal(A.matrix):
        return forward
    Rt = A.matrix.T
    ids = np.asarray(forward.cluster_ids)
    lams, vecs = [], []
    for ci in range(ids.max() + 1):
        members = np.flatnonzero(ids == ci)
        lam = np.mean([forward.pairs[i].lam for i in members])
        mu = lam + ADJOINT_SHIFT_RTOL * max(1.0, abs(lam))
        lu = shifted_lu(Rt, -mu, 1.0)
        Q = np.column_stack([forward.pairs[i].coeffs for i in members]).conj()
        Q = np.linalg.qr(Q.astype(complex))[0]
        for _ in range(ADJOINT_STEPS):
            Q = np.linalg.qr(lu.solve(Q))[0]
        T, Z = sla.schur(Q.conj().T @ (Rt @ Q), output="complex")
        lams.append(np.diag(T))
        vecs.append(Q @ Z)
    return _report(Rt, A.sigma, np.concatenate(lams), np.hstack(vecs))


# ---------------------------------------------------------------------------
# Gram / Kalman rank machinery
# ---------------------------------------------------------------------------

@dataclass
class GramMatrix:
    entries: np.ndarray
    sigma_min: float
    threshold: float
    passed: bool


@dataclass
class KalmanMatrix:
    entries: np.ndarray
    singular_values: np.ndarray
    rank: int
    ell: int
    passed: bool
    threshold: float


def omega_fields(A: MhdSystem, pairs: list[EigenPair], omega: np.ndarray) -> np.ndarray:
    """The eigenfunctions of one cluster times the indicator of omega, as one
    (ell, 2, 2, nx, ny) array: pair, [phi, xi], component, grid.

    One stacked synthesis serves the whole cluster.  It is real when every
    coefficient vector is, and complex otherwise; a cluster whose vectors are
    all real or all complex gets each pair's own ``basis.synthesize`` of
    ``coeffs.reshape(2, -1)`` bit for bit.
    """
    C = np.stack([p.coeffs for p in pairs])
    return A.basis.synthesize(C.reshape(len(pairs), 2, -1)) * omega


def _inner(a: np.ndarray, b: np.ndarray, cell_area: float) -> complex:
    """Grid L2 product of two (2, 2, nx, ny) states, conjugate-linear in a:
    the phi part, then the xi part."""
    return complex(np.vdot(a[0], b[0]) * cell_area + np.vdot(a[1], b[1]) * cell_area)


def ucp_gram_test(fields: np.ndarray, cell_area: float) -> GramMatrix:
    """Gram matrix of one cluster's eigenfunctions restricted to omega, given
    as the cluster's ``omega_fields``.

    A nearly singular Gram means some combination of eigenfunctions almost
    vanishes on omega, i.e. numerical failure of unique continuation; the
    test passes when the smallest singular value is at least GRAM_THRESHOLD.
    """
    if len(fields) == 0:
        raise ConfigurationError("ucp_gram_test needs at least one eigenpair")
    G = np.array([[_inner(a, b, cell_area) for b in fields] for a in fields])
    sigma_min = float(sla.svdvals(G)[-1])
    return GramMatrix(
        entries=G,
        sigma_min=sigma_min,
        threshold=GRAM_THRESHOLD,
        passed=bool(sigma_min >= GRAM_THRESHOLD),
    )


def select_actuators(cluster_fields: list[np.ndarray], cell_area: float) -> np.ndarray:
    """K = max ell localized control fields, one per in-cluster index, as one
    real (K, 2, 2, nx, ny) array.

    ``cluster_fields`` holds the ``omega_fields`` of every unstable cluster,
    each of which has passed its ``ucp_gram_test``.  Actuator j is the sum
    over clusters of the real part of that cluster's j-th adjoint
    eigenfunction on omega, so each cluster of multiplicity ell is reached by
    ell actuators whatever the other clusters hold: the K = max ell
    construction of Barbu-Triggiani and Badra-Takahashi.  The K sums are
    orthonormalized on omega in order; each actuator is exactly zero outside
    omega.
    """
    K = max((len(F) for F in cluster_fields), default=0)
    actuators = []
    for j in range(K):
        v = sum(np.real(F[j]) for F in cluster_fields if len(F) > j)
        for u in actuators:
            v = v - _inner(u, v, cell_area).real * u
        nrm = np.sqrt(abs(_inner(v, v, cell_area)))
        if nrm <= 1e-8:
            raise UncontrollableError(
                f"actuator {j}, the sum of each cluster's eigenfunction {j} on omega, "
                "lies in the span of the previous actuators"
            )
        actuators.append((1.0 / nrm) * v)
    return np.array(actuators)


def kalman_rank(
    actuators: np.ndarray, cluster_fields: list[np.ndarray], cell_area: float
) -> list[KalmanMatrix]:
    """Per-cluster pairing matrices (u_j, Phi*_ia) over omega and their ranks,
    for each cluster's ``omega_fields``.

    The condition holds when each cluster's matrix has rank equal to its
    geometric multiplicity.  A singular value counts toward the rank when it
    exceeds RANK_RTOL times the larger of the matrix's largest singular value
    and the floor max_j ||u_j||_omega * max_a ||Phi*_a||_omega, the size of an
    entry by Cauchy-Schwarz.  The floor keeps actuators that barely touch a
    cluster (all singular values at rounding level) from passing on a purely
    relative test.
    """
    u_scale = max((np.sqrt(_inner(u, u, cell_area).real) for u in actuators), default=0.0)
    out = []
    for F in cluster_fields:
        ell = len(F)
        M = np.array([[_inner(u, f, cell_area) for u in actuators] for f in F], dtype=complex)
        svals = sla.svdvals(M) if M.size else np.zeros(0)
        smax = svals[0] if svals.size else 0.0
        floor = u_scale * max(np.sqrt(_inner(f, f, cell_area).real) for f in F)
        threshold = RANK_RTOL * max(smax, floor)
        rank = int(np.sum(svals > threshold))
        out.append(
            KalmanMatrix(
                entries=M,
                singular_values=svals,
                rank=rank,
                ell=ell,
                passed=bool(rank == ell),
                threshold=threshold,
            )
        )
    return out
