"""Test oracles: the parts of the continuation argument that no pipeline
stage runs (the stages certify the Gram/Kalman ranks and the integrated
weighted inequality).  Field containers and the field operators the stages
never apply, the equilibrium forcings, the dense basis matrix and the
per-mode loop that builds the basis, the dense eigensolver, the
Fourier-space assembly parts found by sorting, the Carleman draws with one
size=2 integer draw per wavevector, the bordered pressure Poisson solve on
the torus, the steady form of the eigenproblem, the quintic cutoff and its
commutators, and the tau-sweep bounds back the acceptance criteria and unit
tests.  The package itself takes and returns plain (2, nx, ny) arrays;
``VectorField2.array`` and ``VectorField2(grid, *a)`` cross between the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mhdlab.basis import SolenoidalBasis
from mhdlab.carleman import _cosine_sums
from mhdlab.errors import CauchyDataError, ConfigurationError, MhdLabError, NumericalError
from mhdlab.errors import ShapeError
from mhdlab.equilibria import Equilibrium
from mhdlab.fields import divergence_matrix, dx_matrix, dy_matrix, laplacian_matrix
from mhdlab.geometry import RegionSet, transition_band
from mhdlab.grid import Grid
from mhdlab.operators import _PART_ENTRIES, _ROUNDOFF_RTOL, MhdSystem, shifted_lu
from mhdlab.spectral import SpectrumReport, _complete_clusters, _report, _sort_key
from mhdlab.stabilize import FeedbackDesign, SimulationTrace, UnstableProjection

# commutator forcing outside the transition band, relative to its largest
# value, above which the cutoff's guard layers count as too thin
COMMUTATOR_SUPPORT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Field containers
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"scalar field shape {self.values.shape} != grid {self.grid.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area))


@dataclass
class VectorField2:
    grid: Grid
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.asarray(self.u1)
        self.u2 = np.asarray(self.u2)
        if self.u1.shape != self.grid.shape or self.u2.shape != self.grid.shape:
            raise ShapeError("vector component shape does not match grid")

    def ravel(self) -> np.ndarray:
        return np.concatenate([self.u1.ravel(), self.u2.ravel()])

    def array(self) -> np.ndarray:
        """The (2, nx, ny) array the package's functions take."""
        return np.stack([self.u1, self.u2])

    @classmethod
    def from_flat(cls, grid: Grid, flat: np.ndarray):
        n = grid.ncells
        return cls(grid, flat[:n].reshape(grid.shape), flat[n:].reshape(grid.shape))

    @classmethod
    def zeros(cls, grid: Grid, dtype=float):
        return cls(grid, np.zeros(grid.shape, dtype), np.zeros(grid.shape, dtype))

    def norm(self) -> float:
        s = np.sum(np.abs(self.u1) ** 2) + np.sum(np.abs(self.u2) ** 2)
        return float(np.sqrt(s * self.grid.cell_area))

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.abs(self.u1) ** 2 + np.abs(self.u2) ** 2)


def same_grid(a: Grid, b: Grid) -> bool:
    """Same shape, boundary kinds and (to np.isclose) lengths."""
    return (
        a.shape == b.shape
        and np.isclose(a.Lx, b.Lx)
        and np.isclose(a.Ly, b.Ly)
        and a.bc_x == b.bc_x
        and a.bc_y == b.bc_y
    )


@dataclass
class StateVector:
    phi: VectorField2
    xi: VectorField2

    def __post_init__(self):
        if not same_grid(self.phi.grid, self.xi.grid):
            raise ShapeError("state components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @classmethod
    def zeros(cls, grid: Grid, dtype=float):
        return cls(VectorField2.zeros(grid, dtype), VectorField2.zeros(grid, dtype))

    def norm(self) -> float:
        return float(np.sqrt(self.phi.norm() ** 2 + self.xi.norm() ** 2))


def to_state(A: MhdSystem, x: np.ndarray) -> StateVector:
    """The (phi, xi) fields of reduced coefficients x."""
    g = A.grid
    phi, xi = A.basis.synthesize(np.asarray(x).reshape(2, -1))
    return StateVector(VectorField2(g, *phi), VectorField2(g, *xi))


def inner(a, b) -> complex:
    """Grid L2 inner product, conjugate-linear in the first argument."""
    av, bv = a.ravel(), b.ravel()
    if av.shape != bv.shape:
        raise ShapeError("inner product of mismatched fields")
    g = a.grid if hasattr(a, "grid") else b.grid
    return complex(np.vdot(av, bv) * g.cell_area)


def restrict(v: VectorField2, region: np.ndarray) -> VectorField2:
    """Zero the field outside a cell mask (indicator multiplication)."""
    m = region.astype(v.u1.dtype if np.iscomplexobj(v.u1) else float)
    return VectorField2(v.grid, v.u1 * m, v.u2 * m)


# ---------------------------------------------------------------------------
# Field operators and quadrature
# ---------------------------------------------------------------------------

def _apply(grid: Grid, mat: sp.csr_matrix, arr: np.ndarray) -> np.ndarray:
    return (mat @ arr.ravel()).reshape(grid.shape)


def gradient_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps a scalar to the stacked gradient [d/dx; d/dy]."""
    return sp.vstack([dx_matrix(grid), dy_matrix(grid)], format="csr")


def wide_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Composition div(grad(.)), the Laplacian seen by the pressure space."""
    key = "wide_lap"
    if key not in grid._cache:
        grid._cache[key] = (divergence_matrix(grid) @ gradient_matrix(grid)).tocsr()
    return grid._cache[key]


def divergence(v: VectorField2) -> ScalarField:
    g = v.grid
    out = _apply(g, dx_matrix(g), v.u1) + _apply(g, dy_matrix(g), v.u2)
    return ScalarField(g, out)


def laplacian(f: ScalarField | VectorField2, order: int = 2):
    g = f.grid
    lap = laplacian_matrix(g, order)
    if isinstance(f, ScalarField):
        return ScalarField(g, _apply(g, lap, f.values))
    return VectorField2(g, _apply(g, lap, f.u1), _apply(g, lap, f.u2))


def gradient(s: ScalarField) -> VectorField2:
    g = s.grid
    return VectorField2(g, _apply(g, dx_matrix(g), s.values), _apply(g, dy_matrix(g), s.values))


def curl2d(v: VectorField2) -> ScalarField:
    g = v.grid
    out = _apply(g, dx_matrix(g), v.u2) - _apply(g, dy_matrix(g), v.u1)
    return ScalarField(g, out)


def rot(s: ScalarField) -> VectorField2:
    """Perpendicular gradient (d/dy, -d/dx); rot(curl2d(v)) = -lap v + grad div v."""
    g = s.grid
    return VectorField2(g, _apply(g, dy_matrix(g), s.values), -_apply(g, dx_matrix(g), s.values))


def weighted_norm2(
    f: ScalarField | VectorField2,
    weight: ScalarField | np.ndarray | float = 1.0,
    region: np.ndarray | None = None,
) -> float:
    """Sum of weight * |f|^2 * cell area over a region (cell mask)."""
    w = weight.values if isinstance(weight, ScalarField) else np.asarray(weight)
    if isinstance(f, VectorField2):
        integrand = w * (np.abs(f.u1) ** 2 + np.abs(f.u2) ** 2)
    else:
        integrand = w * np.abs(f.values) ** 2
    if region is not None:
        if not region.any():
            warnings.warn("weighted_norm2 over an empty region", stacklevel=2)
            return 0.0
        integrand = integrand[region]
    return float(np.sum(integrand) * f.grid.cell_area)


def divergence_residual(grid: Grid, v: np.ndarray) -> float:
    """Largest discrete divergence of a (2, nx, ny) field."""
    return float(np.max(np.abs(divergence_matrix(grid) @ v.reshape(-1))))


def _advect(e: VectorField2, v: VectorField2) -> VectorField2:
    """(e . grad) v with centered first derivatives."""
    g = v.grid
    Dx, Dy = dx_matrix(g), dy_matrix(g)
    u1x, u1y, u2x, u2y = (_apply(g, m, u) for u in (v.u1, v.u2) for m in (Dx, Dy))
    return VectorField2(g, e.u1 * u1x + e.u2 * u1y, e.u1 * u2x + e.u2 * u2y)


def forcings(eq: Equilibrium) -> tuple[VectorField2, VectorField2]:
    """Body forcings (f, g) that make the equilibrium steady: the residuals
    of the steady momentum and induction balance, zero equilibrium pressure
    gauge."""
    grid = eq.grid
    ye, Be = VectorField2(grid, *eq.y_e), VectorField2(grid, *eq.B_e)
    lap_y = laplacian(ye)
    lap_B = laplacian(Be)
    adv_yy = _advect(ye, ye)
    adv_BB = _advect(Be, Be)
    adv_yB = _advect(ye, Be)
    adv_By = _advect(Be, ye)
    f = VectorField2(
        grid,
        -eq.nu * lap_y.u1 + adv_yy.u1 - adv_BB.u1,
        -eq.nu * lap_y.u2 + adv_yy.u2 - adv_BB.u2,
    )
    g = VectorField2(
        grid,
        -eq.eta * lap_B.u1 + adv_yB.u1 - adv_By.u1,
        -eq.eta * lap_B.u2 + adv_yB.u2 - adv_By.u2,
    )
    return f, g


def dense_basis(basis: SolenoidalBasis) -> np.ndarray:
    """The basis as a (2*ncells, dim) array of its columns (small grids)."""
    return basis.synthesize(np.eye(basis.dim)).reshape(basis.dim, -1).T


def solenoidal_basis_loop(grid: Grid) -> SolenoidalBasis:
    """``SolenoidalBasis._build`` as a loop over the wavevectors: the
    reference its array arithmetic is checked against, array for array."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    kx_int = np.fft.fftfreq(nx, d=1.0 / nx).astype(int)
    ky_int = np.fft.fftfreq(ny, d=1.0 / ny).astype(int)

    reps = []
    seen = set()
    for mx in range(nx):
        for my in range(ny):
            if (mx, my) == (0, 0) or (mx, my) in seen:
                continue
            conj = ((-mx) % nx, (-my) % ny)
            seen.add((mx, my))
            seen.add(conj)
            reps.append((mx, my, conj == (mx, my)))
    reps.sort(key=lambda r: (kx_int[r[0]] ** 2 + ky_int[r[1]] ** 2, kx_int[r[0]], ky_int[r[1]]))

    p_kflat, p_nkflat, p_t, p_cos, p_sin = [], [], [], [], []
    s_kflat, s_dir, s_col = [], [], []
    col = 0
    for mx, my, self_conj in reps:
        sx = np.sin(2 * np.pi * mx / nx) / hx
        sy = np.sin(2 * np.pi * my / ny) / hy
        flat = mx * ny + my
        if self_conj:
            for d in (0, 1):
                s_kflat.append(flat)
                s_dir.append(d)
                s_col.append(col)
                col += 1
        else:
            s = np.hypot(sx, sy)
            p_kflat.append(flat)
            p_nkflat.append(((-mx) % nx) * ny + ((-my) % ny))
            p_t.append(np.array([-sy, sx]) / s)
            p_cos.append(col)
            p_sin.append(col + 1)
            col += 2

    return SolenoidalBasis(
        grid=grid,
        dim=col,
        pair_kflat=np.array(p_kflat, dtype=np.intp),
        pair_negkflat=np.array(p_nkflat, dtype=np.intp),
        pair_t=np.array(p_t) if p_t else np.zeros((0, 2)),
        pair_cos_col=np.array(p_cos, dtype=np.intp),
        pair_sin_col=np.array(p_sin, dtype=np.intp),
        spec_kflat=np.array(s_kflat, dtype=np.intp),
        spec_dir=np.array(s_dir, dtype=np.intp),
        spec_col=np.array(s_col, dtype=np.intp),
    )


def fourier_parts_unique(amb: sp.spmatrix, grid: Grid):
    """``operators._fourier_parts`` with its terms and groups found by
    ``np.unique`` and one phase row per term: the reference its presence
    mask and per-offset phases are checked against, part for part."""
    nx, ny = grid.shape
    n = grid.ncells
    nblk = amb.shape[1] // n
    coo = sp.coo_matrix(amb)
    if not getattr(amb, "has_canonical_format", False):
        coo.sum_duplicates()
    rb, r = np.divmod(coo.row, n)
    cb, c = np.divmod(coo.col, n)
    offset = ((c // ny - r // ny) % nx) * ny + (c - r) % ny
    terms, term = np.unique((rb * nblk + cb) * n + offset, return_inverse=True)
    coef = np.zeros((terms.size, n))
    coef[term, r] = coo.data
    modes = np.fft.fft2(coef.reshape(-1, nx, ny)).reshape(terms.size, n) / n
    t, m = np.nonzero(np.abs(modes) >= _ROUNDOFF_RTOL * np.abs(modes).max(axis=1, keepdims=True))

    def signed(flat):
        kx, ky = np.divmod(flat, ny)
        return (kx + nx // 2) % nx - nx // 2, (ky + ny // 2) % ny - ny // 2

    (sx, sy), (qx, qy) = signed(terms % n), signed(np.arange(n))
    phase = np.exp(2j * np.pi * (np.outer(sx, qx) / nx + np.outer(sy, qy) / ny))
    groups, group = np.unique((terms[t] // n) * n + m, return_inverse=True)
    weights = sp.csr_matrix((modes[t, m], (group, t)), shape=(groups.size, terms.size))
    (rblk, cblk), (mx, my) = np.divmod(groups // n, nblk), np.divmod(groups % n, ny)
    q = np.arange(n)
    step = max(1, _PART_ENTRIES // n)
    for g in (slice(lo, lo + step) for lo in range(0, groups.size, step)):
        rows = rblk[g, None] * n + ((q // ny + mx[g, None]) % nx) * ny + (q + my[g, None]) % ny
        cols = cblk[g, None] * n + q
        vals = weights[g] @ phase
        yield sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=amb.shape)


def cosine_sums_pairwise(
    grid: Grid, rng: np.random.Generator, count: int, n_modes: int, kmax: int
) -> np.ndarray:
    """``carleman._cosine_sums`` with each wavevector drawn as one size=2
    integer array: the reference for its two scalar draws."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij", sparse=True)
    draws = np.array([
        (*rng.integers(-kmax, kmax + 1, size=2), rng.uniform(0, 2 * np.pi), rng.normal())
        for _ in range(count * n_modes)
    ]).reshape(count, n_modes, 4)
    f = np.zeros((count, *grid.shape))
    for kx, ky, phase, amp in draws.transpose(1, 2, 0)[..., None, None]:
        f += amp * np.cos(2 * np.pi * (kx * X / grid.Lx + ky * Y / grid.Ly) + phase)
    return f


def laplacian_symbol(basis: SolenoidalBasis, order: int) -> np.ndarray:
    """Per-column symbol of the order-2 or order-4 Laplacian stencil, which
    the basis diagonalizes exactly.  A column's wavevector is decoded from
    its flat fft2 index k = mx * ny + my."""
    g = basis.grid

    def sym1d(m, n, h):
        a = 2 * np.pi * m / n
        if order == 2:
            return (2 * np.cos(a) - 2) / h**2
        return (-2 * np.cos(2 * a) + 32 * np.cos(a) - 30) / (12 * h**2)

    def sym(kflat):
        mx, my = np.divmod(kflat, g.ny)
        return sym1d(mx, g.nx, g.hx) + sym1d(my, g.ny, g.hy)

    out = np.empty(basis.dim)
    out[basis.pair_cos_col] = out[basis.pair_sin_col] = sym(basis.pair_kflat)
    out[basis.spec_col] = sym(basis.spec_kflat)
    return out


def dense_spectrum(A: MhdSystem, how_many: int) -> SpectrumReport:
    """The leading eigenpairs of R from a dense eigendecomposition (small
    grids): every eigenvalue in sort order, cut after how_many + 8, with
    every cluster of the first how_many kept whole, checked and clustered
    by ``spectral._report``.  The multiplicity reference that
    ``compute_spectrum`` is cross-checked against."""
    lams, vecs = sla.eig(A.matrix.toarray())
    order = sorted(range(len(lams)), key=lambda i: _sort_key(lams[i]))
    keep = order[: min(how_many + 8, len(order))]
    lams, vecs = lams[keep], vecs[:, keep]
    keep = _complete_clusters(lams, how_many)
    return _report(A.matrix, A.sigma, lams[keep], vecs[:, keep])


def unstable_component(proj: UnstableProjection, x: np.ndarray) -> np.ndarray:
    """The biorthogonal projection of x onto the unstable subspace."""
    return proj.V @ proj.coords(x)


def symmetric_superlu(matrix: sp.spmatrix, a: complex, b: float) -> spla.SuperLU:
    """SuperLU's symmetric-mode factor of a*I + b*matrix, diagonal or not:
    the factor ``shifted_lu`` gives every non-diagonal shifted operator, and
    the reference of its diagonal solves."""
    shifted = a * sp.identity(matrix.shape[0], format="csc") + b * matrix.tocsc()
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def stable_complement_residual(
    trace: SimulationTrace, A: MhdSystem, proj: UnstableProjection, dt: float
) -> float:
    """Discrete variation-of-constants check for the stable complement.

    Recomputes each implicit step restricted to the complement and returns
    the largest mismatch against the stored trajectory.
    """
    lu = shifted_lu(A.matrix, 1.0, -dt)  # backward Euler step I - dt*A
    worst = 0.0
    for k in range(len(trace.times) - 1):
        x = trace.states[k]
        xnext = trace.states[k + 1]
        zeta = x - unstable_component(proj, x)
        zeta_next = xnext - unstable_component(proj, xnext)
        # control drive enters the complement only through its stable part
        step_in = trace.states[k + 1] - lu.solve(trace.states[k])
        pred = lu.solve(zeta) + (step_in - unstable_component(proj, step_in))
        worst = max(worst, float(np.max(np.abs(pred - zeta_next))))
    return worst


def stepwise_closed_loop(
    A: MhdSystem, design: FeedbackDesign, x0: np.ndarray, T: float, dt: float
) -> SimulationTrace:
    """The closed loop of ``simulate_closed_loop`` computed step by step in
    the state space: each step takes the unstable coordinates with
    ``proj.coords``, the unstable energy as ||V c||^2 and the amplitudes
    alpha = -gain c, and solves the backward Euler step for x + dt B alpha."""
    proj, gain = design.proj, design.gain
    lu = shifted_lu(A.matrix, 1.0, -dt)  # backward Euler step I - dt*A
    nsteps = int(round(T / dt))
    times = np.zeros(nsteps + 1)
    energies = np.zeros(nsteps + 1)
    energies_unstable = np.zeros(nsteps + 1)
    amplitudes = np.zeros((nsteps + 1, design.drive.shape[1]))
    x = np.asarray(x0, dtype=float)
    for k in range(nsteps + 1):
        times[k] = k * dt
        energies[k] = float(x @ x)
        c = proj.coords(x)
        xu = proj.V @ c
        energies_unstable[k] = float(xu @ xu)
        amplitudes[k] = -gain.gain @ c
        if k < nsteps:
            x = lu.solve(x + dt * (design.drive @ amplitudes[k]))
    return SimulationTrace(times, energies, energies_unstable, amplitudes)


def allocating_closed_loop(
    A: MhdSystem, design: FeedbackDesign, x0: np.ndarray, T: float, dt: float
) -> SimulationTrace:
    """``simulate_closed_loop`` with a new state array at every step,
    x = solve(x + drive @ (dt_gain @ c)): the reference its in-place step is
    checked against, bit for bit."""
    proj, gain = design.proj, design.gain
    lu = shifted_lu(A.matrix, 1.0, -dt)  # backward Euler step I - dt*A
    nsteps = int(round(T / dt))
    Wt, dt_gain = proj.W.T, dt * -gain.gain
    energies = np.zeros(nsteps + 1)
    coords = np.zeros((nsteps + 1, proj.N))
    x = np.asarray(x0, dtype=float)
    for k in range(nsteps + 1):
        energies[k] = float(x @ x)
        coords[k] = Wt @ x
        if k < nsteps:
            x = lu.solve(x + design.drive @ (dt_gain @ coords[k]))
    energies_unstable = np.einsum("ki,ij,kj->k", coords, proj.V.T @ proj.V, coords)
    return SimulationTrace(
        dt * np.arange(nsteps + 1), energies, energies_unstable, coords @ -gain.gain.T
    )


# ---------------------------------------------------------------------------
# Pressure Poisson problem on the torus
# ---------------------------------------------------------------------------
# The composed operator div(grad(.)) (the "wide" Laplacian) of the centered
# matrices is singular on a fully periodic grid, with the grid-parity
# constants as its null space; a bordered factorization solves it.  The
# package projects through the solenoidal basis instead, and these solves
# are the reference it is checked against.

def _parity_null_vectors(grid: Grid) -> np.ndarray:
    """Orthonormal null basis of the wide Laplacian on a fully periodic grid."""
    def axis_nulls(n: int) -> list[np.ndarray]:
        vecs = [np.ones(n)]
        if n % 2 == 0:
            vecs.append((-1.0) ** np.arange(n))
        return vecs

    cols = []
    for ax in axis_nulls(grid.nx):
        for ay in axis_nulls(grid.ny):
            v = np.outer(ax, ay).ravel()
            cols.append(v / np.linalg.norm(v))
    return np.array(cols).T


class PoissonSolver:
    """Bordered direct solver for the wide Laplacian of one periodic grid."""

    def __init__(self, grid: Grid, tol: float = 1e-12):
        if not grid.fully_periodic:
            raise ConfigurationError("the bordered Poisson solver needs a fully periodic grid")
        self.grid = grid
        self.tol = tol
        self.L = wide_laplacian_matrix(grid)
        V = _parity_null_vectors(grid)
        self._nborder = V.shape[1]
        bordered = sp.bmat([[self.L, sp.csr_matrix(V)], [sp.csr_matrix(V.T), None]], format="csc")
        self._lu = spla.splu(bordered)

    def solve(self, rhs: np.ndarray, ref: float | None = None) -> tuple[np.ndarray, float]:
        """Return (solution, residual relative to max(|rhs|, ref)); zero mean.

        ref guards the relative test when rhs is numerically zero (e.g. the
        divergence of an already projected field).
        """
        rhs = np.asarray(rhs).ravel()
        scale = max(np.linalg.norm(rhs), ref or 0.0)
        if scale == 0.0:
            return np.zeros_like(rhs), 0.0
        x = self._solve_bordered(rhs)
        # one refinement sweep buys ~3 digits on the composed operator
        x = x + self._solve_bordered(rhs - self.L @ x)
        res = np.linalg.norm(self.L @ x - rhs) / scale
        return x - x.mean(), float(res)

    def _solve_bordered(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return self._solve_bordered(rhs.real) + 1j * self._solve_bordered(rhs.imag)
        aug = self._lu.solve(np.concatenate([rhs, np.zeros(self._nborder)]))
        return aug[: rhs.size]


def poisson_solver(grid: Grid) -> PoissonSolver:
    """The grid's bordered Poisson solver, built once per grid."""
    if "poisson_oracle" not in grid._cache:
        grid._cache["poisson_oracle"] = PoissonSolver(grid)
    return grid._cache["poisson_oracle"]


def poisson_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Helmholtz projection v - grad(q) of a (2, nx, ny) field on the torus,
    with div(grad(q)) = div(v) solved to the solver's tolerance."""
    solver = poisson_solver(grid)
    flat = v.reshape(-1)
    # derivative-scaled reference keeps the tolerance meaningful for
    # already-solenoidal inputs whose divergence is roundoff
    ref = float(np.linalg.norm(flat)) * 2.0 / min(grid.hx, grid.hy)
    q, res = solver.solve(divergence_matrix(grid) @ flat, ref)
    if res > solver.tol:
        raise NumericalError(
            "pressure Poisson solve did not reach tolerance",
            detail={"residual": res, "tol": solver.tol},
        )
    return (flat - gradient_matrix(grid) @ q).reshape(v.shape)


def poisson_control_fields(grid: Grid, actuators: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The applied control fields through the pressure Poisson problem:
    ``poisson_project`` of each component of each actuator, then the
    restriction to omega, in the (K, 2, 2, nx, ny) layout of the actuators."""
    out = np.empty_like(actuators)
    for j, actuator in enumerate(actuators):
        for c, field in enumerate(actuator):
            out[j, c] = poisson_project(grid, field) * omega
    return out


# ---------------------------------------------------------------------------
# Steady form of the eigenproblem
# ---------------------------------------------------------------------------
# The semigroup generator and the steady eigenvalue problem state the same
# balance with opposite sign: a generator pair (lam, Phi) solves the steady
# system with eigenvalue sigma - lam once the shift is removed.

def pressure_from_state(system: MhdSystem, s: StateVector) -> ScalarField:
    """Solve div(grad p) = -div L1 phi + div L2 xi, zero-mean gauge."""
    g = system.grid
    b = system.blocks()
    D = divergence_matrix(g)
    adv1 = b["L1"] @ s.phi.ravel()
    adv2 = b["L2"] @ s.xi.ravel()
    rhs = -(D @ adv1) + D @ adv2
    solver = poisson_solver(g)
    # reference scale keeps the tolerance meaningful when the divergence
    # of the advective terms is exactly zero (constant-coefficient cases)
    ref = (np.linalg.norm(adv1) + np.linalg.norm(adv2)) * 2.0 / min(g.hx, g.hy)
    p, res = solver.solve(rhs, ref)
    if res > solver.tol and np.linalg.norm(rhs) > 0:
        raise NumericalError(
            "pressure Poisson solve did not converge", detail={"residual": res}
        )
    return ScalarField(g, p.reshape(g.shape))


def steady_rows(
    system: MhdSystem, lam: complex, phi: np.ndarray, xi: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both rows of the steady eigen-system at elliptic eigenvalue lam,
    applied to flat (phi, xi, p)."""
    b = system.blocks()
    r_phi = (
        -system.nu * (b["vlap"] @ phi)
        + b["L1"] @ phi
        - b["L2"] @ xi
        + gradient_matrix(system.grid) @ p
        - lam * phi
    )
    r_xi = (
        -system.eta * (b["vlap"] @ xi)
        + b["M1"] @ xi
        - b["M2"] @ phi
        - lam * xi
    )
    return r_phi, r_xi


def pde_residual(
    system: MhdSystem, lam_generator: complex, s: StateVector, p: ScalarField | None = None
) -> dict:
    """Residual of the steady eigen-system rows for a computed pair."""
    g = system.grid
    if p is None:
        p = pressure_from_state(system, s)
    lam = system.sigma - lam_generator
    r_phi, r_xi = steady_rows(system, lam, s.phi.ravel(), s.xi.ravel(), p.values.ravel())
    dA = np.sqrt(g.cell_area)
    norm = s.norm()
    res_phi = float(np.linalg.norm(r_phi) * dA)
    res_xi = float(np.linalg.norm(r_xi) * dA)
    return {
        "residual_phi": res_phi,
        "residual_xi": res_xi,
        "relative": (res_phi + res_xi) / norm if norm else 0.0,
    }


def xi_row_leakage(system: MhdSystem, s: StateVector) -> float:
    """Norm of the non-solenoidal remainder of the xi row (diagnostic).

    The written equations apply the Helmholtz projection only where the
    pressure is eliminated; on the discrete solenoidal subspace projecting
    the xi row too changes nothing, and this reports the size of the
    off-subspace component that choice discards.
    """
    g = system.grid
    b = system.blocks()
    rhs = system.eta * (b["vlap"] @ s.xi.ravel()) - b["M1"] @ s.xi.ravel() + b["M2"] @ s.phi.ravel()
    v = rhs.reshape((2,) + g.shape)
    diff = v - system.basis.synthesize(system.basis.analyze(v))
    return float(np.linalg.norm(diff) * np.sqrt(g.cell_area))


# ---------------------------------------------------------------------------
# Cutoff and its commutators
# ---------------------------------------------------------------------------

@dataclass
class CutoffField:
    regions: RegionSet
    values: np.ndarray
    transition_lo: float  # distance where the quintic starts (chi = 1 before)
    transition_hi: float  # distance where the quintic ends (chi = 0 after)


def build_cutoff(regions: RegionSet) -> CutoffField:
    """chi = 1 on omega, Omega1 and the inner guard layer of OmegaStar, 0 on
    Omega0 and the outer guard layer, and a C^2 monotone quintic step over
    ``geometry.transition_band`` in between."""
    lo, hi = transition_band(regions)
    t = np.clip((regions.dist_to_omega - lo) / (hi - lo), 0.0, 1.0)
    chi = 1.0 - (10 * t**3 - 15 * t**4 + 6 * t**5)
    chi[regions.omega | regions.omega1] = 1.0
    chi[regions.omega0] = 0.0
    return CutoffField(regions, chi, lo, hi)


class CommutatorSupportError(MhdLabError):
    """Cutoff commutator leaked outside the transition region."""


@dataclass
class CommutatorForcing:
    F_chi: VectorField2
    G_chi: VectorField2
    T_chi: ScalarField
    max_outside_omega_star: float
    scale: float


def _chi_commutator(op: sp.spmatrix, chi_flat: np.ndarray, f_flat: np.ndarray, order: str):
    """[chi, Op]f = chi*(Op f) - Op(chi*f) for order "chi_first", the reverse
    for order "op_first"; both appear in the forcing formulas."""
    if order == "chi_first":
        return chi_flat * (op @ f_flat) - op @ (chi_flat * f_flat)
    return op @ (chi_flat * f_flat) - chi_flat * (op @ f_flat)


def build_commutators(
    chi: CutoffField,
    s: StateVector,
    p: ScalarField,
    system: MhdSystem,
    check_support: bool = True,
) -> CommutatorForcing:
    """Literal operator-ordering differences driving the cutoff system.

    F = nu*[chi,Lap]phi + [L1,chi]phi - [L2,chi]xi + [grad,chi]p
    G = eta*[chi,Lap]xi + [M1,chi]xi  - [M2,chi]phi
    T = [Lap_p,chi]p + [divL1,chi]phi - [divL2,chi]xi

    with [chi,A]f = chi(Af) - A(chi f) and [A,chi]f = A(chi f) - chi(Af);
    Lap_p is the composed pressure Laplacian, and Lap, L1, L2, M1, M2 are the
    system's cached blocks.  All three vanish identically wherever chi is
    constant across the stencil, hence inside omega, Omega1, Omega0 and the
    guard layers; leakage beyond the transition band raises.
    """
    g = s.grid
    if not same_grid(chi.regions.grid, g) or not same_grid(p.grid, g):
        raise ShapeError("cutoff, state and pressure must share one grid")
    nu, eta = system.nu, system.eta
    chi2 = np.concatenate([chi.values.ravel()] * 2)
    chi1 = chi.values.ravel()

    b = system.blocks()
    vlap, L1, L2, M1, M2 = b["vlap"], b["L1"], b["L2"], b["M1"], b["M2"]
    D = divergence_matrix(g)
    Grad = gradient_matrix(g)
    lap_p = wide_laplacian_matrix(g)
    divL1 = (D @ L1).tocsr()
    divL2 = (D @ L2).tocsr()

    phi_f, xi_f, p_f = s.phi.ravel(), s.xi.ravel(), p.values.ravel()

    F = (
        nu * _chi_commutator(vlap, chi2, phi_f, "chi_first")
        + _chi_commutator(L1, chi2, phi_f, "op_first")
        - _chi_commutator(L2, chi2, xi_f, "op_first")
        + (Grad @ (chi1 * p_f) - chi2 * (Grad @ p_f))
    )
    G = (
        eta * _chi_commutator(vlap, chi2, xi_f, "chi_first")
        + _chi_commutator(M1, chi2, xi_f, "op_first")
        - _chi_commutator(M2, chi2, phi_f, "op_first")
    )
    # div L_i maps vector to scalar: chi acts as chi2 inside, chi1 outside
    T = (
        (lap_p @ (chi1 * p_f) - chi1 * (lap_p @ p_f))
        + (divL1 @ (chi2 * phi_f) - chi1 * (divL1 @ phi_f))
        - (divL2 @ (chi2 * xi_f) - chi1 * (divL2 @ xi_f))
    )

    Fv = VectorField2.from_flat(g, F)
    Gv = VectorField2.from_flat(g, G)
    Tv = ScalarField(g, T.reshape(g.shape))

    regions = chi.regions
    outside = ~regions.omega_star
    out_max = max(
        float(Fv.magnitude()[outside].max(initial=0.0)),
        float(Gv.magnitude()[outside].max(initial=0.0)),
        float(np.abs(Tv.values)[outside].max(initial=0.0)),
    )
    scale = max(
        float(Fv.magnitude().max()), float(Gv.magnitude().max()),
        float(np.abs(Tv.values).max()), 1e-300,
    )
    if check_support and out_max > COMMUTATOR_SUPPORT_TOL * scale:
        raise CommutatorSupportError(
            f"commutator forcing leaks outside the transition band "
            f"({out_max:.2e} vs scale {scale:.2e}); chi guard layers are too thin"
        )
    return CommutatorForcing(Fv, Gv, Tv, out_max, scale)


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
    lam = system.sigma - lam_generator
    chi1 = chi.values.ravel()
    chi2 = np.concatenate([chi1] * 2)
    r_phi, r_xi = steady_rows(
        system, lam, chi2 * s.phi.ravel(), chi2 * s.xi.ravel(), chi1 * p.values.ravel()
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
    }


# ---------------------------------------------------------------------------
# tau-sweep bounds of an omega-vanishing state
# ---------------------------------------------------------------------------

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
    sums = _cosine_sums(g, rng, 5, 5, 3, np.arange(g.ncells))
    phi1, phi2, xi1, xi2, p = rise * sums.reshape(5, *g.shape)
    return StateVector(VectorField2(g, phi1, phi2), VectorField2(g, xi1, xi2)), ScalarField(g, p)


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


def tau_sweep_vanishing(
    s: StateVector,
    p_field: ScalarField,
    regions: RegionSet,
    tau_list: list[float],
) -> dict:
    """Decay table of the band bounds for an omega-vanishing solution.

    The transition-region integrals C1, C2 are fixed numbers for a fixed
    solution, and the bounds are C1/tau^4 + C2/tau^3 (state) and
    C1/tau^3 + C2/tau^2 (pressure).  For any C1, C2 >= 0, not both zero,
    doubling tau divides the state bound by a factor in [8, 16] and the
    pressure bound by one in [4, 8].  So strictly monotone decay and
    halving exponents >= 3 and >= 2 hold by construction once the state
    vanishes on omega: this checks that precondition and the arithmetic,
    not the Carleman estimate itself.
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
