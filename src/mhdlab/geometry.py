"""Nested subdomain decomposition, the cutoff's transition band, and the
Carleman weight.

The domain splits into four disjoint cell sets: the control patch omega, a
band Omega1 that surrounds and borders it, a wider transition band OmegaStar
surrounding Omega1, and the remainder Omega0.  Bands are carved from the
Euclidean distance to omega, which makes "surrounds and borders" hold for
every omega shape (interior disc or boundary collar) with one code path.

The cutoff chi is exactly 1 on omega, Omega1 and an inner guard layer of
OmegaStar, exactly 0 on Omega0 and an outer guard layer of OmegaStar, and a
quintic monotone transition in between.  Guard layers keep every stencil of
half-width <= the layer size from seeing a non-constant chi outside the
transition band, which is what confines commutator forcings to OmegaStar.
The pipeline checks only that the band fits (``transition_band``); the
cutoff and its commutators are test oracles.

The weight psi is a shifted anchored quadratic |x - a|^2 - r0^2 (optionally
axis-stretched), so its Hessian is constant and its only critical point is
the anchor, placed outside the working band G = Omega1 u OmegaStar.  The
convexity constant rho and gradient floor kgrad are evaluated exhaustively
over the G cells and are hard requirements; the sign pattern of psi over the
bands is geometry-dependent and is validated and reported, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import GeometryError, ResolutionError, WeightConstructionError
from .grid import BcKind, Grid

CHI_ONE_LAYER_CELLS = 2   # guard >= max stencil half-width seen by commutators
CHI_ZERO_LAYER_CELLS = 3  # layer of OmegaStar bordering Omega0 where chi == 0
MIN_TRANSITION_CELLS = 3
# Default widths of Omega1 and OmegaStar, as fractions of the shorter side.
OMEGA1_WIDTH_FRAC = 0.07
OMEGA_STAR_WIDTH_FRAC = 0.26
# (edge cell, outside cell) distances computed at once; bounds the memory of
# the distance to omega on large grids.
_DISTANCE_CHUNK = 1 << 20


class GeometryCase(str, Enum):
    interior_patch = "interior_patch"
    full_collar = "full_collar"
    partial_collar = "partial_collar"


@dataclass(frozen=True, kw_only=True)
class OmegaSpec:
    """Control region: a disc (interior case) or a boundary collar, of one size."""

    shape: str = "disc"                    # "disc" | "collar"
    size: float                            # the disc's radius or the collar's depth
    center: tuple[float, float] | None = None  # disc; None: the domain centre
    side: str = "all"                      # collar: "all" or one of x0,x1,y0,y1
    span: tuple[float, float] = (0.0, 1.0)  # partial collar: fraction along the side


@dataclass
class RegionSet:
    grid: Grid
    omega: np.ndarray
    omega1: np.ndarray
    omega_star: np.ndarray
    omega0: np.ndarray
    geometry_case: GeometryCase
    omega_spec: OmegaSpec  # its center resolved
    dist_to_omega: np.ndarray = field(repr=False)
    omega1_width: float = 0.0
    omega_star_width: float = 0.0

    @property
    def G(self) -> np.ndarray:
        """Working band Omega1 u OmegaStar."""
        return self.omega1 | self.omega_star

    @property
    def diameter(self) -> float:
        """Diameter of the nest: twice omega's size plus both band widths."""
        return 2.0 * (self.omega_spec.size + self.omega1_width + self.omega_star_width)

    @property
    def band_cell(self) -> float:
        """Cell size the band margins count in: the wall-normal spacing for
        a full collar on one wall pair, the larger spacing otherwise."""
        g = self.grid
        if self.geometry_case is GeometryCase.full_collar and g.bc_x is not g.bc_y:
            return g.hy if g.bc_y is BcKind.wall else g.hx
        return max(g.hx, g.hy)

    def validate(self) -> None:
        total = (
            self.omega.astype(int)
            + self.omega1.astype(int)
            + self.omega_star.astype(int)
            + self.omega0.astype(int)
        )
        if not np.all(total == 1):
            raise GeometryError("regions do not partition the cell set")
        for name, mask in (
            ("omega", self.omega),
            ("omega1", self.omega1),
            ("omega_star", self.omega_star),
            ("omega0", self.omega0),
        ):
            if not mask.any():
                raise GeometryError(f"region {name} is empty")


def _omega_mask(grid: Grid, spec: OmegaSpec, case: GeometryCase) -> np.ndarray:
    X, Y = grid.meshgrid()
    if case is GeometryCase.interior_patch:
        if spec.shape != "disc":
            raise GeometryError("interior_patch needs a disc omega")
        cx, cy = spec.center
        return np.hypot(X - cx, Y - cy) <= spec.size

    if spec.shape != "collar":
        raise GeometryError("collar cases need a collar omega")
    if grid.fully_periodic:
        raise GeometryError("collar geometry needs at least one wall direction")
    d_wall = np.full(grid.shape, np.inf)
    sides = {
        "x0": (grid.bc_x is BcKind.wall, X),
        "x1": (grid.bc_x is BcKind.wall, grid.Lx - X),
        "y0": (grid.bc_y is BcKind.wall, Y),
        "y1": (grid.bc_y is BcKind.wall, grid.Ly - Y),
    }
    if case is GeometryCase.full_collar:
        chosen = [k for k, (is_wall, _) in sides.items() if is_wall]
    else:
        if spec.side not in sides or not sides[spec.side][0]:
            raise GeometryError(f"partial collar side {spec.side!r} is not a wall")
        chosen = [spec.side]
    for k in chosen:
        d_wall = np.minimum(d_wall, sides[k][1])
    mask = d_wall <= spec.size
    if case is GeometryCase.partial_collar:
        lo, hi = spec.span
        along = X / grid.Lx if spec.side in ("y0", "y1") else Y / grid.Ly
        mask &= (along >= lo) & (along <= hi)
    return mask


def _distance_to(omega: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Euclidean distance from each cell centre to the nearest omega cell
    centre, 0 on omega; the grid is not wrapped.

    The nearest omega cell is always an edge cell (one with an in-grid
    4-neighbour outside omega): from any other omega cell a step toward the
    target stays in omega and gets closer.  Each candidate's squared
    distance is ((bi - i) hx)^2 + ((bj - j) hy)^2, with one square root of
    the minimum, as scipy.ndimage.distance_transform_edt computes it.
    """
    full = np.pad(omega, 1, constant_values=True)
    interior = full[:-2, 1:-1] & full[2:, 1:-1] & full[1:-1, :-2] & full[1:-1, 2:]
    bi, bj = np.nonzero(omega & ~interior)
    oi, oj = np.nonzero(~omega)
    d2 = np.full(oi.size, np.inf)
    step = max(1, _DISTANCE_CHUNK // max(1, oi.size))
    for lo in range(0, bi.size, step):
        ci, cj = bi[lo : lo + step, None], bj[lo : lo + step, None]
        d2 = np.minimum(d2, (((ci - oi) * hx) ** 2 + ((cj - oj) * hy) ** 2).min(axis=0))
    d = np.zeros(omega.shape)
    d[oi, oj] = np.sqrt(d2)
    return d


def build_nested_regions(
    grid: Grid,
    omega_spec: OmegaSpec,
    case: GeometryCase | str = GeometryCase.interior_patch,
    omega1_width: float | None = None,
    omega_star_width: float | None = None,
) -> RegionSet:
    case = GeometryCase(case)
    minL = min(grid.Lx, grid.Ly)
    w1 = omega1_width if omega1_width is not None else OMEGA1_WIDTH_FRAC * minL
    ws = omega_star_width if omega_star_width is not None else OMEGA_STAR_WIDTH_FRAC * minL

    if omega_spec.center is None:
        omega_spec = replace(omega_spec, center=(grid.Lx / 2, grid.Ly / 2))

    omega = _omega_mask(grid, omega_spec, case)
    if not omega.any():
        raise GeometryError("omega is empty at this resolution")

    d = _distance_to(omega, grid.hx, grid.hy)
    omega1 = (d > 0) & (d <= w1)
    omega_star = (d > w1) & (d <= w1 + ws)
    omega0 = d > w1 + ws

    if case is GeometryCase.interior_patch:
        # keep the whole nest strictly inside the box (also guards the
        # non-periodic distance transform against wrap-around artifacts)
        cx, cy = omega_spec.center
        outer = omega_spec.size + w1 + ws
        margin = min(cx, grid.Lx - cx, cy, grid.Ly - cy)
        if outer >= margin:
            raise GeometryError(
                f"omega nest of outer radius {outer:.3g} does not fit strictly "
                f"inside the domain (margin {margin:.3g})"
            )

    regions = RegionSet(
        grid=grid,
        omega=omega,
        omega1=omega1,
        omega_star=omega_star,
        omega0=omega0,
        geometry_case=case,
        dist_to_omega=d,
        omega1_width=w1,
        omega_star_width=ws,
        omega_spec=omega_spec,
    )
    regions.validate()
    return regions


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

def transition_band(regions: RegionSet) -> tuple[float, float]:
    """Distances (lo, hi) from omega over which the cutoff falls from 1 to
    0, inside the guard layers of OmegaStar; raises ResolutionError when the
    band is narrower than MIN_TRANSITION_CELLS cells of ``band_cell``."""
    h = regions.band_cell
    lo = regions.omega1_width + CHI_ONE_LAYER_CELLS * h
    hi = regions.omega1_width + regions.omega_star_width - CHI_ZERO_LAYER_CELLS * h
    if hi - lo < MIN_TRANSITION_CELLS * h:
        raise ResolutionError(
            f"cutoff transition band is {(hi - lo) / h:.2f} cells wide; "
            f"need at least {MIN_TRANSITION_CELLS} (widen omega_star or refine)"
        )
    return lo, hi


# ---------------------------------------------------------------------------
# Weight
# ---------------------------------------------------------------------------

@dataclass
class WeightField:
    regions: RegionSet
    psi: np.ndarray
    rho: float      # min Hessian eigenvalue over G
    kgrad: float    # min |grad psi| over G
    anchor: tuple[float, float]
    r0_sq: float
    stretch: tuple[float, float] = (1.0, 1.0)
    sign_violations_omega1: int = 0
    sign_violations_outer: int = 0
    # derived arrays (Carleman band weights per tau); a copy made with
    # dataclasses.replace starts empty
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _discrete_hessian_min(psi: np.ndarray, g: Grid, mask: np.ndarray) -> float:
    """Smallest eigenvalue of the 2x2 second-difference Hessian over a mask.

    Uses shifted differences without wrap-around; psi is a fixed function of
    position, not a periodic grid function.  One-sided closures are exact for
    quadratics, which is all we build.
    """
    hx, hy = g.hx, g.hy
    pxx = np.empty_like(psi)
    pxx[1:-1, :] = (psi[2:, :] - 2 * psi[1:-1, :] + psi[:-2, :]) / hx**2
    pxx[0, :] = pxx[1, :]
    pxx[-1, :] = pxx[-2, :]
    pyy = np.empty_like(psi)
    pyy[:, 1:-1] = (psi[:, 2:] - 2 * psi[:, 1:-1] + psi[:, :-2]) / hy**2
    pyy[:, 0] = pyy[:, 1]
    pyy[:, -1] = pyy[:, -2]
    pxy = np.zeros_like(psi)
    pxy[1:-1, 1:-1] = (
        psi[2:, 2:] - psi[2:, :-2] - psi[:-2, 2:] + psi[:-2, :-2]
    ) / (4 * hx * hy)
    pxy[0, :], pxy[-1, :] = pxy[1, :], pxy[-2, :]
    pxy[:, 0], pxy[:, -1] = pxy[:, 1], pxy[:, -2]
    half_tr = 0.5 * (pxx + pyy)
    disc = np.sqrt((0.5 * (pxx - pyy)) ** 2 + pxy**2)
    lam_min = half_tr - disc
    return float(lam_min[mask].min())


def _gradient_min(psi_exact_grad: tuple[np.ndarray, np.ndarray], mask: np.ndarray) -> float:
    gx, gy = psi_exact_grad
    mag = np.hypot(gx, gy)
    return float(mag[mask].min())


def build_weight(regions: RegionSet) -> WeightField:
    g = regions.grid
    X, Y = g.meshgrid()
    case = regions.geometry_case
    spec = regions.omega_spec
    stretch = (1.0, 1.0)

    if case is GeometryCase.interior_patch:
        ax_, ay_ = spec.center
        r0_sq = (spec.size + regions.omega1_width) ** 2
    elif case is GeometryCase.full_collar:
        ax_, ay_ = g.Lx / 2, g.Ly / 2
        one_wall_pair = (g.bc_x is BcKind.wall) != (g.bc_y is BcKind.wall)
        if one_wall_pair:
            # channel: flatten the periodic direction so band level sets
            # follow the collar while keeping a strictly positive Hessian;
            # the stretch is sized from the measured band gap so the sign
            # split survives the corner cells of the periodic direction
            wall_is_y = g.bc_y is BcKind.wall
            wall_c = (Y - ay_) ** 2 if wall_is_y else (X - ax_) ** 2
            other_c = (X - ax_) ** 2 if wall_is_y else (Y - ay_) ** 2
            gap = wall_c[regions.omega1].min() - wall_c[regions.omega_star].max()
            denom = other_c[regions.G].max()
            eps = 0.8 * gap / denom if (gap > 0 and denom > 0) else 1e-3
            eps = float(min(0.05, max(eps, 1e-6)))
            stretch = (eps, 1.0) if wall_is_y else (1.0, eps)
        r0_sq = None
    else:  # partial_collar: anchor beyond the opposite boundary
        depth = max(g.Lx, g.Ly)
        anchors = {
            "y0": (g.Lx / 2, g.Ly + depth),
            "y1": (g.Lx / 2, -depth),
            "x0": (g.Lx + depth, g.Ly / 2),
            "x1": (-depth, g.Ly / 2),
        }
        ax_, ay_ = anchors[spec.side]
        r0_sq = None

    sx, sy = stretch
    rad_sq = sx * (X - ax_) ** 2 + sy * (Y - ay_) ** 2
    Gmask = regions.G
    if r0_sq is None:
        # split the band radii: psi >= 0 on the side of Omega1, <= 0 beyond
        lo = rad_sq[regions.omega1].min()
        hi = rad_sq[regions.omega_star].max()
        r0_sq = 0.5 * (lo + hi)
    psi = rad_sq - r0_sq

    rho = _discrete_hessian_min(psi, g, Gmask)
    gx = 2 * sx * (X - ax_)
    gy = 2 * sy * (Y - ay_)
    kgrad = _gradient_min((gx, gy), Gmask)
    if rho <= 0 or kgrad <= 0:
        raise WeightConstructionError(
            f"weight rejected: rho={rho:.3e}, kgrad={kgrad:.3e} must be positive on G"
        )

    if case is GeometryCase.interior_patch:
        viol1 = int(np.sum(psi[regions.omega1] > 0))  # interior case: psi <= 0 inward
        viol_out = int(np.sum(psi[regions.omega_star | regions.omega0] < 0))
    else:
        viol1 = int(np.sum(psi[regions.omega1] < 0))
        viol_out = int(np.sum(psi[regions.omega_star | regions.omega0] > 0))

    return WeightField(
        regions=regions,
        psi=psi,
        rho=rho,
        kgrad=kgrad,
        anchor=(float(ax_), float(ay_)),
        r0_sq=float(r0_sq),
        stretch=stretch,
        sign_violations_omega1=viol1,
        sign_violations_outer=viol_out,
    )
