import numpy as np
import pytest

from mhdlab import (
    GeometryCase,
    OmegaSpec,
    build_grid,
    build_nested_regions,
    build_weight,
)
from mhdlab.errors import (
    ConfigurationError,
    GeometryError,
    ResolutionError,
    WeightConstructionError,
)
from mhdlab.geometry import RegionSet, _distance_to
from oracles import build_cutoff

L = 2 * np.pi


class TestBuildGrid:
    def test_periodic_spacings(self):
        g = build_grid(L, L, 32, 32)
        assert g.hx == pytest.approx(L / 32)
        assert g.hy == pytest.approx(L / 32)
        assert g.fully_periodic

    def test_below_minimum_cells(self):
        with pytest.raises(ConfigurationError):
            build_grid(1.0, 1.0, 4, 16)

    def test_wall_grid_spacings(self):
        g = build_grid(2.0, 1.0, 64, 32, "wall", "wall")
        assert g.hx == pytest.approx(1 / 32)
        assert g.hy == pytest.approx(1 / 32)

    def test_nonpositive_extent(self):
        with pytest.raises(ConfigurationError):
            build_grid(-1.0, 1.0, 16, 16)


class TestRegions:
    def test_interior_patch_partition(self, regions32):
        total = (
            regions32.omega.astype(int)
            + regions32.omega1.astype(int)
            + regions32.omega_star.astype(int)
            + regions32.omega0.astype(int)
        )
        assert np.all(total == 1)
        for name in ("omega", "omega1", "omega_star", "omega0"):
            assert getattr(regions32, name).any()

    def test_surrounds_and_borders(self, regions32):
        # every omega1 cell is within one band width of omega, and omega's
        # neighbors outside omega are omega1 cells
        d = regions32.dist_to_omega
        assert d[regions32.omega1].max() <= regions32.omega1_width + 1e-12
        grown = np.zeros_like(regions32.omega)
        for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
            grown |= np.roll(regions32.omega, sh, axis=ax)
        ring = grown & ~regions32.omega
        assert np.all(regions32.omega1[ring])

    def test_full_collar_ordered_inward(self, channel):
        regions = build_nested_regions(
            channel,
            OmegaSpec(size=0.25),
            GeometryCase.full_collar,
            omega1_width=0.25,
            omega_star_width=0.375,
        )
        y = channel.y
        # representative cells from the wall inward: omega, omega1, omega_star, omega0
        jwall, j1, jstar, jmid = 0, 3, 5, channel.ny // 2
        assert regions.omega[0, jwall]
        assert regions.omega1[0, j1]
        assert regions.omega_star[0, jstar]
        assert regions.omega0[0, jmid]

    def test_partial_collar(self, channel):
        regions = build_nested_regions(
            channel,
            OmegaSpec(size=0.25, side="y0", span=(0.25, 0.75)),
            GeometryCase.partial_collar,
            omega1_width=0.25,
            omega_star_width=0.375,
        )
        regions.validate()
        X, _ = channel.meshgrid()
        assert not regions.omega[X < 0.2 * channel.Lx].any()

    @pytest.mark.parametrize(
        "grid_args, spec, case",
        [
            ((L, L, 32, 32), OmegaSpec(size=0.15 * L), "interior_patch"),
            ((L, 4.0, 40, 24), OmegaSpec(size=0.5), "interior_patch"),
            ((L, 2.0, 32, 16, "periodic", "wall"), OmegaSpec(size=0.25), "full_collar"),
            ((3.0, 2.0, 36, 20, "wall", "wall"), OmegaSpec(size=0.3), "full_collar"),
            (
                (L, 2.0, 32, 16, "periodic", "wall"),
                OmegaSpec(size=0.25, side="y0", span=(0.25, 0.75)),
                "partial_collar",
            ),
            (
                (2.0, 3.0, 20, 28, "wall", "periodic"),
                OmegaSpec(size=0.3, side="x1", span=(0.1, 0.6)),
                "partial_collar",
            ),
        ],
    )
    def test_distance_equals_scipy_edt(self, grid_args, spec, case):
        ndimage = pytest.importorskip("scipy.ndimage")
        grid = build_grid(*grid_args)
        regions = build_nested_regions(grid, spec, case)
        ref = ndimage.distance_transform_edt(~regions.omega, sampling=(grid.hx, grid.hy))
        assert np.array_equal(regions.dist_to_omega, ref)

    def test_distance_equals_scipy_edt_on_random_masks(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(11)
        for _ in range(50):
            shape = tuple(rng.integers(3, 40, size=2))
            hx, hy = rng.uniform(0.05, 1.0, size=2)
            mask = rng.random(shape) < rng.uniform(0.02, 0.9)
            mask[rng.integers(shape[0]), rng.integers(shape[1])] = True
            ref = ndimage.distance_transform_edt(~mask, sampling=(hx, hy))
            assert np.array_equal(_distance_to(mask, hx, hy), ref)

    def test_omega_too_large(self, box32):
        with pytest.raises(GeometryError):
            build_nested_regions(box32, OmegaSpec(size=0.9 * L))

    def test_collar_needs_wall(self, box32):
        with pytest.raises(GeometryError):
            build_nested_regions(
                box32, OmegaSpec(size=0.3), GeometryCase.full_collar
            )

    @pytest.mark.parametrize(
        "spec",
        [
            dict(shape="disc", size=0.3),
            dict(shape="collar", size=0.3),
            dict(radius=0.9),
            dict(width=0.3),
            dict(),
        ],
    )
    def test_omega_spec_carries_its_shape_size_only(self, spec):
        # one size, the disc's radius or the collar's depth, set by keyword;
        # the case sets the shape, so a spec has none
        with pytest.raises(TypeError, match="shape|size|radius|width"):
            OmegaSpec(**spec)

    def test_the_case_sets_omega_shape(self):
        # one spec: a disc about the centre in the interior case, a collar
        # along both walls in the full-collar case
        channel = build_grid(L, 2.0, 32, 16, "periodic", "wall")
        X, Y = channel.meshgrid()
        disc = build_nested_regions(channel, OmegaSpec(size=0.3), "interior_patch")
        collar = build_nested_regions(channel, OmegaSpec(size=0.3), "full_collar")
        assert np.array_equal(disc.omega, np.hypot(X - L / 2, Y - 1.0) <= 0.3)
        assert np.array_equal(collar.omega, np.minimum(Y, 2.0 - Y) <= 0.3)

    @pytest.mark.parametrize(
        "bcs, cells, side, cell",
        [
            (("periodic", "wall"), (20, 40), "all", "hy"),
            (("wall", "periodic"), (40, 20), "all", "hx"),
            (("wall", "wall"), (20, 40), "all", "max"),
            (("periodic", "wall"), (20, 40), "y0", "max"),
            (("periodic", "periodic"), (20, 40), None, "max"),
        ],
    )
    def test_band_cell_is_the_wall_normal_spacing_of_a_channel_collar(self, bcs, cells, side, cell):
        # a collar on one wall pair has bands that run along the walls: their
        # margins count in the wall-normal cells, here the finer ones
        grid = build_grid(3.0, 4.0, *cells, *bcs)
        if side is None:
            spec, case = OmegaSpec(size=0.3), "interior_patch"
        elif side == "all":
            spec, case = OmegaSpec(size=0.3), "full_collar"
        else:
            spec = OmegaSpec(size=0.3, side=side, span=(0.25, 0.75))
            case = "partial_collar"
        regions = build_nested_regions(grid, spec, case)
        want = max(grid.hx, grid.hy) if cell == "max" else getattr(grid, cell)
        assert regions.band_cell == want
        assert cell == "max" or want < max(grid.hx, grid.hy)
        w1, ws = regions.omega1_width, regions.omega_star_width
        assert regions.diameter == 2.0 * (0.3 + w1 + ws)

    def test_default_center_is_the_domain_centre(self, regions32):
        assert regions32.omega_spec.center == (L / 2, L / 2)


class TestCutoff:
    def test_plateau_values_exact(self, regions32, chi32):
        assert np.all(chi32.values[regions32.omega] == 1.0)
        assert np.all(chi32.values[regions32.omega1] == 1.0)
        assert np.all(chi32.values[regions32.omega0] == 0.0)
        inside = chi32.values[regions32.omega_star]
        assert inside.min() >= 0.0 and inside.max() <= 1.0

    def test_transition_midpoint_half(self, regions32, chi32):
        mid = 0.5 * (chi32.transition_lo + chi32.transition_hi)
        d = regions32.dist_to_omega
        j = np.unravel_index(np.argmin(np.abs(d - mid)), d.shape)
        # quintic is symmetric: value at the exact midpoint is 1/2; the nearest
        # cell sits within one cell of it
        width = chi32.transition_hi - chi32.transition_lo
        slope_bound = 1.95 / width  # max quintic slope 15/8 * 1/width
        h = max(regions32.grid.hx, regions32.grid.hy)
        assert abs(chi32.values[j] - 0.5) <= slope_bound * (abs(d[j] - mid) + 1e-12) + 1e-12
        t = (d[j] - chi32.transition_lo) / width
        expect = 1.0 - (10 * t**3 - 15 * t**4 + 6 * t**5)
        assert chi32.values[j] == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_distance(self, regions32, chi32):
        d = regions32.dist_to_omega[regions32.omega_star]
        c = chi32.values[regions32.omega_star]
        order = np.argsort(d)
        diffs = np.diff(c[order])
        assert np.all(diffs <= 1e-12)

    def test_c2_bounded_second_differences(self, box32, regions32, chi32):
        h = box32.hx
        v = chi32.values
        d2x = (np.roll(v, -1, 0) - 2 * v + np.roll(v, 1, 0)) / h**2
        d2y = (np.roll(v, -1, 1) - 2 * v + np.roll(v, 1, 1)) / h**2
        width = chi32.transition_hi - chi32.transition_lo
        bound = 12.0 / width**2  # quintic second-derivative peak is ~5.77/W^2
        assert np.abs(d2x).max() <= bound
        assert np.abs(d2y).max() <= bound

    def test_transition_too_thin(self, box32):
        regions = build_nested_regions(
            box32,
            OmegaSpec(size=0.15 * L),
            omega1_width=0.07 * L,
            omega_star_width=0.17 * L,  # 8.7 cells < 2 + 3 + 3 guard cells
        )
        with pytest.raises(ResolutionError):
            build_cutoff(regions)


class TestWeight:
    def test_interior_quadratic_constants(self, box32, regions32, psi32):
        # analytic oracle: Hessian of |x-c|^2 - r0^2 is 2I (exact for second
        # differences), gradient floor is twice the least distance to center
        assert psi32.rho == pytest.approx(2.0, abs=1e-9)
        X, Y = box32.meshgrid()
        r = np.hypot(X - np.pi, Y - np.pi)
        k_oracle = 2.0 * r[regions32.G].min()
        assert psi32.kgrad == pytest.approx(k_oracle, rel=1e-12)
        assert psi32.kgrad > 0

    def test_interior_sign_pattern_reversed(self, regions32, psi32):
        # convex anchored quadratic: nonpositive over omega u Omega1, and
        # nonnegative over Omega_star u Omega0 up to band-boundary cells
        assert np.all(psi32.psi[regions32.omega] <= 1e-12)
        assert psi32.sign_violations_omega1 == 0
        frac_outer = psi32.sign_violations_outer / (
            regions32.omega_star.sum() + regions32.omega0.sum()
        )
        assert frac_outer < 0.02

    def test_collar_sign_pattern_matches_bands(self, channel):
        regions = build_nested_regions(
            channel,
            OmegaSpec(size=0.25),
            GeometryCase.full_collar,
            omega1_width=0.25,
            omega_star_width=0.375,
        )
        w = build_weight(regions)
        assert w.rho > 0 and w.kgrad > 0
        assert np.all(w.psi[regions.omega1] >= 0)
        assert np.all(w.psi[regions.omega_star | regions.omega0] <= 0)
        assert np.all(np.exp(2.0 * w.psi[regions.omega1]) >= 1.0)
        assert np.all(np.exp(2.0 * w.psi[regions.omega_star]) <= 1.0)

    def test_partial_collar_weight_valid(self, channel):
        regions = build_nested_regions(
            channel,
            OmegaSpec(size=0.25, side="y0", span=(0.25, 0.75)),
            GeometryCase.partial_collar,
            omega1_width=0.25,
            omega_star_width=0.375,
        )
        w = build_weight(regions)
        assert w.rho > 0 and w.kgrad > 0
        assert w.anchor[1] > channel.Ly  # anchored beyond the opposite wall

    def test_gradient_floor_rejection(self, box32, regions32):
        # doctor the regions so G contains the anchor cell: |grad psi| -> 0
        omega1 = regions32.omega1.copy()
        center = (box32.nx // 2, box32.ny // 2)
        omega1[center] = True
        omega = regions32.omega.copy()
        omega[center] = False
        bad = RegionSet(
            grid=box32,
            omega=omega,
            omega1=omega1,
            omega_star=regions32.omega_star.copy(),
            omega0=regions32.omega0.copy(),
            geometry_case=regions32.geometry_case,
            dist_to_omega=regions32.dist_to_omega,
            omega1_width=regions32.omega1_width,
            omega_star_width=regions32.omega_star_width,
            omega_spec=regions32.omega_spec,
        )
        with pytest.raises(WeightConstructionError):
            build_weight(bad)

    def test_constants_stable_under_refinement(self):
        vals = {}
        for n in (32, 64):
            g = build_grid(L, L, n, n)
            regions = build_nested_regions(g, OmegaSpec(size=0.15 * L))
            w = build_weight(regions)
            vals[n] = (w.rho, w.kgrad)
        assert vals[64][0] == pytest.approx(vals[32][0], rel=1e-9)
        assert vals[64][1] == pytest.approx(vals[32][1], rel=0.15)
