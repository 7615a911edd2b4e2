from dataclasses import replace

import numpy as np
import pytest

from mhdlab import CarlemanParams, coefficients, compute_spectrum
from mhdlab import carleman
from mhdlab.carleman import (
    PASS_SLACK,
    Sweep,
    coefficients,
    draw_test_fields,
    find_tau0,
    inequality_sweep_stack,
    sweep,
)
from mhdlab.config import RunConfig
from mhdlab.errors import CauchyDataError, ConfigurationError, NumericalError
from oracles import CutoffField, ScalarField, StateVector, VectorField2
from oracles import assemble_chi_system_residual, cosine_sums_pairwise, gradient
from oracles import halving_exponents, laplacian
from oracles import make_omega_vanishing_state, pde_residual, pressure_from_state
from oracles import tau_sweep_vanishing, to_state, weighted_norm2


def tau_grid(regions):
    return [c * 4.0 / regions.diameter for c in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]


class TestCoefficients:
    def test_canonical_half_half(self):
        # delta0 = eps = 1/2 collapses the general coefficients to
        # (rho*tau - 1/8, 2*rho*k^2*tau^3, 3)
        assert coefficients(CarlemanParams(1.0, 0.5, 0.5, 1.0, 1.0)) == (0.875, 2.0, 3.0)
        assert coefficients(CarlemanParams(10.0, 0.5, 0.5, 2.0, 3.0)) == (
            19.875,
            36000.0,
            3.0,
        )

    def test_exact_formula_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rho, k, tau = rng.uniform(0.5, 4, size=3)
            p = CarlemanParams(tau, 0.5, 0.5, rho, k)
            c = coefficients(p)
            assert c.c_grad == rho * tau - 0.125
            assert c.c_zero == 2.0 * rho * k**2 * tau**3
            assert c.c_rhs == 3.0

    def test_degenerate_split(self):
        c = coefficients(CarlemanParams(2.0, 1.0 - 1e-12, 0.5, 1.0, 1.0))
        assert c.c_zero == pytest.approx(0.0, abs=1e-10)

    def test_scaling_invariance(self):
        # (rho, tau) -> (rho/c, c*tau) leaves the leading 2*delta0*rho*tau
        # term bit-identical for binary scale factors
        base = CarlemanParams(3.0, 0.5, 0.5, 2.0, 1.0)
        lead = lambda p: p.delta0 * (2.0 * p.rho * p.tau)
        for c in (2.0, 4.0, 8.0):
            scaled = CarlemanParams(3.0 * c, 0.5, 0.5, 2.0 / c, 1.0)
            assert lead(scaled) == lead(base)

    def test_tau_too_small_signal(self):
        c = coefficients(CarlemanParams(1e-6, 0.5, 4.0, 1.0, 1.0))
        assert c.c_grad <= 0  # reported, not raised

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            CarlemanParams(1.0, 1.5, 0.5)
        with pytest.raises(ConfigurationError):
            CarlemanParams(1.0, 0.5, -1.0)
        with pytest.raises(ConfigurationError):
            CarlemanParams(-1.0, 0.5, 0.5)


class TestIntegratedInequality:
    def test_zero_field_passes(self, regions32, psi32):
        w = np.zeros((1, 1, *regions32.grid.shape))
        s = inequality_sweep_stack(w, psi32, [CarlemanParams.for_weight(1.0, psi32)])
        assert s.passed[0, 0]
        assert s.margin[0, 0] == 0.0

    def test_seeded_fields_pass_above_threshold(self, regions32, psi32):
        rng = np.random.default_rng(42)
        taus = tau_grid(regions32)
        params = [CarlemanParams.for_weight(t, psi32) for t in taus]
        s = sweep(psi32, rng, 30, params)
        assert s.passed.shape == (len(taus), 30)
        tau0 = find_tau0(taus, s.passed)
        assert tau0 is not None
        for t, passed in zip(taus, s.passed):
            if t >= tau0:
                assert passed.all()

    def test_zero_order_scales_as_tau_cubed(self, regions32, psi32):
        rng = np.random.default_rng(43)
        w = next(draw_test_fields(regions32, rng, 1))
        taus = tau_grid(regions32)
        params = [CarlemanParams.for_weight(t, psi32) for t in taus]
        s = inequality_sweep_stack(w, psi32, params)
        logs_t, logs_v = [], []
        for t, lhs_zero, integral_zero in zip(taus, s.lhs_zero[:, 0], s.integral_zero[:, 0]):
            logs_t.append(np.log(t))
            logs_v.append(np.log(lhs_zero / integral_zero))
        slope = np.polyfit(logs_t, logs_v, 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_rhs_to_zero_order_ratio_tracks_tau_cubed(self, regions32, psi32):
        # for a fixed bump, rhs/lhs_zero = (weight-shift factor) / (c_zero(tau));
        # dividing out the measured integral drift leaves an exact -3 slope
        rng = np.random.default_rng(44)
        w = next(draw_test_fields(regions32, rng, 1))
        taus = tau_grid(regions32)
        params = [CarlemanParams.for_weight(t, psi32) for t in taus]
        s = inequality_sweep_stack(w, psi32, params)
        logs_t, logs_r = [], []
        for i, t in enumerate(taus):
            ratio = s.rhs_main[i, 0] / s.lhs_zero[i, 0]
            weight_shift = s.integral_rhs[i, 0] / s.integral_zero[i, 0]
            logs_t.append(np.log(t))
            logs_r.append(np.log(ratio / weight_shift))
        slope = np.polyfit(logs_t, logs_r, 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.2)

    def test_underflowing_integral_raises_unless_the_field_is_zero(self, regions32, psi32):
        # at tau = 130 on 32^2 the seeded field's weighted |w|^2 integral falls
        # below the smallest normal float while its |grad w|^2 and |lap w|^2
        # integrals stay near 1e-217: each of the three is checked on its own
        w = next(draw_test_fields(regions32, np.random.default_rng(42), 1))
        tiny = np.finfo(float).tiny
        par = CarlemanParams.for_weight(130.0, psi32)
        # the reference weighs the whole grid: off G the weight overflows to
        # inf and its products to nan, which the integrals over G never read
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _reference_check(_as_field(regions32.grid, w[0]), psi32, par)
        assert ref.integral_zero[0, 0] < tiny
        assert ref.integral_grad[0, 0] > tiny and ref.integral_rhs[0, 0] > tiny
        params = [CarlemanParams.for_weight(t, psi32) for t in (1.0, 130.0, 200.0)]
        with pytest.raises(NumericalError, match="tau = 130"):
            inequality_sweep_stack(w, psi32, params)
        assert inequality_sweep_stack(w, psi32, params[:1]).passed.all()
        s = inequality_sweep_stack(np.zeros_like(w), psi32, params)
        assert s.passed.all() and not s.margin.any()

    def test_cauchy_precondition_enforced(self, regions32, psi32):
        w = np.ones((1, 1, *regions32.grid.shape))
        with pytest.raises(CauchyDataError):
            inequality_sweep_stack(w, psi32, [CarlemanParams.for_weight(1.0, psi32)])

    def test_vector_fields_supported(self, regions32, psi32):
        rng = np.random.default_rng(45)
        w = next(draw_test_fields(regions32, rng, 1, kind="vector"))
        s = inequality_sweep_stack(w, psi32, [CarlemanParams.for_weight(2.0, psi32)])
        assert s.rhs_main[0, 0] > 0

    def test_collar_geometry_inequality(self):
        # full-collar channel: the weight sign split holds and the inequality
        # passes above an empirical threshold with the (small) stretched rho
        from mhdlab import GeometryCase, OmegaSpec, build_grid, build_nested_regions, build_weight

        g = build_grid(2 * np.pi, 2.0, 32, 32, "periodic", "wall")
        regions = build_nested_regions(
            g,
            OmegaSpec(shape="collar", size=0.25),
            GeometryCase.full_collar,
            omega1_width=0.2,
            omega_star_width=0.4,
        )
        psi = build_weight(regions)
        assert psi.rho > 0 and psi.kgrad > 0
        rng = np.random.default_rng(50)
        taus = [c * 4.0 / 1.8 for c in (1.0, 2.0, 4.0, 8.0, 16.0)]
        params = [CarlemanParams.for_weight(t, psi) for t in taus]
        s = sweep(psi, rng, 10, params)
        tau0 = find_tau0(taus, s.passed)
        assert tau0 is not None
        # small rho: the gradient coefficient flags tau-too-small low in the grid
        assert coefficients(CarlemanParams.for_weight(0.05, psi)).c_grad <= 0

    def test_zero_order_term_is_c_zero_times_its_integral(self, regions32, psi32):
        # the sweep checks the stated estimate: no tau^2 weakening of c_zero
        rng = np.random.default_rng(46)
        w = next(draw_test_fields(regions32, rng, 1))
        params = [CarlemanParams.for_weight(t, psi32) for t in tau_grid(regions32)]
        s = inequality_sweep_stack(w, psi32, params)
        for i, par in enumerate(params):
            c_zero = coefficients(par).c_zero
            assert c_zero > 0
            assert s.lhs_zero[i, 0] == c_zero * s.integral_zero[i, 0]


def _reference_check(w, psi, params):
    """One (field, tau) check written out with full-grid weighted norms, as
    a Sweep of 1 x 1 arrays."""
    G, tau = psi.regions.G, params.tau
    shift = float(psi.psi[G].max())
    W = ScalarField(psi.regions.grid, np.exp(2.0 * tau * (psi.psi - shift)))
    if isinstance(w, VectorField2):
        grads = [gradient(ScalarField(w.grid, w.u1)), gradient(ScalarField(w.grid, w.u2))]
        I_grad = sum(weighted_norm2(gr, W, G) for gr in grads)
    else:
        I_grad = weighted_norm2(gradient(w), W, G)
    I_zero = weighted_norm2(w, W, G)
    I_rhs = weighted_norm2(laplacian(w), W, G)
    c_grad, c_zero, c_rhs = coefficients(params)
    lhs_grad = c_grad * I_grad
    lhs_zero = c_zero * I_zero
    rhs_main = c_rhs * I_rhs
    margin = rhs_main - (lhs_grad + lhs_zero)
    passed = margin >= -PASS_SLACK * max(rhs_main, 1e-300)
    return Sweep(*(np.array([[v]]) for v in (
        lhs_grad, lhs_zero, rhs_main, margin, passed, I_grad, I_zero, I_rhs
    )))


def _rows(sweeps):
    """Sweeps joined row-wise, one row per tau."""
    return Sweep(*(np.concatenate(column) for column in zip(*sweeps)))


def _reference_sweep(w, psi, params_seq):
    """_reference_check at every entry of params_seq, rows stacked."""
    return _rows([_reference_check(w, psi, p) for p in params_seq])


def _bits(s):
    """A Sweep's arrays as bytes, with their dtypes and shapes."""
    return [(a.dtype, a.shape, a.tobytes()) for a in s]


class TestInequalitySweep:
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_sweep_equals_single_tau_checks(self, regions32, psi32, kind):
        rng = np.random.default_rng(47)
        params = [CarlemanParams.for_weight(t, psi32) for t in tau_grid(regions32)]
        for _ in range(3):
            w = next(draw_test_fields(regions32, rng, 1, kind))
            swept = inequality_sweep_stack(w, psi32, params)
            assert swept.margin.shape == (7, 1)
            singles = [inequality_sweep_stack(w, psi32, [p]) for p in params]
            assert _bits(swept) == _bits(_rows(singles))
            ref = _as_field(regions32.grid, w[0])
            assert _bits(_reference_sweep(ref, psi32, params)) == _bits(swept)

    def test_boundary_trace_raises(self, regions32, psi32):
        w = np.ones((1, 1, *regions32.grid.shape))
        params = [CarlemanParams.for_weight(t, psi32) for t in tau_grid(regions32)]
        with pytest.raises(CauchyDataError):
            inequality_sweep_stack(w, psi32, params)

    def test_failing_checks_match_single_reference_checks(self, regions32, psi32):
        # the disc weight passes every check, so compare against a flat
        # weight with the same rho and kgrad, under which the large taus
        # fail; psi32's weights are cached first, and the copy must not
        # reuse them
        taus = tau_grid(regions32)
        params = [CarlemanParams.for_weight(t, psi32) for t in taus]
        sweep(psi32, np.random.default_rng(9), 1, params)
        flat = replace(psi32, psi=np.zeros_like(psi32.psi))
        rng = np.random.default_rng(9)
        failed = 0
        for _ in range(5):
            w = next(draw_test_fields(regions32, rng, 1, "scalar"))
            for t in taus:
                par = CarlemanParams.for_weight(t, flat)
                s = inequality_sweep_stack(w, flat, [par])
                ref = _reference_check(_as_field(regions32.grid, w[0]), flat, par)
                assert _bits(s) == _bits(ref)
                failed += not s.passed[0, 0]
        assert failed > 0


def _reference_field(regions, rng, kind="scalar", n_modes=6, kmax=4):
    """One test field drawn mode by mode on the full meshgrid."""
    g = regions.grid
    X, Y = g.meshgrid()
    moll = carleman._band_mollifier(regions)

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


def _components(w):
    return [w.u1, w.u2] if isinstance(w, VectorField2) else [w.values]


def _as_field(grid, v):
    """One (component, x, y) entry of a stack as a scalar or vector field."""
    return ScalarField(grid, v[0]) if len(v) == 1 else VectorField2(grid, v[0], v[1])


# the grids of the CI runs: the default 32^2 disc, a non-square one, 64^2,
# and the 64^2 full-collar channel
SUPPORT_CASES = {
    "32": {},
    "40x48": {"geometry": {"nx": 40, "ny": 48}},
    "64": {"geometry": {"nx": 64, "ny": 64}},
    "collar64": {
        "geometry": {
            "nx": 64,
            "ny": 64,
            "bc_y": "wall",
            "case": "full_collar",
            "omega": {"shape": "collar", "width_frac": 0.1},
        }
    },
}


def _swept(psi, params, n_fields, seed):
    """The sweep of n_fields seeded test fields, as bytes, and the generator
    state after the draws."""
    rng = np.random.default_rng(seed)
    return _bits(sweep(psi, rng, n_fields, params)), rng.bit_generator.state


class TestFieldStacks:
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_stacks_equal_fields_drawn_one_at_a_time(self, regions32, kind):
        rng = np.random.default_rng(5)
        blocks = list(draw_test_fields(regions32, rng, 20, kind))
        assert len(blocks) > 1 and 20 % len(blocks[0]) != 0
        stacked = [_as_field(regions32.grid, v) for fields in blocks for v in fields]
        one, ref = np.random.default_rng(5), np.random.default_rng(5)
        singles = [
            _as_field(regions32.grid, next(draw_test_fields(regions32, one, 1, kind))[0])
            for _ in range(20)
        ]
        refs = [_reference_field(regions32, ref, kind) for _ in range(20)]
        assert len(stacked) == 20
        for w, single, r in zip(stacked, singles, refs):
            assert type(w) is type(r)
            for a, b, c in zip(_components(w), _components(single), _components(r)):
                assert np.array_equal(a, b) and np.array_equal(a, c)
        assert rng.bit_generator.state == one.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7, 501, 2024])
    def test_cosine_sums_equal_pairwise_integer_draws(self, regions32, seed):
        # two scalar integer draws consume the stream of one size=2 draw
        g = regions32.grid
        for count, n_modes, kmax in ((100, 6, 4), (5, 5, 3)):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = carleman._cosine_sums(g, rng, count, n_modes, kmax, np.arange(g.ncells))
            got = got.reshape(count, *g.shape)
            want = cosine_sums_pairwise(g, ref, count, n_modes, kmax)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name", list(SUPPORT_CASES))
    def test_support_fields_equal_the_whole_grid_sums(self, name):
        # the cosines are evaluated only where the mollifier is nonzero:
        # there each value is the whole grid's to the bit, elsewhere +0.0
        # (the whole-grid product can give -0.0 there)
        _, regions = RunConfig.from_dict(SUPPORT_CASES[name]).validate()
        g = regions.grid
        moll = carleman._band_mollifier(regions)
        assert 0 < np.count_nonzero(moll) < g.ncells
        for kind, ncomp in (("scalar", 1), ("vector", 2)):
            rng, ref = np.random.default_rng(7), np.random.default_rng(7)
            for fields in draw_test_fields(regions, rng, 20, kind):
                count = len(fields) * ncomp
                sums = carleman._cosine_sums(
                    g, ref, count, carleman._FIELD_MODES, carleman._FIELD_KMAX,
                    np.arange(g.ncells),
                )
                want = moll * sums.reshape(fields.shape) + 0.0
                assert fields.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_omega_vanishing_state_matches_mode_by_mode_draws(self, regions32):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        s, p = make_omega_vanishing_state(regions32, rng)
        g = regions32.grid
        X, Y = g.meshgrid()
        h = max(g.hx, g.hy)
        d = regions32.dist_to_omega
        t = np.clip((d - 2.0 * h) / (4 * h), 0.0, 1.0)
        rise = np.where(d > 2.0 * h, 10 * t**3 - 15 * t**4 + 6 * t**5, 0.0)
        for got in (s.phi.u1, s.phi.u2, s.xi.u1, s.xi.u2, p.values):
            f = np.zeros(g.shape)
            for _ in range(5):
                kx, ky = ref.integers(-3, 4, size=2)
                phase = ref.uniform(0, 2 * np.pi)
                f += ref.normal() * np.cos(2 * np.pi * (kx * X / g.Lx + ky * Y / g.Ly) + phase)
            assert np.array_equal(got, rise * f)

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_stacked_sweep_equals_per_field_reports(self, regions32, psi32, kind):
        params = [CarlemanParams.for_weight(t, psi32) for t in tau_grid(regions32)]
        for fields in draw_test_fields(regions32, np.random.default_rng(6), 12, kind):
            stacked = inequality_sweep_stack(fields, psi32, params)
            assert stacked.margin.shape == (len(params), len(fields))
            for i in range(len(fields)):
                column = Sweep(*(a[:, [i]] for a in stacked))
                w = _as_field(regions32.grid, fields[i])
                alone = inequality_sweep_stack(fields[i][None], psi32, params)
                assert _bits(column) == _bits(alone)
                assert _bits(column) == _bits(_reference_sweep(w, psi32, params))

    def test_first_failing_field_names_the_error(self, regions32, psi32):
        # one cell layer inside the inner ring: zero on the rings, but the
        # centered gradient on the inner ring sees it
        G = regions32.G
        eroded = carleman._erode(G)
        layer = eroded & ~carleman._erode(eroded)
        assert layer.any() and not (layer & carleman._boundary_rings(G)).any()
        params = [CarlemanParams.for_weight(1.0, psi32)]
        fields = next(draw_test_fields(regions32, np.random.default_rng(7), 3))
        fields[1, 0] += layer
        fields[2, 0] += 1.0
        with pytest.raises(CauchyDataError, match="normal-derivative"):
            inequality_sweep_stack(fields, psi32, params)
        fields[[1, 2]] = fields[[2, 1]]
        with pytest.raises(CauchyDataError, match="field trace"):
            inequality_sweep_stack(fields, psi32, params)

    @pytest.mark.parametrize("fields_per_block", [1, 3, 20])
    def test_reports_do_not_depend_on_block_size(
        self, regions32, psi32, monkeypatch, fields_per_block
    ):
        params = [CarlemanParams.for_weight(t, psi32) for t in tau_grid(regions32)]
        ref = _swept(psi32, params, 20, 8)
        monkeypatch.setattr(
            carleman, "_BLOCK_CELLS", fields_per_block * regions32.grid.ncells
        )
        assert len(next(draw_test_fields(regions32, np.random.default_rng(0), 20))) == fields_per_block
        assert _swept(psi32, params, 20, 8) == ref


class TestChiSystem:
    def test_exact_eigen_solution(self, gen_shifted32, chi32):
        rep = compute_spectrum(gen_shifted32, 6)
        pair = rep.pairs[0]
        state = to_state(gen_shifted32, pair.coeffs)
        p = pressure_from_state(gen_shifted32, state)
        out = assemble_chi_system_residual(gen_shifted32, pair.lam, state, p, chi32)
        assert out["relative"] <= 1e-6

    def test_unit_cutoff_reduces_to_bare_residual(self, gen_shifted32, regions32):
        rep = compute_spectrum(gen_shifted32, 4)
        pair = rep.pairs[0]
        state = to_state(gen_shifted32, pair.coeffs)
        p = pressure_from_state(gen_shifted32, state)
        ones = CutoffField(regions32, np.ones(regions32.grid.shape), 0.0, 1.0)
        out = assemble_chi_system_residual(gen_shifted32, pair.lam, state, p, ones)
        bare = pde_residual(gen_shifted32, pair.lam, state, p)
        assert out["residual_phi"] == pytest.approx(bare["residual_phi"], abs=1e-10)
        assert out["residual_xi"] == pytest.approx(bare["residual_xi"], abs=1e-10)

    def test_zero_state(self, gen_shifted32, chi32):
        s = StateVector.zeros(gen_shifted32.grid)
        p = ScalarField(gen_shifted32.grid, np.zeros(gen_shifted32.grid.shape))
        out = assemble_chi_system_residual(gen_shifted32, 0.5, s, p, chi32)
        assert out["max_norm"] == 0.0


class TestTauSweep:
    def test_zero_state_all_zero(self, regions32):
        g = regions32.grid
        s = StateVector.zeros(g)
        p = ScalarField(g, np.zeros(g.shape))
        sweep = tau_sweep_vanishing(s, p, regions32, [1.0, 2.0, 4.0])
        assert all(r["bound_state"] == 0.0 for r in sweep["rows"])
        assert all(r["bound_pressure"] == 0.0 for r in sweep["rows"])

    def test_synthetic_state_decays(self, regions32):
        rng = np.random.default_rng(48)
        s, p = make_omega_vanishing_state(regions32, rng)
        sweep = tau_sweep_vanishing(s, p, regions32, [1.0, 2.0, 4.0, 8.0])
        assert sweep["monotone_state"]
        assert sweep["monotone_pressure"]
        es, ep = halving_exponents(sweep)
        assert es >= 3.0
        assert ep >= 2.0
        assert 4.0 >= es  # bounded by the leading tau^-4 term
        # C1, C2 are tau-free by construction: same integrals at any tau
        sweep2 = tau_sweep_vanishing(s, p, regions32, [16.0, 32.0])
        assert sweep2["C1"] == sweep["C1"]
        assert sweep2["C2"] == sweep["C2"]

    def test_halving_holds_for_any_nonnegative_integrals(self, regions32, monkeypatch):
        # criterion 9 holds by construction: whatever C1, C2 >= 0 the
        # transition band gives, doubling tau divides C1/tau^4 + C2/tau^3 by
        # a factor in [8, 16] and C1/tau^3 + C2/tau^2 by one in [4, 8]
        import oracles

        g = regions32.grid
        s = StateVector.zeros(g)
        p = ScalarField(g, np.zeros(g.shape))
        rng = np.random.default_rng(49)
        pairs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1e-8), (1e-8, 1.0)]
        pairs += [tuple(10.0 ** rng.uniform(-6, 6, size=2)) for _ in range(20)]
        for C1, C2 in pairs:
            monkeypatch.setattr(oracles, "_star_integrals", lambda *a, c=(C1, C2): c)
            sweep = tau_sweep_vanishing(s, p, regions32, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
            assert sweep["monotone_state"] and sweep["monotone_pressure"]
            es, ep = halving_exponents(sweep)
            assert 3.0 - 1e-12 <= es <= 4.0 + 1e-12
            assert 2.0 - 1e-12 <= ep <= 3.0 + 1e-12

    def test_precondition_on_omega(self, regions32):
        g = regions32.grid
        ones = np.ones(g.shape)
        s = StateVector(VectorField2(g, ones, ones), VectorField2(g, ones, ones))
        p = ScalarField(g, ones)
        with pytest.raises(CauchyDataError):
            tau_sweep_vanishing(s, p, regions32, [1.0, 2.0])

    def test_empty_tau_list(self, regions32):
        g = regions32.grid
        s = StateVector.zeros(g)
        p = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ConfigurationError):
            tau_sweep_vanishing(s, p, regions32, [])
