import numpy as np
import pytest

from mhdlab import build_grid
from mhdlab.errors import ShapeError
from oracles import ScalarField, VectorField2, curl2d, divergence, gradient, laplacian, rot
from oracles import weighted_norm2

L = 2 * np.pi


def _analytic_scalar(grid):
    X, Y = grid.meshgrid()
    return ScalarField(grid, np.sin(X) * np.cos(Y))


def _max_err(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class TestDifferentialOperators:
    def test_div_grad_matches_laplacian_second_order(self):
        # Taylor oracle: both approximate the analytic Laplacian with O(h^2)
        errs = {}
        for n in (32, 64):
            g = build_grid(L, L, n, n)
            s = _analytic_scalar(g)
            X, Y = g.meshgrid()
            lap_exact = -2.0 * np.sin(X) * np.cos(Y)
            composed = divergence(gradient(s)).values
            errs[n] = _max_err(composed, lap_exact)
            assert _max_err(composed, laplacian(s).values) <= 4.0 * errs[n]
        assert errs[32] / errs[64] == pytest.approx(4.0, rel=0.25)

    def test_curl_of_gradient_vanishes(self, box32):
        s = _analytic_scalar(box32)
        assert np.abs(curl2d(gradient(s)).values).max() < 1e-12

    def test_curl_curl_identity_divfree(self):
        # rot(curl v) = -lap v + grad(div v); for div-free v the last term drops
        errs = {}
        for n in (32, 64):
            g = build_grid(L, L, n, n)
            X, Y = g.meshgrid()
            v = VectorField2(g, np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y))
            curlcurl = rot(curl2d(v))
            lap = laplacian(v)
            errs[n] = max(
                _max_err(curlcurl.u1, -lap.u1), _max_err(curlcurl.u2, -lap.u2)
            )
        assert errs[32] / errs[64] == pytest.approx(4.0, rel=0.25)

    def test_stencils_second_order_on_analytic_fields(self):
        # refinement by 2x shrinks each operator's error by 4 (+-25%)
        results = {}
        for n in (24, 48):
            g = build_grid(L, L, n, n)
            X, Y = g.meshgrid()
            s = ScalarField(g, np.sin(X) * np.cos(Y))
            v = VectorField2(g, np.sin(Y), np.sin(X))
            results[n] = {
                "grad": _max_err(gradient(s).u1, np.cos(X) * np.cos(Y)),
                "div": _max_err(divergence(v).values, 0.0 * X),
                "curl": _max_err(curl2d(v).values, np.cos(X) - np.cos(Y)),
                "lap": _max_err(laplacian(s).values, -2 * np.sin(X) * np.cos(Y)),
            }
        for key in ("grad", "curl", "lap"):
            ratio = results[24][key] / results[48][key]
            assert ratio == pytest.approx(4.0, rel=0.25), key
        assert results[48]["div"] < 1e-12  # exact for this field

    def test_mismatched_grids_raise(self, box16, box32):
        s = _analytic_scalar(box16)
        with pytest.raises(ShapeError):
            ScalarField(box32, s.values)


class TestWallClosures:
    def test_one_sided_order(self):
        errs = {}
        for n in (32, 64):
            g = build_grid(2.0, 1.0, n, n, "wall", "wall")
            X, Y = g.meshgrid()
            s = ScalarField(g, np.sin(X) * np.cos(2 * Y))
            errs[n] = _max_err(gradient(s).u1, np.cos(X) * np.cos(2 * Y))
        assert errs[32] / errs[64] == pytest.approx(4.0, rel=0.3)


class TestWeightedNorm:
    def test_unit_integral(self):
        g = build_grid(1.0, 1.0, 16, 16)
        f = ScalarField(g, np.ones(g.shape))
        assert weighted_norm2(f, 1.0, None) == pytest.approx(1.0, abs=1e-14)

    def test_zero_field(self, box32):
        f = ScalarField(box32, np.zeros(box32.shape))
        assert weighted_norm2(f) == 0.0

    def test_sine_closed_form(self):
        # int over [0,2pi]^2 of sin^2 x = 2*pi^2, exactly summed by the
        # periodic trapezoid rule; frozen from the closed form
        expected = 2 * np.pi**2
        for n in (16, 32):
            g = build_grid(L, L, n, n)
            X, _ = g.meshgrid()
            f = ScalarField(g, np.sin(X))
            assert weighted_norm2(f) == pytest.approx(expected, rel=1e-12)

    def test_empty_region_warns(self, box32):
        f = ScalarField(box32, np.ones(box32.shape))
        empty = np.zeros(box32.shape, dtype=bool)
        with pytest.warns(UserWarning):
            assert weighted_norm2(f, 1.0, empty) == 0.0

