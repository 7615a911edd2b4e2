"""Run configuration: one self-describing JSON document per run.

The schema is documented in the README; fractions (``*_frac``) are resolved
against the domain size so one configuration scales across resolutions.
Validation constructs the actual geometry/equilibrium objects eagerly so that
every precondition fires before any expensive computation starts.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, make_equilibrium
from .errors import ConfigurationError
from .geometry import GeometryCase, OmegaSpec, RegionSet, build_nested_regions
from .grid import Grid, build_grid
from .reports import config_hash

DEFAULT_CONFIG: dict = {
    "seed": 1234,
    "geometry": {
        "Lx": 2 * np.pi,
        "Ly": 2 * np.pi,
        "nx": 32,
        "ny": 32,
        "bc_x": "periodic",
        "bc_y": "periodic",
        "case": "interior_patch",
        "omega": {"shape": "disc", "radius_frac": 0.15},
        "omega1_width_frac": 0.07,
        "omega_star_width_frac": 0.26,
    },
    "equilibrium": {"kind": "zero", "params": {}},
    "physics": {"nu": 1.0, "eta": 1.0, "sigma": 1.5},
    "spectral": {"count": 16, "strategy": "shift_invert", "degenerate_fixture": False},
    "carleman": {
        "delta0": 0.5,
        "epsilon": 0.5,
        "tau_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        "tau_scale": "4_over_diam",
        "n_fields": 100,
        "tau2_bound": 0.0,
        "calibrate_tau2": False,
    },
    "stabilize": {"gamma": 1.0, "T": 8.0, "dt": 0.01, "gain_on": True},
}


@contextmanager
def _reading(block: str):
    """Turn the errors of reading a missing or mistyped key of one config
    block into a ConfigurationError.  Only reading and checking the block
    run inside it, never the numerics its values feed."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {block} block: {exc}") from exc


def _flag(block: dict, key: str) -> bool:
    """A config flag, which only a JSON boolean sets."""
    val = block[key]
    if not isinstance(val, bool):
        raise ConfigurationError(f"{key} must be true or false, got {val!r}")
    return val


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class RunConfig:
    raw: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigurationError("config root must be a JSON object")
        return cls(_merge(DEFAULT_CONFIG, user))

    @classmethod
    def from_dict(cls, user: dict | None = None) -> "RunConfig":
        return cls(_merge(DEFAULT_CONFIG, user or {}))

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def seed(self) -> int:
        with _reading("seed"):
            return int(self.raw["seed"])

    # -- builders -----------------------------------------------------------
    def build_grid(self) -> Grid:
        with _reading("geometry"):
            gconf = self.raw["geometry"]
            return build_grid(
                float(gconf["Lx"]),
                float(gconf["Ly"]),
                int(gconf["nx"]),
                int(gconf["ny"]),
                gconf["bc_x"],
                gconf["bc_y"],
            )

    def omega_spec(self, grid: Grid) -> OmegaSpec:
        with _reading("geometry.omega"):
            oconf = self.raw["geometry"]["omega"]
            radius = oconf.get("radius")
            if radius is not None:
                radius = float(radius)
            elif oconf["radius_frac"] is not None:
                radius = float(oconf["radius_frac"]) * grid.Lx
            width = oconf.get("width")
            if width is not None:
                width = float(width)
            elif oconf.get("width_frac") is not None:
                width = float(oconf["width_frac"]) * min(grid.Lx, grid.Ly)
            center = oconf.get("center")
            return OmegaSpec(
                shape=oconf["shape"],
                center=tuple(center) if center else None,
                radius=radius,
                width=width,
                side=oconf.get("side", "all"),
                span=tuple(oconf.get("span", (0.0, 1.0))),
            )

    def build_regions(self, grid: Grid | None = None) -> RegionSet:
        grid = grid or self.build_grid()
        spec = self.omega_spec(grid)
        with _reading("geometry"):
            gconf = self.raw["geometry"]
            minL = min(grid.Lx, grid.Ly)
            w1 = gconf.get("omega1_width")
            w1 = float(gconf["omega1_width_frac"]) * minL if w1 is None else float(w1)
            ws = gconf.get("omega_star_width")
            ws = float(gconf["omega_star_width_frac"]) * minL if ws is None else float(ws)
            case = GeometryCase(gconf["case"])
        return build_nested_regions(grid, spec, case, w1, ws)

    def build_equilibrium(self, grid: Grid | None = None) -> Equilibrium:
        grid = grid or self.build_grid()
        with _reading("equilibrium"):
            kind = self.raw["equilibrium"]["kind"]
            params = dict(self.raw["equilibrium"]["params"])
        with _reading("physics"):
            nu = float(self.raw["physics"]["nu"])
            eta = float(self.raw["physics"]["eta"])
        if kind == "custom":
            raise ConfigurationError(
                "custom equilibria are API-only; configs use zero/shear/taylor_vortex"
            )
        return make_equilibrium(kind, grid, params, nu, eta)

    @property
    def sigma(self) -> float:
        with _reading("physics"):
            s = float(self.raw["physics"]["sigma"])
            if s < 0:
                raise ConfigurationError("sigma must be >= 0")
            return s

    def spectral_options(self) -> dict:
        with _reading("spectral"):
            sconf = self.raw["spectral"]
            count = int(sconf["count"])
            if count < 1:
                raise ConfigurationError("spectral count must be >= 1")
            strategy = sconf["strategy"]
            if strategy not in ("dense", "shift_invert"):
                raise ConfigurationError(f"unknown spectral strategy {strategy!r}")
            return {
                "count": count,
                "strategy": strategy,
                "degenerate_fixture": _flag(sconf, "degenerate_fixture"),
            }

    def carleman_options(self, regions: RegionSet) -> dict:
        with _reading("carleman"):
            cconf = self.raw["carleman"]
            grid_vals = [float(t) for t in cconf["tau_grid"]]
            if not grid_vals:
                raise ConfigurationError("carleman tau_grid must be nonempty")
            if any(t <= 0 for t in grid_vals):
                raise ConfigurationError("tau values must be positive")
            scale = cconf["tau_scale"]
            if scale == "4_over_diam":
                spec = regions.omega_spec
                outer = (spec.radius or spec.width or 0.0) + regions.omega1_width + regions.omega_star_width
                diam = 2.0 * outer
                taus = [t * 4.0 / diam for t in grid_vals]
            elif scale == "absolute":
                taus = grid_vals
            else:
                raise ConfigurationError(f"unknown tau_scale {scale!r}")
            delta0 = float(cconf["delta0"])
            epsilon = float(cconf["epsilon"])
            if not (0 < delta0 < 1) or epsilon <= 0:
                raise ConfigurationError("need 0 < delta0 < 1 and epsilon > 0")
            n_fields = int(cconf["n_fields"])
            if n_fields < 1:
                raise ConfigurationError("carleman n_fields must be >= 1")
            tau2_bound = float(cconf["tau2_bound"])
            if tau2_bound < 0:
                raise ConfigurationError("carleman tau2_bound must be >= 0")
            return {
                "delta0": delta0,
                "epsilon": epsilon,
                "tau_list": taus,
                "n_fields": n_fields,
                "tau2_bound": tau2_bound,
                "calibrate_tau2": _flag(cconf, "calibrate_tau2"),
            }

    def stabilize_options(self) -> dict:
        with _reading("stabilize"):
            sconf = self.raw["stabilize"]
            gamma = float(sconf["gamma"])
            T = float(sconf["T"])
            dt = float(sconf["dt"])
            if gamma <= 0 or T <= 0 or dt <= 0:
                raise ConfigurationError("gamma, T and dt must be positive")
            return {
                "gamma": gamma,
                "T": T,
                "dt": dt,
                "gain_on": _flag(sconf, "gain_on"),
            }

    def validate(self) -> tuple[Grid, Equilibrium, RegionSet]:
        """Exercise every block's preconditions before any computation, and
        return the grid, equilibrium and regions that built."""
        _ = self.seed
        grid = self.build_grid()
        equilibrium = self.build_equilibrium(grid)
        regions = self.build_regions(grid)
        _ = self.sigma
        _ = self.spectral_options()
        _ = self.carleman_options(regions)
        _ = self.stabilize_options()
        return grid, equilibrium, regions
