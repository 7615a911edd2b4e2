"""Run configuration: one self-describing JSON document per run.

DEFAULT_CONFIG is the schema: a config may set only its keys, each to a
value of the kind of its default.  Each length has one key, a fraction
(``*_frac``) of min(Lx, Ly), so one configuration scales across boxes and
resolutions: omega's is ``size_frac``, the radius of the disc that the
interior case places or the depth of the collar that the collar cases lay
along the walls.  An absolute length (``omega.radius``, say) is an unknown
key, and an omega key that the case does not read must keep its default.
Validation builds the grid and the regions, and reads the equilibrium block
with the param reader that builds the equilibrium, so that every
precondition fires before any expensive computation starts.  The
equilibrium itself is built only where the generator is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .equilibria import (
    STOCK_KINDS,
    Equilibrium,
    config_int,
    config_number,
    make_equilibrium,
    read_params,
)
from .errors import ConfigurationError
from .geometry import (
    OMEGA1_WIDTH_FRAC,
    OMEGA_STAR_WIDTH_FRAC,
    GeometryCase,
    OmegaSpec,
    RegionSet,
    build_nested_regions,
)
from .grid import Grid, build_grid
from .reports import config_hash
from .stabilize import MIN_FIT_SAMPLES

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
        "omega": {
            "size_frac": 0.15,
            "center": None,
            "side": "all",
            "span": [0.0, 1.0],
        },
        "omega1_width_frac": OMEGA1_WIDTH_FRAC,
        "omega_star_width_frac": OMEGA_STAR_WIDTH_FRAC,
    },
    "equilibrium": {"kind": "zero", "params": {}},
    "physics": {"nu": 1.0, "eta": 1.0, "sigma": 1.5},
    "spectral": {"count": 16},
    "carleman": {
        "tau_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],  # in units of 4 / diameter
        "n_fields": 100,
    },
    "stabilize": {"gamma": 1.0, "T": 8.0, "dt": 0.01, "gain_on": True},
}

# the values each string key takes
_CHOICES = {
    "bc_x": ("periodic", "wall"),
    "bc_y": ("periodic", "wall"),
    "case": tuple(c.value for c in GeometryCase),
    "side": ("all", "x0", "x1", "y0", "y1"),
    "kind": STOCK_KINDS,
}
_PAIRS = ("center", "span")  # lists of exactly two numbers


def _checked(default, val, path: tuple = ()):
    """val checked against the kind of its default, as a new tree in which
    every missing key holds its default and every number is a float or an
    int as its default is.  An empty default object takes any object: the
    equilibrium params, which read_params checks."""
    name = ".".join(path) or "config"
    key = path[-1] if path else None
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ConfigurationError(f"{name} must be an object, got {val!r}")
        if not default:
            return dict(val)
        for k in val:
            if k not in default:
                raise ConfigurationError(f"unknown config key {'.'.join(path + (k,))}")
        return {k: _checked(d, val.get(k, d), path + (k,)) for k, d in default.items()}
    if default is None:
        if val is None:
            return None
        default = [0.0, 0.0] if key in _PAIRS else 0.0
    if isinstance(default, bool):
        if not isinstance(val, bool):
            raise ConfigurationError(f"{name} must be true or false, got {val!r}")
        return val
    if isinstance(default, str):
        if val not in _CHOICES[key]:
            raise ConfigurationError(f"{name} must be one of {_CHOICES[key]}, got {val!r}")
        return val
    if isinstance(default, list):
        if not isinstance(val, list) or (key in _PAIRS and len(val) != 2):
            size = "two" if key in _PAIRS else "a list of"
            raise ConfigurationError(f"{name} must be {size} numbers, got {val!r}")
        return [config_number(v, name) for v in val]
    if isinstance(default, int):
        return config_int(val, name)
    return config_number(val, name)


@dataclass
class RunConfig:
    """A run's config, every block filled in and checked against
    DEFAULT_CONFIG.  ``validate`` checks it again, so a value set on ``raw``
    after loading (the CLI's ``--seed``) is held to the same schema."""

    raw: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls(_checked(DEFAULT_CONFIG, user))

    @classmethod
    def from_dict(cls, user: dict | None = None) -> "RunConfig":
        return cls(_checked(DEFAULT_CONFIG, user or {}))

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def seed(self) -> int:
        seed = self.raw["seed"]
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        return seed

    # -- builders -----------------------------------------------------------
    def build_grid(self) -> Grid:
        g = self.raw["geometry"]
        return build_grid(g["Lx"], g["Ly"], g["nx"], g["ny"], g["bc_x"], g["bc_y"])

    def build_regions(self, grid: Grid | None = None) -> RegionSet:
        grid = grid or self.build_grid()
        g, o = self.raw["geometry"], self.raw["geometry"]["omega"]
        minL = min(grid.Lx, grid.Ly)
        for key, frac in (("omega.size_frac", o["size_frac"]),
                          ("omega1_width_frac", g["omega1_width_frac"]),
                          ("omega_star_width_frac", g["omega_star_width_frac"])):
            if frac <= 0:
                raise ConfigurationError(f"geometry.{key} must be > 0, got {frac}")
        lo, hi = o["span"]
        if not 0 <= lo < hi <= 1:
            raise ConfigurationError(f"geometry.omega.span needs 0 <= lo < hi <= 1, got {lo, hi}")
        case = GeometryCase(g["case"])
        partial = case is GeometryCase.partial_collar
        read = {"center": case is GeometryCase.interior_patch, "side": partial, "span": partial}
        for key in (k for k, r in read.items() if not r):
            if o[key] != DEFAULT_CONFIG["geometry"]["omega"][key]:
                raise ConfigurationError(f"geometry.omega.{key} is not read in {case.value}")
        spec = OmegaSpec(
            size=o["size_frac"] * minL,
            center=None if o["center"] is None else tuple(o["center"]),
            side=o["side"],
            span=(lo, hi),
        )
        w1, ws = g["omega1_width_frac"] * minL, g["omega_star_width_frac"] * minL
        return build_nested_regions(grid, spec, case, w1, ws)

    def build_equilibrium(self, grid: Grid | None = None) -> Equilibrium:
        grid = grid or self.build_grid()
        e, p = self.raw["equilibrium"], self.raw["physics"]
        return make_equilibrium(e["kind"], grid, e["params"], p["nu"], p["eta"])

    @property
    def sigma(self) -> float:
        if self.raw["physics"]["sigma"] < 0:
            raise ConfigurationError("sigma must be >= 0")
        return self.raw["physics"]["sigma"]

    def spectral_options(self) -> dict:
        if self.raw["spectral"]["count"] < 1:
            raise ConfigurationError("spectral count must be >= 1")
        return dict(self.raw["spectral"])

    def carleman_options(self, regions: RegionSet) -> dict:
        """The carleman block, with ``tau_list`` the tau grid times 4 / diameter."""
        c = self.raw["carleman"]
        taus = c["tau_grid"]
        if not taus:
            raise ConfigurationError("carleman tau_grid must be nonempty")
        if any(t <= 0 for t in taus):
            raise ConfigurationError("tau values must be positive")
        if c["n_fields"] < 1:
            raise ConfigurationError("carleman n_fields must be >= 1")
        return dict(c, tau_list=[t * 4.0 / regions.diameter for t in taus])

    def stabilize_options(self) -> dict:
        s = self.raw["stabilize"]
        T, dt = s["T"], s["dt"]
        if s["gamma"] <= 0 or T <= 0 or dt <= 0:
            raise ConfigurationError("gamma, T and dt must be positive")
        # measure_decay fits the samples of the simulated time grid k * dt
        # that lie in (T/2, T); from 4 * MIN_FIT_SAMPLES steps on it has enough
        if T / dt < 4 * MIN_FIT_SAMPLES:
            times = np.arange(int(round(T / dt)) + 1) * dt
            if np.count_nonzero((times >= T / 2) & (times <= T)) < MIN_FIT_SAMPLES:
                raise ConfigurationError(
                    f"stabilize.T = {T} and stabilize.dt = {dt} leave fewer than "
                    f"{MIN_FIT_SAMPLES} samples in the decay fit window (T/2, T)"
                )
        return dict(s)

    def validate(self) -> tuple[Grid, RegionSet]:
        """Check the whole config against DEFAULT_CONFIG and every block's
        ranges before any computation, and return the grid and regions that
        built.  The equilibrium block is read, not built."""
        self.raw = _checked(DEFAULT_CONFIG, self.raw)
        _ = self.seed
        grid = self.build_grid()
        e, p = self.raw["equilibrium"], self.raw["physics"]
        read_params(e["kind"], e["params"], p["nu"], p["eta"])
        regions = self.build_regions(grid)
        _ = self.sigma
        _ = self.spectral_options()
        _ = self.carleman_options(regions)
        _ = self.stabilize_options()
        return grid, regions
