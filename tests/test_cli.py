import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhdlab
from mhdlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNCONTROLLABLE,
    Run,
    main,
    run_carleman,
    run_spectrum,
    run_stabilize,
    run_ucp,
)
from mhdlab.config import DEFAULT_CONFIG, RunConfig
from mhdlab.errors import ConfigurationError, FitError, UncontrollableError
from mhdlab.reports import write_table
from mhdlab.spectral import adjoint_eigenpairs
from mhdlab.stabilize import SimulationTrace, measure_decay

FAST_SPECTRAL = {"spectral": {"count": 10}}
# omega is the one cell at the domain centre: its 4 field values cannot tell
# apart the eigenfunctions of a cluster of multiplicity above 4, so the Gram
# test fails there and the run is uncontrollable
ONE_CELL_OMEGA = {"omega": {"radius_frac": 0.01}}
# a 32^2 channel, walls in y, whose omega is a collar along both walls
COLLAR32 = {"bc_y": "wall", "case": "full_collar", "omega": {"shape": "collar", "width_frac": 0.1}}
# a 2pi x 2 channel on 32^2 cells: its wall-normal cells are about three
# times finer than its periodic ones
FINE_WALL_CHANNEL = {
    "Ly": 2.0,
    "bc_y": "wall",
    "case": "full_collar",
    "omega": {"shape": "collar", "width_frac": 0.125},
    "omega1_width_frac": 0.1,
    "omega_star_width_frac": 0.26,
}


def _collar32(**omega):
    """COLLAR32 with these omega keys set as well."""
    return dict(COLLAR32, omega={**COLLAR32["omega"], **omega})


def _cfg(**over):
    base = {}
    for block in over:
        base[block] = over[block]
    return RunConfig.from_dict(base)


def _default_taus(*taus):
    """A config whose carleman stage checks ``taus`` on the default nest:
    its tau grid is ``taus`` in units of 4 / the nest's diameter."""
    unit = 4.0 / RunConfig.from_dict().build_regions().diameter
    return {"carleman": {"tau_grid": [t / unit for t in taus]}}


def _main_with_config(tmp_path, command, config, *flags):
    """The exit status of ``main`` on ``config`` written to a file, and the
    output directory."""
    cfgfile, out = tmp_path / "cfg.json", tmp_path / "o"
    cfgfile.write_text(json.dumps(config))
    return main([command, "--config", str(cfgfile), "--out", str(out), *flags]), out


class TestRunSpectrum:
    def test_stable_config_has_no_unstable_modes(self, tmp_path):
        cfg = _cfg(physics={"sigma": 0.0}, **FAST_SPECTRAL)
        summary = run_spectrum(Run(cfg), tmp_path)
        assert summary["N"] == 0
        assert (tmp_path / "spectrum.txt").exists()
        data = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert data["N"] == 0
        assert data["config_hash"] == cfg.hash

    def test_shifted_config_matches_fourier_count(self, tmp_path):
        cfg = _cfg(physics={"sigma": 1.5}, **FAST_SPECTRAL)
        summary = run_spectrum(Run(cfg), tmp_path)
        # sigma - |k|^2 >= 0 only for |k|^2 = 1: four wavevectors, two fields
        assert summary["N"] == 8

    def test_malformed_config_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error_kind"] == "config_error"


class TestRunUcp:
    def test_vacuous_pass_when_stable(self, tmp_path):
        cfg = _cfg(physics={"sigma": 0.0}, **FAST_SPECTRAL)
        summary = run_ucp(Run(cfg), tmp_path)
        assert summary["vacuous"] is True
        assert summary["all_kalman_passed"] is True

    def test_standard_box_full_rank(self, tmp_path):
        cfg = _cfg(physics={"sigma": 1.5}, **FAST_SPECTRAL)
        summary = run_ucp(Run(cfg), tmp_path)
        assert summary["all_gram_passed"] and summary["all_kalman_passed"]
        for cl in summary["clusters"]:
            assert cl["kalman_rank"] == cl["ell"]

    def test_one_cell_omega_fails_with_cluster_id(self, tmp_path):
        cfg = _cfg(geometry=ONE_CELL_OMEGA, physics={"sigma": 1.5}, **FAST_SPECTRAL)
        with pytest.raises(UncontrollableError):
            run_ucp(Run(cfg), tmp_path)
        data = json.loads((tmp_path / "ucp_summary.json").read_text())
        assert data["failed_clusters"] == [0]
        (cluster,) = data["clusters"]
        assert cluster["ell"] == 8 and cluster["sigma_min"] < 1e-12

    def test_cli_exit_uncontrollable(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(dict(FAST_SPECTRAL, geometry=ONE_CELL_OMEGA)))
        out = tmp_path / "o"
        code = main(["ucp", "--config", str(cfgfile), "--out", str(out)])
        assert code == EXIT_UNCONTROLLABLE
        assert json.loads((out / "error.json").read_text())["error_kind"] == "uncontrollable"


class TestRunCarleman:
    def test_default_sweep_records_tau0(self, tmp_path):
        cfg = _cfg(carleman={"n_fields": 5})
        summary = run_carleman(Run(cfg), tmp_path)
        assert summary["tau0"] is not None
        assert summary["all_pass"]
        table = (tmp_path / "carleman_sweep.txt").read_text().splitlines()
        n_taus = len(cfg.carleman_options(cfg.build_regions())["tau_list"])
        assert len([l for l in table if not l.startswith("#")]) == n_taus

    def test_collar_tau_scale_reads_the_collar_width(self):
        cfg = _cfg(geometry={"nx": 64, "ny": 64, "bc_y": "wall", "case": "full_collar",
                             "omega": {"shape": "collar", "width_frac": 0.1}})
        regions = cfg.build_regions()
        assert regions.diameter == pytest.approx(2.0 * (0.1 + 0.07 + 0.26) * 2 * np.pi, rel=1e-12)
        tau = cfg.carleman_options(regions)["tau_list"][0]
        # the first tau of the default grid, 0.5, times 4 / diameter; scaled
        # by the disc default radius instead, it would read 0.33157
        assert tau == 0.5 * 4.0 / regions.diameter
        assert tau == pytest.approx(0.37013, abs=1e-5)

    def test_channel_with_finer_wall_cells_passes(self, tmp_path):
        # the band margins count in the wall-normal cells: counted in the
        # larger periodic ones, the transition band was -2.35 cells wide
        config = {"geometry": FINE_WALL_CHANNEL}
        code, out = _main_with_config(tmp_path, "carleman", config, "--seed", "7")
        assert code == EXIT_OK
        summary = json.loads((out / "carleman_summary.json").read_text())
        assert summary["all_pass"] and summary["tau0"] is not None

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="the band mollifier is a function of the unwrapped distance to omega only, so "
        "it does not vanish where G meets the wall beyond a partial collar's span or "
        "crosses the periodic seam: 27 ring cells of G keep a nonzero field and the "
        "Cauchy-data check exits 5",
    )
    def test_partial_collar_carleman_runs(self, tmp_path):
        config = {"geometry": {"nx": 64, "ny": 64, "bc_y": "wall", "case": "partial_collar",
                               "omega": {"shape": "collar", "width_frac": 0.1, "side": "y0",
                                         "span": [0.25, 0.75]}}}
        code, _ = _main_with_config(tmp_path, "carleman", config, "--seed", "7")
        assert code == EXIT_OK

    def test_collar_without_width_is_config_error(self, tmp_path):
        config = {"geometry": dict(COLLAR32, omega={"shape": "collar"})}
        code, out = _main_with_config(tmp_path, "carleman", config)
        assert code == EXIT_CONFIG
        assert "geometry.omega.width_frac" in json.loads((out / "error.json").read_text())["message"]

    def test_empty_tau_list_is_config_error(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"carleman": {"tau_grid": []}}))
        code = main(["carleman", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("n_fields", [0, -3])
    def test_no_test_fields_is_config_error(self, tmp_path, n_fields):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"carleman": {"n_fields": n_fields}}))
        out = tmp_path / "o"
        code = main(["carleman", "--config", str(cfgfile), "--out", str(out)])
        assert code == EXIT_CONFIG
        error = json.loads((out / "error.json").read_text())
        assert error["error_kind"] == "config_error"
        assert "n_fields" in error["message"]

    def test_tables_do_not_depend_on_block_size(self, tmp_path, monkeypatch):
        cfg = _cfg(carleman={"n_fields": 7})
        default, blocked = tmp_path / "default", tmp_path / "blocked"
        default.mkdir()
        blocked.mkdir()
        run_carleman(Run(cfg), default)
        monkeypatch.setattr(mhdlab.carleman, "_BLOCK_CELLS", 3 * 32 * 32)
        run_carleman(Run(cfg), blocked)
        for name in ("carleman_sweep.txt", "carleman_summary.json"):
            assert (default / name).read_bytes() == (blocked / name).read_bytes()

    def test_tau_grid_is_in_units_of_4_over_diameter(self, tmp_path):
        config = {"carleman": {"tau_grid": [1.0, 2.0]}}
        code, out = _main_with_config(tmp_path, "carleman", config, "--seed", "7")
        assert code == EXIT_OK
        data = json.loads((out / "carleman_summary.json").read_text())
        diameter = RunConfig.from_dict().build_regions().diameter
        assert data["tau_list"] == [1.0 * 4.0 / diameter, 2.0 * 4.0 / diameter]

    def test_tau_whose_weighted_integrals_underflow_is_numerical_error(self, tmp_path):
        # on the default 32^2 grid every weighted integral at tau = 200 is
        # 0.0: the rows would be zeros that pass
        code, out = _main_with_config(tmp_path, "carleman", _default_taus(200.0))
        assert code == EXIT_NUMERICAL
        error = json.loads((out / "error.json").read_text())
        assert error["error_kind"] == "numerical_error"
        assert "tau = 200" in error["message"]
        assert not (out / "carleman_sweep.txt").exists()

    @pytest.mark.filterwarnings("error")
    def test_large_tau_runs_without_warnings(self, tmp_path):
        # psi exceeds its maximum over G outside G, where the weight at a
        # large tau would overflow; it is formed on the cells of G only
        code, _ = _main_with_config(tmp_path, "carleman", _default_taus(50.0))
        assert code == EXIT_OK

    def test_wall_grid_tables_are_the_same_for_every_equilibrium(self, tmp_path):
        # a grid with walls carries the carleman stage only, which reads no
        # equilibrium, so none is built: every kind writes the same tables
        # but for the config hash
        outs = {}
        for kind in ("zero", "shear", "taylor_vortex"):
            (tmp_path / kind).mkdir()
            config = {"geometry": COLLAR32, "equilibrium": {"kind": kind}}
            code, out = _main_with_config(tmp_path / kind, "carleman", config, "--seed", "7")
            assert code == EXIT_OK, kind
            outs[kind] = {
                f.name: [l for l in f.read_text().splitlines() if "config_hash" not in l]
                for f in out.iterdir()
            }
        assert set(outs["zero"]) == {"carleman_sweep.txt", "carleman_summary.json"}
        assert outs["zero"] == outs["shear"] == outs["taylor_vortex"]

    @pytest.mark.parametrize("command", ["spectrum", "all"])
    def test_wall_grid_spectral_stages_are_config_errors(self, tmp_path, command):
        config = {"geometry": COLLAR32, "equilibrium": {"kind": "taylor_vortex"}}
        code, out = _main_with_config(tmp_path, command, config)
        assert code == EXIT_CONFIG
        error = json.loads((out / "error.json").read_text())
        assert error["error_kind"] == "config_error"
        assert "fully periodic" in error["message"]


STAB_GEOM = {
    "Ly": float(np.pi),
    "ny": 24,
    "nx": 24,
    "omega": {"radius_frac": 0.16},
    "omega1_width_frac": 0.05,
    "omega_star_width_frac": 0.10,
}


class TestRunStabilize:
    def test_closed_loop_summary(self, tmp_path):
        cfg = _cfg(geometry=STAB_GEOM, physics={"sigma": 1.5}, **FAST_SPECTRAL)
        summary = run_stabilize(Run(cfg), tmp_path)
        assert summary["N"] == 4
        assert max(summary["achieved_poles"]) <= -1.0 + 1e-8
        target = summary["energy_rate_target"]
        assert abs(summary["decay_rate"] - target) <= 0.15 * target
        assert (tmp_path / "trace.txt").exists()
        assert (tmp_path / "gain.txt").exists()
        gain = np.loadtxt(tmp_path / "gain.txt", ndmin=2)
        assert summary["gain_norm"] == pytest.approx(np.linalg.norm(gain), rel=1e-11)
        assert 1.0 <= summary["sylvester_cond"] < 1e3

    def test_gain_off_documents_growth(self, tmp_path):
        cfg = _cfg(
            geometry=STAB_GEOM,
            physics={"sigma": 1.5},
            stabilize={"gain_on": False, "T": 2.0},
            **FAST_SPECTRAL,
        )
        summary = run_stabilize(Run(cfg), tmp_path)
        assert summary["mode"] == "open_loop"
        assert summary["open_loop_growth"] is True

    def test_config_gamma_sets_the_target(self, tmp_path):
        config = {
            "geometry": STAB_GEOM,
            "physics": {"sigma": 1.5},
            "spectral": {"count": 10},
            "stabilize": {"T": 4.0, "gamma": 1.4},
        }
        code, out = _main_with_config(tmp_path, "stabilize", config)
        assert code == EXIT_OK
        data = json.loads((out / "stabilize_summary.json").read_text())
        assert data["gamma"] == 1.4
        assert max(data["achieved_poles"]) <= -1.4 + 1e-8

    def test_one_cell_omega_stabilize_uncontrollable(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                dict(FAST_SPECTRAL, geometry=dict(STAB_GEOM, **ONE_CELL_OMEGA), physics={"sigma": 1.5})
            )
        )
        code = main(["stabilize", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_UNCONTROLLABLE

    def test_fit_window_needs_ten_samples(self, tmp_path):
        # with dt = 0.01 the window (T/2, T) holds 10 samples at T = 0.18 and
        # 9 at T = 0.17; the first runs to a fitted rate, the second is
        # refused before anything is computed
        over = dict(FAST_SPECTRAL, geometry=STAB_GEOM, physics={"sigma": 1.5})
        summary = run_stabilize(Run(_cfg(**over, stabilize={"T": 0.18})), tmp_path)
        assert np.isfinite(summary["decay_rate"])
        with pytest.raises(ConfigurationError, match="stabilize.T"):
            Run(_cfg(**over, stabilize={"T": 0.17}))

    @pytest.mark.parametrize("dt", [0.003, 0.01, 0.07, 0.1])
    def test_fit_window_check_agrees_with_measure_decay(self, dt):
        for T in np.round(np.linspace(dt, 50 * dt, 150), 12):
            try:
                RunConfig.from_dict({"stabilize": {"T": float(T), "dt": dt}}).stabilize_options()
                accepted = True
            except ConfigurationError:
                accepted = False
            times = np.array([k * dt for k in range(int(round(T / dt)) + 1)])
            trace = SimulationTrace(times, np.exp(-times), np.exp(-times), np.zeros((times.size, 1)))
            try:
                measure_decay(trace, (T / 2, T))
                fitted = True
            except FitError:
                fitted = False
            assert accepted == fitted, (T, dt)


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "carleman": {"n_fields": 3, "tau_grid": [1.0, 2.0, 4.0]},
                    "spectral": {"count": 10},
                }
            )
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["carleman", "--config", str(cfgfile), "--out", str(out)])
            assert code == EXIT_OK
            code = main(["spectrum", "--config", str(cfgfile), "--out", str(out)])
            assert code == EXIT_OK
            outs.append(out)
        for name in ("carleman_sweep.txt", "carleman_summary.json", "spectrum.txt"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name

    def test_reports_embed_hash_and_version(self, tmp_path):
        cfg = _cfg(carleman={"n_fields": 2, "tau_grid": [1.0]})
        summary = run_carleman(Run(cfg), tmp_path)
        from mhdlab import __version__

        assert summary["version"] == __version__
        head = (tmp_path / "carleman_sweep.txt").read_text().splitlines()[:2]
        assert any(cfg.hash in line for line in head)

    def test_float_array_rows_are_the_fmt_text(self, tmp_path):
        # one format string per row gives the bytes of one fmt call per value
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-320, 300, size=(50, 6))
        rows[0] = [0.0, -0.0, 5e-324, -2.2e-308, np.inf, np.nan]
        write_table(tmp_path / "array.txt", list("abcdef"), rows, {"k": 1})
        write_table(tmp_path / "fmt.txt", list("abcdef"), [list(r) for r in rows], {"k": 1})
        assert (tmp_path / "array.txt").read_bytes() == (tmp_path / "fmt.txt").read_bytes()


def test_all_subcommand_runs_every_stage(tmp_path):
    # the default square box supports every stage; keep the horizon short
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "spectral": {"count": 12},
                "carleman": {"n_fields": 3, "tau_grid": [1.0, 4.0, 16.0]},
                "stabilize": {"T": 3.0},
            }
        )
    )
    out = tmp_path / "o"
    code = main(["all", "--config", str(cfgfile), "--out", str(out)])
    assert code == EXIT_OK
    for name in (
        "spectrum_summary.json",
        "ucp_summary.json",
        "carleman_summary.json",
        "stabilize_summary.json",
    ):
        assert (out / name).exists(), name


def test_console_entry_point(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"spectral": {"count": 8}}))
    # the child interpreter imports the same mhdlab as this test process
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mhdlab",
            "spectrum",
            "--config",
            str(cfgfile),
            "--out",
            str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "spectrum: ok" in proc.stdout


def _run_all_in_fresh_interpreter(out: Path, nx: int, ny: int, threads: int, kind: str = "zero"):
    """``mhdlab all --seed 7`` on the ``kind`` equilibrium on the nx x ny
    grid, with ``threads`` BLAS threads."""
    out.mkdir(parents=True)
    cfgfile = out.parent / f"{out.name}.json"
    cfgfile.write_text(json.dumps({"equilibrium": {"kind": kind}, "geometry": {"nx": nx, "ny": ny}}))
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    return subprocess.run(
        [sys.executable, "-m", "mhdlab", "all", "--config", str(cfgfile), "--seed", "7",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "kind, nx, ny",
    [("zero", 48, 40), ("zero", 40, 48), ("shear", 48, 40), ("shear", 40, 48)],
    ids=["48-40", "40-48", "shear-48-40", "shear-40-48"],
)
def test_non_square_grid_is_stabilized_or_uncontrollable(tmp_path, kind, nx, ny):
    # a fresh interpreter with one BLAS thread, as measured.  On non-square
    # grids the placement is ill-conditioned (ROADMAP item 2): zero passes
    # the pole gate with a gain of Frobenius norm 1.7e7 and shear with about
    # 1e5, and the gain gate stops both (exit 4) before the closed loop
    # blows up (exit 3)
    proc = _run_all_in_fresh_interpreter(tmp_path / "o", nx, ny, threads=1, kind=kind)
    assert proc.returncode in (EXIT_OK, EXIT_UNCONTROLLABLE), proc.stdout + proc.stderr


def test_non_square_grid_runs_alike_at_one_and_two_threads(tmp_path):
    # zero's spectrum is read off the diagonal of R, so neither it nor the
    # adjoint and placement built on its unit vectors follow the BLAS
    # thread count: every exit code and output file is the same.  shear's
    # Arnoldi bases do follow it, so only its exit codes must agree
    for kind in ("zero", "shear"):
        for nx, ny in [(48, 40), (40, 48)]:
            outs = [tmp_path / f"{kind}{nx}x{ny}-{t}" for t in (1, 2)]
            runs = [_run_all_in_fresh_interpreter(o, nx, ny, threads=t, kind=kind)
                    for o, t in zip(outs, (1, 2))]
            assert runs[0].returncode == runs[1].returncode, (kind, nx, ny)
            if kind == "zero":
                files = [{f.name: f.read_bytes() for f in o.iterdir()} for o in outs]
                assert files[0] == files[1], (nx, ny)


def test_cli_import_leaves_scipy_signal_unloaded():
    # pole placement needs only scipy.linalg; scipy.signal alone costs about a
    # second of start-up on every run
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mhdlab.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # the distance to omega is computed with numpy; scipy.ndimage alone adds
    # about 0.15 s of start-up on every run
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mhdlab.cli; print('scipy.ndimage' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_default_config_validates():
    RunConfig.from_dict().validate()
    assert "geometry" in DEFAULT_CONFIG


def test_every_length_is_a_fraction_of_the_shorter_side():
    # a 2pi x pi box: the disc radius and both bands scale with Ly
    regions = _cfg(geometry=STAB_GEOM).build_regions()
    assert regions.omega_spec.size == 0.16 * np.pi
    assert regions.omega1_width == 0.05 * np.pi
    assert regions.omega_star_width == 0.10 * np.pi


def _bad(config, key):
    return pytest.param(config, key, id=json.dumps(config))


# each config sets a key DEFAULT_CONFIG does not have, or a value of another
# kind than the key's default, or one out of its range; the error names the key
MISTYPED_CONFIGS = [
    _bad({"spectral": 5}, "spectral"),
    _bad({"carleman": None}, "carleman"),
    _bad({"stabilize": []}, "stabilize"),
    _bad({"equilibrium": 3}, "equilibrium"),
    _bad({"geometry": {"omega": 5}}, "omega"),
    _bad({"seed": "x"}, "seed"),
    _bad({"physics": {"sigma": "abc"}}, "sigma"),
    _bad({"spectral": {"count": "x"}}, "count"),
    _bad({"geometry": {"omega": {"radius_frac": "a"}}}, "radius_frac"),
    _bad({"carleman": {"tau_grid": 5}}, "tau_grid"),
    _bad({"equilibrium": {"kind": "shear", "params": 3}}, "params"),
    _bad({"stabilize": {"gain_on": "false"}}, "gain_on"),
    _bad({"spectral": {"degenerate_fixture": "no"}}, "degenerate_fixture"),
    _bad({"equilibrium": {"kind": "shear", "params": {"amplitude": "x"}}}, "amplitude"),
    _bad({"equilibrium": {"kind": "taylor_vortex", "params": {"mode_x": 1.5}}}, "mode_x"),
    # read in validation although the equilibrium is built only with the
    # generator, and on a grid with walls never
    _bad({"geometry": COLLAR32, "equilibrium": {"kind": "shear", "params": {"mode": 1.5}}}, "mode"),
    _bad({"physics": {"nu": -1.0}}, "nu"),
    # misspelled or retired keys
    _bad({"physics": {"sigmaa": 0.0}}, "sigmaa"),
    _bad({"physic": {"sigma": 0.0}}, "physic"),
    _bad({"spectral": {"degenerate_fixtur": True}}, "degenerate_fixtur"),
    _bad({"spectral": {"degenerate_fixture": True}}, "degenerate_fixture"),
    _bad({"spectral": {"strategy": "shift_invert"}}, "spectral.strategy"),
    _bad({"carleman": {"tau_scale": "absolute"}}, "carleman.tau_scale"),
    # the tau^2 weakening of the zero-order coefficient
    _bad({"carleman": {"tau2_bound": 0.0}}, "carleman.tau2_bound"),
    _bad({"carleman": {"calibrate_tau2": 1}}, "carleman.calibrate_tau2"),
    # the absolute lengths: each length is set only as a fraction of min(Lx, Ly)
    _bad({"geometry": {"omega": {"radius": 0.9}}}, "geometry.omega.radius"),
    _bad({"geometry": {"omega": {"width": 0.6}}}, "geometry.omega.width"),
    _bad({"geometry": {"omega1_width": 0.4}}, "geometry.omega1_width"),
    _bad({"geometry": {"omega_star_width": 1.6}}, "geometry.omega_star_width"),
    _bad({"equilibrium": {"kind": "shear", "params": {"amplitud": 5}}}, "amplitud"),
    # omega keys that the shape or case does not read
    _bad({"geometry": _collar32(side="y0")}, "geometry.omega.side"),
    _bad({"geometry": _collar32(span=[0.25, 0.75])}, "geometry.omega.span"),
    _bad({"geometry": {"omega": {"side": "x0"}}}, "geometry.omega.side"),
    _bad({"geometry": {"omega": {"width_frac": 0.1}}}, "geometry.omega.width_frac"),
    _bad({"geometry": _collar32(center=[1.0, 1.0])}, "geometry.omega.center"),
    _bad({"geometry": _collar32(radius_frac=0.3)}, "geometry.omega.radius_frac"),
    # values that ended in a traceback
    _bad({"geometry": {"omega": {"center": ["a", "b"]}}}, "center"),
    _bad({"geometry": {"omega": {"center": [1.0]}}}, "center"),
    _bad(
        {
            "geometry": {
                "bc_y": "wall",
                "case": "partial_collar",
                "omega": {"shape": "collar", "width_frac": 0.1, "span": ["x", 1]},
            }
        },
        "span",
    ),
    _bad({"seed": -3}, "seed"),
    # values that were coerced
    _bad({"geometry": {"Lx": "6.28"}}, "Lx"),
    _bad({"seed": "7"}, "seed"),
    _bad({"geometry": {"nx": 32.7}}, "nx"),
    _bad({"carleman": {"n_fields": 2.9}}, "n_fields"),
    _bad({"seed": 1.5}, "seed"),
    _bad({"spectral": {"count": True}}, "count"),
    _bad({"stabilize": {"gamma": True}}, "gamma"),
    _bad({"carleman": {"tau_grid": [1, float("nan")]}}, "tau_grid"),
    _bad({"stabilize": {"gamma": float("inf")}}, "gamma"),
    _bad({"stabilize": {"gamma": float("nan")}}, "gamma"),
    # non-finite values that failed in the numerics
    _bad({"physics": {"nu": "inf"}}, "nu"),
    _bad({"physics": {"sigma": float("nan")}}, "sigma"),
    _bad({"stabilize": {"dt": float("nan")}}, "dt"),
    # a fit window too short for measure_decay
    _bad({"stabilize": {"T": 0.05}}, "stabilize.T"),
    # choice strings
    _bad({"geometry": {"case": "bogus"}}, "case"),
    _bad({"geometry": {"bc_x": "bogus"}}, "bc_x"),
    # custom equilibria take arrays: the API builds them, a config cannot
    _bad({"equilibrium": {"kind": "custom"}}, "kind"),
]


@pytest.mark.parametrize("command", ["spectrum", "carleman"])
@pytest.mark.parametrize("config, key", MISTYPED_CONFIGS)
def test_mistyped_config_value_is_config_error(tmp_path, command, config, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert [f.name for f in out.iterdir()] == ["error.json"]
    error = json.loads((out / "error.json").read_text())
    assert error["error_kind"] == "config_error"
    assert key in error["message"]


@pytest.mark.parametrize(
    "geometry, key, default",
    [(COLLAR32, key, DEFAULT_CONFIG["geometry"]["omega"][key])
     for key in ("radius_frac", "center", "side", "span")]
    + [({}, "width_frac", None)],
)
def test_unread_omega_key_at_its_default_changes_nothing(geometry, key, default):
    # a key the omega's shape does not read is refused only when it differs
    # from its default
    plain = RunConfig.from_dict({"geometry": geometry}).build_regions()
    omega = {**geometry.get("omega", {}), key: default}
    spelled = RunConfig.from_dict({"geometry": {**geometry, "omega": omega}}).build_regions()
    assert spelled.omega_spec == plain.omega_spec
    for mask in ("omega", "omega1", "omega_star", "omega0"):
        assert np.array_equal(getattr(spelled, mask), getattr(plain, mask)), mask


def test_thin_transition_band_stops_all_before_any_stage(tmp_path):
    # the carleman stage's cutoff needs a 3-cell transition band: a command
    # that runs the stage is refused before any stage writes, and one that
    # does not run it is unaffected
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(dict(FAST_SPECTRAL, geometry={"omega_star_width_frac": 0.05})))
    out = tmp_path / "all"
    assert main(["all", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "spectrum.txt").exists()
    error = json.loads((out / "error.json").read_text())
    assert error["error_kind"] == "config_error"
    assert "transition band" in error["message"]
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "s")]) == EXIT_OK


def test_negative_seed_flag_is_config_error(tmp_path):
    out = tmp_path / "o"
    assert main(["carleman", "--seed", "-3", "--out", str(out)]) == EXIT_CONFIG
    assert "seed" in json.loads((out / "error.json").read_text())["message"]


@pytest.mark.parametrize("flag, value", [("--tau-list", "1.0,2.0"), ("--gamma", "1.4")])
def test_removed_override_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # stabilize.gamma and carleman.tau_grid are set in the config only
    with pytest.raises(SystemExit) as exc:
        main(["all", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _leaves(tree: dict, path=()):
    for key, val in tree.items():
        if isinstance(val, dict) and val:
            yield from _leaves(val, path + (key,))
        else:
            yield path + (key,), val


def test_readme_schema_shows_every_default():
    # both ways: every key of DEFAULT_CONFIG with its default, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    shown = json.loads(re.sub(r"//[^\n]*", "", block))
    assert dict(_leaves(shown)) == dict(_leaves(DEFAULT_CONFIG))
    # the schema's size: a new key is a decision, made here and in the README
    assert len(dict(_leaves(DEFAULT_CONFIG))) == 30


def test_perfbench_setup_targets_resolve():
    # perfbench times config loading and checking through these spans; a
    # refactor that moves that work elsewhere would shrink setup_s unseen
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SETUP_TARGETS
    for name, module, attr, *_ in spans.SETUP_TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


# the default square box supports every stage
SHARED_CFG = {
    "spectral": {"count": 10},
    "carleman": {"n_fields": 2, "tau_grid": [1.0, 4.0]},
    "stabilize": {"T": 1.0},
}
STAGES = ("spectrum", "ucp", "carleman", "stabilize")


def _snapshot(rep):
    return [(p.lam, p.residual, [p.coeffs.copy()]) for p in rep.pairs]


def _assert_same(rep, snap):
    now = _snapshot(rep)
    assert len(now) == len(snap)
    for (lam, res, arrays), (lam0, res0, arrays0) in zip(now, snap):
        assert (lam, res) == (lam0, res0)
        for a, a0 in zip(arrays, arrays0):
            assert np.array_equal(a, a0)


class TestSharedRun:
    @pytest.mark.parametrize("kind", ["zero", "shear"])
    @pytest.mark.parametrize(
        "command, forward, adjoint",
        [("all", 1, 1), ("spectrum", 1, 0), ("ucp", 1, 1), ("carleman", 0, 0), ("stabilize", 1, 1)],
    )
    def test_eigensolves_per_command(self, tmp_path, monkeypatch, command, forward, adjoint, kind):
        cli = mhdlab.cli
        calls = {"forward": 0, "adjoint": 0, "arnoldi": 0}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "compute_spectrum", counted("forward", cli.compute_spectrum))
        monkeypatch.setattr(cli, "adjoint_eigenpairs", counted("adjoint", cli.adjoint_eigenpairs))
        monkeypatch.setattr(
            mhdlab.spectral,
            "_shift_invert_eig",
            counted("arnoldi", mhdlab.spectral._shift_invert_eig),
        )
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**SHARED_CFG, "equilibrium": {"kind": kind}}))
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        # the adjoint is derived from the forward spectrum: one Arnoldi per
        # forward solve and none for the adjoint.  zero's R is diagonal, so
        # its spectrum is read off the diagonal with no Arnoldi at all
        arnoldi = forward if kind == "shear" else 0
        assert calls == {"forward": forward, "adjoint": adjoint, "arnoldi": arnoldi}

    @pytest.mark.parametrize(
        "command, calls",
        [("all", 1), ("spectrum", 0), ("ucp", 1), ("carleman", 0), ("stabilize", 1)],
    )
    def test_actuators_and_kalman_per_command(self, tmp_path, monkeypatch, command, calls):
        cli = mhdlab.cli
        counts = {"select_actuators": 0, "kalman_rank": 0}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(cli, name, counted(name))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(SHARED_CFG))
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert counts == {"select_actuators": calls, "kalman_rank": calls}

    def test_all_computes_each_cluster_gram_once(self, tmp_path, monkeypatch):
        # the UCP report and the actuators' guard read the same Gram reports
        calls = []
        gram = mhdlab.spectral.ucp_gram_test

        def counted(*args, **kwargs):
            calls.append(1)
            return gram(*args, **kwargs)

        monkeypatch.setattr(mhdlab.cli, "ucp_gram_test", counted)
        monkeypatch.setattr(mhdlab.spectral, "ucp_gram_test", counted)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(SHARED_CFG))
        out = tmp_path / "o"
        assert main(["all", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        M = json.loads((out / "ucp_summary.json").read_text())["M"]
        assert M > 0
        assert len(calls) == M

    def test_all_matches_stages_run_separately(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(SHARED_CFG))
        args = ["--config", str(cfgfile), "--seed", "5"]
        together, apart = tmp_path / "all", tmp_path / "apart"
        assert main(["all", *args, "--out", str(together)]) == EXIT_OK
        for stage in STAGES:
            assert main([stage, *args, "--out", str(apart)]) == EXIT_OK
        names = sorted(f.name for f in together.iterdir())
        assert names == sorted(f.name for f in apart.iterdir())
        assert {f"{s}_summary.json" for s in STAGES} | {"gain.txt", "trace.txt"} <= set(names)
        for name in names:
            assert (together / name).read_bytes() == (apart / name).read_bytes(), name

    @pytest.mark.parametrize("kind", ["zero", "shear"])
    def test_adjoint_pairs_are_the_unstable_clusters_of_the_full_derivation(self, kind):
        run = Run(_cfg(**dict(SHARED_CFG, equilibrium={"kind": kind})))
        full = adjoint_eigenpairs(run.system, run.spectrum)
        adj = run.adjoint_spectrum
        n = len(adj.pairs)
        assert 0 < n < len(full.pairs)
        assert (adj.N, adj.M, adj.ell, adj.K) == (full.N, full.M, full.ell, full.K)
        assert adj.cluster_ids == full.cluster_ids[:n]
        assert adj.distinct == full.distinct
        for a, b in zip(adj.pairs, full.pairs[:n]):
            assert (a.lam, a.residual) == (b.lam, b.residual)
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_validated_objects_are_reused(self, monkeypatch):
        built = []
        validate = RunConfig.validate

        def counted(cfg):
            built.append(validate(cfg))
            return built[-1]

        monkeypatch.setattr(RunConfig, "validate", counted)
        run = Run(_cfg(**SHARED_CFG))
        assert len(built) == 1
        assert (run.grid, run.regions) == built[0]
        # the equilibrium is built with the generator, on the validated grid
        assert "equilibrium" not in vars(run)
        assert run.system.eq is run.equilibrium
        assert run.equilibrium.grid is run.grid

    def test_stages_leave_shared_spectra_unchanged(self, tmp_path):
        run = Run(_cfg(**SHARED_CFG))
        fwd, adj = _snapshot(run.spectrum), _snapshot(run.adjoint_spectrum)
        for runner in (run_spectrum, run_ucp, run_carleman, run_stabilize):
            runner(run, tmp_path)
        _assert_same(run.spectrum, fwd)
        _assert_same(run.adjoint_spectrum, adj)

    def test_failed_gram_leaves_adjoint_pairs_unchanged(self, tmp_path):
        run = Run(_cfg(**dict(SHARED_CFG, geometry=ONE_CELL_OMEGA)))
        adj = _snapshot(run.adjoint_spectrum)
        with pytest.raises(UncontrollableError):
            run_ucp(run, tmp_path)
        _assert_same(run.adjoint_spectrum, adj)
        with pytest.raises(UncontrollableError):
            run_stabilize(run, tmp_path)
        _assert_same(run.adjoint_spectrum, adj)
