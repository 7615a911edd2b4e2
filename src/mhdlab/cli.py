"""Batch pipeline driver: spectrum | ucp | carleman | stabilize | all.

Each subcommand reads one JSON config, runs its stage, writes columnar
tables plus a machine-readable summary into the output directory, and exits
with a status that encodes the failure class:

    0 success          2 configuration/geometry error
    3 numerical error  4 uncontrollable (rank condition failed)
    5 other deliberate failure

The stages of one invocation share one ``Run``, so ``all`` builds the grid
and regions once (in validation) and the equilibrium once (with the
generator, which only the spectral stages read), solves the forward spectrum
once and derives the adjoint eigenfunctions of its unstable clusters from it
once.  Each unstable adjoint cluster is synthesized on omega once, and its
omega-Gram computed once, for the UCP report and the actuators alike.  A
command that runs the carleman stage checks the width of the
cutoff's transition band before the first stage writes anything.  The
computing is the library's: a stage reads what the Run holds, calls the
library (``stabilize`` gates on the Kalman reports and runs
``stabilize.closed_loop``), and writes the tables and the summary.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .carleman import CarlemanParams, calibrate_tau2_bound, find_tau0, sweep
from .config import RunConfig
from .equilibria import Equilibrium
from .errors import (
    ConfigurationError,
    GeometryError,
    MhdLabError,
    NumericalError,
    UncontrollableError,
)
from .geometry import build_weight, transition_band
from .operators import MhdSystem
from .reports import write_summary, write_table
from .spectral import (
    EigenPair,
    GramMatrix,
    KalmanMatrix,
    SpectrumReport,
    adjoint_eigenpairs,
    compute_spectrum,
    kalman_rank,
    omega_fields,
    select_actuators,
    ucp_gram_test,
)
from .stabilize import closed_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNCONTROLLABLE = 4
EXIT_OTHER = 5


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.hash, "version": __version__}


class Run:
    """The inputs the stages of one invocation share, each built on first
    use and at most once.

    One MhdSystem holds the generator R, which the adjoint stages read as
    its transpose, so R is assembled once.  The forward spectrum is solved once
    and the adjoint eigenpairs are derived from it once, no matter how many
    stages read them; the same holds for the clusters' omega fields and
    omega-Gram reports, the actuators and the Kalman reports that ``ucp``
    and ``stabilize`` both need.  Stages treat
    everything here as read-only.  The grid and regions are the ones
    ``RunConfig.validate`` builds when the Run is made; the equilibrium is
    built with the generator, so a run of the carleman stage alone builds
    none.  On a grid with walls that is the only stage that runs: building
    the equilibrium there raises ConfigurationError.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid, self.regions = cfg.validate()

    @cached_property
    def equilibrium(self) -> Equilibrium:
        return self.cfg.build_equilibrium(self.grid)

    @cached_property
    def system(self) -> MhdSystem:
        return MhdSystem(self.equilibrium, self.cfg.sigma)

    @cached_property
    def spectrum(self) -> SpectrumReport:
        return compute_spectrum(self.system, self.cfg.spectral_options()["count"])

    @cached_property
    def adjoint_spectrum(self) -> SpectrumReport:
        """Adjoint pairs of the unstable forward clusters only: the stages
        read no others."""
        return adjoint_eigenpairs(self.system, self.spectrum.unstable_part())

    @cached_property
    def clusters(self) -> list[list[EigenPair]]:
        return self.adjoint_spectrum.unstable_clusters()

    @cached_property
    def cluster_fields(self) -> list[np.ndarray]:
        """Each cluster's eigenfunctions restricted to omega, one array each."""
        return [omega_fields(self.system, cl, self.regions.omega) for cl in self.clusters]

    @cached_property
    def grams(self) -> list[GramMatrix]:
        return [ucp_gram_test(F, self.grid.cell_area) for F in self.cluster_fields]

    @cached_property
    def actuators(self) -> np.ndarray:
        """The actuators, once every cluster's omega-Gram has passed."""
        for cl, gm in zip(self.clusters, self.grams):
            if not gm.passed:
                raise UncontrollableError(
                    f"omega-Gram of cluster at {cl[0].lam:.4g} is numerically singular; "
                    "cannot build independent actuators"
                )
        return select_actuators(self.cluster_fields, self.grid.cell_area)

    @cached_property
    def kalman(self) -> list[KalmanMatrix]:
        return kalman_rank(self.actuators, self.cluster_fields, self.grid.cell_area)


def run_spectrum(run: Run, outdir: Path) -> dict:
    cfg, rep = run.cfg, run.spectrum
    rows = [
        [p.lam.real, p.lam.imag, p.residual, cid, rep.ell[cid] if cid < rep.M else 0]
        for p, cid in zip(rep.pairs, rep.cluster_ids)
    ]
    write_table(
        outdir / "spectrum.txt",
        ["re", "im", "residual", "cluster", "ell"],
        rows,
        _meta(cfg),
    )
    summary = dict(
        _meta(cfg),
        N=rep.N,
        M=rep.M,
        ell=rep.ell,
        K=rep.K,
        sigma=rep.sigma,
        count=len(rep.pairs),
        max_residual=max((p.residual for p in rep.pairs), default=0.0),
        eigenvalues=[{"re": p.lam.real, "im": p.lam.imag} for p in rep.pairs],
    )
    write_summary(outdir / "spectrum_summary.json", summary)
    return summary


def run_ucp(run: Run, outdir: Path) -> dict:
    cfg, arep = run.cfg, run.adjoint_spectrum
    rows, cluster_summaries = [], []
    all_gram = True
    for ci, (cl, gm) in enumerate(zip(run.clusters, run.grams)):
        all_gram &= gm.passed
        cluster_summaries.append(
            {
                "cluster": ci,
                "lambda": {"re": cl[0].lam.real, "im": cl[0].lam.imag},
                "ell": len(cl),
                "sigma_min": gm.sigma_min,
                "gram_passed": gm.passed,
            }
        )
    if arep.N > 0 and all_gram:
        for ci, k in enumerate(run.kalman):
            cluster_summaries[ci]["kalman_rank"] = k.rank
            cluster_summaries[ci]["kalman_passed"] = k.passed
    for cs in cluster_summaries:
        rows.append(
            [
                cs["cluster"],
                cs["lambda"]["re"],
                cs["lambda"]["im"],
                cs["ell"],
                cs["sigma_min"],
                cs["gram_passed"],
                cs.get("kalman_rank", -1),
                cs.get("kalman_passed", False),
            ]
        )
    write_table(
        outdir / "ucp_report.txt",
        ["cluster", "re", "im", "ell", "sigma_min", "gram_pass", "kalman_rank", "kalman_pass"],
        rows,
        _meta(cfg),
    )
    failed = [cs["cluster"] for cs in cluster_summaries if not cs["gram_passed"]]
    summary = dict(
        _meta(cfg),
        N=arep.N,
        M=arep.M,
        K=arep.K,
        clusters=cluster_summaries,
        vacuous=bool(arep.N == 0),
        all_gram_passed=bool(all_gram),
        all_kalman_passed=bool(
            all(cs.get("kalman_passed", False) for cs in cluster_summaries)
        )
        if (arep.N > 0 and all_gram)
        else bool(arep.N == 0),
        failed_clusters=failed,
    )
    write_summary(outdir / "ucp_summary.json", summary)
    if failed:
        raise UncontrollableError(
            f"UCP Gram test failed for cluster(s) {failed}; see ucp_summary.json"
        )
    return summary


def run_carleman(run: Run, outdir: Path) -> dict:
    cfg, regions = run.cfg, run.regions
    psi = build_weight(regions)
    opts = cfg.carleman_options(regions)
    taus = opts["tau_list"]
    c2 = opts["tau2_bound"]
    if opts["calibrate_tau2"]:
        c2 = max(c2, calibrate_tau2_bound(psi, taus, opts["delta0"], opts["epsilon"]))
    params = [
        CarlemanParams.for_weight(t, psi, opts["delta0"], opts["epsilon"], c2) for t in taus
    ]
    s = sweep(psi, np.random.default_rng(cfg.seed), opts["n_fields"], params)
    rows = [
        [t, *(float(np.mean(a)) for a in means), float(margin.min()), bool(ok.all())]
        for t, *means, margin, ok in zip(
            taus, s.lhs_grad, s.lhs_zero, s.rhs_main, s.margin, s.passed
        )
    ]
    write_table(
        outdir / "carleman_sweep.txt",
        ["tau", "lhs_grad_mean", "lhs_zero_mean", "rhs_mean", "worst_margin", "pass"],
        rows,
        _meta(cfg),
    )
    tau0 = find_tau0(taus, s.passed)
    summary = dict(
        _meta(cfg),
        rho=psi.rho,
        kgrad=psi.kgrad,
        delta0=opts["delta0"],
        epsilon=opts["epsilon"],
        tau2_bound=c2,
        tau_list=taus,
        n_fields=opts["n_fields"],
        tau0=tau0,
        all_pass=bool(all(r[5] for r in rows)),
        weight_sign_violations={
            "omega1": psi.sign_violations_omega1,
            "outer": psi.sign_violations_outer,
        },
    )
    write_summary(outdir / "carleman_summary.json", summary)
    return summary


def run_stabilize(run: Run, outdir: Path) -> dict:
    cfg, rep = run.cfg, run.spectrum
    sopts = cfg.stabilize_options()
    if not all(k.passed for k in run.kalman):
        raise UncontrollableError(
            f"Kalman rank defect: {[(k.rank, k.ell) for k in run.kalman]}"
        )
    out = closed_loop(
        run.system,
        rep,
        run.adjoint_spectrum,
        run.actuators,
        run.regions.omega,
        sopts["gamma"] if sopts["gain_on"] else None,
        sopts["T"],
        sopts["dt"],
        np.random.default_rng(cfg.seed),
    )
    summary = dict(_meta(cfg), N=rep.N, M=rep.M, K=rep.K, gamma=sopts["gamma"])
    summary.update(
        mode="open_loop_stable", decay_rate=out.decay_rate, rate_half_width=out.rate_half_width
    )
    trace = out.trace
    write_table(
        outdir / "trace.txt",
        ["t", "energy_total", "energy_unstable"]
        + [f"a{j}" for j in range(trace.amplitudes.shape[1])],
        np.column_stack([trace.times, trace.energies, trace.energies_unstable, trace.amplitudes]),
        _meta(cfg),
    )
    if out.design is not None:
        gain = out.design.gain
        summary.update(
            mode="closed_loop" if sopts["gain_on"] else "open_loop",
            energy_rate_target=out.energy_rate_target,
            achieved_poles=[p.real for p in np.atleast_1d(gain.achieved_poles)] if gain else [],
            pairing_cond=out.design.proj.cond,
            control_support_leakage=out.design.leakage,
            open_loop_growth=bool(trace.energies[-1] > trace.energies[0])
            if not sopts["gain_on"]
            else None,
        )
        if gain is not None:
            summary.update(gain_norm=gain.gain_norm, sylvester_cond=gain.cond_x)
            write_table(
                outdir / "gain.txt",
                [f"c{j}" for j in range(gain.gain.shape[1])],
                gain.gain,
                _meta(cfg),
            )
    write_summary(outdir / "stabilize_summary.json", summary)
    return summary


RUNNERS = {
    "spectrum": run_spectrum,
    "ucp": run_ucp,
    "carleman": run_carleman,
    "stabilize": run_stabilize,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="Spectral, continuation-rank, weighted-estimate and "
        "feedback pipelines for the linearized MHD laboratory.",
    )
    parser.add_argument(
        "command", choices=[*RUNNERS, "all"], help="pipeline stage to run"
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config path")
    parser.add_argument("--out", type=Path, default=Path("mhdlab_out"))
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict()
        if args.seed is not None:
            cfg.raw["seed"] = args.seed
        run = Run(cfg)
        stages = list(RUNNERS) if args.command == "all" else [args.command]
        if "carleman" in stages:
            # the cutoff's width test, before any stage writes a file
            transition_band(run.regions)
        outdir = args.out
        outdir.mkdir(parents=True, exist_ok=True)
        for stage in stages:
            summary = RUNNERS[stage](run, outdir)
            keyline = {
                k: summary[k]
                for k in ("N", "M", "K", "tau0", "decay_rate", "all_pass")
                if k in summary
            }
            print(f"[mhdlab] {stage}: ok {keyline}")
        return EXIT_OK
    except (ConfigurationError, GeometryError) as exc:
        return _fail(args.out, "config_error", exc, EXIT_CONFIG)
    except NumericalError as exc:
        return _fail(args.out, "numerical_error", exc, EXIT_NUMERICAL)
    except UncontrollableError as exc:
        return _fail(args.out, "uncontrollable", exc, EXIT_UNCONTROLLABLE)
    except MhdLabError as exc:
        return _fail(args.out, "error", exc, EXIT_OTHER)


def _fail(outdir: Path, kind: str, exc: Exception, code: int) -> int:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_summary(
            outdir / "error.json",
            {
                "error_kind": kind,
                "message": str(exc),
                "detail": getattr(exc, "detail", {}),
                "version": __version__,
            },
        )
    except OSError:
        pass
    print(f"[mhdlab] {kind}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
