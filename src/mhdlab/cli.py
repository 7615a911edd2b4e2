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
once, and builds their UCP certificate (``spectral.ucp_certificate``) once,
for the UCP report and the closed loop alike.  A forward spectrum without a
stable pair is a configuration error before any stage writes a file, and
so is, in a command that runs the carleman stage, a cutoff whose
transition band is too thin.  The computing and its gates are the
library's: a stage reads what the Run holds, calls the library (``ucp``
reports the certificate, ``stabilize`` hands it to
``stabilize.closed_loop``, which refuses one that failed), and writes the
tables and the summary.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .carleman import DELTA0, EPSILON, find_tau0, sweep
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
    SpectrumReport,
    UcpCertificate,
    adjoint_eigenpairs,
    compute_spectrum,
    ucp_certificate,
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
    stages read them; the same holds for the UCP certificate (its Gram and
    Kalman reports and the actuators) that ``ucp`` and ``stabilize`` both
    need.  Stages treat
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
        """The forward spectrum of ``spectral.count`` pairs, which must hold
        a stable pair: otherwise the cut may lie inside the unstable
        spectrum, and every certificate would pass on the clusters above it.

        On a diagonal R the check is exact: the pairs are the diagonal's in
        order of real part, so a stable pair means every unstable one is in.
        On the Arnoldi path it is necessary but not sufficient, as
        shift-invert finds the eigenvalues nearest its shift, not those of
        largest real part; ROADMAP item 1's Bendixson cut certifies it.
        """
        count = self.cfg.spectral_options()["count"]
        rep = compute_spectrum(self.system, count)
        if rep.lambda_next_stable() is None:
            raise ConfigurationError(
                f"spectral.count = {count} gives {len(rep.pairs)} eigenpairs, all unstable: "
                "the cut may lie inside the unstable spectrum; raise spectral.count"
            )
        return rep

    @cached_property
    def adjoint_spectrum(self) -> SpectrumReport:
        """Adjoint pairs of the unstable forward clusters only: the stages
        read no others."""
        return adjoint_eigenpairs(self.system, self.spectrum.unstable_part())

    @cached_property
    def ucp(self) -> UcpCertificate:
        return ucp_certificate(self.system, self.adjoint_spectrum, self.regions.omega)


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
    cfg, arep, cert = run.cfg, run.adjoint_spectrum, run.ucp
    cluster_summaries, rows = [], []
    kalman = cert.kalman or [None] * len(cert.grams)
    for ci, (cl, gm, k) in enumerate(zip(cert.clusters, cert.grams, kalman)):
        lam = cl[0].lam
        cs = {
            "cluster": ci,
            "lambda": {"re": lam.real, "im": lam.imag},
            "ell": len(cl),
            "sigma_min": gm.sigma_min,
            "gram_passed": gm.passed,
        }
        if k is not None:
            cs.update(kalman_rank=k.rank, kalman_passed=k.passed)
        cluster_summaries.append(cs)
        rank, passed = (k.rank, k.passed) if k is not None else (-1, False)
        rows.append([ci, lam.real, lam.imag, len(cl), gm.sigma_min, gm.passed, rank, passed])
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
        all_gram_passed=not failed,
        all_kalman_passed=cert.kalman_passed,
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
    s = sweep(psi, np.random.default_rng(cfg.seed), opts["n_fields"], taus)
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
        delta0=DELTA0,
        epsilon=EPSILON,
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
    out = closed_loop(
        run.system,
        rep,
        run.ucp,
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
