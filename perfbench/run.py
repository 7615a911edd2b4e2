"""Benchmark of the mhdlab CLI: one workload, timed end to end and per layer.

    python3 perfbench/run.py --workload zero32_all --seed 1 --seconds 55 --trace 0

Run it from the root of an mhdlab checkout; it imports the package from
``src/`` there.  Each CLI run is ``mhdlab.cli.main([...])`` in a fresh
interpreter (``perfbench/child.py``), one at a time, with BLAS and OpenMP
pinned to one thread.  Runs repeat until ``--seconds`` is used up (at least
two, so the tables can be compared byte for byte).  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced ones.

Every stage the command names is one operation.  A stage that errors, fails
an output check, or is never reached counts as failed, with the CLI's exit
code and ``error.json`` recorded.  Outputs go to ``.perfbench_out/<workload>``;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS, SpanIndex, layer_metrics, setup_seconds

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # tables differ in the last bits between 1 and 2 OpenBLAS threads
RUN_BUDGET_S = 170.0  # every child must end before the whole run reaches this
STAGES = ["spectrum", "ucp", "carleman", "stabilize"]
# output file name prefix -> stage that wrote it
FILE_STAGE = {"spectrum": "spectrum", "ucp": "ucp", "carleman": "carleman",
              "trace": "stabilize", "gain": "stabilize", "stabilize": "stabilize"}
EIG_TOL = 1e-8
POLE_TOL = 1e-8
RATE_BAND = 0.15  # acceptance criterion 10

# name -> (CLI command, config overrides on the defaults)
WORKLOADS = {
    "zero32_all": ("all", {}),
    "shear32_all": ("all", {"equilibrium": {"kind": "shear"}}),
    "vortex32_all": ("all", {"equilibrium": {"kind": "taylor_vortex"}}),
    "carleman_channel128": ("carleman", {
        "geometry": {"nx": 128, "ny": 128, "bc_y": "wall", "case": "full_collar",
                     "omega": {"shape": "collar", "width_frac": 0.1}},
        "carleman": {"n_fields": 400},
    }),
}


def analytic_zero_spectrum(count, sigma=1.5, nu=1.0, eta=1.0, n=32, length=2 * math.pi):
    """Leading eigenvalues of the default zero-equilibrium generator:
    sigma + nu * (4th-order Laplacian symbol), one per field and wavevector.
    Nyquist wavevectors lie far down the spectrum and are left out."""
    h = length / n

    def sym(m):
        a = 2 * math.pi * m / n
        return (-2 * math.cos(2 * a) + 32 * math.cos(a) - 30) / (12 * h * h)

    ms = range(-n // 2 + 1, n // 2)
    lams = [sigma + c * (sym(mx) + sym(my))
            for c in (nu, eta) for mx in ms for my in ms if (mx, my) != (0, 0)]
    return sorted(lams, reverse=True)[:count]


def _close(values, ref, tol):
    return len(values) == len(ref) and all(abs(a - b) <= tol for a, b in zip(values, ref))


def _nmk(summary, ref):
    return [summary.get(k) for k in "NMK"] == [ref[k] for k in "NMK"]


def stage_checks(stage, out: Path, workload, ref) -> dict[str, bool]:
    """Output checks of one completed stage."""
    s = json.loads((out / f"{stage}_summary.json").read_text())
    if stage == "spectrum":
        eigs = [complex(e["re"], e["im"]) for e in s["eigenvalues"]]
        checks = {"NMK": _nmk(s, ref),
                  "eigenvalues": _close(eigs, [complex(*e) for e in ref["eigenvalues"]], EIG_TOL)}
        if workload == "zero32_all":
            checks["analytic"] = _close(eigs, analytic_zero_spectrum(len(eigs)), EIG_TOL)
        return checks
    if stage == "ucp":
        return {"NMK": _nmk(s, ref), "gram": s["all_gram_passed"] is True,
                "kalman": s["all_kalman_passed"] is True}
    if stage == "carleman":
        return {"all_pass": s["all_pass"] is True,
                "tau0": s["tau0"] is not None and abs(s["tau0"] - ref["tau0"]) <= EIG_TOL}
    rate, target = s["decay_rate"], s["energy_rate_target"]
    if workload == "zero32_all":
        rate_ok = abs(rate - target) <= RATE_BAND * target
    else:
        rate_ok = rate >= (1 - RATE_BAND) * target
    return {"NMK": _nmk(s, ref),
            "poles": max(s["achieved_poles"]) <= -s["gamma"] + POLE_TOL,
            "decay_rate": rate_ok}


def stage_files(out: Path, stage) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in out.iterdir()
            if FILE_STAGE.get(re.match(r"[a-z]*", f.name).group()) == stage}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(i, traced, argv, wdir: Path, env, deadline):
    """One CLI run; returns its record (exit code, timings, per-stage stdout)."""
    out = wdir / f"child{i}"
    spec = {"argv": argv + ["--out", str(out)], "trace": traced,
            "run_id": f"{wdir.name}-child{i}", "result": str(wdir / f"child{i}.result.json")}
    spec_path = wdir / f"child{i}.spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"i": i, "traced": traced, "out": out, "exit": None, "stdout": "",
                "error": {"error_kind": "timeout", "message": f"killed after {timeout:.0f} s"}}
    rec = {"i": i, "traced": traced, "out": out, "exit": proc.returncode, "stdout": proc.stdout}
    try:
        rec.update(json.loads(Path(spec["result"]).read_text()))
    except (OSError, ValueError):
        rec["error"] = {"error_kind": "crash", "message": proc.stderr.strip()[-500:]}
        return rec
    if rec["exit"] != 0:
        err = out / "error.json"
        rec["error"] = rec["uncaught"] or (json.loads(err.read_text()) if err.is_file() else
                                           {"error_kind": "unknown", "message": ""})
    return rec


def assess(rec, stages, workload, ref, baseline):
    """Per-stage status of one run: 'ok', or why the stage failed."""
    ok_lines = set(re.findall(r"^\[mhdlab\] (\w+): ok", rec["stdout"], re.M))
    status, reached = {}, True
    for stage in stages:
        if not reached:
            status[stage] = "not reached"
            continue
        if stage not in ok_lines:
            err = rec.get("error") or {}
            status[stage] = f"{err.get('error_kind')} (exit {rec['exit']}): {err.get('message')}"
            reached = False
            continue
        try:
            checks = stage_checks(stage, rec["out"], workload, ref)
            if baseline is not None and baseline is not rec:
                checks["deterministic"] = (stage_files(rec["out"], stage)
                                           == stage_files(baseline["out"], stage))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            checks = {f"readable ({type(exc).__name__})": False}
        rec.setdefault("checks", {})[stage] = checks
        bad = [name for name, ok in checks.items() if not ok]
        status[stage] = "ok" if not bad else "check failed: " + ", ".join(bad)
    rec["status"] = status
    return status


def measure(argv, wdir, env, seconds, trace):
    """CLI runs until ``seconds`` is used up; with ``trace``, in untraced/traced pairs."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    kinds = [False, True] if trace else [False]
    runs = []
    while True:
        for traced in kinds:
            runs.append(run_child(len(runs), traced, argv, wdir, env, deadline))
        elapsed = time.monotonic() - start
        if any(r["exit"] is None for r in runs):
            return runs
        per_round = elapsed * len(kinds) / len(runs)
        if len(runs) >= 2 and elapsed + per_round > min(seconds, RUN_BUDGET_S - 20):
            return runs


def report(env_record, runs, e2e, layers, attempted, failed, n_passed, n_plain):
    """Human-readable lines: environment, each run's checks, every metric."""
    print("perfbench env " + json.dumps(env_record, sort_keys=True))
    for rec in runs:
        timing = (f"main={rec['main_s']:.3f}s import={rec['import_s']:.3f}s "
                  f"rss={rec['peak_rss_mb']:.1f}MB" if "main_s" in rec else "")
        print(f"run {rec['i']} {'traced' if rec['traced'] else 'untraced'} exit={rec['exit']} {timing}")
        for stage, st in rec["status"].items():
            checks = " ".join(f"{k}={'ok' if v else 'FAIL'}"
                              for k, v in rec.get("checks", {}).get(stage, {}).items())
            print(f"  {stage:<10} {st}  {checks}")
        if rec.get("absent"):
            print(f"  absent layers: {', '.join(rec['absent'])}")
    traced = [r for r in runs if r["traced"] and "spans" in r]
    if traced:
        print("self times of the first traced run (s):")
        for name, t in SpanIndex(traced[0]["spans"]).self_times().items():
            print(f"  {name:<22} {t:.4f}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(ops_failed_frac {failed / attempted:.3f})")
    for name, unit, what in END_TO_END:
        val = e2e[name]
        shown = "n/a (no run passed every stage)" if val is None else f"{val:.6g} {unit}"
        n = n_passed if name == "pipeline_s" else n_plain
        print(f"metric {name} = {shown}  [median of {n} untraced runs; {what}]")
    for name, unit, _, moves in PER_LAYER:
        if name in layers:
            print(f"metric {name} = {layers[name]:.6g} {unit}  [moves {moves}]")


def median(values):
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mhdlab" / "cli.py").is_file():
        print("perfbench: src/mhdlab/cli.py not found; run from the root of an mhdlab checkout",
              file=sys.stderr)
        return 2
    command, overrides = WORKLOADS[args.workload]
    stages = STAGES if command == "all" else [command]
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    wdir = root / ".perfbench_out" / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg_path = wdir / "config.json"
    cfg_path.write_text(json.dumps(overrides))
    argv = [command, "--config", str(cfg_path), "--seed", str(args.seed)]
    env = child_env(root)

    runs = measure(argv, wdir, env, args.seconds, args.trace)
    baseline = runs[0] if runs[0]["exit"] is not None else None
    attempted = failed = 0
    for rec in runs:
        status = assess(rec, stages, args.workload, ref, baseline)
        attempted += len(status)
        failed += sum(v != "ok" for v in status.values())

    passed = [r for r in runs if not r["traced"] and all(v == "ok" for v in r["status"].values())]
    plain = [r for r in runs if not r["traced"] and "main_s" in r]
    traced = [r for r in runs if r["traced"] and "main_s" in r]
    e2e = {
        "pipeline_s": median([r["main_s"] for r in passed]),
        "setup_s": median([setup_seconds(r["spans"], r["import_s"]) for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    layers = {}
    if traced and plain:
        per_run = [layer_metrics(r["spans"], r["import_s"]) for r in traced]
        layers = {k: median([m[k] for m in per_run]) for k in per_run[0]}
        layers["trace.overhead_s"] = (median([r["main_s"] for r in traced])
                                      - median([r["main_s"] for r in plain]))
        (wdir / "spans.json").write_text(json.dumps({r["run_id"]: r["spans"] for r in traced}))

    first = next((r for r in runs if "versions" in r), {})
    env_record = {
        **first.get("versions", {}),
        "nproc": os.cpu_count(),
        "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "argv": ["mhdlab"] + argv,
        "config_overrides": overrides,
    }
    report(env_record, runs, e2e, layers, attempted, failed, len(passed), len(plain))
    (wdir / "result.json").write_text(json.dumps({
        "env": env_record, "end_to_end": e2e, "per_layer": layers,
        "attempted": attempted, "failed": failed,
        "runs": [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()
                  if k not in ("spans", "stdout")} for r in runs],
    }, indent=1, sort_keys=True))

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in chosen.items() if v is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
