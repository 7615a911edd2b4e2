"""Metric tables and the per-layer metrics derived from one traced run's spans.

Every ``*_s`` layer metric is the inclusive time of the outermost spans of
that layer (a span nested in another span of the same layer is not counted
twice).  The ``cli.*_s`` metrics are stage self times: the stage span minus
the time covered by its direct child spans.  ``moves`` says which end-to-end
metric a layer metric should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

END_TO_END = [
    ("pipeline_s", "s", "wall time of mhdlab.cli.main, over runs whose every stage passed its checks"),
    ("setup_s", "s", "import mhdlab.cli plus config load and validate"),
    ("peak_rss_mb", "MB", "peak resident set size of the CLI process"),
]

_SPECTRAL = "pipeline_s on shear32_all and vortex32_all; less on zero32_all"
_SHEAR = "pipeline_s on shear32_all"
_STAB = "pipeline_s and peak_rss_mb on zero32_all and shear32_all"
_CARL = "pipeline_s on carleman_channel128"
_SETUP_WORK = "pipeline_s a little on every workload"
_STAGE = "pipeline_s; a stage self time that locates a saving, not a gate"

# (name, unit, better, moves)
PER_LAYER = [
    ("spectral.eigensolve_calls", "count", "lower", _SPECTRAL),
    ("spectral.eigensolve_s", "s", "lower", _SPECTRAL),
    ("spectral.inner_solves", "count", "lower", _SPECTRAL),
    ("spectral.matvecs_per_inner_solve", "matvecs/solve", "lower", _SPECTRAL),
    ("spectral.certificate_s", "s", "lower", _SPECTRAL),
    ("operators.matvec_calls", "count", "lower", _SHEAR),
    ("operators.matvec_s", "s", "lower", _SHEAR),
    ("operators.dense_s", "s", "lower", _SHEAR + "; peak_rss_mb on the all workloads"),
    ("basis.transform_calls", "count", "lower", _SHEAR),
    ("basis.transform_s", "s", "lower", _SHEAR),
    ("basis.dense_s", "s", "lower", _SHEAR),
    ("stabilize.design_s", "s", "lower", _STAB),
    ("stabilize.simulate_s", "s", "lower", _STAB),
    ("stabilize.factor_s", "s", "lower", _STAB),
    ("stabilize.steps", "count", "lower", _STAB),
    ("stabilize.step_ms", "ms", "lower", _STAB),
    ("stabilize.dense_dim", "count", "lower", _STAB),
    ("stabilize.step_bytes_computed", "bytes", "lower", _STAB + " (computed, not measured)"),
    ("carleman.check_calls", "count", "lower", _CARL),
    ("carleman.check_s", "s", "lower", _CARL),
    ("carleman.cell_checks_per_s", "1/s", "higher", _CARL),
    ("carleman.field_s", "s", "lower", _CARL),
    ("geometry.regions_calls", "count", "lower", _SETUP_WORK),
    ("geometry.regions_s", "s", "lower", _SETUP_WORK),
    ("equilibria.build_calls", "count", "lower", _SETUP_WORK),
    ("equilibria.build_s", "s", "lower", _SETUP_WORK),
    ("projection.project_calls", "count", "lower", _SETUP_WORK),
    ("projection.project_s", "s", "lower", _SETUP_WORK),
    ("setup.import_s", "s", "lower", "setup_s on every workload, most on carleman_channel128"),
    ("config.validate_s", "s", "lower", "setup_s on every workload, most on carleman_channel128"),
    ("cli.spectrum_s", "s", "lower", _STAGE),
    ("cli.ucp_s", "s", "lower", _STAGE),
    ("cli.carleman_s", "s", "lower", _STAGE),
    ("cli.stabilize_s", "s", "lower", _STAGE),
    ("reports.write_s", "s", "lower", "pipeline_s a little on every workload"),
    ("reports.bytes_written", "bytes", "lower", "nothing; the tables are fixed by the config"),
    ("trace.overhead_s", "s", "lower", "nothing; it is the cost of tracing"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class SpanIndex:
    """Spans of one run, indexed for ancestry queries."""

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[0]: s for s in self.spans}
        self.child_time = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                self.child_time[parent] += end - start

    def has_ancestor(self, span, names) -> bool:
        parent = span[1]
        while parent is not None:
            p = self.by_id[parent]
            if p[2] in names:
                return True
            parent = p[1]
        return False

    def outermost(self, names, within=None) -> list[tuple]:
        """Spans named in ``names`` with no ancestor in ``names`` (and, if
        given, with an ancestor in ``within``)."""
        names = set(names)
        within = set(within) if within else None
        return [
            s for s in self.spans
            if s[2] in names
            and not self.has_ancestor(s, names)
            and (within is None or self.has_ancestor(s, within))
        ]

    def total(self, names, within=None) -> float:
        return sum(s[4] - s[3] for s in self.outermost(names, within))

    def count(self, names, within=None) -> int:
        return len(self.outermost(names, within))

    def self_time(self, name) -> float:
        return sum(s[4] - s[3] - self.child_time[s[0]] for s in self.spans if s[2] == name)

    def self_times(self) -> dict[str, float]:
        return {name: self.self_time(name) for name in sorted({s[2] for s in self.spans})}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, import_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` from one traced run."""
    ix = SpanIndex(spans)
    eig = ["spectral.eigensolve"]
    gmres = ["scipy.gmres"]
    sim = ["stabilize.simulate"]
    inner = ix.count(gmres, within=eig)
    steps = ix.count(["scipy.lu_solve"], within=sim)
    checks = ix.outermost(["carleman.check"])
    check_s = ix.total(["carleman.check"])
    dim = max((s[5] or 0 for s in ix.outermost(["scipy.lu_factor"], within=sim)), default=0)
    m = {
        "spectral.eigensolve_calls": ix.count(eig),
        "spectral.eigensolve_s": ix.total(eig),
        "spectral.inner_solves": inner,
        "spectral.matvecs_per_inner_solve": _ratio(ix.count(["operators.matvec"], within=gmres), inner),
        "spectral.certificate_s": ix.total(["spectral.gram", "spectral.actuators", "spectral.kalman"]),
        "operators.matvec_calls": ix.count(["operators.matvec"]),
        "operators.matvec_s": ix.total(["operators.matvec"]),
        "operators.dense_s": ix.total(["operators.dense"]),
        "basis.transform_calls": ix.count(["basis.transform"]),
        "basis.transform_s": ix.total(["basis.transform"]),
        "basis.dense_s": ix.total(["basis.dense"]),
        "stabilize.design_s": ix.total(["stabilize.project", "stabilize.feedback"]),
        "stabilize.simulate_s": ix.total(sim),
        "stabilize.factor_s": ix.total(["scipy.lu_factor"], within=sim),
        "stabilize.steps": steps,
        "stabilize.step_ms": 1000.0 * _ratio(ix.total(["scipy.lu_solve"], within=sim), steps),
        "stabilize.dense_dim": dim,
        # one implicit step reads the packed dense LU factors once: 8 bytes per entry
        "stabilize.step_bytes_computed": 8 * dim * dim,
        "carleman.check_calls": len(checks),
        "carleman.check_s": check_s,
        "carleman.cell_checks_per_s": _ratio(sum(s[5] or 0 for s in checks), check_s),
        "carleman.field_s": ix.total(["carleman.field"]),
        "geometry.regions_calls": ix.count(["geometry.regions"]),
        "geometry.regions_s": ix.total(["geometry.regions"]),
        "equilibria.build_calls": ix.count(["equilibria.build"]),
        "equilibria.build_s": ix.total(["equilibria.build"]),
        "projection.project_calls": ix.count(["projection.project"]),
        "projection.project_s": ix.total(["projection.project"]),
        "setup.import_s": import_s,
        "config.validate_s": ix.total(["config.validate"]),
        "reports.write_s": ix.total(["reports.write"]),
        "reports.bytes_written": sum(s[5] or 0 for s in ix.outermost(["reports.write"])),
    }
    for stage in ("spectrum", "ucp", "carleman", "stabilize"):
        m[f"cli.{stage}_s"] = ix.self_time(f"cli.{stage}")
    return m


def setup_seconds(spans, import_s: float) -> float:
    """``setup_s`` of one run: import plus config load and validate."""
    return import_s + SpanIndex(spans).total(["config.load", "config.validate"])
