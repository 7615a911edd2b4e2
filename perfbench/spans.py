"""In-memory spans around the public functions of each mhdlab layer.

A target is ``(span name, module, attribute[, size])``.  Installing it wraps
the function once and puts the wrapper everywhere the original is reachable:
in its defining module or on its class, and in every ``mhdlab`` module (or
module-level dict such as ``cli.RUNNERS``) that bound it by name with
``from .x import f``.  A target that a refactor removed is reported as absent
and the run goes on without it.

Spans are ``(id, parent id, name, start, end, size)`` tuples kept in a list
and written out by the caller when the run ends.  ``size`` is an optional
number read from the call (bytes written, matrix rows, grid cells).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# Always installed: they time the config load/validate part of ``setup_s``.
SETUP_TARGETS = [
    ("config.load", "mhdlab.config", "RunConfig.from_file"),
    ("config.load", "mhdlab.config", "RunConfig.from_dict"),
    ("config.validate", "mhdlab.config", "RunConfig.validate"),
]

LAYER_TARGETS = [
    ("cli.spectrum", "mhdlab.cli", "run_spectrum"),
    ("cli.ucp", "mhdlab.cli", "run_ucp"),
    ("cli.carleman", "mhdlab.cli", "run_carleman"),
    ("cli.stabilize", "mhdlab.cli", "run_stabilize"),
    ("geometry.regions", "mhdlab.geometry", "build_nested_regions"),
    ("equilibria.build", "mhdlab.equilibria", "make_equilibrium"),
    ("projection.project", "mhdlab.projection", "helmholtz_project"),
    ("spectral.eigensolve", "mhdlab.spectral", "compute_spectrum"),
    ("spectral.eigensolve", "mhdlab.spectral", "adjoint_spectrum"),
    ("spectral.gram", "mhdlab.spectral", "ucp_gram_test"),
    ("spectral.actuators", "mhdlab.spectral", "select_actuators"),
    ("spectral.kalman", "mhdlab.spectral", "kalman_rank"),
    ("operators.matvec", "mhdlab.operators", "MhdSystem.reduced_matvec"),
    ("operators.dense", "mhdlab.operators", "MhdSystem.reduced_matrix"),
    ("basis.transform", "mhdlab.basis", "SolenoidalBasis.to_field"),
    ("basis.transform", "mhdlab.basis", "SolenoidalBasis.to_coeffs"),
    ("basis.dense", "mhdlab.basis", "SolenoidalBasis.dense"),
    ("stabilize.project", "mhdlab.stabilize", "project_unstable"),
    ("stabilize.feedback", "mhdlab.stabilize", "synthesize_feedback"),
    ("stabilize.simulate", "mhdlab.stabilize", "simulate_closed_loop"),
    ("carleman.check", "mhdlab.carleman", "integrated_inequality_check", "cells"),
    ("carleman.field", "mhdlab.carleman", "make_test_field"),
    ("reports.write", "mhdlab.reports", "write_table", "bytes"),
    ("reports.write", "mhdlab.reports", "write_summary", "bytes"),
]

# Only in the traced run: these sit on the hottest paths.
SCIPY_TARGETS = [
    ("scipy.gmres", "scipy.sparse.linalg", "gmres"),
    ("scipy.lu_factor", "scipy.linalg", "lu_factor", "rows"),
    ("scipy.lu_solve", "scipy.linalg", "lu_solve"),
]

TRACE_TARGETS = SETUP_TARGETS + LAYER_TARGETS + SCIPY_TARGETS

_SIZES = {
    "bytes": lambda args: os.path.getsize(args[0]),
    "rows": lambda args: args[0].shape[0],
    "cells": lambda args: args[0].grid.ncells,
}


def _size(kind, args):
    if kind is None:
        return None
    try:
        return _SIZES[kind](args)
    except (AttributeError, IndexError, OSError, TypeError):
        return None


class Recorder:
    """Collects the spans of one run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, _size(size, args)))

        return traced

    def install(self, targets) -> list[str]:
        """Wrap every target that exists; return the names of those that do not."""
        absent = []
        for name, module, attr, *size in targets:
            try:
                self._patch(name, importlib.import_module(module), attr, size[0] if size else None)
            except (ImportError, AttributeError, KeyError):
                absent.append(f"{module}.{attr}")
        return absent

    def _patch(self, name, module, attr, size):
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[fname]
            if isinstance(raw, classmethod):
                setattr(owner, fname, classmethod(self.wrap(name, raw.__func__, size)))
            else:
                setattr(owner, fname, self.wrap(name, raw, size))
            return
        orig = getattr(module, fname)
        wrapped = self.wrap(name, orig, size)
        setattr(module, fname, wrapped)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("mhdlab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if v is orig:
                            val[k] = wrapped
