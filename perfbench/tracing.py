"""Spans around public gammasolve entry points, recorded from outside.

A :class:`Tracer` installs wrappers by assigning to module and class
attributes for the duration of one task and restores the originals
afterwards, so the library itself is not modified.  Every wrapper records
a span (name, start, end, parent) in memory; the metrics are derived from
the spans after the task ends.

Untraced runs install only the solve wrappers: their spans define the
solve time, the set-up time (everything before the first solve) and the
per-solve latency, and they keep each (problem, result) pair for the
correctness checks.  Traced runs add the per-layer wrappers.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import scipy.fft
import scipy.sparse.linalg

import gammasolve
from gammasolve import cli, materials, models, projectors, solver

_now = time.perf_counter


class SetupDone(Exception):
    """Raised at the first solve call of a set-up-only pass."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def seconds(self):
        return self.end - self.start


def _array_bytes(args, kwargs, result):
    return result.nbytes


def _material_bytes(args, kwargs, result):
    return result.values.nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _krylov_basis_bytes(args, kwargs, result):
    # GMRES(m) keeps m + 1 basis vectors of the right-hand side's size.
    b = args[1]
    restart = kwargs.get("restart") or 20
    return (min(restart, b.size) + 1) * b.nbytes


# (owner, attribute, span name, info) for the per-layer wrappers.  An
# attribute the library no longer has is skipped and its counters read 0.
_LAYER_TARGETS = (
    (scipy.fft, "fftn", "fft", None),
    (scipy.fft, "ifftn", "fft", None),
    (scipy.sparse.linalg, "gmres", "gmres", _krylov_basis_bytes),
    (materials.LField, "apply", "material_apply", None),
    (solver, "canonical_material", "canonical", None),
    (projectors.Projector, "symbols", "symbols", _array_bytes),
    (solver, "projector_symbols", "symbol_lookup", None),
    (projectors, "projector_symbols", "symbol_lookup", None),
    (gammasolve, "build_maxwell", "build", _material_bytes),
    (gammasolve, "build_elastodynamics", "build", _material_bytes),
    (cli, "build_material", "build", _material_bytes),
    (models, "build_love", "build", _material_bytes),
    (cli, "read_uplf", "uplf_read", _file_bytes),
    (cli, "write_uplf", "uplf_write", _file_bytes),
    (cli, "main", "cli", None),
    (gammasolve, "love_resonance_scan", "scan", None),
    (gammasolve, "effective_tensors", "effective", None),
)


class Tracer:
    """Records spans for one task.

    ``solve_site`` is the (module, attribute) through which the workload's
    code reaches ``solve``.  With ``layers`` the per-layer wrappers are
    installed too; with ``stop_at_solve`` the first solve call raises
    :class:`SetupDone` after recording its start.
    """

    def __init__(self, solve_site, layers=False, stop_at_solve=False):
        self.solve_site = solve_site
        self.layers = layers
        self.stop_at_solve = stop_at_solve
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def _wrap_solve(self, fn):
        if not self.stop_at_solve:
            return self._wrap("solve", fn, lambda args, kwargs, result: (args[0], result))
        spans = self.spans

        def stop(*args, **kwargs):
            span = Span("solve", None)
            span.start = span.end = _now()
            spans.append(span)
            raise SetupDone

        return stop

    @contextmanager
    def installed(self):
        owner, attr = self.solve_site
        targets = [(owner, attr, self._wrap_solve(getattr(owner, attr)))]
        if self.layers:
            for t_owner, t_attr, name, info in _LAYER_TARGETS:
                if hasattr(t_owner, t_attr):
                    fn = getattr(t_owner, t_attr)
                    targets.append((t_owner, t_attr, self._wrap(name, fn, info)))
        originals = [(o, a, getattr(o, a)) for o, a, _ in targets]
        try:
            for o, a, wrapper in targets:
                setattr(o, a, wrapper)
            yield self
        finally:
            for o, a, orig in reversed(originals):
                setattr(o, a, orig)

    def solve_spans(self):
        return [s for s in self.spans if s.name == "solve"]


def _within(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer):
    """Per-layer numbers for one traced task, as {name: (value, unit)}."""
    spans = tracer.spans
    child_s = {}
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.seconds

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.seconds for s in named(name)), 0.0)

    def self_time(name):
        return sum((s.seconds - child_s.get(id(s), 0.0) for s in named(name)), 0.0)

    def largest(name):
        return max((s.info for s in named(name)), default=0)

    solves = named("solve")
    gmres_s = total("gmres")
    kernels_in_gmres = sum(
        s.seconds for s in spans
        if s.name in ("fft", "material_apply") and _within(s, "gmres")
    )
    lookups = len(named("symbol_lookup"))
    builds = [s for s in named("symbols") if not _within(s, "symbols")]
    quasi = [s for s in solves if _within(s, "effective")]
    uplf = named("uplf_read") + named("uplf_write")
    return {
        "fields.fft_s": (total("fft"), "s"),
        "fields.fft_calls": (len(named("fft")), "count"),
        "fields.uplf_read_s": (total("uplf_read"), "s"),
        "fields.uplf_write_s": (total("uplf_write"), "s"),
        "fields.uplf_bytes": (sum(s.info for s in uplf), "B"),
        "materials.build_s": (total("build"), "s"),
        "materials.canonical_s": (total("canonical"), "s"),
        "materials.apply_s": (total("material_apply"), "s"),
        "materials.apply_calls": (len(named("material_apply")), "count"),
        "materials.bytes": (largest("build"), "B"),
        "projectors.symbols_s": (sum(s.seconds for s in builds), "s"),
        "projectors.symbol_calls": (lookups, "count"),
        "projectors.symbol_builds": (len(builds), "count"),
        "projectors.symbol_hit_ratio": (
            (lookups - len(builds)) / lookups if lookups else 0.0, "ratio"),
        "projectors.symbol_bytes": (largest("symbols"), "B"),
        "solver.solves": (len(solves), "count"),
        "solver.gmres_s": (gmres_s, "s"),
        "solver.gmres_other_s": (gmres_s - kernels_in_gmres, "s"),
        "solver.outside_gmres_s": (total("solve") - gmres_s, "s"),
        "solver.krylov_basis_bytes": (largest("gmres"), "B"),
        "quasiperiodic.solves": (len(quasi), "count"),
        "quasiperiodic.zero_rhs": (
            sum(1 for s in quasi if s.info[1].iterations == 0), "count"),
        "quasiperiodic.other_s": (self_time("effective"), "s"),
        "models.other_s": (self_time("scan"), "s"),
        "cli.other_s": (self_time("cli"), "s"),
    }
