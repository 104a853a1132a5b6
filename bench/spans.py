"""Span tracing of the library's layers, installed from outside the library.

:class:`Tracer` replaces each public function of the traced modules with a
wrapper at every module attribute where callers look it up (a function that
``scenarios`` imports from ``spectral`` is patched in both), plus the
methods named in ``METHODS``.  A wrapper records one span per call:
``[name, start, end, parent, op, notes]``, where ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the operation that was running
(``"setup"`` during set-up).  :meth:`Tracer.operation` opens the ``op`` and
records it as a span named ``bench.op``; calls made outside one (output
checks) are not recorded.  Spans stay in memory until :meth:`Tracer.write`;
:meth:`Tracer.uninstall` puts every original attribute back.

:func:`layer_metrics` turns the spans into the per-layer numbers of
``BENCHMARK.json``.  A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import time

MODULES = ("spectral", "forms", "propagator", "voc", "fixedpoint",
           "scenarios", "cli")
# Methods are wrapped only where named: the block accessors (E, S, row, ...)
# run ~1e5 times per axiom check and would drown the layers in overhead.
METHODS = (("propagator", "FundamentalSolution", "duhamel_bound"),)
SOLVERS = ("fixedpoint.contraction_solve", "fixedpoint.relaxed_solve")
MB = 1024.0 * 1024.0


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Tracer:
    """Records spans of the traced library functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []          # (namespace, attribute, original)
        self._fs_scenario = {}      # id(table) -> scenario that realized it

    # -- installation ---------------------------------------------------
    @staticmethod
    def namespaces():
        mods = [importlib.import_module(f"nonlocalwave.{m}") for m in MODULES]
        return [importlib.import_module("nonlocalwave")] + mods

    @classmethod
    def targets(cls):
        """{original function: span name} for everything that is wrapped."""
        out = {}
        for mod in cls.namespaces()[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out[obj] = f"{short}.{attr}"
        for modname, clsname, meth in METHODS:
            klass = getattr(importlib.import_module(f"nonlocalwave.{modname}"),
                            clsname)
            out[vars(klass)[meth]] = f"{modname}.{meth}"
        return out

    @classmethod
    def bindings(cls):
        """Every (namespace, attribute) that currently holds a target."""
        targets = cls.targets()
        found = []
        for ns in cls.namespaces():
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in targets:
                    found.append((ns, attr))
        for modname, clsname, meth in METHODS:
            found.append((getattr(importlib.import_module(
                f"nonlocalwave.{modname}"), clsname), meth))
        return found

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for ns, attr in self.bindings():
            original = vars(ns)[attr]
            self._patches.append((ns, attr, original))
            setattr(ns, attr, wrappers[original])

    def uninstall(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    @contextlib.contextmanager
    def operation(self, op):
        """Record library calls made inside the block as part of ``op``."""
        self.op = op
        self.spans.append(["bench.op", time.perf_counter(), 0.0, -1, op, None])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()
            self.op = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[5] = tracer._notes(name, args, result, exc)
        return traced

    def _notes(self, name, args, result, exc):
        """Counts taken at the layer boundary, after the span has closed."""
        if name == "propagator.fundamental_solution" and exc is None:
            return {"table_bytes": int(result.blocks.nbytes)}
        if name == "scenarios.realize" and exc is None:
            self._fs_scenario[id(result.fs)] = result.scenario.name
            return {"scenario": result.scenario.name, "m": result.basis.m,
                    "nodes": result.fs.n_nodes}
        if name in SOLVERS:
            report = result[1] if exc is None else getattr(exc, "report", None)
            fs = args[1]
            return {"iterations": report.iterations if report else 0,
                    "converged": bool(report and report.converged),
                    "scenario": self._fs_scenario.get(id(fs)),
                    "m": fs.m, "nodes": fs.n_nodes}
        if name == "propagator.dump_fs" and exc is None:
            return {"bytes": os.path.getsize(args[1])}
        if name == "cli.run" and exc is None:
            return {"bytes": _dir_bytes(args[0].out)}
        return None

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Duration minus direct-child durations, per span."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, i, pred):
    i = spans[i][3]
    while i >= 0:
        if pred(spans[i]):
            return True
        i = spans[i][3]
    return False


def layer_metrics(spans, n_ops, cpu_s, setup_repeats, split_m, split_nodes):
    """Per-layer metrics as {name: (value, unit)}: per-op means over the
    timed operations, set-up costs per set-up repetition, and the
    realize/tabulation/solve split per scenario at the benchmark's m and
    node count (set-up and ops alike).  Span times are wall times;
    ``trace.ops_per_s`` divides by the ops' CPU time ``cpu_s``, like the
    untraced ``ops_per_s``."""
    selfs = self_times(spans)
    every = range(len(spans))
    ops = [i for i in every if spans[i][4] != "setup"]
    setup = [i for i in every if spans[i][4] == "setup"]

    def pick(idx, names):
        names = (names,) if isinstance(names, str) else names
        return [i for i in idx if spans[i][0] in names]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def note_sum(idx, key):
        return sum(spans[i][5][key] for i in idx)

    per_op = 1.0 / max(n_ops, 1)
    m = {}
    for name in ("forms.assemble", "forms.assemble_damping",
                 "propagator.fundamental_solution", "fixedpoint.apply_kernel",
                 "fixedpoint.superpose", "forms.kernel_lipschitz",
                 "propagator.duhamel_bound", "voc.single_interval_duhamel",
                 "scenarios.realize"):
        m[f"{name}.calls"] = (len(pick(ops, name)) * per_op, "count/op")
    for name in ("forms.assemble", "fixedpoint.apply_kernel",
                 "fixedpoint.superpose", "forms.kernel_lipschitz",
                 "propagator.duhamel_bound", "voc.residual", "forms.certify",
                 "propagator.dump_fs", "spectral.build_basis",
                 "propagator.adjoint_check"):
        m[f"{name}.s"] = (sum(dur(i) for i in pick(ops, name)) * per_op,
                          "s/op")
    for name in ("propagator.fundamental_solution", "propagator.check_axioms",
                 "propagator.adjoint_check", "fixedpoint.galerkin_refine",
                 "cli.run", "scenarios.realize"):
        m[f"{name}.self_s"] = (sum(selfs[i] for i in pick(ops, name))
                               * per_op, "s/op")

    solves = pick(ops, SOLVERS)
    iters = note_sum(solves, "iterations")
    m["fixedpoint.solve.calls"] = (len(solves) * per_op, "count/op")
    m["fixedpoint.solve.self_s"] = (sum(selfs[i] for i in solves) * per_op,
                                    "s/op")
    m["fixedpoint.iterations"] = (iters / max(len(solves), 1), "count/solve")
    m["fixedpoint.s_per_iter"] = (sum(dur(i) for i in solves)
                                  / max(iters, 1), "s")
    m["fixedpoint.converged_frac"] = (
        sum(spans[i][5]["converged"] for i in solves) / max(len(solves), 1),
        "ratio")

    tables = pick(every, "propagator.fundamental_solution")
    m["propagator.table_mb"] = (max(
        (spans[i][5]["table_bytes"] for i in tables), default=0) / MB, "MB")
    m["propagator.dump_fs.mb"] = (
        note_sum(pick(ops, "propagator.dump_fs"), "bytes") * per_op / MB,
        "MB/op")
    m["cli.out_mb"] = (note_sum(pick(ops, "cli.run"), "bytes") * per_op / MB,
                       "MB/op")
    tab = sum(dur(i) for i in pick(ops, "propagator.fundamental_solution"))
    m["tabulation.share"] = (tab / sum(dur(i) for i in pick(ops, "bench.op")),
                             "ratio")

    per_setup = 1.0 / max(setup_repeats, 1)
    m["setup.scenarios.realize.s"] = (sum(
        dur(i) for i in pick(setup, "scenarios.realize")) * per_setup, "s")
    m["setup.propagator.fundamental_solution.s"] = (sum(
        dur(i) for i in pick(setup, "propagator.fundamental_solution")
    ) * per_setup, "s")

    for scenario in ("population", "undamped_neumann"):
        def at_size(s, scenario=scenario):
            n = s[5] or {}
            return (n.get("scenario") == scenario and n.get("m") == split_m
                    and n.get("nodes") == split_nodes)
        realizes = [i for i in pick(every, "scenarios.realize")
                    if at_size(spans[i])]
        tabs = [i for i in tables if _has_ancestor(
            spans, i, lambda s: s[0] == "scenarios.realize" and at_size(s))]
        solved = [i for i in pick(every, SOLVERS) if at_size(spans[i])]
        for key, idx in (("realize_s", realizes), ("tabulation_s", tabs),
                         ("solve_s", solved)):
            m[f"split.{scenario}.{key}"] = (
                statistics.fmean(dur(i) for i in idx) if idx else 0.0, "s")

    m["trace.ops_per_s"] = (n_ops / cpu_s, "1/s")
    m["trace.spans"] = ((len(ops) - n_ops) * per_op, "count/op")
    return m
