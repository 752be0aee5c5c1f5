"""Spans around the public functions of evostab, recorded from outside.

A traced command runs ``evostab.cli.main`` with the functions in ``TARGETS``
replaced, in the module namespaces the pipeline looks them up from, by
wrappers that record a span (name, start, end, parent, attributes).  Nothing
inside ``src/evostab`` changes; the originals are restored when the command
ends.  Per-point functions (``eval_symbol``, ``hermitian_part_min_eig``) are
not wrapped: the custom law counts its own symbol calls instead.

:func:`layer_metrics` turns the spans of one command into the per-layer
metrics.  Some are derived or computed rather than timed:

* ``solver.self_s``        derived: solve span minus its forward transform,
                           operator-stack and inverse transform children;
* ``certify.closed_form_s`` self time of the closed-form bound and rate calls
                           made by ``certify``;
* ``certify.other_s``      derived: self time of ``certify`` (analyticity,
                           shifted-symbol check, report assembly);
* ``material.stack_bytes`` computed: bytes of the returned operator stacks,
                           N * n^2 * 16;
* ``solver.lu_flops``      computed: freqs * (8/3 n^3 + 8 n^2), a complex LU
                           and two triangular solves per frequency;
* ``certify.scan_points``  computed: sampled (sigma, tau) points, n_sigma for
                           the DAE branch and n_sigma * n_tau otherwise;
* ``trace.coverage``       share of the ``main`` span covered by its children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

from evostab.material import DaeLaw, DelayLaw

# The package re-exports ``certify`` the function under the submodule's name,
# so the modules are looked up by their full names.
_cli, _analysis, _certify, _material, _solver = (
    importlib.import_module(f"evostab.{name}")
    for name in ("cli", "analysis", "certify", "material", "solver"))


def _stack_attrs(args, result):
    return {"bytes": int(result.nbytes)}


def _solve_attrs(args, result):
    return {"freqs": int(result.values.shape[0]), "dim": int(result.values.shape[1])}


def _csv_attrs(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _scan_attrs(args, result):
    per_sigma = 1 if isinstance(args["law"], (DaeLaw, DelayLaw)) else args["n_tau"]
    return {"points": int(args["n_sigma"]) * int(per_sigma)}


def _fit_attrs(args, result):
    return {"samples_used": int(result.samples_used)}


# (module, attribute, span name, attribute recorder)
TARGETS = [
    (_cli, "load_config", "cli.load_config", None),
    (_cli, "_BuiltProblem", "cli.build", None),
    (_cli, "_write_certification", "cli.write_certification", None),
    (_cli, "_write_kv", "cli.write_kv", None),
    (_cli, "_echo_config", "cli.echo_config", None),
    (_cli, "indicators_from_intervals", "spatial.indicators_from_intervals", None),
    (_cli, "build_mixed_type_system", "spatial.build_mixed_type_system", None),
    (_cli, "SpatialOperator", "spatial.SpatialOperator", None),
    (_cli, "gaussian_pulse", "signals.gaussian_pulse", None),
    (_cli, "signal_to_csv", "signals.signal_to_csv", _csv_attrs),
    (_cli, "certify", "certify.certify", None),
    (_cli, "solve", "solver.solve", _solve_attrs),
    (_cli, "solve_integro", "solver.solve_integro", _solve_attrs),
    (_cli, "default_margin", "analysis.default_margin", None),
    (_cli, "auto_tail_window", "analysis.auto_tail_window", None),
    (_cli, "fit_decay_rate", "analysis.fit_decay_rate", _fit_attrs),
    (_cli, "verify_stability", "analysis.verify_stability", None),
    (_analysis, "auto_tail_window", "analysis.auto_tail_window", None),
    (_analysis, "fit_decay_rate", "analysis.fit_decay_rate", _fit_attrs),
    (_solver, "frequency_operator_stack", "material.frequency_operator_stack", _stack_attrs),
    (_solver, "fourier_laplace", "signals.fourier_laplace", None),
    (_solver, "inverse_fourier_laplace", "signals.inverse_fourier_laplace", None),
    (_solver, "edge_mass", "signals.edge_mass", None),
    (_solver, "solvability_lower_bound", "certify.solvability_lower_bound", None),
    (_solver, "solvability_constant", "certify.solvability_constant", _scan_attrs),
    (_certify, "solvability_constant", "certify.solvability_constant", _scan_attrs),
    (_certify, "solvability_lower_bound", "certify.solvability_lower_bound", None),
    (_certify, "closed_form_rate", "certify.closed_form_rate", None),
    (_certify, "check_kernel_conditions", "certify.check_kernel_conditions", None),
    (_certify, "kernel_weighted_l1", "material.kernel_weighted_l1", None),
    (_material, "kernel_weighted_l1", "material.kernel_weighted_l1", None),
]


class Tracer:
    """Spans of the traced commands, kept in memory until the run ends.

    A span is ``[name, start, end, parent index, attributes]``; each command
    is one list of spans whose first entry is the ``cli.main`` root.
    """

    def __init__(self):
        self.commands = []
        self._spans = None
        self._open = []

    def _enter(self, name):
        self._spans.append([name, time.perf_counter(), None,
                            self._open[-1] if self._open else -1, {}])
        self._open.append(len(self._spans) - 1)
        return self._spans[-1]

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, recorder):
        signature = inspect.signature(fn) if recorder else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if recorder:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = recorder(bound.arguments, result)
            return result
        return traced

    @contextmanager
    def command(self):
        """Trace one command: wrap the targets, open the root span, restore."""
        self._spans, self._open = [], []
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for mod, attr, name, recorder in TARGETS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, recorder))
            root = self._enter("cli.main")
            try:
                yield
            finally:
                self._exit(root)
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            self.commands.append(self._spans)
            self._spans = None


def layer_metrics(spans: list, symbol_evals: int) -> dict:
    """Per-layer metrics of one traced command (see the module docstring)."""
    dur = [s[2] - s[1] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def total(*names):
        return sum(dur[i] for i in named(*names))

    def self_time(i):
        return dur[i] - sum(dur[j] for j, s in enumerate(spans) if s[3] == i)

    def outermost(prefix):
        """Time in spans of one module, not counting nested calls twice."""
        return sum(dur[i] for i, s in enumerate(spans) if s[0].startswith(prefix)
                   and not any(spans[a][0].startswith(prefix) for a in ancestors(i)))

    def attr_sum(key, *names):
        return sum(spans[i][4].get(key, 0) for i in named(*names))

    solves = named("solver.solve", "solver.solve_integro")
    solve_parts = ("signals.fourier_laplace", "material.frequency_operator_stack",
                   "signals.inverse_fourier_laplace")
    solver_self = sum(dur[i] for i in solves) - sum(
        dur[j] for j, s in enumerate(spans)
        if s[0] in solve_parts and any(a in solves for a in ancestors(j)))
    certs = named("certify.certify")
    closed_form = sum(self_time(i) for i in named("certify.solvability_lower_bound",
                                                    "certify.closed_form_rate")
                      if any(a in certs for a in ancestors(i)))
    lu_flops = sum(s[4]["freqs"] * (8.0 / 3.0 * s[4]["dim"] ** 3 + 8.0 * s[4]["dim"] ** 2)
                   for s in (spans[i] for i in solves))
    fits = [spans[i][4]["samples_used"] for i in named("analysis.fit_decay_rate")]
    main_s = dur[0]
    return {
        "cli.cmd_s": main_s,
        "cli.load_config_s": total("cli.load_config"),
        "spatial.build_s": outermost("spatial."),
        "material.stack_s": total("material.frequency_operator_stack"),
        "material.stack_bytes": attr_sum("bytes", "material.frequency_operator_stack"),
        "material.kernel_l1_s": total("material.kernel_weighted_l1"),
        "material.symbol_evals": symbol_evals,
        "signals.forward_s": total("signals.fourier_laplace"),
        "signals.inverse_s": total("signals.inverse_fourier_laplace"),
        "signals.csv_write_s": total("signals.signal_to_csv"),
        "signals.csv_bytes": attr_sum("bytes", "signals.signal_to_csv"),
        "solver.solve_s": sum(dur[i] for i in solves),
        "solver.self_s": solver_self,
        "solver.freqs": attr_sum("freqs", "solver.solve", "solver.solve_integro"),
        "solver.lu_flops": lu_flops,
        "certify.total_s": sum(dur[i] for i in certs),
        "certify.scan_s": total("certify.solvability_constant"),
        "certify.scan_points": attr_sum("points", "certify.solvability_constant"),
        "certify.closed_form_s": closed_form,
        "certify.kernel_conditions_s": total("certify.check_kernel_conditions"),
        "certify.other_s": sum(self_time(i) for i in certs),
        "analysis.fit_s": outermost("analysis."),
        "analysis.samples_used": max(fits, default=0),
        "trace.coverage": sum(dur[j] for j, s in enumerate(spans) if s[3] == 0) / main_s,
    }
