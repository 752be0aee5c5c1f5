"""Command-line interface: certify / solve / ivp / verify with file artifacts.

Configs are JSON; complex matrices are nested arrays of [re, im] pairs.
Every run echoes the fully resolved config (all defaults made explicit) to
``config_echo.json`` in the output directory.  Report files are ``key=value``
lines in a fixed key order so that repeated runs diff clean.

Every command builds the problem once and runs up to three steps: the
certify step (``report.txt``, ``report.kv``), the solution step
(``solution.csv``, ``metadata.kv``) and, for ``verify``, the decay step
(``decay.kv``).  Each step writes its artifacts and reports its gate; the run
exits 0 only when every gate of the command passed.  ``solve``, ``ivp`` and
``verify`` all gate on the solution step's ``residual <= RESIDUAL_LIMIT``.

Exit codes: 0 success, 1 analytic failure (certification, a symbol that is
not finite on the positivity scan, a kernel L1 quadrature that does not
converge, edge mass of forcing or solution, singular frequency,
residual/gap/decay out of bounds, a decay fit without enough usable
samples), 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys

import numpy as np

from .analysis import default_margin, verify_stability
# Not called here: perfbench/spans.py looks both names up in this module, and
# the traced fit span fires inside verify_stability through evostab.analysis.
from .analysis import auto_tail_window, fit_decay_rate  # noqa: F401
from .certify import RATE_CAP, SamplingConfig, certify
from .errors import (CertificationError, ConfigError, DecayFitError,
                     EdgeMassError, SingularFrequencyError)
from .material import DaeLaw, DelayLaw, IntegroLaw, Kernel, KernelMode
from .signals import (Signal, TimeGrid, gaussian_pulse, signal_from_csv,
                      signal_to_csv, step_exp)
from .solver import EvolutionaryProblem, IvpProblem, ivp_solve, solve, solve_integro
from .spatial import SpatialOperator, build_mixed_type_system, indicators_from_intervals

RESIDUAL_LIMIT = 1e-8

_FORCING_DEFAULTS = {
    "pulse": {"center": 0.5, "width": 0.1, "amplitude": 1.0},
    "step_exp": {"start": 0.0, "rate": 1.0},
    "csv": {},
    "zero": {},
}

_TOP_KEYS = {"family", "grid", "rho", "nu", "m0", "m1", "a", "h", "c",
             "kernel", "mixed", "custom", "forcing", "u0", "phi_scale",
             "sampling", "check_certified"}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_kv(path: str, pairs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, value in pairs:
            fh.write(f"{key}={_fmt(value)}\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_number(x) -> bool:
    """A finite JSON number: int or float, but not a boolean (bool is an
    int); the range test also rejects inf, nan and ints beyond the float
    range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number(node, name: str, integral: bool = False):
    """``node`` as a float, or as an int when ``integral``; ConfigError unless
    it is a finite JSON number (and a whole one when ``integral``)."""
    _require(_is_number(node) and (not integral or float(node).is_integer()),
             f"{name} must be a finite {'integer' if integral else 'number'}, got {node!r}")
    return int(node) if integral else float(node)


def _as_complex_matrix(node, name: str) -> np.ndarray:
    """Parse a nested list of [re, im] pairs into a complex vector or matrix."""
    # an object array keeps every leaf as parsed (a ragged list stays a list
    # leaf), so "1", true and null cannot pass as numbers through float()
    arr = np.asarray(node, dtype=object)
    for x in arr.flat:
        _require(_is_number(x), f"{name} must be a finite [re, im] number array, got the entry {x!r}")
    arr = arr.astype(float)
    _require(arr.ndim in (2, 3) and arr.shape[-1] == 2, f"{name}: entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "top-level config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    return resolve_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def resolve_config(raw: dict, base_dir: str = ".") -> dict:
    """Validate a raw config dict and fill in every default explicitly."""
    cfg: dict = {}
    family = raw.get("family")
    _require(family in ("dae", "delay", "integro", "mixed1d", "custom"),
             f"family must be one of dae|delay|integro|mixed1d|custom, got {family!r}")
    cfg["family"] = family

    grid = raw.get("grid")
    _require(isinstance(grid, dict), "grid: expected an object with t0, dt, n_steps")
    for key in ("t0", "dt", "n_steps"):
        _require(key in grid, f"grid.{key} is required")
    _require(set(grid) <= {"t0", "dt", "n_steps"}, "grid: unknown keys")
    cfg["grid"] = {"t0": _number(grid["t0"], "grid.t0"), "dt": _number(grid["dt"], "grid.dt"),
                   "n_steps": _number(grid["n_steps"], "grid.n_steps", integral=True)}

    cfg["rho"] = _number(raw.get("rho"), "rho")
    _require(cfg["rho"] > 0, "rho must be a positive number")
    for key in ("nu", "h", "c"):
        cfg[key] = None if raw.get(key) is None else _number(raw[key], key)

    for key in ("m0", "m1", "a"):
        cfg[key] = raw.get(key)
    cfg["kernel"] = raw.get("kernel")
    cfg["mixed"] = raw.get("mixed")
    cfg["custom"] = raw.get("custom")

    forcing = raw.get("forcing", {"kind": "zero"})
    _require(isinstance(forcing, dict) and "kind" in forcing, "forcing: expected {kind: ...}")
    kind = forcing["kind"]
    _require(isinstance(kind, str) and kind in _FORCING_DEFAULTS,
             f"forcing.kind must be pulse|step_exp|csv|zero, got {kind!r}")
    resolved = {"kind": kind}
    resolved.update(_FORCING_DEFAULTS[kind])
    for key, value in forcing.items():
        if key == "kind":
            continue
        _require(key in _FORCING_DEFAULTS[kind] or (kind == "csv" and key == "path"),
                 f"forcing: unknown key {key!r} for kind {kind!r}")
        if key == "path":
            _require(isinstance(value, str), f"forcing.path must be a string, got {value!r}")
        else:
            _number(value, f"forcing.{key}")  # checked only: the echo keeps the raw value
        resolved[key] = value
    if kind == "csv":
        _require("path" in resolved, "forcing: csv forcing needs a path")
        if not os.path.isabs(resolved["path"]):
            resolved["path"] = os.path.join(base_dir, resolved["path"])
        _require(os.path.exists(resolved["path"]),
                 f"forcing: csv file {resolved['path']} does not exist")
    cfg["forcing"] = resolved

    cfg["u0"] = raw.get("u0")
    cfg["phi_scale"] = _number(raw.get("phi_scale", 1.0), "phi_scale")

    sampling = raw.get("sampling", {})
    _require(isinstance(sampling, dict), "sampling: expected an object")
    defaults = dataclasses.asdict(SamplingConfig())
    _require(set(sampling) <= set(defaults), "sampling: unknown keys")
    defaults.update(sampling)
    SamplingConfig(**defaults)  # every command, not only those that certify, checks it
    cfg["sampling"] = defaults

    check = raw.get("check_certified", True)
    _require(isinstance(check, bool), f"check_certified must be true or false, got {check!r}")
    cfg["check_certified"] = check
    return cfg


class _BuiltProblem:
    """Everything the commands need, derived once from the config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.grid = TimeGrid(cfg["grid"]["t0"], cfg["grid"]["dt"], cfg["grid"]["n_steps"])
        self.family = cfg["family"]
        self.kernel = None
        self.c = None
        self.A = None

        family = self.family
        if family in ("dae", "delay"):
            _require(cfg["m0"] is not None and cfg["m1"] is not None,
                     f"{family}: m0 and m1 are required")
            m0 = _as_complex_matrix(cfg["m0"], "m0")
            m1 = _as_complex_matrix(cfg["m1"], "m1")
            if family == "dae":
                self.law = DaeLaw(m0, m1)
            else:
                _require(cfg["h"] is not None and cfg["h"] < 0, "delay: h must be negative")
                self.law = DelayLaw(m0, m1, cfg["h"])
        elif family == "integro":
            _require(cfg["kernel"] is not None, "integro: kernel is required")
            _require(cfg["c"] is not None and cfg["c"] > 0, "integro: c must be positive")
            self.kernel = _parse_kernel(cfg["kernel"])
            self.c = cfg["c"]
            self.law = IntegroLaw(self.kernel, self.c)
        elif family == "mixed1d":
            _require(cfg["mixed"] is not None, "mixed1d: mixed parameters are required")
            system = _parse_mixed(cfg["mixed"])
            self.law = system.law()
            self.A = system.A
        else:  # custom
            _require(isinstance(cfg["custom"], dict) and "import" in cfg["custom"],
                     "custom: an import path module:callable is required")
            self.law, self.A = _load_custom(cfg["custom"]["import"])

        if cfg["a"] is not None:
            _require(family in ("dae", "delay", "integro"),
                     f"{family}: explicit a matrix not supported")
            self.A = SpatialOperator(_as_complex_matrix(cfg["a"], "a"))
        self.dim = self.law.dim

    def forcing(self) -> Signal:
        spec = self.cfg["forcing"]
        kind = spec["kind"]
        if kind == "pulse":
            f = gaussian_pulse(self.grid, spec["center"], spec["width"], dim=self.dim)
            if spec["amplitude"] != 1.0:
                f = spec["amplitude"] * f
            return f
        if kind == "step_exp":
            return step_exp(self.grid, start=spec["start"], rate=spec["rate"], dim=self.dim)
        if kind == "csv":
            f = signal_from_csv(spec["path"])
            if f.grid != self.grid:
                raise ConfigError("forcing: csv grid does not match the config grid")
            _require(f.dim == self.dim, "forcing: csv dimension does not match the problem")
            return f
        return Signal.zeros(self.grid, self.dim)

    def run_solve(self, f: Signal, threads: int) -> Signal:
        if self.family == "integro":
            return solve_integro(self.kernel, self.c, self.A, f, self.cfg["rho"])
        problem = EvolutionaryProblem(self.law, self.A, self.cfg["rho"], f)
        return solve(problem, check_certified=self.cfg["check_certified"], threads=threads)


def _parse_kernel(node: dict) -> Kernel:
    _require(isinstance(node, dict) and "modes" in node and "nu0" in node,
             "kernel: expected {modes: [...], nu0: ...}")
    _require(set(node) <= {"modes", "nu0"}, "kernel: unknown keys")
    _require(isinstance(node["modes"], list) and node["modes"],
             "kernel.modes: expected a non-empty list of {gamma, beta}")
    modes = []
    for k, mode in enumerate(node["modes"]):
        _require(isinstance(mode, dict) and "gamma" in mode and "beta" in mode,
                 f"kernel.modes[{k}]: expected {{gamma, beta}}")
        modes.append(KernelMode(_as_complex_matrix(mode["gamma"], f"kernel.modes[{k}].gamma"),
                                _number(mode["beta"], f"kernel.modes[{k}].beta")))
    return Kernel(tuple(modes), _number(node["nu0"], "kernel.nu0"), modes[0].gamma.shape[0])


def _parse_mixed(node: dict):
    _require(isinstance(node, dict), "mixed: expected an object")
    _require(set(node) <= {"p", "c", "omega0", "omega1"}, "mixed: unknown keys")
    for key in ("p", "c", "omega0", "omega1"):
        _require(key in node, f"mixed.{key} is required")
    p = _number(node["p"], "mixed.p", integral=True)
    for key in ("omega0", "omega1"):
        pair = node[key]
        _require(isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair)),
                 f"mixed.{key} must be a finite interval of two numbers [lo, hi], got {pair!r}")
    ind0, ind1 = indicators_from_intervals(p, tuple(node["omega0"]), tuple(node["omega1"]))
    return build_mixed_type_system(p, 1.0 / (p + 1), ind0, ind1, _number(node["c"], "mixed.c"))


def _load_custom(spec: str):
    _require(isinstance(spec, str) and ":" in spec,
             f"custom.import must be a string package.module:callable, got {spec!r}")
    mod_name, attr = spec.split(":", 1)
    try:
        factory = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"custom: cannot load {spec!r}: {exc}") from exc
    law, a_matrix = factory()
    return law, (None if a_matrix is None else SpatialOperator(a_matrix))


def _echo_config(cfg: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "config_echo.json"), "w", encoding="ascii") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_certification(report, out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="ascii") as fh:
        fh.write(report.to_text())
    _write_kv(os.path.join(out_dir, "report.kv"), report.kv_pairs())


def _certify_step(built: _BuiltProblem, out_dir: str):
    """Certify at the configured nu (0 when unset); write report.txt and report.kv."""
    nu = 0.0 if built.cfg["nu"] is None else built.cfg["nu"]
    report = certify(built.law, nu, sampling=SamplingConfig(**built.cfg["sampling"]))
    _write_certification(report, out_dir)
    return report


def _solution_step(built: _BuiltProblem, u: Signal, out_dir: str, extra=()) -> bool:
    """Write solution.csv and metadata.kv; True when the residual is within bounds."""
    signal_to_csv(u, os.path.join(out_dir, "solution.csv"))
    meta, grid = u.meta, built.grid
    _write_kv(os.path.join(out_dir, "metadata.kv"), [
        ("family", built.family),
        ("t0", grid.t0), ("dt", grid.dt), ("n_steps", grid.n_steps),
        ("rho", built.cfg["rho"]),
        *((key, meta[key]) for key in ("residual", "edge_mass_rhs", "edge_mass_solution")),
        *extra,
        ("warnings", ";".join(meta["warnings"]) if meta.get("warnings") else "none"),
    ])
    return meta["residual"] <= RESIDUAL_LIMIT


def _decay_step(u: Signal, nu: float, out_dir: str) -> bool:
    """Fit the tail decay of u against nu; write decay.kv and return the verdict."""
    margin = default_margin(nu)
    passed, fit = verify_stability(u, nu, margin)
    _write_kv(os.path.join(out_dir, "decay.kv"), [
        ("nu_certified", nu), ("margin", margin),
        ("fitted_rate", fit.rate), ("window_lo", fit.window[0]), ("window_hi", fit.window[1]),
        ("rms_residual", fit.rms_residual), ("samples_used", fit.samples_used),
        ("passed", passed),
    ])
    return passed


# Each command runs its steps and returns whether every one of its gates passed.

def cmd_certify(built: _BuiltProblem, out_dir: str, threads: int) -> bool:
    return _certify_step(built, out_dir).passed


def cmd_solve(built: _BuiltProblem, out_dir: str, threads: int) -> bool:
    return _solution_step(built, built.run_solve(built.forcing(), threads), out_dir)


def cmd_ivp(built: _BuiltProblem, out_dir: str, threads: int) -> bool:
    cfg = built.cfg
    _require(built.family in ("dae", "mixed1d"),
             "ivp: only dae/mixed1d families carry (M0, M1) initial data")
    _require(cfg["u0"] is not None, "ivp: u0 is required")
    u0 = _as_complex_matrix(cfg["u0"], "u0")
    _require(u0.ndim == 1 and u0.shape[0] == built.dim,
             f"ivp: u0 must have {built.dim} entries")
    problem = IvpProblem(built.law.M0, built.law.M1, built.A, u0, built.forcing(),
                         rho=cfg["rho"], phi_scale=cfg["phi_scale"])
    u, gap = ivp_solve(problem, check_certified=cfg["check_certified"])
    m0u0 = float(np.linalg.norm(np.asarray(built.law.M0) @ u0))
    limit = 10.0 * built.grid.dt * m0u0 + 1e-12
    residual_ok = _solution_step(built, u, out_dir, [("initial_gap", gap), ("gap_limit", limit)])
    return residual_ok and gap <= limit


def cmd_verify(built: _BuiltProblem, out_dir: str, threads: int) -> bool:
    report = _certify_step(built, out_dir)
    nu = built.cfg["nu"]
    if nu is None:
        _require(report.closed_form_rate is not None,
                 "verify: nu is required for families without a closed-form rate")
        nu = min(report.closed_form_rate, RATE_CAP)
    u = built.run_solve(built.forcing(), threads)
    residual_ok = _solution_step(built, u, out_dir)
    return _decay_step(u, nu, out_dir) and residual_ok and report.passed


_COMMANDS = {
    "certify": cmd_certify,
    "solve": cmd_solve,
    "ivp": cmd_ivp,
    "verify": cmd_verify,
}


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evostab",
        description="Frequency-domain solver and exponential-stability certifier "
                    "for evolutionary equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", required=True, help="output directory (created if missing)")
        cmd.add_argument("--threads", type=_thread_count, default=1,
                         help="thread count (>= 1) of the dense solve path used by "
                              "delay and custom laws; DAE, mixed1d and integro "
                              "solves take the QZ pencil path, which has no pool")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
        built = _BuiltProblem(cfg)
        passed = _COMMANDS[args.command](built, args.out, args.threads)
        _echo_config(cfg, args.out)
        return 0 if passed else 1
    except (CertificationError, EdgeMassError, DecayFitError) as exc:
        print(f"analytic failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularFrequencyError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
