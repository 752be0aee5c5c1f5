"""Command-line interface: certify / solve / ivp / verify with file artifacts.

Configs are JSON; complex matrices are nested arrays of [re, im] pairs.
Every run echoes the fully resolved config (all defaults made explicit, the
keys its family does not read left out) to ``config_echo.json`` in the output
directory, and the echo loads back as the same config.  Report files are
``key=value`` lines in a fixed key order so that repeated runs diff clean.

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
from .certify import SamplingConfig, certify
from .errors import (CertificationError, ConfigError, DecayFitError,
                     EdgeMassError, SingularFrequencyError)
from .material import DaeLaw, DelayLaw, IntegroLaw, Kernel, KernelMode
from .signals import (Signal, TimeGrid, gaussian_pulse, signal_from_csv,
                      signal_to_csv, step_exp, _times_close)
from .solver import EvolutionaryProblem, ivp_solve, solve, solve_integro
from .spatial import SpatialOperator, build_mixed_type_system, indicators_from_intervals

RESIDUAL_LIMIT = 1e-8

# The config schema.  Every family may carry the common keys; of the rest, a
# family requires the first keys of its entry, may carry the second, and is
# refused any other.
_COMMON_KEYS = ("family", "grid", "rho", "nu", "forcing", "u0", "phi_scale", "sampling")
_FAMILY_KEYS = {
    "dae": (("m0", "m1"), ("a", "check_certified")),
    "delay": (("m0", "m1", "h"), ("a", "check_certified")),
    "integro": (("kernel", "c"), ("a",)),
    "mixed1d": (("mixed",), ("check_certified",)),
    "custom": (("custom",), ("check_certified",)),
}
_CONFIG_KEYS = set(_COMMON_KEYS).union(*(req + opt for req, opt in _FAMILY_KEYS.values()))
_FORCING_DEFAULTS = {
    "pulse": {"center": 0.5, "width": 0.1, "amplitude": 1.0},
    "step_exp": {"start": 0.0, "rate": 1.0},
    "csv": {},
    "zero": {},
}


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


def _object(node, name: str, required=(), optional=()) -> dict:
    """``node`` when it is a JSON object that holds every key of ``required``
    and no key outside ``required`` and ``optional``; ConfigError otherwise."""
    _require(isinstance(node, dict), f"{name} must be a JSON object, got {node!r}")
    missing = [key for key in required if key not in node]
    _require(not missing, f"{name}: missing keys {missing}")
    unknown = sorted(set(node) - set(required) - set(optional))
    _require(not unknown, f"unknown {name} keys: {unknown}")
    return node


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
    return resolve_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def resolve_config(raw: dict, base_dir: str = ".") -> dict:
    """Validate a raw config dict and fill in every default explicitly.

    Every leaf that is present is checked, whichever command runs; the keys
    are checked last, against the family's entry of ``_FAMILY_KEYS``, so
    that a leaf's own type error is the one reported."""
    _object(raw, "config", ("family", "grid", "rho"), _CONFIG_KEYS)
    family = raw["family"]
    _require(isinstance(family, str) and family in _FAMILY_KEYS,
             f"family must be one of dae|delay|integro|mixed1d|custom, got {family!r}")
    cfg = {key: raw.get(key) for key in _CONFIG_KEYS}

    grid = _object(raw["grid"], "grid", ("t0", "dt", "n_steps"))
    cfg["grid"] = {"t0": _number(grid["t0"], "grid.t0"), "dt": _number(grid["dt"], "grid.dt"),
                   "n_steps": _number(grid["n_steps"], "grid.n_steps", integral=True)}

    cfg["rho"] = _number(raw["rho"], "rho")
    _require(cfg["rho"] > 0, "rho must be a positive number")
    cfg["nu"] = None if raw.get("nu") is None else _number(raw["nu"], "nu")
    for key in ("h", "c"):  # each is required by the family that reads it
        if key in raw:
            cfg[key] = _number(raw[key], key)

    forcing = raw.get("forcing", {"kind": "zero"})
    kind = forcing.get("kind") if isinstance(forcing, dict) else None
    _require(isinstance(kind, str) and kind in _FORCING_DEFAULTS,
             f"forcing.kind must be pulse|step_exp|csv|zero, got {kind!r}")
    defaults = _FORCING_DEFAULTS[kind]
    _object(forcing, "forcing", ("kind", "path") if kind == "csv" else ("kind",), defaults)
    for key in defaults:  # checked only: the echo keeps the raw value
        _number(forcing.get(key, defaults[key]), f"forcing.{key}")
    cfg["forcing"] = {**defaults, **forcing}
    if kind == "csv":
        path = forcing["path"]
        _require(isinstance(path, str), f"forcing.path must be a string, got {path!r}")
        path = cfg["forcing"]["path"] = os.path.join(base_dir, path)
        _require(os.path.isfile(path), f"forcing: csv file {path} does not exist or is not a file")

    if cfg["u0"] is not None:
        _require(_as_complex_matrix(cfg["u0"], "u0").ndim == 1,
                 "u0 must be a list of [re, im] pairs")
    cfg["phi_scale"] = _number(raw.get("phi_scale", 1.0), "phi_scale")

    cfg["sampling"] = dataclasses.asdict(SamplingConfig())
    cfg["sampling"].update(_object(raw.get("sampling", {}), "sampling", (), cfg["sampling"]))
    SamplingConfig(**cfg["sampling"])

    cfg["check_certified"] = raw.get("check_certified", True)
    _require(isinstance(cfg["check_certified"], bool),
             f"check_certified must be true or false, got {cfg['check_certified']!r}")
    if "custom" in raw:
        spec = _object(raw["custom"], "custom", ("import",))["import"]
        _require(isinstance(spec, str) and ":" in spec,
                 f"custom.import must be a string package.module:callable, got {spec!r}")

    required, optional = _FAMILY_KEYS[family]
    _object(raw, f"{family} config", required, _COMMON_KEYS + optional)
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
            m0 = _as_complex_matrix(cfg["m0"], "m0")
            m1 = _as_complex_matrix(cfg["m1"], "m1")
            self.law = DaeLaw(m0, m1) if family == "dae" else DelayLaw(m0, m1, cfg["h"])
        elif family == "integro":
            self.kernel = _parse_kernel(cfg["kernel"])
            self.c = cfg["c"]
            self.law = IntegroLaw(self.kernel, self.c)
        elif family == "mixed1d":
            system = _parse_mixed(cfg["mixed"])
            self.law = system.law()
            self.A = system.A
        else:  # custom
            self.law, self.A = _load_custom(cfg["custom"]["import"])

        if cfg["a"] is not None:
            self.A = SpatialOperator(_as_complex_matrix(cfg["a"], "a"))
        self.dim = self.law.dim

    def forcing(self) -> Signal:
        spec = self.cfg["forcing"]
        kind = spec["kind"]
        if kind == "pulse":
            return gaussian_pulse(self.grid, spec["center"], spec["width"], dim=self.dim,
                                  amplitude=spec["amplitude"])
        if kind == "step_exp":
            return step_exp(self.grid, start=spec["start"], rate=spec["rate"], dim=self.dim)
        if kind == "csv":
            # the file's dt is rebuilt as t[1] - t[0], so compare the times
            # themselves, within the reader's tolerance, not the grids
            try:
                f = signal_from_csv(spec["path"])
            except OSError as exc:
                raise ConfigError(f"cannot read forcing csv {spec['path']}: {exc}") from exc
            _require(_times_close(f.grid.times, self.grid.times),
                     "forcing: csv grid does not match the config grid")
            _require(f.dim == self.dim, "forcing: csv dimension does not match the problem")
            return Signal(self.grid, f.values)
        return Signal.zeros(self.grid, self.dim)

    def run_solve(self, f: Signal, threads: int) -> Signal:
        if self.family == "integro":
            return solve_integro(self.kernel, self.c, self.A, f, self.cfg["rho"])
        problem = EvolutionaryProblem(self.law, self.A, self.cfg["rho"], f)
        return solve(problem, check_certified=self.cfg["check_certified"], threads=threads)


def _parse_kernel(node: dict) -> Kernel:
    _object(node, "kernel", ("modes", "nu0"))
    _require(isinstance(node["modes"], list) and node["modes"],
             "kernel.modes: expected a non-empty list of {gamma, beta}")
    modes = []
    for k, mode in enumerate(node["modes"]):
        _object(mode, f"kernel.modes[{k}]", ("gamma", "beta"))
        modes.append(KernelMode(_as_complex_matrix(mode["gamma"], f"kernel.modes[{k}].gamma"),
                                _number(mode["beta"], f"kernel.modes[{k}].beta")))
    return Kernel(tuple(modes), _number(node["nu0"], "kernel.nu0"))


def _parse_mixed(node: dict):
    _object(node, "mixed", ("p", "c", "omega0", "omega1"))
    p = _number(node["p"], "mixed.p", integral=True)
    for key in ("omega0", "omega1"):
        pair = node[key]
        _require(isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair)),
                 f"mixed.{key} must be a finite interval of two numbers [lo, hi], got {pair!r}")
    ind0, ind1 = indicators_from_intervals(p, tuple(node["omega0"]), tuple(node["omega1"]))
    return build_mixed_type_system(p, 1.0 / (p + 1), ind0, ind1, _number(node["c"], "mixed.c"))


def _load_custom(spec: str):
    mod_name, attr = spec.split(":", 1)
    try:
        factory = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"custom: cannot load {spec!r}: {exc}") from exc
    law, a_matrix = factory()
    return law, (None if a_matrix is None else SpatialOperator(a_matrix))


def _echo_config(cfg: dict, out_dir: str) -> None:
    """Write the resolved config as a config that loads back: the common keys
    and the family's own keys of ``_FAMILY_KEYS``, without null values."""
    required, optional = _FAMILY_KEYS[cfg["family"]]
    echo = {key: cfg[key] for key in _COMMON_KEYS + required + optional if cfg[key] is not None}
    with open(os.path.join(out_dir, "config_echo.json"), "w", encoding="ascii") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
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
    _require(cfg["u0"] is not None, "ivp: u0 is required")
    u0 = _as_complex_matrix(cfg["u0"], "u0")
    problem = EvolutionaryProblem(built.law, built.A, cfg["rho"], built.forcing())
    u, gap = ivp_solve(problem, u0, phi_scale=cfg["phi_scale"],
                       check_certified=cfg["check_certified"])
    m0u0 = float(np.linalg.norm(built.law.M0 @ u0))
    limit = 10.0 * built.grid.dt * m0u0 + 1e-12
    residual_ok = _solution_step(built, u, out_dir, [("initial_gap", gap), ("gap_limit", limit)])
    return residual_ok and gap <= limit


def cmd_verify(built: _BuiltProblem, out_dir: str, threads: int) -> bool:
    report = _certify_step(built, out_dir)
    nu = built.cfg["nu"]
    if nu is None:
        nu = report.capped_rate
        _require(nu is not None, "verify: nu is required for families without a closed-form rate")
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
                         help="thread count (>= 1) of the dense solve core used by "
                              "custom laws and delay laws with non-diagonal M0; "
                              "the banded and QZ pencil cores have no pool")

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
