"""Correctness checks for every timed command.

Each command's artifacts are checked against tolerances, never byte for
byte, so a fast path that changes only the last bits still passes:

* ``verify``: ``report.kv pass=true``, ``metadata.kv residual`` at most
  RESIDUAL_LIMIT, ``decay.kv passed=true`` with the fitted rate re-checked
  against ``nu_certified - margin``, and ``solution.csv`` on the config's
  grid, finite, and within SOLUTION_RTOL of the run's reference solution.
* ``certify`` (custom law): ``pass=true`` by the sampled certificate, with
  ``c_nu_sampled`` equal to the DAE branch of ``solvability_constant`` for
  ``M0 + z M1`` on the same sigma grid.  For Hermitian M0 the ``i tau M0``
  term is skew, so both minima agree to rounding.

The reference solution of a verify run is the warm-up command's output.  It
is checked once per run, outside the timed loop, by a route that does not
go through the per-frequency solve: the forward residual of
``solver.apply_forward`` for the DAE family, and agreement with a re-solve at
a second weight rho (the solution does not depend on rho) for the integro
family.
"""
from __future__ import annotations

import math
import os

import numpy as np

from evostab.certify import solvability_constant
from evostab.cli import _BuiltProblem, resolve_config
from evostab.material import DaeLaw
from evostab.signals import Signal, weighted_norm
from evostab.solver import EvolutionaryProblem, apply_forward, solve_integro

from workloads import Workload, custom_matrices

RESIDUAL_LIMIT = 1e-8    # the CLI's own limit, restated so a change there shows
SOLUTION_RTOL = 1e-8     # each timed solution vs the run's reference, max norm
FORWARD_RTOL = 1e-9      # weighted forward residual of the reference solution
RHO_RTOL = 1e-8          # reference vs re-solve at RHO_ALT, max norm
RHO_ALT = 0.1
C_NU_RTOL = 1e-9


def read_kv(path: str) -> dict:
    pairs = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            pairs[key] = value
    return pairs


def read_solution(path: str):
    """(times, complex values) from a ``t,re_0,im_0,...`` CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]


def _float(kv: dict, key: str) -> float:
    try:
        return float(kv[key])
    except (KeyError, ValueError):
        return math.nan


def check_verify(wl: Workload, out_dir: str, reference=None):
    """Problems found in a verify command's artifacts, and its solution."""
    problems = []
    report = read_kv(os.path.join(out_dir, "report.kv"))
    meta = read_kv(os.path.join(out_dir, "metadata.kv"))
    decay = read_kv(os.path.join(out_dir, "decay.kv"))
    if report.get("pass") != "true":
        problems.append("report.kv: pass is not true")
    if not _float(meta, "residual") <= RESIDUAL_LIMIT:
        problems.append(f"metadata.kv: residual {meta.get('residual')} above {RESIDUAL_LIMIT:g}")
    rate_floor = _float(decay, "nu_certified") - _float(decay, "margin")
    if decay.get("passed") != "true" or not _float(decay, "fitted_rate") >= rate_floor:
        problems.append(f"decay.kv: fitted rate {decay.get('fitted_rate')} below {rate_floor:.6g}")

    grid = wl.raw["grid"]
    t, u = read_solution(os.path.join(out_dir, "solution.csv"))
    times = grid["t0"] + grid["dt"] * np.arange(grid["n_steps"])
    if t.shape != times.shape or not np.allclose(t, times, rtol=0.0, atol=1e-9):
        problems.append("solution.csv: time column does not match the config grid")
        return problems, None
    if not np.all(np.isfinite(u)):
        problems.append("solution.csv: non-finite values")
    if reference is not None:
        if u.shape != reference.shape:
            problems.append(f"solution.csv: shape {u.shape}, reference {reference.shape}")
        else:
            err = np.abs(u - reference).max() / np.abs(reference).max()
            if not err <= SOLUTION_RTOL:
                problems.append(f"solution.csv: differs from the reference by {err:.3g} (relative)")
    return problems, u


def check_certify(wl: Workload, out_dir: str, c_ref: float):
    problems = []
    report = read_kv(os.path.join(out_dir, "report.kv"))
    if report.get("pass") != "true" or report.get("certificate") != "sampled":
        problems.append("report.kv: not passed by the sampled certificate")
    c_nu, c_sampled = _float(report, "c_nu"), _float(report, "c_nu_sampled")
    if not abs(c_sampled - c_ref) <= C_NU_RTOL * max(1.0, abs(c_ref)) or c_nu != c_sampled:
        problems.append(f"report.kv: c_nu_sampled {report.get('c_nu_sampled')} vs DAE branch {c_ref!r}")
    return problems


def custom_c_ref(wl: Workload) -> float:
    """DAE-branch sampled positivity constant on the command's sigma grid."""
    m0, m1 = custom_matrices(wl)
    sampling = resolve_config(wl.raw)["sampling"]
    return solvability_constant(DaeLaw(m0, m1), wl.raw["nu"], **sampling)


def check_reference(wl: Workload, u: np.ndarray) -> list:
    """Check the reference solution without the per-frequency solve under test."""
    built = _BuiltProblem(resolve_config(wl.raw))
    f = built.forcing()
    rho = wl.raw["rho"]
    if built.family == "integro":
        alt = solve_integro(built.kernel, built.c, built.A, f, RHO_ALT).values
        err = np.abs(u - alt).max() / np.abs(alt).max()
        if not err <= RHO_RTOL:
            return [f"reference differs from the rho = {RHO_ALT} re-solve by {err:.3g}"]
        return []
    problem = EvolutionaryProblem(built.law, built.A, rho, f)
    bu = apply_forward(problem, Signal(f.grid, u))
    err = weighted_norm(bu - f, rho) / weighted_norm(f, rho)
    if not err <= FORWARD_RTOL:
        return [f"reference forward residual {err:.3g} above {FORWARD_RTOL:g}"]
    return []
