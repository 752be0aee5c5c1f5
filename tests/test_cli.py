"""End-to-end checks for the ``evostab`` command line interface.

Each test builds a JSON config in a temp directory, invokes ``main`` in
process, and inspects exit codes plus the report/solution artifacts.  One
test shells out to the installed console script to make sure repeated runs
are byte-for-byte reproducible.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evostab import EdgeMassWarning, TimeGrid, gaussian_pulse, signal_to_csv
from evostab.analysis import auto_tail_window, fit_decay_rate
from evostab.cli import _FAMILY_KEYS, _FORCINGS, _BuiltProblem, main, resolve_config
from evostab.errors import ConfigError


def write_cfg(tmp_path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_kv(path) -> dict:
    pairs = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        key, _, value = line.strip().partition("=")
        pairs[key] = value
    return pairs


def kv_keys(path) -> list:
    return [line.split("=", 1)[0] for line in Path(path).read_text(encoding="ascii").splitlines()]


def read_solution(out_dir):
    data = np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]


def scalar_dae_cfg(**overrides) -> dict:
    cfg = {
        "family": "dae",
        "m0": [[[1.0, 0.0]]],
        "m1": [[[2.0, 0.0]]],
        "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
        "forcing": {"kind": "zero"},
    }
    cfg.update(overrides)
    return cfg


def mixed_cfg() -> dict:
    return {
        "family": "mixed1d",
        "mixed": {"p": 48, "c": 1.0, "omega0": [0.0, 1.0 / 3.0],
                  "omega1": [1.0 / 3.0, 2.0 / 3.0]},
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    }


CUSTOM_MODULE = '''
import numpy as np
from evostab import CustomLaw, DaeLaw

def plain():
    return DaeLaw(np.eye(2), 2.0 * np.eye(2)), None

def shifted():
    m0 = np.eye(1, dtype=complex)
    m1 = 2.0 * np.eye(1, dtype=complex)

    def fn(z):
        return m0 + z * m1

    def shifted_fn(nu, z):
        return (1.0 - nu * z) * m0 + z * m1

    return CustomLaw(1, fn, (), shifted_fn), None

def nan_symbol():
    return CustomLaw(1, lambda z: np.array([[np.nan]])), None

def nan_operator():
    return DaeLaw(np.eye(1), 2.0 * np.eye(1)), np.array([[np.nan]])

def inf_beyond_scan():
    # M(z) = 1 + z, but inf where |1/z| > 150: past the gate's |tau| <= 100
    def fn(z):
        return np.array([[np.inf if abs(1.0 / z) > 150.0 else 1.0 + z]])

    return CustomLaw(1, fn), None
'''


def install_custom_module(tmp_path, monkeypatch) -> None:
    (tmp_path / "cli_custom_laws.py").write_text(CUSTOM_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))


# --- certify ---------------------------------------------------------------

def test_certify_passes_below_closed_form_rate(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(nu=1.5))
    out = str(tmp_path / "out")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    kv = read_kv(os.path.join(out, "report.kv"))
    assert kv["pass"] == "true"
    assert abs(float(kv["c_nu"]) - 0.5) <= 0.01
    assert float(kv["closed_form_rate"]) == 2.0
    assert "pass" in Path(out, "report.txt").read_text()


def test_certify_fails_above_closed_form_rate(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(nu=2.5))
    out = str(tmp_path / "out")
    assert main(["certify", "--config", cfg, "--out", out]) == 1
    kv = read_kv(os.path.join(out, "report.kv"))
    assert kv["pass"] == "false"
    assert float(kv["c_nu"]) < 0.0


def test_certify_defaults_to_nu_zero(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    out = str(tmp_path / "out")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    assert float(read_kv(os.path.join(out, "report.kv"))["nu"]) == 0.0


def test_certify_delay_past_exp_overflow_fails_cleanly(tmp_path, package_env):
    # nu*|h| = 800 is past exp's overflow: the closed-form bound is -inf, the
    # report is written and the run exits 1 without a traceback or warning
    cfg = write_cfg(tmp_path, {
        "family": "delay", "m0": [[[1.0, 0.0]]], "m1": [[[3.0, 0.0]]], "h": -1.0,
        "nu": 800.0, "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256}, "rho": 0.5,
    })
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "evostab", "certify",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    kv = read_kv(out / "report.kv")
    assert kv["positivity"] == "fail"
    assert kv["c_nu"] == "-inf"


def test_certify_delay_rate_above_float_spacing_returns(tmp_path, package_env):
    # the rate ln 2 / 5e-5 = 13863 lies where the float spacing exceeds the
    # bisection tolerance 1e-12; certify once never returned on it
    cfg = write_cfg(tmp_path, scalar_dae_cfg(family="delay", m0=[[[0.0, 0.0]]], h=-5e-5))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "evostab", "certify",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=package_env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert float(read_kv(out / "report.kv")["closed_form_rate"]) == pytest.approx(13862.94, rel=1e-6)


# --- solve -----------------------------------------------------------------

def test_solve_matches_scalar_closed_form(tmp_path):
    # u' + 2u = step(t) e^{-t}  has solution e^{-t} - e^{-2t} for t >= 0
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        grid={"t0": -0.00390625, "dt": 0.0078125, "n_steps": 4096},
        rho=1e-4,
        forcing={"kind": "step_exp", "start": 0.0, "rate": 1.0},
    ))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    t, u = read_solution(out)
    exact = np.where(t >= 0.0, np.exp(-t) - np.exp(-2.0 * t), 0.0)
    n = t.size
    interior = slice(n // 10, n - n // 10)
    assert np.max(np.abs(u[:, 0] - exact)[interior]) <= 1e-6
    kv = read_kv(os.path.join(out, "metadata.kv"))
    assert float(kv["residual"]) <= 1e-8


def test_solve_zero_forcing_gives_zero_solution(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    _, u = read_solution(out)
    assert np.max(np.abs(u)) == 0.0


def test_solve_metadata_key_order(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    assert kv_keys(os.path.join(out, "metadata.kv")) == [
        "family", "t0", "dt", "n_steps", "rho", "residual",
        "edge_mass_rhs", "edge_mass_solution", "warnings"]


def test_solve_csv_forcing_relative_to_config(tmp_path):
    grid = TimeGrid(-1.0, 0.015625, 256)
    signal_to_csv(gaussian_pulse(grid, 0.5, 0.1), tmp_path / "force.csv")
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "csv", "path": "force.csv"}, rho=0.5))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert float(read_kv(os.path.join(out, "metadata.kv"))["residual"]) <= 1e-10


def test_solve_rejects_csv_on_wrong_grid(tmp_path):
    signal_to_csv(gaussian_pulse(TimeGrid(0.0, 0.03125, 128), 0.5, 0.1),
                  tmp_path / "force.csv")
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "csv", "path": "force.csv"}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_solve_rejects_directory_as_csv_path(tmp_path, capsys):
    (tmp_path / "force").mkdir()
    cfg = write_cfg(tmp_path, scalar_dae_cfg(forcing={"kind": "csv", "path": "force"}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: forcing: csv file")


def test_unreadable_csv_forcing_is_config_error(tmp_path):
    # the file passed resolve_config and is gone by the time it is read
    signal_to_csv(gaussian_pulse(TimeGrid(-1.0, 0.015625, 256), 0.5, 0.1), tmp_path / "force.csv")
    cfg = resolve_config(scalar_dae_cfg(forcing={"kind": "csv", "path": "force.csv"}),
                         base_dir=str(tmp_path))
    os.remove(tmp_path / "force.csv")
    with pytest.raises(ConfigError, match="cannot read forcing csv"):
        _BuiltProblem(cfg).forcing()


def test_solve_accepts_csv_on_non_dyadic_config_grid(tmp_path):
    # the reader rebuilds dt = 0.01 as t[1] - t[0] = 0.010000000000000009
    grid = {"t0": -1.0, "dt": 0.01, "n_steps": 512}
    signal_to_csv(gaussian_pulse(TimeGrid(**grid), 0.5, 0.1), tmp_path / "force.csv")
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        grid=grid, forcing={"kind": "csv", "path": "force.csv"}))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert read_kv(os.path.join(out, "metadata.kv"))["dt"] == "0.01"


def test_solve_rejects_csv_on_shifted_grid(tmp_path, capsys):
    grid = {"t0": -1.0, "dt": 0.01, "n_steps": 512}
    signal_to_csv(gaussian_pulse(TimeGrid(-0.995, 0.01, 512), 0.5, 0.1), tmp_path / "force.csv")
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        grid=grid, forcing={"kind": "csv", "path": "force.csv"}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "csv grid does not match" in capsys.readouterr().err


def _csv_text(times, columns: int) -> str:
    """A forcing CSV: the header, then each time with ``columns`` zeros."""
    return "t,re_0,im_0\n" + "".join(repr(float(t)) + ",0" * columns + "\n" for t in times)


_CSV_TIMES = -1.0 + 0.015625 * np.arange(256)  # the grid of scalar_dae_cfg
_BUMPED = _CSV_TIMES + 0.005 * (np.arange(256) == 100)  # one time off the grid


@pytest.mark.parametrize("csv, message", [
    (None, "cannot read config "),
    # numpy warns that a header-only file holds no data; the refusal says it
    pytest.param(_csv_text([], 2), "need at least two samples to reconstruct a grid",
                 marks=pytest.mark.filterwarnings("error")),
    (_csv_text([-1.0], 2), "need at least two samples to reconstruct a grid"),
    (_csv_text(_BUMPED, 2), "CSV time column is not a uniform grid"),
    (_csv_text(_CSV_TIMES, 3), "expected re/im column pairs after the time column"),
], ids=["missing-config", "csv-header-only", "csv-one-row", "csv-not-uniform",
        "csv-odd-columns"])
def test_unreadable_input_files_exit_two(tmp_path, capsys, csv, message):
    # files from outside the program: a config that is not there, and forcing
    # CSVs from which no signal can be rebuilt
    if csv is None:
        cfg = str(tmp_path / "absent.json")
    else:
        (tmp_path / "force.csv").write_text(csv)
        cfg = write_cfg(tmp_path, scalar_dae_cfg(forcing={"kind": "csv", "path": "force.csv"}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "1", "2"])
def test_threads_flag_is_a_usage_error(tmp_path, capsys, threads):
    # the solver has one serial dense core and no --threads option
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "pulse", "center": 0.0, "width": 0.1}))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_solve_certification_gate_and_override(tmp_path):
    # M1 = 0 constructs but fails the nu = 0 positivity gate
    bad = scalar_dae_cfg(m1=[[[0.0, 0.0]]],
                         forcing={"kind": "pulse", "center": 0.0, "width": 0.1})
    cfg = write_cfg(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o1")]) == 1
    bad["check_certified"] = False
    cfg = write_cfg(tmp_path, bad, name="override.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0


def test_solve_custom_family_import(tmp_path, monkeypatch):
    install_custom_module(tmp_path, monkeypatch)
    cfg = write_cfg(tmp_path, {
        "family": "custom",
        "custom": {"import": "cli_custom_laws:plain"},
        "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    })
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    _, u = read_solution(out)
    assert u.shape[1] == 2


def test_solve_nonfinite_dense_solve_is_analytic(tmp_path, monkeypatch, package_env):
    # the symbol passes the gate but is inf at the outer frequencies: the
    # solve fails (exit 1) at the first bad sample; it is not a config error
    install_custom_module(tmp_path, monkeypatch)
    cfg = write_cfg(tmp_path, {
        "family": "custom",
        "custom": {"import": "cli_custom_laws:inf_beyond_scan"},
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.5,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    })
    env = dict(package_env, PYTHONPATH=os.pathsep.join([str(tmp_path), package_env["PYTHONPATH"]]))
    proc = subprocess.run([sys.executable, "-m", "evostab", "solve", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("solve failed: singular frequency operator at sample 0 ")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_nonfinite_custom_operator_is_config_error(tmp_path, monkeypatch, capsys, command):
    # a nan entry fails every comparison, so the operator would pass the
    # monotonicity check and fail the solve (exit 1); it is refused (exit 2)
    install_custom_module(tmp_path, monkeypatch)
    cfg = write_cfg(tmp_path, {
        "family": "custom",
        "custom": {"import": "cli_custom_laws:nan_operator"},
        "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
        "nu": 0.5,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: matrix must have finite entries\n"


def test_solve_rejects_missing_custom_import(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": "custom",
        "custom": {"import": "no_such_module_evostab:build"},
        "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
        "forcing": {"kind": "zero"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# --- ivp -------------------------------------------------------------------

def test_ivp_gap_within_limit(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        u0=[[1.0, 0.0]],
        grid={"t0": -4.0, "dt": 0.0078125, "n_steps": 2048}))
    out = str(tmp_path / "out")
    assert main(["ivp", "--config", cfg, "--out", out]) == 0
    kv = read_kv(os.path.join(out, "metadata.kv"))
    assert float(kv["initial_gap"]) <= float(kv["gap_limit"])
    assert kv_keys(os.path.join(out, "metadata.kv"))[-3:] == [
        "initial_gap", "gap_limit", "warnings"]


def test_ivp_zero_initial_state_zero_gap(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        u0=[[0.0, 0.0]],
        grid={"t0": -4.0, "dt": 0.0078125, "n_steps": 2048}))
    out = str(tmp_path / "out")
    assert main(["ivp", "--config", cfg, "--out", out]) == 0
    assert float(read_kv(os.path.join(out, "metadata.kv"))["initial_gap"]) == 0.0


def test_ivp_rejects_forcing_supported_before_zero(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        u0=[[1.0, 0.0]],
        grid={"t0": -4.0, "dt": 0.0078125, "n_steps": 2048},
        forcing={"kind": "pulse", "center": -1.0, "width": 0.1}))
    assert main(["ivp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_ivp_requires_u0(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    assert main(["ivp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_ivp_honours_check_certified(tmp_path):
    # Re M1 = -0.5 fails the nu = 0 positivity gate; the config turns it off,
    # for ivp as for solve, and the growing solution is solved with a warning
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        m1=[[[-0.5, 0.0]]], check_certified=False, rho=1.0, u0=[[1.0, 0.0]],
        grid={"t0": -2.0, "dt": 0.015625, "n_steps": 1024}))
    out = str(tmp_path / "out")
    with pytest.warns(EdgeMassWarning):
        assert main(["ivp", "--config", cfg, "--out", out]) == 0
    assert "solution edge mass" in read_kv(os.path.join(out, "metadata.kv"))["warnings"]


@pytest.mark.parametrize("cfg", [
    scalar_dae_cfg(u0=[[1.0, 0.0]], grid={"t0": -4.0, "dt": 0.0078125, "n_steps": 2048}),
    dict(mixed_cfg(), u0=[[1.0, 0.0]] * 97, forcing={"kind": "zero"}),
], ids=["dae", "mixed1d"])
def test_ivp_builds_its_law_once(tmp_path, monkeypatch, cfg):
    from evostab.material import _PencilLaw
    built = []
    post_init = _PencilLaw.__post_init__

    def counted(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(_PencilLaw, "__post_init__", counted)
    path = write_cfg(tmp_path, cfg)
    assert main(["ivp", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert built == ["DaeLaw"]


def test_ivp_rejects_delay_family(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(family="delay", h=-1.0,
                                             u0=[[1.0, 0.0]]))
    assert main(["ivp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_ivp_rejects_u0_of_wrong_length(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(u0=[[1.0, 0.0], [2.0, 0.0]]))
    assert main(["ivp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "u0 must have length 1" in capsys.readouterr().err


# --- verify ----------------------------------------------------------------

def test_verify_mixed_system_passes(tmp_path):
    cfg = write_cfg(tmp_path, mixed_cfg())
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    kv = read_kv(os.path.join(out, "decay.kv"))
    assert float(kv["nu_certified"]) == 1.0
    assert float(kv["fitted_rate"]) >= 0.95
    assert kv["passed"] == "true"
    assert read_kv(os.path.join(out, "report.kv"))["pass"] == "true"


def test_verify_delay_uses_closed_form_rate(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        family="delay", h=-1.0,
        grid={"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        rho=0.05,
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    rate = float(read_kv(os.path.join(out, "report.kv"))["closed_form_rate"])
    assert abs(rate - 0.442854) <= 1e-5
    kv = read_kv(os.path.join(out, "decay.kv"))
    assert float(kv["nu_certified"]) == rate
    assert float(kv["fitted_rate"]) >= rate - float(kv["margin"])


def test_verify_integro_certifies_nu0_bound(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": "integro",
        "kernel": {"modes": [{"gamma": [[[0.25, 0.0]]], "beta": 1.0}],
                   "nu0": 0.5},
        "c": 1.0,
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    })
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    kv = read_kv(os.path.join(out, "decay.kv"))
    assert abs(float(kv["nu_certified"]) - 0.5) <= 1e-12
    assert kv["passed"] == "true"


def test_verify_explicit_nu_overrides_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        nu=1.5,
        grid={"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        rho=0.05,
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    kv = read_kv(os.path.join(out, "decay.kv"))
    assert float(kv["nu_certified"]) == 1.5
    assert abs(float(kv["fitted_rate"]) - 2.0) <= 0.01


def test_verify_custom_family_requires_nu(tmp_path, monkeypatch):
    install_custom_module(tmp_path, monkeypatch)
    base = {
        "family": "custom",
        "custom": {"import": "cli_custom_laws:shifted"},
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    }
    cfg = write_cfg(tmp_path, base, name="nonu.json")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    base["nu"] = 1.5
    cfg = write_cfg(tmp_path, base, name="withnu.json")
    out = str(tmp_path / "o2")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert float(read_kv(os.path.join(out, "decay.kv"))["nu_certified"]) == 1.5


def test_verify_fits_the_decay_once(tmp_path, monkeypatch):
    # the decay step writes the fit that verify_stability judged; every fit
    # is counted, whether it is called through the cli or the analysis name
    fits = []

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_decay_rate(*args, **kwargs)

    monkeypatch.setattr("evostab.cli.fit_decay_rate", counted)
    monkeypatch.setattr("evostab.analysis.fit_decay_rate", counted)
    cfg = write_cfg(tmp_path, mixed_cfg())
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert len(fits) == 1
    kv = read_kv(os.path.join(out, "decay.kv"))
    assert (float(kv["window_lo"]), float(kv["window_hi"])) == auto_tail_window(fits[0][0])


def test_verify_decay_fit_failure_is_analytic(tmp_path, capsys):
    # zero forcing leaves no samples above the fit floor: an analytic
    # failure (exit 1), not a config error
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analytic failure: only 0 usable samples")
    assert read_kv(os.path.join(out, "report.kv"))["pass"] == "true"


def test_certify_nonfinite_symbol_is_analytic(tmp_path, monkeypatch, capsys):
    # a symbol that is not finite on the scan grid fails the certificate
    # (exit 1); it is not a config error
    install_custom_module(tmp_path, monkeypatch)
    cfg = write_cfg(tmp_path, {
        "family": "custom",
        "custom": {"import": "cli_custom_laws:nan_symbol"},
        "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("analytic failure: z^-1 M(z) is not finite")


def crossing_integro_cfg() -> dict:
    """A two-mode diagonal kernel whose curves |s_i(t)| cross: its L1 norm
    needs the quadrature's bisection."""
    return {
        "family": "integro",
        "kernel": {"modes": [{"gamma": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.05, 0.0]]],
                              "beta": 2.0},
                             {"gamma": [[[0.02, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
                              "beta": 0.8}],
                   "nu0": 0.5},
        "c": 1.0,
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    }


def test_certify_unconverged_kernel_l1_is_analytic(tmp_path, monkeypatch, capsys):
    # a quadrature that runs out of bisection rounds fails the run (exit 1)
    # instead of certifying from a partial sum; it is not a config error
    cfg = write_cfg(tmp_path, crossing_integro_cfg())
    out = str(tmp_path / "out")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    monkeypatch.setattr("evostab.material._L1_MAX_LEVELS", 1)
    assert main(["certify", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("analytic failure: kernel L1 quadrature")


IMPORT_GUARD = """
import sys

import evostab
import evostab.cli

sys.path.insert(0, sys.argv[1])
codes = [evostab.cli.main([sys.argv[2], "--config", cfg, "--out", cfg + ".out"])
         for cfg in sys.argv[3:]]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_certify_imports_no_scipy(tmp_path, package_env):
    # SciPy is loaded only by pencil solves: start-up and certify of the
    # dae, integro and custom families never import it
    (tmp_path / "cli_custom_laws.py").write_text(CUSTOM_MODULE)
    cfgs = [write_cfg(tmp_path, scalar_dae_cfg(nu=1.5), name="dae.json"),
            write_cfg(tmp_path, crossing_integro_cfg(), name="integro.json"),
            write_cfg(tmp_path, {"family": "custom",
                                 "custom": {"import": "cli_custom_laws:shifted"},
                                 "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256},
                                 "rho": 0.5, "nu": 0.5}, name="custom.json")]
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path), "certify", *cfgs],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


def test_banded_verify_imports_no_scipy(tmp_path, package_env):
    # mixed1d and an integro law with diagonal modes and a tridiagonal a take
    # the banded core, which needs no QZ: verify never imports SciPy
    skew = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]
    integro = {**crossing_integro_cfg(), "a": skew,
               "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024}}
    cfgs = [write_cfg(tmp_path, mixed_cfg(), name="mixed1d.json"),
            write_cfg(tmp_path, integro, name="integro.json")]
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path), "verify", *cfgs],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


# --- gates shared by the commands ------------------------------------------

GATE_ARTIFACTS = {
    "solve": {"solution.csv", "metadata.kv", "config_echo.json"},
    "ivp": {"solution.csv", "metadata.kv", "config_echo.json"},
    "verify": {"report.txt", "report.kv", "solution.csv", "metadata.kv", "decay.kv",
               "config_echo.json"},
}


@pytest.mark.parametrize("command", sorted(GATE_ARTIFACTS))
def test_residual_above_limit_exits_one(tmp_path, monkeypatch, command):
    # every command that solves gates on the residual, and still writes all
    # of its artifacts when the gate fails
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        u0=[[1.0, 0.0]],
        grid={"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        rho=0.05,
        forcing={"kind": "pulse", "center": 1.0, "width": 0.1}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr("evostab.cli.RESIDUAL_LIMIT", 0.0)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert set(os.listdir(out)) == GATE_ARTIFACTS[command]
    assert float(read_kv(out / "metadata.kv")["residual"]) > 0.0


# --- config validation and plumbing ----------------------------------------

@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("modes", [[], 3])
def test_empty_or_non_list_kernel_modes_exit_two(tmp_path, capsys, command, modes):
    cfg = write_cfg(tmp_path, {
        "family": "integro",
        "kernel": {"nu0": 0.5, "modes": modes},
        "c": 1.0,
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 256},
        "rho": 0.5,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: kernel.modes: expected a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize("sampling", [{"n_sigma": 0}, {"n_tau": -3}, {"sigma_max": -1.0},
                                      {"sigma_max": float("inf")}, {"tau_max": float("nan")},
                                      {"tau_max": -1.0}, {"sigma_max": True}, {"tau_max": "100"}])
def test_bad_sampling_exits_two(tmp_path, capsys, sampling):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(sampling=sampling))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {next(iter(sampling))} must be")


@pytest.mark.parametrize("command", ["solve", "ivp"])
def test_bad_sampling_exits_two_without_certify(tmp_path, capsys, command):
    # commands that never certify still check the sampling block they echo
    cfg = write_cfg(tmp_path, scalar_dae_cfg(sampling={"tau_max": "100"}, u0=[[1.0, 0.0]]))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: tau_max must be")


@pytest.mark.parametrize("override", [{"check_certified": "false"}, {"check_certified": 0},
                                      {"rho": True}, {"nu": True}, {"nu": "1.5"}])
def test_mistyped_config_values_exit_two(tmp_path, capsys, override):
    # "false" is a truthy string and true is an int: neither may slip through
    # as a boolean gate or a number
    cfg = write_cfg(tmp_path, scalar_dae_cfg(**override))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {next(iter(override))} must be")


def integro_cfg(**overrides) -> dict:
    cfg = {
        "family": "integro",
        "kernel": {"modes": [{"gamma": [[[0.25, 0.0]]], "beta": 1.0}], "nu0": 0.5},
        "c": 1.0,
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    }
    cfg.update(overrides)
    return cfg


BASE_CFGS = {"dae": scalar_dae_cfg, "delay": lambda: scalar_dae_cfg(family="delay", h=-1.0),
             "integro": integro_cfg, "mixed1d": mixed_cfg}


def _mistyped(command, base, path, value):
    """One case of the test below; its id names the command unless it is certify."""
    parts = [command] * (command != "certify") + [base, ".".join(map(str, path)), str(value)]
    return pytest.param(command, base, path, value, id="-".join(parts))


@pytest.mark.parametrize("command, base, path, value", [_mistyped(*case) for case in [
    ("certify", "dae", ("grid", "n_steps"), 256.7),
    ("certify", "dae", ("grid", "dt"), True),
    ("certify", "dae", ("grid", "t0"), "-1"),
    ("certify", "delay", ("h",), "-1"),
    ("certify", "dae", ("rho",), float("inf")),
    ("certify", "dae", ("phi_scale",), float("nan")),
    ("certify", "integro", ("c",), "1"),
    ("certify", "integro", ("kernel", "nu0"), True),
    ("certify", "integro", ("kernel", "modes", 0, "beta"), float("inf")),
    ("certify", "mixed1d", ("mixed", "p"), 24.5),
    ("certify", "mixed1d", ("mixed", "c"), "1"),
    ("solve", "integro", ("forcing", "width"), "0.1"),
    ("solve", "integro", ("forcing", "amplitude"), True),
    ("certify", "mixed1d", ("mixed", "omega0"), [False, True]),
    ("certify", "mixed1d", ("mixed", "omega1"), [0.3, "0.6"]),
    ("certify", "dae", ("m0",), [[["1", "0"]]]),
    ("certify", "dae", ("m1",), [[[True, False]]]),
    ("certify", "integro", ("kernel", "modes", 0, "gamma"), [[[0.25, None]]]),
    ("ivp", "dae", ("u0",), [["1", "0"]]),
]])
def test_mistyped_numbers_exit_two(tmp_path, capsys, command, base, path, value):
    # a bool, a string, a null, a fractional count or a non-finite value is a
    # config error naming its key, never silently converted
    cfg = BASE_CFGS[base]()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    name = ".".join(f"[{k}]" if isinstance(k, int) else k for k in path).replace(".[", "[")
    assert capsys.readouterr().err.startswith(f"config error: {name} must be a finite")


@pytest.mark.parametrize("cfg, name", [
    (scalar_dae_cfg(forcing={"kind": ["pulse"]}), "forcing.kind"),
    (scalar_dae_cfg(forcing={"kind": "csv", "path": 5}), "forcing.path"),
    (scalar_dae_cfg(family="custom", custom={"import": 5}), "custom.import"),
], ids=["forcing.kind", "forcing.path", "custom.import"])
def test_mistyped_strings_exit_two(tmp_path, capsys, cfg, name):
    # a string leaf of another type is a config error naming its key, not a
    # TypeError from the code that uses it
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name} must be")


def test_whole_float_count_is_accepted(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(grid={"t0": -1.0, "dt": 0.015625, "n_steps": 256.0}))
    out = tmp_path / "o"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "config_echo.json").read_text())["grid"]["n_steps"] == 256


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "dae", "m0": [[[1,0]]]')
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_nonpositive_rho_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(rho=-1.0))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_family_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(family="hyperbolic"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("cfg, message", [
    (scalar_dae_cfg(family="hyperbolic"),
     "family must be one of dae|delay|integro|mixed1d|custom, got 'hyperbolic'"),
    (scalar_dae_cfg(forcing={"kind": "sine"}),
     "forcing.kind must be pulse|step_exp|csv|zero, got 'sine'"),
], ids=["family", "forcing.kind"])
def test_unknown_family_or_forcing_kind_names_every_choice(cfg, message):
    with pytest.raises(ConfigError) as info:
        resolve_config(cfg)
    assert str(info.value) == message


def test_unknown_top_level_key_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(surprise=1))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_resolve_config_refuses_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['surprise'\]"):
        resolve_config(scalar_dae_cfg(surprise=1))


# The family-specific keys each family requires, then those it may also carry.
FAMILY_SCHEMA = {
    "dae": (["m0", "m1"], ["a", "check_certified"]),
    "delay": (["m0", "m1", "h"], ["a", "check_certified"]),
    "integro": (["kernel", "c"], ["a"]),
    "mixed1d": (["mixed"], ["check_certified"]),
    "custom": (["custom"], ["check_certified"]),
}
FAMILY_CFGS = {**BASE_CFGS, "custom": lambda: {
    "family": "custom", "custom": {"import": "cli_custom_laws:plain"},
    "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256}, "rho": 0.5}}
# a value of each family-specific key that passes the key's own checks
KEY_VALUES = {**BASE_CFGS["delay"](), **integro_cfg(), **mixed_cfg(),
              **FAMILY_CFGS["custom"](), "a": [[[0.0, 0.0]]], "check_certified": False}


FAMILY_SPECIFIC = sorted({key for required, optional in FAMILY_SCHEMA.values()
                          for key in required + optional})


@pytest.mark.parametrize("family, key", [
    (family, key) for family, (required, optional) in FAMILY_SCHEMA.items()
    for key in FAMILY_SPECIFIC if key not in required + optional])
def test_family_refuses_keys_it_does_not_read(family, key):
    # a key the family never reads is refused by name, not silently echoed
    with pytest.raises(ConfigError, match=rf"unknown {family} config keys: \['{key}'\]"):
        resolve_config({**FAMILY_CFGS[family](), key: KEY_VALUES[key]})


@pytest.mark.parametrize("family", sorted(FAMILY_SCHEMA))
def test_family_requires_its_keys_and_takes_its_optional_ones(family):
    required, optional = FAMILY_SCHEMA[family]
    resolve_config({**FAMILY_CFGS[family](), **{key: KEY_VALUES[key] for key in optional}})
    for key in required:
        cfg = FAMILY_CFGS[family]()
        del cfg[key]
        with pytest.raises(ConfigError, match=rf"{family} config: missing keys \['{key}'\]"):
            resolve_config(cfg)


# The law family and dimension each family's minimal config builds, and
# whether it comes with an operator.
BUILT = {"dae": ("dae", 1, False), "delay": ("delay", 1, False),
         "integro": ("integro", 1, False), "mixed1d": ("dae", 97, True),
         "custom": ("dae", 2, False)}


@pytest.mark.parametrize("family", list(_FAMILY_KEYS))
def test_every_family_row_builds_its_problem(tmp_path, monkeypatch, family):
    install_custom_module(tmp_path, monkeypatch)
    built = _BuiltProblem(resolve_config(FAMILY_CFGS[family]()))
    assert (built.law.family, built.dim, built.A is not None) == BUILT[family]
    integro = family == "integro"
    assert (built.kernel is built.law.kernel) if integro else built.kernel is None
    assert built.c == (1.0 if integro else None)


@pytest.mark.parametrize("kind", list(_FORCINGS))
@pytest.mark.parametrize("family", list(_FAMILY_KEYS))
def test_every_forcing_kind_builds_a_signal_of_the_problem(tmp_path, monkeypatch, family, kind):
    install_custom_module(tmp_path, monkeypatch)
    raw = FAMILY_CFGS[family]()
    if kind == "csv":  # a file on the problem's grid, of its dimension
        built = _BuiltProblem(resolve_config(raw))
        signal_to_csv(gaussian_pulse(built.grid, 0.5, 0.1, dim=built.dim), str(tmp_path / "f.csv"))
    raw["forcing"] = {"kind": kind, **({"path": "f.csv"} if kind == "csv" else {})}
    built = _BuiltProblem(resolve_config(raw, base_dir=str(tmp_path)))
    f = built.forcing()
    assert f.grid == built.grid and f.values.shape == (built.grid.n_steps, built.dim)
    assert (np.abs(f.values).max() > 0) == (kind != "zero")


@pytest.mark.parametrize("cfg, message", [
    (scalar_dae_cfg(kernel="garbage"), "unknown dae config keys: ['kernel']"),
    (scalar_dae_cfg(h=-1.0), "unknown dae config keys: ['h']"),
    (scalar_dae_cfg(mixed={"p": 24}), "unknown dae config keys: ['mixed']"),
    (scalar_dae_cfg(custom="garbage"), "custom must be a JSON object, got 'garbage'"),
    (integro_cfg(check_certified=True), "unknown integro config keys: ['check_certified']"),
], ids=["dae-kernel", "dae-h", "dae-mixed", "dae-custom", "integro-check_certified"])
def test_keys_the_family_does_not_read_exit_two(tmp_path, capsys, cfg, message):
    # each of these configs used to run and echo the key it never read
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_custom_refuses_unknown_keys():
    cfg = FAMILY_CFGS["custom"]()
    cfg["custom"]["args"] = [1]
    with pytest.raises(ConfigError, match=r"unknown custom keys: \['args'\]"):
        resolve_config(cfg)


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_kernel_mode_refuses_unknown_keys(tmp_path, capsys, command):
    cfg = integro_cfg()
    cfg["kernel"]["modes"][0]["scale"] = 2.0
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: unknown kernel.modes[0] keys: ['scale']")


@pytest.mark.parametrize("u0, message", [
    ("garbage", "u0 must be a finite [re, im] number array, got the entry 'garbage'"),
    ([[[1.0, 0.0]]], "u0 must be a list of [re, im] pairs"),
], ids=["string", "matrix"])
def test_solve_refuses_malformed_u0(tmp_path, capsys, u0, message):
    # solve never reads u0, but checks it as every command checks every leaf
    cfg = write_cfg(tmp_path, scalar_dae_cfg(u0=u0))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("center, width", [(0.5, 0.0), (0.51, 0.0), (0.5, -0.1)])
def test_pulse_width_not_positive_exits_two(tmp_path, capsys, center, width):
    # width 0 on a grid point was 0/0, off it a zero forcing that solve took
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "pulse", "center": center, "width": width}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: pulse width must be positive and finite, got {float(width)!r}")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_overflowing_weight_exits_two_naming_rho(tmp_path, capsys, command):
    # exp(-rho t) overflows at t0 = -100 and rho = 8: the message names rho
    # and the grid end, not the transform's non-finite values
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        grid={"t0": -100.0, "dt": 0.25, "n_steps": 1024}, rho=8.0,
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rho = 8.0 and the grid end t = 155.75" in capsys.readouterr().err


def test_positive_delay_offset_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(family="delay", h=1.0))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_overlapping_mixed_regions_exit_two(tmp_path):
    bad = mixed_cfg()
    bad["mixed"]["omega1"] = [0.2, 0.6]
    cfg = write_cfg(tmp_path, bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_help_and_missing_subcommand_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_out_directory_is_created_nested(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    out = str(tmp_path / "a" / "b" / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "solution.csv"))


@pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "below-a-file"])
def test_out_that_cannot_be_created_exits_two(tmp_path, capsys, below):
    cfg = write_cfg(tmp_path, scalar_dae_cfg())
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / below)  # "" leaves the file itself
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert "Traceback" not in err


def test_config_echo_is_resolved_and_sorted(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    raw = Path(out, "config_echo.json").read_text(encoding="ascii")
    echoed = json.loads(raw)
    assert echoed["forcing"]["amplitude"] == 1.0  # default filled in
    assert echoed["sampling"]["n_sigma"] == 200
    assert echoed["check_certified"] is True
    assert raw == json.dumps(echoed, indent=2, sort_keys=True) + "\n"


PULSE = {"kind": "pulse", "center": 0.5, "width": 0.1}
ECHO_CASES = {
    "dae": scalar_dae_cfg(nu=1.5, m0=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                          m1=[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                          a=[[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
                          u0=[[1.0, 0.0], [0.5, 0.0]], forcing=PULSE),
    "delay": scalar_dae_cfg(family="delay", m1=[[[3.0, 0.0]]], h=-1.0, forcing=PULSE),
    "integro": crossing_integro_cfg(),
    "mixed1d": {**mixed_cfg(), "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 512}},
    "custom": {"family": "custom", "custom": {"import": "cli_custom_laws:shifted"},
               "grid": {"t0": -1.0, "dt": 0.015625, "n_steps": 256}, "rho": 0.5, "nu": 0.5,
               "forcing": PULSE},
}


@pytest.mark.filterwarnings("ignore::evostab.EdgeMassWarning")
@pytest.mark.parametrize("family", sorted(ECHO_CASES))
def test_config_echo_loads_back(tmp_path, monkeypatch, family):
    # the echo holds only keys its family reads and no nulls, so it runs as a
    # config, echoes itself byte for byte and gives the same artifacts
    install_custom_module(tmp_path, monkeypatch)
    first, second = tmp_path / "first", tmp_path / "second"
    code = main(["verify", "--config", write_cfg(tmp_path, ECHO_CASES[family]),
                 "--out", str(first)])
    echo = str(first / "config_echo.json")
    assert main(["verify", "--config", echo, "--out", str(second)]) == code
    for name in ("config_echo.json", "solution.csv", "metadata.kv", "report.kv"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_python_dash_m_runs_without_install(tmp_path, package_env):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(nu=1.5))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "evostab", "certify",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert read_kv(out / "report.kv")["pass"] == "true"


def test_console_script_runs_reproducibly(tmp_path):
    exe = shutil.which("evostab")
    assert exe is not None, "console script should be installed"
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        nu=1.5,
        grid={"t0": -2.0, "dt": 0.015625, "n_steps": 512},
        rho=0.05,
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for out in outs:
        proc = subprocess.run([exe, "verify", "--config", cfg, "--out", out],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for name in ("solution.csv", "metadata.kv", "decay.kv", "report.kv",
                 "report.txt", "config_echo.json"):
        b1 = Path(outs[0], name).read_bytes()
        b2 = Path(outs[1], name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
