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

import numpy as np
import pytest

from evostab import TimeGrid, gaussian_pulse, signal_to_csv
from evostab.cli import main


def write_cfg(tmp_path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_kv(path) -> dict:
    pairs = {}
    for line in open(path, encoding="ascii"):
        key, _, value = line.strip().partition("=")
        pairs[key] = value
    return pairs


def kv_keys(path) -> list:
    return [line.split("=", 1)[0] for line in open(path, encoding="ascii")]


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
    assert "pass" in open(os.path.join(out, "report.txt")).read()


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


def test_solve_threads_flag_is_bitwise_stable(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "pulse", "center": 0.0, "width": 0.1}))
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["solve", "--config", cfg, "--out", out1]) == 0
    assert main(["solve", "--config", cfg, "--out", out2, "--threads", "4"]) == 0
    b1 = open(os.path.join(out1, "solution.csv"), "rb").read()
    b2 = open(os.path.join(out2, "solution.csv"), "rb").read()
    assert b1 == b2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
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


def test_ivp_rejects_delay_family(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(family="delay", h=-1.0,
                                             u0=[[1.0, 0.0]]))
    assert main(["ivp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


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


@pytest.mark.parametrize("sampling", [{"n_sigma": 0}, {"n_tau": -3}, {"sigma_max": -1.0}])
def test_bad_sampling_exits_two(tmp_path, capsys, sampling):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(sampling=sampling))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {next(iter(sampling))} must be")


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


def test_unknown_top_level_key_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(surprise=1))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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


def test_config_echo_is_resolved_and_sorted(tmp_path):
    cfg = write_cfg(tmp_path, scalar_dae_cfg(
        forcing={"kind": "pulse", "center": 0.5, "width": 0.1}))
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    raw = open(os.path.join(out, "config_echo.json"), encoding="ascii").read()
    echoed = json.loads(raw)
    assert echoed["forcing"]["amplitude"] == 1.0  # default filled in
    assert echoed["sampling"]["n_sigma"] == 200
    assert echoed["check_certified"] is True
    assert raw == json.dumps(echoed, indent=2, sort_keys=True) + "\n"


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
        b1 = open(os.path.join(outs[0], name), "rb").read()
        b2 = open(os.path.join(outs[1], name), "rb").read()
        assert b1 == b2, f"{name} differs between identical runs"
