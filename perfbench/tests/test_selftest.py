"""Self-test of the benchmark: corrupted outputs count as failures, and the
runner prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import workloads  # noqa: E402
from client import Client  # noqa: E402


def _client(name, tmp_path, n_steps=None):
    work = str(tmp_path / name)
    os.makedirs(work)
    wl = workloads.generate(name, 3, work)
    if n_steps:  # a shorter grid keeps the test quick; the checks are the same
        wl.raw["grid"]["n_steps"] = n_steps
        wl.write()
    if wl.raw["family"] == "custom":
        sys.path.insert(0, work)
        sys.modules.pop(workloads.CUSTOM_MODULE, None)
    return Client(wl)


def _edit_kv(path, key, value):
    pairs = checks.read_kv(path)
    pairs[key] = value
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in pairs.items())


def _scale_solution_row(path, row, factor):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[1:] = [repr(float(c) * factor) for c in cells[1:]]
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def verify_client(tmp_path):
    client = _client("mixed1d-verify", tmp_path, n_steps=1024)
    assert client.check(client.run()[0]) == []  # becomes the reference
    assert checks.check_reference(client.wl, client.reference) == []
    assert client.check(client.run()[0]) == []
    return client


def _peak_row(client):
    return int(np.argmax(np.abs(client.reference).max(axis=1)))


@pytest.mark.parametrize("corrupt", [
    lambda c: _scale_solution_row(os.path.join(c.out_dir, "solution.csv"), _peak_row(c), 1 + 1e-6),
    lambda c: _edit_kv(os.path.join(c.out_dir, "report.kv"), "pass", "false"),
    lambda c: _edit_kv(os.path.join(c.out_dir, "metadata.kv"), "residual", "1e-5"),
    lambda c: _edit_kv(os.path.join(c.out_dir, "decay.kv"), "fitted_rate", "0.5"),
    lambda c: os.remove(os.path.join(c.out_dir, "decay.kv")),
], ids=["solution", "report", "residual", "decay", "missing"])
def test_corrupted_verify_output_is_a_failure(verify_client, corrupt):
    code = verify_client.run()[0]
    corrupt(verify_client)
    assert verify_client.check(code)


def test_corrupted_reference_solution_is_a_failure(verify_client):
    bad = verify_client.reference.copy()
    bad[_peak_row(verify_client)] *= 1.0 + 1e-6
    assert checks.check_reference(verify_client.wl, bad)


def test_corrupted_integro_reference_is_a_failure(tmp_path):
    client = _client("integro-verify", tmp_path)
    assert client.check(client.run()[0]) == []
    assert checks.check_reference(client.wl, client.reference) == []
    bad = client.reference.copy()
    bad[_peak_row(client)] *= 1.0 + 1e-6
    assert checks.check_reference(client.wl, bad)


def test_corrupted_certify_report_is_a_failure(tmp_path):
    client = _client("custom-certify", tmp_path)
    code, *_, evals = client.run()
    assert client.check(code) == []
    assert evals >= 200 * 401
    c_ref = client.c_ref
    _edit_kv(os.path.join(client.out_dir, "report.kv"), "c_nu_sampled", repr(c_ref * (1 + 1e-6)))
    assert client.check(code)
    assert client.check(1)


def _result(args, root):
    """Exit code and stdout lines of the run.py under ``root``, run from there."""
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_the_declared_metrics(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    code, lines = _result(["--workload", "custom-certify", "--seed", "5", "--seconds", "1",
                           "--trace", str(trace)], ROOT)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for line in lines[:-1]:
        assert set(json.loads(line)) <= {"machine", "workload", "seed", "command", "redraws",
                                         "draw", "samples", "raw"}


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = _result(["--workload", "custom-certify", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_same_seed_same_inputs(tmp_path):
    a, b = (workloads.generate("integro-verify", 7, str(tmp_path)).raw for _ in range(2))
    assert a == b
    c = workloads.generate("integro-verify", 8, str(tmp_path)).raw
    assert c != a
