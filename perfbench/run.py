"""evostab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mixed1d-verify --seed 1 --seconds 25 --trace 0

Runs the workload's CLI command (``evostab.cli.main``, in process, with the
default ``--threads 1`` and BLAS threads left at the environment default) as
a closed loop with one client: one untimed warm-up command, then commands
back to back until ``--seconds`` have passed.  Every command's artifacts are
checked (see ``checks.py``).  The program is imported from ``src/`` of the
checkout that holds this directory.

The end-to-end times (``cmd_p50_s``, ``cpu_s_per_cmd``, ``setup_s``) are
medians of host-speed-adjusted times (see ``hostspeed.py``): each command or
set-up is bracketed by a fixed probe and rescaled to the probe's nominal
speed.  The raw medians are printed on the ``samples`` line.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced commands (see ``spans.py``)
and holds the per-layer metrics.  Progress and machine facts go to the
earlier lines of standard output; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Inputs, the spans of a
traced run and the per-command samples are written to
``perfbench/_work/<workload>-seed<seed>-trace<trace>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

E2E_UNITS = {"cmd_p50_s": "s", "cpu_s_per_cmd": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "cli.cmd_s": "s", "cli.load_config_s": "s", "spatial.build_s": "s",
    "material.stack_s": "s", "material.stack_bytes": "bytes", "material.kernel_l1_s": "s",
    "material.symbol_evals": "count", "signals.forward_s": "s", "signals.inverse_s": "s",
    "signals.csv_write_s": "s", "signals.csv_bytes": "bytes", "solver.solve_s": "s",
    "solver.self_s": "s", "solver.freqs": "count", "solver.lu_flops": "flop",
    "certify.total_s": "s", "certify.scan_s": "s", "certify.scan_points": "count",
    "certify.closed_form_s": "s", "certify.kernel_conditions_s": "s", "certify.other_s": "s",
    "analysis.fit_s": "s", "analysis.samples_used": "count", "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(wl) -> list:
    """(wall s, probe s) of SETUP_REPEATS fresh-interpreter set-ups."""
    clock = hostspeed.Bracketed()
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, wl.config_path,
           wl.work_dir]
    times = []
    for _ in range(SETUP_REPEATS):
        _, wall, _, probe_s = clock.run(
            lambda: subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S))
        times.append((wall, probe_s))
    return times


def blas_threads():
    """Thread count of the first loaded OpenBLAS, or None if none answers."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    """Facts recorded with every result."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cli_threads": 1,  # the CLI default; the benchmark never passes --threads
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evostab", "cli.py")):
        print(f"benchmark: no evostab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import checks
    import spans
    import workloads
    from client import Client

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.path.insert(0, work)  # the generated custom-law module

    wl = workloads.generate(args.workload, args.seed, work)
    print(json.dumps({"machine": machine_facts()}), flush=True)
    print(json.dumps({"workload": wl.name, "seed": wl.seed, "command": wl.command,
                      "redraws": wl.redraws, "draw": wl.draw}), flush=True)

    setup = [] if args.trace else measure_setup(wl)
    client = Client(wl)
    tracer = spans.Tracer()

    problems = [f"warm-up: {p}" for p in client.check(client.run()[0])]

    plain, traced, failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not plain:
        for is_traced in ((False, True) if args.trace else (False,)):
            sample = client.run(tracer if is_traced else None)
            bad = client.check(sample[0])
            for p in bad:
                print(f"command {len(plain) + len(traced)}: {p}", file=sys.stderr)
            failed += bool(bad)
            (traced if is_traced else plain).append(sample)
    attempted = len(plain) + len(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if client.reference is not None:
        problems += [f"reference: {p}" for p in checks.check_reference(wl, client.reference)]
    elif wl.command == "verify":
        problems.append("reference: no verify command passed")
    for p in problems:
        print(p, file=sys.stderr)
    if problems:  # a failed warm-up or reference makes the whole run incorrect
        failed = attempted

    adjust = hostspeed.adjust
    if args.trace:
        per_cmd = [spans.layer_metrics(cmd, s[4]) for cmd, s in zip(tracer.commands, traced)]
        values = {k: statistics.median(m[k] for m in per_cmd) for k in per_cmd[0]}
        values["trace.overhead_s"] = (statistics.median(adjust(s[1], s[3]) for s in traced)
                                      - statistics.median(adjust(s[1], s[3]) for s in plain))
        units = LAYER_UNITS
        with open(os.path.join(work, "trace.json"), "w", encoding="ascii") as fh:
            json.dump({"workload": wl.name, "seed": wl.seed, "commands": tracer.commands}, fh)
    else:
        values = {"cmd_p50_s": statistics.median(adjust(s[1], s[3]) for s in plain),
                  "cpu_s_per_cmd": statistics.median(adjust(s[2], s[3]) for s in plain),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(adjust(*s) for s in setup)}
        units = E2E_UNITS
    samples = {"commands": len(plain), "traced_commands": len(traced), "setups": len(setup),
               "probe_s": statistics.median(s[3] for s in plain + traced)}
    raw = {"cmd_p50_s": statistics.median(s[1] for s in plain),
           "cpu_s_per_cmd": statistics.median(s[2] for s in plain)}
    if setup:
        raw["setup_s"] = statistics.median(s[0] for s in setup)
    with open(os.path.join(work, "samples.json"), "w", encoding="ascii") as fh:
        json.dump({"plain": plain, "traced": traced, "setup": setup}, fh)
    shutil.rmtree(client.out_dir, ignore_errors=True)

    print(json.dumps({"samples": samples, "raw": raw}), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
