"""Run every workload of BENCHMARK.json untraced, then traced, and print all metrics.

    python3 perfbench/run_all.py [--seed 1] [--seconds 25]

Prints the machine facts, then each end-to-end metric by name with its unit
and sample count (``fail_frac`` is the result's failed / attempted), then the
per-layer metrics of the traced runs.  Exits 1 if any run failed or reported
an incorrect output.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON lines one run.py invocation printed, keyed by their first key."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace {trace}: run.py exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {next(iter(line)): line for line in lines}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    rows_e2e, rows_layer, machine = [], [], None
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = run(wl, args.seed, args.seconds, trace)
            machine = machine or out["machine"]["machine"]
            result, samples = out["correct"], out["samples"]["samples"]
            ok &= result["correct"]
            if trace:
                n = samples["traced_commands"]
                rows_layer += [(wl, k, m["value"], m["unit"], n) for k, m in result["metrics"].items()]
                continue
            counts = {"cmd_p50_s": samples["commands"], "cpu_s_per_cmd": samples["commands"],
                      "peak_rss_mb": 1, "setup_s": samples["setups"]}
            rows_e2e += [(wl, k, m["value"], m["unit"], counts[k])
                         for k, m in result["metrics"].items()]
            rows_e2e.append((wl, "fail_frac", result["failed"] / result["attempted"], "ratio",
                             result["attempted"]))

    print("machine: " + json.dumps(machine))
    for title, rows in (("end-to-end, tracing off", rows_e2e), ("per-layer, traced run", rows_layer)):
        print(f"\n{title} (seed {args.seed}, {args.seconds:g} s per run)")
        print(f"{'workload':16} {'metric':28} {'value':>16} {'unit':6} {'n':>4}")
        for wl, name, value, unit, n in rows:
            print(f"{wl:16} {name:28} {value:16.6g} {unit:6} {n:4d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
