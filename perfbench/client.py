"""The benchmark's one client: runs a workload's CLI command and checks it."""
from __future__ import annotations

import importlib
import os
import shutil
import sys
import traceback

import checks
import hostspeed
from evostab.cli import main as cli_main
from workloads import CUSTOM_MODULE, Workload


class Client:
    """Runs the workload's command in process and checks its artifacts.

    For the custom law, the generated factory module must be importable; its
    ``TALLY`` counts the law's symbol evaluations.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.clock = hostspeed.Bracketed()
        self.out_dir = os.path.join(wl.work_dir, "out")
        custom = wl.raw["family"] == "custom"
        self._tally = importlib.import_module(CUSTOM_MODULE).TALLY if custom else None
        self.c_ref = checks.custom_c_ref(wl) if custom else None
        self.reference = None  # solution of the first verify command that passed

    def run(self, tracer=None):
        """One command: (exit code or None, wall s, cpu s, probe s, symbol evals)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [self.wl.command, "--config", self.wl.config_path, "--out", self.out_dir]

        def call():
            if tracer is None:
                return _main(argv)
            with tracer.command():
                return _main(argv)

        evals0 = self._tally.count if self._tally else 0
        code, wall, cpu, probe_s = self.clock.run(call)
        evals = (self._tally.count if self._tally else 0) - evals0
        return code, wall, cpu, probe_s, evals

    def check(self, code) -> list:
        """Problems with the last command's outcome; empty when it is correct."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            if self.wl.command == "certify":
                return checks.check_certify(self.wl, self.out_dir, self.c_ref)
            problems, u = checks.check_verify(self.wl, self.out_dir, self.reference)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable artifacts: {exc!r}"]
        if self.reference is None and not problems:
            self.reference = u
        return problems


def _main(argv):
    try:
        return cli_main(argv)
    except Exception:  # a crash is a failed command, not a failed run
        traceback.print_exc(file=sys.stderr)
        return None
