"""One set-up from a fresh interpreter, timed by the caller as ``setup_s``.

Imports ``evostab.cli``, runs ``load_config`` and builds the law and
operator, then exits.

    python3 perfbench/setup_probe.py <checkout root> <config.json> <work dir>
"""
import os
import sys

root, config, work = sys.argv[1:4]
sys.path[:0] = [os.path.join(root, "src"), work]

from evostab.cli import _BuiltProblem, load_config  # noqa: E402

_BuiltProblem(load_config(config))
