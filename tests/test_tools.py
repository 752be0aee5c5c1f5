"""Invariants of the source tree checked through the scripts in ``tools/``."""
import importlib.util
import os

import pytest

import evostab

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
PACKAGE = os.path.dirname(os.path.abspath(evostab.__file__))


_spec = importlib.util.spec_from_file_location("sloc", os.path.join(TOOLS, "sloc.py"))
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)


def test_sloc_counts_law_type_isinstance():
    count = sloc.count
    assert count("isinstance(law, DaeLaw)\n") == (1, 1)
    assert count("isinstance(law, (material.IntegroLaw, float))\n") == (1, 1)
    assert count("isinstance(a, SpatialOperator)\n") == (1, 0)


@pytest.mark.parametrize("module", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")))
def test_no_law_type_isinstance(module):
    # family dispatch lives in the law classes: callers ask law.family
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert sloc.count(fh.read())[1] == 0
