"""Invariants of the source tree checked through the scripts in ``tools/``."""
import ast
import importlib.util
import os
import re

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


def _private_definitions(tree):
    """Underscore names, dunders apart, that a module defines: module-level
    functions, classes and assignments, and the methods (cached properties
    included) of its classes."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (n.id for t in node.targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and private(n.id))
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body
                        if isinstance(f, ast.FunctionDef) and private(f.name))


def test_no_dead_private_names():
    # every private name is used somewhere in the package besides where it is
    # defined: more whole-word matches in the package's source than definitions
    sources = []
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            sources.append(fh.read())
    defined = [name for source in sources for name in _private_definitions(ast.parse(source))]
    text = "\n".join(sources)
    dead = sorted({name for name in defined
                   if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= defined.count(name)})
    assert dead == []


def test_readme_family_table_is_the_cli_schema():
    # README's table of the keys each family requires and may carry restates
    # evostab.cli._FAMILY_KEYS, row for row and in order
    from evostab.cli import _FAMILY_KEYS

    with open(os.path.join(os.path.dirname(TOOLS), "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| family | requires | may carry |\n|---|---|---|\n", 1)[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        family, required, optional = (re.findall(r"`(\w+)`", cell)
                                      for cell in line.strip("|").split("|"))
        rows[family[0]] = (tuple(required), tuple(optional))
    assert list(rows.items()) == [(family, (required, optional))
                                  for family, (required, optional, _) in _FAMILY_KEYS.items()]
