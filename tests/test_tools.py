"""Invariants of the source tree checked through the scripts in ``tools/``."""
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import types

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


# Exported names that no pipeline needs to reach, each kept for a reason.
UNREACHED_EXPORTS = {
    "derivative": "the transform calculus of the acceptance suite's headline guarantees",
    "antiderivative": "the transform calculus of the acceptance suite's headline guarantees",
    "translate": "the transform calculus of the acceptance suite's headline guarantees",
    "weighted_inner": "the transform calculus of the acceptance suite's headline guarantees",
    "kernel_hat": "the paper's Chat, checked against quadrature by the acceptance suite",
}


def _references(node, enclosing=frozenset()):
    """Yield (name, enclosing) for every name that ``node`` loads, reads as an
    attribute, imports or spells as a string constant, where ``enclosing``
    holds the names of the functions and classes around the reference."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield (node.asname or node.name).rsplit(".", 1)[-1], enclosing
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, enclosing  # perfbench/spans.py names its trace targets as strings
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_exported_name_is_reached():
    # a name the package exports is used by the package itself, a tool or
    # the benchmark, not only by tests, and outside its own definition; a
    # test oracle lives in tests/_oracles.py
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        init = ast.parse(fh.read())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert set(UNREACHED_EXPORTS) <= set(exported)
    paths = [os.path.join(PACKAGE, n) for n in os.listdir(PACKAGE)
             if n.endswith(".py") and n != "__init__.py"]
    for top in (TOOLS, os.path.join(os.path.dirname(TOOLS), "perfbench")):
        paths += [os.path.join(d, n) for d, _, names in os.walk(top) for n in names
                  if n.endswith(".py")]
    reached = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reached.update(name for name, enclosing in _references(ast.parse(fh.read()))
                           if name not in enclosing)
    assert [name for name in exported
            if name not in reached and name not in UNREACHED_EXPORTS] == []


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


def test_rate_reprs_runs_on_the_package():
    # tools/rate_reprs.py diffs the closed-form rates and the custom laws'
    # sampled minima of two source trees; it must keep running on this one's
    # API: per family two draws, each a rate repr or a ValueError, an L1
    # column on each integro line, the count of integro rates below nu0, then
    # two custom lines of two minima each, at nu = 0 and at a drawn nu > 0
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "rate_reprs.py"),
                           "--src", os.path.dirname(PACKAGE), "--draws", "2"],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[:6]] == [
        f"{family}-{k}" for family in ("dae", "delay", "integro") for k in (0, 1)]

    def is_rate(value):  # a float's repr, or "<error type>: <message>"
        return re.fullmatch(r"\w+Error: .+", value) or repr(float(value)) == value

    values = [line.split(" ", 1)[1] for line in lines[:6]]
    integro = [value.rsplit(" ", 1) for value in values[4:]]
    assert all(re.fullmatch(r"\d\.\d{12}e[+-]\d\d", l1) for _, l1 in integro), lines[4:6]
    assert all(map(is_rate, values[:4] + [value for value, _ in integro])), lines
    below = sum(value != repr(0.5) for value, _ in integro)
    assert lines[6] == f"integro draws below nu0: {below}"
    custom = [line.split() for line in lines[7:]]
    assert [words[0] for words in custom] == ["custom-0", "custom-1"]
    assert all(len(words) == 3 and all(repr(float(v)) == v for v in words[1:])
               for words in custom), lines[7:]


def _read_only_module(path: str, name: str) -> types.ModuleType:
    """The module at ``path``, executed from its source: no bytecode cache
    is written beside it."""
    module = types.ModuleType(name)
    module.__file__ = path
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


# The traced names that these two commands do not reach: only the dense core
# builds the operator stack, and the integro certificate reads the kernel's
# own admissibility report rather than check_kernel_conditions.
UNTRACED = {"material.frequency_operator_stack", "certify.check_kernel_conditions"}
TRACE_CASES = {
    "mixed1d": {"family": "mixed1d",
                "mixed": {"p": 16, "c": 1.0, "omega0": [0.0, 0.3], "omega1": [0.3, 0.6]},
                "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024}, "rho": 0.05,
                "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1}},
    "integro": {"family": "integro",
                "kernel": {"modes": [{"gamma": [[[0.25, 0.0]]], "beta": 1.0}], "nu0": 0.5},
                "c": 1.0, "a": [[[0.0, 1.0]]],
                "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024}, "rho": 0.05,
                "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1}},
}


def test_benchmark_trace_targets_resolve_and_fire(tmp_path):
    # perfbench/spans.py wraps the package's functions by (module, name); a
    # renamed name, or a call path that no longer goes through it, would read
    # 0 in the benchmark's layer metrics without an error
    from evostab.cli import main

    spans = _read_only_module(os.path.join(os.path.dirname(TOOLS), "perfbench", "spans.py"),
                              "perfbench_spans")
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in spans.TARGETS
               if not hasattr(mod, attr)]
    assert missing == []
    tracer = spans.Tracer()
    for family, cfg in TRACE_CASES.items():
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(cfg))
        with tracer.command():
            code = main(["verify", "--config", str(path), "--out", str(tmp_path / family)])
        assert code == 0, family
    fired = {span[0] for command in tracer.commands for span in command}
    assert {name for _, _, name, _ in spans.TARGETS} - UNTRACED - fired == set()
