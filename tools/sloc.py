"""Count logical source lines and law-type ``isinstance`` branches.

A logical line is a non-blank line that holds code: lines that hold only
comments, and the lines of module, class and function docstrings, do not
count, so editing a docstring cannot move the number.  A law-type branch
is an ``isinstance`` call whose class argument names a class ending in
``Law`` (``DaeLaw``, ``MaterialLaw``, ...).

Usage::

    python tools/sloc.py src/evostab

prints one ``<file> <logical lines> <isinstance branches>`` line per
``.py`` file under the given tree, then the totals.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _names(node: ast.AST) -> list:
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def count(source: str) -> tuple:
    """(logical lines, law-type isinstance branches) of one module's source."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    branches = sum(
        1 for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(name.endswith("Law") for name in _names(node.args[1])))
    return len(code - _docstring_lines(tree)), branches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="source tree, e.g. src/evostab")
    args = parser.parse_args()
    total_lines = total_branches = 0
    for root, _, files in sorted(os.walk(args.tree)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                lines, branches = count(fh.read())
            print(f"{os.path.relpath(path, args.tree)} {lines} {branches}")
            total_lines += lines
            total_branches += branches
    print(f"total {total_lines} {total_branches}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
