"""Count the code lines of the gammasolve package, per module and in total.

A code line is a line that is not blank, is not a comment and does not lie
inside a module, class or function docstring.  Run from the root of a
source checkout:

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/gammasolve``.  The counts print as a Markdown table,
which a CI job can append to its summary.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The numbers of the lines that module, class and function docstrings
    span in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the text of one module."""
    docs = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and number not in docs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src/gammasolve")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.directory)
    modules = sorted(root.rglob("*.py"))
    if not modules:
        sys.exit(f"no Python modules under {root}")
    counts = [(path.relative_to(root).as_posix(), code_lines(path.read_text(encoding="utf-8")))
              for path in modules]
    counts.append(("total", sum(n for _, n in counts)))
    print(f"| {root.as_posix()} module | code lines |\n|---|---:|")
    for name, n in counts:
        print(f"| {name} | {n:,} |")


if __name__ == "__main__":
    main()
