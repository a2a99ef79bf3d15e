"""The code-line counter ``tools/code_lines.py``: blank lines, comment lines
and module, class and function docstrings do not count."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment keeps its line

# a comment line
def f(x):
    """One line."""
    s = """a string
that is not a docstring"""
    return s


class C:
    """Class
    docstring."""
    y = 1
'''


def test_counts_only_code_lines():
    # import, def, the two string lines, return, class, y = 1
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    rows = capsys.readouterr().out.splitlines()
    assert rows[2:] == ["| a.py | 7 |", "| b.py | 1 |", "| total | 8 |"]
