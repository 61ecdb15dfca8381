import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: 5 (import), 9-12 (one statement over four lines), 15 (def)
# and 17 (return). The docstrings, the comment and the blank lines do not
# count; the string on line 11 is part of a statement, not a docstring.
SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math


# another comment
VALUES = (
    1,  # a trailing comment
    "not a docstring",
)


def f(x):
    """One line."""
    return math.sqrt(x)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_largest_first_then_the_total(tmp_path, capsys):
    (tmp_path / "big.py").write_text(SOURCE)
    (tmp_path / "small.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "big 7\nsmall 1\ntotal 8\n"
