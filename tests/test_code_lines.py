"""The code-line counter (tools/code_lines.py) counts what it says."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code


def f(x):
    """A function docstring."""
    # a comment alone
    text = """a string
over two lines"""
    return (x,
            text)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     6  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}",
        "     7  total"]
