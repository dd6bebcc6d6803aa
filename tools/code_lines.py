"""Count the code lines of Python modules.

A code line holds a token other than a comment, a line break or an
indent (a string spanning several lines holds all of them), and is no
line of a module, class or function docstring.

    python tools/code_lines.py src [more paths]

prints the count of every module under the paths given, then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of the source text of one module."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, _DOCUMENTED) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths) -> int:
    files = sorted(f for p in map(Path, paths)
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src"]))
