"""Count the code lines of the library: the non-blank lines of each
``src/systolic/*.py`` module that hold a token outside docstrings and
comments.

A line counts when ``tokenize`` finds a token on it other than a comment
or layout (newlines, indents, dedents); a string spanning several lines
counts on each of them.  The lines of every module, class and function
docstring, as ``ast`` finds them, are left out.  Stdlib only.

Usage: ``python tests/code_lines.py [SRC_DIR]``.  It prints one line per
module and the total last, and reads ``src/systolic`` next to ``tests/``
by default.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The code lines of one module."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, filename=path)))


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(here), "src", "systolic")
    counts = {os.path.basename(p): code_lines(p) for p in sorted(glob.glob(os.path.join(src, "*.py")))}
    if not counts:
        print(f"no modules under {src}", file=sys.stderr)
        return 1
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
