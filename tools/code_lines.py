#!/usr/bin/env python3
"""Count the code lines of a Python package: lines with a token other than a comment.

Blank lines, comment-only lines and the lines of module, class and function
docstrings are left out; every line a multi-line token spans counts. Prints
one line per module, its code lines first and then its docstring and
comment-only lines, the prose totals, and last the code total. Standard
library only.

Usage: python tools/code_lines.py [DIR]   (default: src/deanonlab)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def line_counts(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment-only) line counts of ``path``.

    Code lines hold a non-comment token outside every docstring; comment-only
    lines hold a comment and no other token.
    """
    docs = _docstring_lines(path.read_text())
    lines, comments = set(), set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == tokenize.COMMENT:
                comments.add(token.start[0])
            elif token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs), len(docs), len(comments - lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/deanonlab")
    total = docs = comments = 0
    for path in sorted(root.glob("*.py")):
        code, doc, comment = line_counts(path)
        total, docs, comments = total + code, docs + doc, comments + comment
        print(f"{code:6d}  {path.name:<20} {doc:5d} docstring {comment:4d} comment")
    print(f"{docs:6d}  docstring lines, {comments} comment lines")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
