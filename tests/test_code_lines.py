"""The line counts of tools/code_lines.py, on a small module written for the test."""

import types
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# A comment-only line.
X = (1,  # a trailing comment
     2)


def f():
    """One docstring line."""

    return """a string
that is code"""
'''


def load_tool():
    # Executed from its source text, so nothing is written next to it.
    tool = types.ModuleType("code_lines")
    exec(compile(PATH.read_text(), str(PATH), "exec"), vars(tool))
    return tool


def test_counts_code_docstring_and_comment_only_lines(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE)
    tool = load_tool()
    # Code: X's two lines, the def, the return's two lines.
    assert tool.line_counts(tmp_path / "mod.py") == (5, 3, 1)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     5  mod.py                   3 docstring    1 comment",
        "     3  docstring lines, 1 comment lines",
        "     5  total",
    ]
