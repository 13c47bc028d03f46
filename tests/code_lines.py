"""Count the code lines of Python modules: the lines that are not blank,
comments or docstrings.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER (a string spanning several lines holds each of
them), and it is not inside a module, class or function docstring.

Usage: ``python tests/code_lines.py src/substchaos`` prints the count of
each module of the directory and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.INDENT,
    tokenize.NEWLINE,
    tokenize.NL,
}
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT_TOKENS:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def main(directory):
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1])
