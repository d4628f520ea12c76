"""Count the lines of each module of ``src/rlflab``.

    python tools/count_lines.py [SRC]

SRC is a package directory, ``src/rlflab`` of this tree when omitted.  For
each module, in descending order of total lines, prints its total lines
and its code lines: lines that are not blank, not comment-only and not
part of a docstring (the string that opens a module, class or function
body).  A last row sums them.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

DEFAULT_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rlflab"
)


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    total = len(source.splitlines())
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return total, len(code - skip)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = args[0] if args else DEFAULT_SRC
    rows = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                rows.append((name[:-3], *count(fh.read())))
    rows.sort(key=lambda row: (-row[1], row[0]))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    totals = (sum(r[1] for r in rows), sum(r[2] for r in rows))
    print(f"{'all':<{width}}  {totals[0]:>6,}  {totals[1]:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
