"""Print the code lines of each module of a package and their total.

    python tools/loc.py SRC_DIR

SRC_DIR is a directory of Python files, such as `src/bqtsim`; every `*.py`
under it is counted. A code line is a physical line that holds part of a
token other than a comment, and that is not part of a docstring (the
leading string of a module, class or function body). So blank lines,
comment lines and docstrings are not counted; a line of code with a
trailing comment is. When the reader of a stdout pipe is gone (as with
`| head`), it exits with status 141, as SIGPIPE would give, with nothing
on stderr. Needs the standard library only; it is not part of the test
suite.
"""
from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE}
_SKIP |= {tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The physical lines of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[1])
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.relative_to(root)}  {n}")
    print(f"total  {total}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device, so the flush at exit cannot fail
        # again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
