"""Count the code lines of each module of the ``altschur`` package.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and the lines of docstrings (module, class and function)
do not count.  Standard library only.

Usage::

    python tools/loc.py [package-dir]

The default directory is ``src/altschur`` next to this script's parent.  One
line per module is printed, largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    skip = docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            # a multi-line token (a string) makes each of its lines code
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "altschur"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
