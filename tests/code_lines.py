"""Line counts of the package: raw, and code only.

For each ``src/srgate/*.py`` file and for their total, prints the raw
line count (what ``wc -l`` reports) and the number of code lines: every
line that holds a token of a statement, after dropping docstrings (the
leading string of a module, class or function body), comments and blank
lines. A line that holds code and a trailing comment is a code line; a
string that is not a docstring counts on every line it spans.

Run from the root of a checkout (stdlib only; pytest does not collect it):

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srgate"

# tokens that are layout, not code
_LAYOUT = frozenset(
    {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
     tokenize.ENDMARKER, tokenize.ENCODING}
)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of `source` (see the module docstring)."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total_raw = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raw, code = len(source.splitlines()), code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d}  {path.name}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
