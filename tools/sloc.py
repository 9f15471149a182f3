"""Count raw and code lines per module of src/sparsepaving.

A code line holds at least one token other than a comment, NL,
NEWLINE, INDENT or DEDENT, and lies outside every module, class and
function docstring.  A string token that spans lines makes each of its
lines a code line.  After the modules it lists the five largest
functions by raw lines, from the def line to the last line of the body,
nested functions included in their parent and also listed on their own.
Standard library only.

Usage: python tools/sloc.py [package_dir]
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "sparsepaving"


def _docstring_lines(tree: ast.Module) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: Path) -> tuple[int, set[int], ast.Module]:
    """Raw line count, code line numbers and syntax tree of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), code - _docstring_lines(tree), tree


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT
    raw_total = code_total = 0
    funcs: list[tuple[int, int, str]] = []
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        raw, code, tree = count(path)
        raw_total += raw
        code_total += len(code)
        print(f"{path.name:<16}{raw:>7}{len(code):>7}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = range(node.lineno, node.end_lineno + 1)
                funcs.append((len(span), len(code.intersection(span)), f"{path.name}:{node.name}"))
    print(f"{'total':<16}{raw_total:>7}{code_total:>7}")
    print(f"\n{'largest functions':<32}{'raw':>7}{'code':>7}")
    for raw, code, name in sorted(funcs, key=lambda f: (-f[0], -f[1], f[2]))[:5]:
        print(f"{name:<32}{raw:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early, as `| head -1` does: stop quietly with exit 0;
        # stdout now points nowhere, so the final flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
