"""Count code and docstring lines per module of src/anglepath.

A code line carries at least one token that is not a comment, a docstring
or layout (newline, indent, dedent); blank lines and comment-only lines
count as neither. A docstring line is a line of a module, class or
function docstring. Standard library only:

    python tools/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "anglepath"
    total_code = total_docs = 0
    print(f"{'module':<16}{'code':>6}{'docs':>6}")
    for path in sorted(root.glob("*.py")):
        code, docs = count(path)
        total_code += code
        total_docs += docs
        print(f"{path.name:<16}{code:>6}{docs:>6}")
    print(f"{'total':<16}{total_code:>6}{total_docs:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
