"""Size of the crossflip package: ``wc -l`` lines and AST code lines.

AST code lines are the lines that hold a token of code, leaving out blank
lines, comment-only lines and module, class and function docstrings.

    python tools/src_size.py [package_dir]

prints one ``<file> <AST code lines>`` line per module of the package's
``*.py`` files (default: ``src/crossflip`` next to this script), then
``wc_l <lines>`` and ``ast_code_lines <lines>``, summed over them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def package_size(package: Path) -> tuple[int, dict[str, int]]:
    """(``wc -l`` lines summed over ``package/*.py``, AST code lines per
    file name)."""
    wc, ast_lines = 0, {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        wc += source.count("\n")
        ast_lines[path.name] = code_lines(source)
    return wc, ast_lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "crossflip")
    wc, ast_lines = package_size(package)
    for name, lines in ast_lines.items():
        print(f"{name} {lines}")
    print(f"wc_l {wc}")
    print(f"ast_code_lines {sum(ast_lines.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
