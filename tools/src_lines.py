"""Count the code lines of a source tree, per module and in total.

    python3 tools/src_lines.py [SRC] [SRC2]

SRC (default: the ``src/`` beside this script) is a directory of Python
modules, searched recursively.  A code line is a line that is not blank,
not a comment alone and not part of a docstring: the string constant that
opens a module, class or function body, found by the AST.  With SRC2 the
report gives both counts and the difference SRC2 - SRC, per module and in
total; a module present in one tree alone counts 0 in the other.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The code lines of one module's source text."""
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def count_tree(src: Path) -> dict:
    """{module path relative to src: code lines} for every .py file under src."""
    return {str(path.relative_to(src)): code_lines(path.read_text())
            for path in sorted(src.rglob("*.py"))}


def main(argv) -> int:
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [count_tree(Path(a)) for a in argv] or [count_tree(ROOT / "src")]
    modules = sorted(set().union(*trees))
    width = max(len(m) for m in modules + ["total"])
    for name in modules + ["total"]:
        counts = [sum(t.values()) if name == "total" else t.get(name, 0) for t in trees]
        row = "".join(f"{c:>8,}" for c in counts)
        if len(counts) == 2:
            row += f"{counts[1] - counts[0]:>+8,}"
        print(f"{name:<{width}}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
