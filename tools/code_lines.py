"""Print the code-only line count of each `src/circlecolor` module and the
total:

    python3 tools/code_lines.py

A line counts unless it is blank, holds only a comment, or belongs to a
docstring (a module, class or function body's first statement when that
is a string literal, found through `ast`).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "circlecolor"


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for k, line in enumerate(text.splitlines(), start=1)
               if k not in skip and line.strip() and not line.strip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
