"""Print the line counts of the package source under src/.

Four counts: physical lines; code lines, the lines that are not blank, not
comment-only and not part of a module, class or function docstring (found
with ast); docstring lines; and comment-only lines outside docstrings.  One
line per module, then the totals.  Run it from anywhere:
``python tools/src_lines.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def counts(text):
    """(physical, code, docstring, comment) lines of one module's text."""
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = comment = 0
    for i, line in enumerate(lines, 1):
        if line.strip() and i not in docs:
            if line.lstrip().startswith("#"):
                comment += 1
            else:
                code += 1
    return len(lines), code, len(docs), comment


def main():
    total = [0, 0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        c = counts(path.read_text())
        total = [a + b for a, b in zip(total, c)]
        print(f"{path.relative_to(SRC)}: {c[0]} physical, {c[1]} code, "
              f"{c[2]} docstring, {c[3]} comment")
    print(f"src/: {total[0]} physical lines, {total[1]} code lines, "
          f"{total[2]} docstring lines, {total[3]} comment lines")


if __name__ == "__main__":
    main()
