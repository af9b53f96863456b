"""Print the line counts of the package source under src/.

Four counts: physical lines; code lines, the lines that are not blank, not
comment-only and not part of a module, class or function docstring (found
with ast); docstring lines; and comment-only lines outside docstrings.  Run
it from anywhere: ``python tools/src_lines.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main():
    physical = code = docstring = comment = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docs.update(range(first.lineno, first.end_lineno + 1))
        physical += len(lines)
        docstring += len(docs)
        for i, line in enumerate(lines, 1):
            if line.strip() and i not in docs:
                if line.lstrip().startswith("#"):
                    comment += 1
                else:
                    code += 1
    print(f"src/: {physical} physical lines, {code} code lines, "
          f"{docstring} docstring lines, {comment} comment lines")


if __name__ == "__main__":
    main()
