"""The README's code stays runnable as far as its imports go: a name deleted
from the library but still shown there fails here, not for a reader."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_every_readme_import_resolves():
    statements = [
        ast.unparse(node)
        for block in PYTHON_BLOCK.findall(README.read_text("utf-8"))
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "irfkit"
    ]
    assert statements, "no `from irfkit... import` in the README's python blocks"
    for statement in statements:
        exec(statement, {})
