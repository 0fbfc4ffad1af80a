"""The README stays true to the library: its code stays runnable as far as
its imports go, and its snapshot section lists the files a save writes.  A
drift fails here, not for a reader."""

import ast
import re
from pathlib import Path

from irfkit.corpus_io import TermSequence
from irfkit.index import FORMAT_VERSION, build_index, save_index

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


def test_index_snapshots_lists_the_files_save_index_writes(tmp_path):
    section = README.read_text("utf-8").split("\n## Index snapshots\n", 1)[1].split("\n## ", 1)[0]
    assert f"format version {FORMAT_VERSION}:" in section
    file_list = next(block for block in section.split("\n\n") if block.startswith("* "))
    listed = re.findall(r"^\* `([^`]+)`", file_list, re.MULTILINE)
    save_index(build_index([TermSequence("D1", ("a",))]), tmp_path / "snap")
    assert sorted(listed) == sorted(path.name for path in (tmp_path / "snap").iterdir())
