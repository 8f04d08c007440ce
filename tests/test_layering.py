"""The library stands alone: nothing under src/repro imports the tests.

Reference oracles live in ``tests/fhe/oracles.py``; the library must
never reach back for them (an installed package has no ``tests``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_src_never_imports_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for name in _imported_modules(ast.parse(path.read_text())):
            if name == "tests" or name.startswith("tests."):
                offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert offenders == []
