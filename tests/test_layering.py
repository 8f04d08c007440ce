"""Import rules between the library's layers, pinned.

Reference oracles live in ``tests/fhe/oracles.py``; the library must
never reach back for them (an installed package has no ``tests``).
The scheme (``repro.fhe``) and the cycle model (``repro.core``) sit
below checkpoint/replay recovery and never import it.
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
            # ``from a import b`` may import the module ``a.b``.
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_src_never_imports_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for name in _imported_modules(ast.parse(path.read_text())):
            if name == "tests" or name.startswith("tests."):
                offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert offenders == []


def test_fhe_and_core_never_import_recovery():
    offenders = []
    for layer in ("fhe", "core"):
        for path in sorted((SRC / layer).rglob("*.py")):
            for name in _imported_modules(ast.parse(path.read_text())):
                if name == "repro.reliability.recovery":
                    offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert offenders == []
