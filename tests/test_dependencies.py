"""fogca runs on the standard library and `cryptography` alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"cryptography", "fogca"}


def test_only_stdlib_and_cryptography_imported():
    sources = sorted((SRC / "fogca").glob("*.py"))
    assert sources
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(f"{path.name}: {name}" for name in names
                           if name.split(".")[0] not in ALLOWED)
    assert not outside


def test_every_imported_name_is_used():
    # `__init__` imports only to re-export
    unused = set()
    for path in sorted((SRC / "fogca").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.update(f"{path.name}:{line}: {name}"
                      for name, line in imported.items() if name not in used)
    assert not unused


def test_import_loads_no_numpy():
    code = "import sys, fogca, fogca.cli\nprint('numpy' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.split() == ["False"]
