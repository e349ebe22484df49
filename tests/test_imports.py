"""Every name a glie module imports is used in that module.

An import left behind when the code that used it is deleted keeps a
dependency alive that nothing needs, and hides from a reader that the
module no longer relies on it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glie"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = ("import random\n"
              "import numpy as np\n"
              "from .errors import TheoremViolation, SpecError\n"
              "def f(m: np.ndarray):\n"
              "    \"\"\"TheoremViolation is named only here.\"\"\"\n"
              "    raise SpecError(m)\n")
    assert unused_imports(source) == [(1, "random"), (3, "TheoremViolation")]


def test_src_modules_use_every_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: unused for name, unused in found.items() if unused} == {}
