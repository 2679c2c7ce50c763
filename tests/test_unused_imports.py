"""Every name a library or test module imports is used in that module.

The package's `__init__.py` is left out: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fisshom"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the source
    reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nimport scipy.sparse\n"
              "from math import pi, tau\nx: np.ndarray = scipy.sparse.eye(pi)\n")
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_import(module):
    assert unused_imports((TESTS / module).read_text()) == []
