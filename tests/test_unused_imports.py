"""Every name a library module imports is used in that module.

`__init__.py` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fisshom"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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
