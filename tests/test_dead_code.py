"""Every helper of the library is read by library code.

Checked are every module-level function or class of `_numerics`, and every
`_`-prefixed one elsewhere in the package: something outside its own
definition must read it.  Public names of the other modules are the
package's interface and may be read only by callers.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fisshom"


def _reads(node) -> Counter:
    """Names read under `node`, as bare names or attributes."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def unread_definitions(sources: dict[str, str], checked) -> list[str]:
    """`module.name` of each module-level function or class of `sources`
    (module name to source text) that `checked(module, name)` selects and
    that no code reads outside its own definition."""
    reads = Counter()
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inner = _reads(node)
                inner.pop(node.name, None)
                reads += inner
                if checked(module, node.name):
                    defined.append((module, node.name))
            else:
                reads += _reads(node)
    return sorted(f"{m}.{name}" for m, name in defined if not reads[name])


def _checked(module: str, name: str) -> bool:
    return module == "_numerics" or name.startswith("_")


def test_detector_flags_only_unread_helpers():
    sources = {
        "_numerics": ("def used(x):\n    return x\n\n"
                      "def unused(x):\n    return used(x)\n\n"
                      "def recursive(n):\n    return recursive(n - 1)\n\n"
                      "class Kept:\n    pass\n"),
        "solver": ("from ._numerics import Kept\nimport _numerics\n\n"
                   "def public():\n    return _helper(Kept)\n\n"
                   "def _helper(k):\n    return _numerics.used(k)\n\n"
                   "def _orphan():\n    return public()\n"),
    }
    assert unread_definitions(sources, _checked) == [
        "_numerics.recursive", "_numerics.unused", "solver._orphan"]


def test_every_helper_has_a_library_reader():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources, _checked) == []
