"""Every helper of the library is read by library code.

Checked are every module-level function or class of `_numerics`, and every
`_`-prefixed one elsewhere in the package: something outside its own
definition must read it.  Public names of the other modules are the
package's interface and may be read only by callers.  Every field of
`ExperimentConfig` must likewise be read, as an attribute, by library code
outside `config.py`, and every key of a section that it keeps as a dict, as
a string subscript of that section: a config key that no solver reads is
dead too.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from fisshom.config import _SCHEMA, ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "fisshom"


def _library_reads(reads) -> Counter:
    """The sum of `reads(tree)` over the package's modules but config.py."""
    out = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            out += reads(ast.parse(path.read_text()))
    return out


def _string_subscripts(node):
    """Each `x["key"]` read under `node`."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Subscript)
            and isinstance(n.ctx, ast.Load)
            and isinstance(n.slice, ast.Constant)
            and isinstance(n.slice.value, str)]


def _section_reads(tree) -> Counter:
    """`(section, key)` of each string subscript of an attribute under
    `tree`: `x.section["key"]`, or `alias["key"]` inside a function that
    binds `alias = x.section`."""
    out = Counter((n.value.attr, n.slice.value)
                  for n in _string_subscripts(tree)
                  if isinstance(n.value, ast.Attribute))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            aliases = {a.targets[0].id: a.value.attr for a in ast.walk(fn)
                       if isinstance(a, ast.Assign) and len(a.targets) == 1
                       and isinstance(a.targets[0], ast.Name)
                       and isinstance(a.value, ast.Attribute)}
            out.update((aliases[n.value.id], n.slice.value)
                       for n in _string_subscripts(fn)
                       if isinstance(n.value, ast.Name)
                       and n.value.id in aliases)
    return out


def _reads(node, bare: bool = True) -> Counter:
    """Names read under `node`, as attributes and, with `bare`, as bare
    names."""
    out = Counter()
    for n in ast.walk(node):
        if bare and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
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


def test_every_config_field_has_a_library_reader():
    reads = _library_reads(lambda tree: _reads(tree, bare=False))
    names = [f.name for f in fields(ExperimentConfig)]
    assert [name for name in names if not reads[name]] == []


def test_every_config_dict_key_has_a_library_reader():
    reads = _library_reads(_section_reads)
    sections = [f.name for f in fields(ExperimentConfig) if f.type == "dict"]
    assert sections == ["flow", "transport", "ergodic", "sweep"]
    unread = [f"{s}.{key}" for s in sections for key in _SCHEMA[s]
              if not reads[(s, key)]]
    assert unread == []


def test_section_reads_are_counted_per_section():
    tree = ast.parse(
        "def flow(cfg):\n    f = cfg.flow\n    return f['shape']\n\n"
        "def transport(cfg, report):\n"
        "    return cfg.transport['porosity'], report['depth']\n")
    assert _section_reads(tree) == Counter({
        ("flow", "shape"): 1, ("transport", "porosity"): 1})
