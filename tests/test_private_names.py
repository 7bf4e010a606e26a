"""No module of the package reads another's private names.

A name with one leading underscore belongs to the module or the object that
defines it. Inside the package, code reaches it only through ``self`` or
``cls``; another module imports or reads only public names. Dunder and
sunder names (``__new__``, ``_value_``) are the language's and ``enum``'s,
and the private names of modules outside the package (``numpy._core``) are
their maintainers' concern, not this package's.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import vitalwatch

PACKAGE = Path(vitalwatch.__file__).parent


def private(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return False  # dunder
    if name.startswith("_") and name.endswith("_") and not name.startswith("__"):
        return False  # sunder
    return name.startswith("_")


def violations(source: str, filename: str = "<source>") -> list[str]:
    """Each read of another module's or object's private name in
    ``source``, as ``file:line: code``."""
    tree = ast.parse(source, filename)
    outside: set[str] = set()  # names bound to modules outside the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "vitalwatch":
                    outside.add(alias.asname or alias.name.split(".")[0])
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "vitalwatch"
            if ours:
                found += [
                    f"{filename}:{node.lineno}: import {alias.name}"
                    for alias in node.names
                    if private(alias.name)
                ]
        elif isinstance(node, ast.Attribute) and private(node.attr):
            owner = node.value
            if isinstance(owner, ast.Name) and (
                owner.id in ("self", "cls") or owner.id in outside
            ):
                continue
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_reads_no_private_name_of_another(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []


def test_the_check_finds_each_kind_of_read():
    source = (
        "import numpy as np\n"
        "from numpy._core.multiarray import c_einsum\n"
        "from .engine import _GREEN, Verdict\n"
        "from vitalwatch.board import _ORANGE\n"
        "class Tile:\n"
        "    def apply(self, engine):\n"
        "        self._seen = engine._next + np._core.pi\n"
        "        return VerdictKind.GREEN._value_, type(self).__new__, cls._made\n"
    )
    assert violations(source) == [
        "<source>:3: import _GREEN",
        "<source>:4: import _ORANGE",
        "<source>:7: engine._next",
    ]
