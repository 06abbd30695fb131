"""Guards on the package source itself, read as syntax trees.

Every module-level private function, class and constant in
``src/momentbounds`` must be loaded somewhere in the package, by name or as
an attribute, outside its own definition.  A helper which only tests call
belongs in ``tests/``, beside the tests that call it.

Every name a module imports must be loaded by that module; ``__init__.py``,
which imports to re-export, and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "momentbounds"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(statement) -> list:
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    nodes = (node for target in targets for node in ast.walk(target))
    return [node.id for node in nodes if isinstance(node, ast.Name)]


def _loaded_names(statement) -> set:
    """The names a statement reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_private_names(source: Path = SOURCE) -> list:
    """Module-level private names of the package's modules that no
    statement of the package loads, apart from the one defining them."""
    statements = [
        (path.name, statement)
        for path in sorted(source.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    ]
    loads = [_loaded_names(statement) for _, statement in statements]
    unused = []
    for i, (module, statement) in enumerate(statements):
        for name in filter(_is_private, _defined_names(statement)):
            if not any(name in names for j, names in enumerate(loads) if j != i):
                unused.append(f"{module}:{name}")
    return unused


def test_every_private_name_is_used_in_the_package():
    assert unused_private_names() == []


def test_guard_flags_a_helper_only_tests_call(tmp_path):
    (tmp_path / "kept.py").write_text(
        "_LIMIT = 3\n"
        "_A, _B = 1, 2\n"
        "\n"
        "def _recurse(n):\n"
        "    return _recurse(n - 1) if n else 0\n"
        "\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "\n"
        "class _Box:\n"
        "    pass\n"
        "\n"
        "def public():\n"
        "    return _helper() + _A\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text(
        "from . import kept\n\nVALUE = kept._Box\n", encoding="utf-8"
    )
    assert unused_private_names(tmp_path) == ["kept.py:_B", "kept.py:_recurse"]


def _imported_names(tree) -> list:
    """The names a module's import statements bind, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return names


def unused_imports(source: Path = SOURCE) -> list:
    """Imported names that no statement of the importing module loads, in
    the package's modules other than ``__init__.py``."""
    unused = []
    for path in sorted(source.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += sorted(f"{path.name}:{name}" for name in _imported_names(tree) if name not in loaded)
    return unused


def test_every_import_is_used_by_its_module():
    assert unused_imports() == []


def test_guard_flags_an_import_its_module_never_loads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .kept import public\n", encoding="utf-8")
    (tmp_path / "kept.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence, Tuple\n"
        "\n"
        "def public(values: Sequence) -> float:\n"
        "    from json import dumps\n"
        "\n"
        "    return float(np.sum(values)) + len(dumps(os.sep))\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text("from . import kept\n\nVALUE = kept.math\n", encoding="utf-8")
    assert unused_imports(tmp_path) == ["kept.py:Mapping", "kept.py:Tuple", "kept.py:math"]
