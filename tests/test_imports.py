"""Every name a package module imports is used in that module, and every
module-level private function, class or constant is read somewhere in the
package outside its own definition.

No linter ships with the project, so this parses each module with ast.
__init__.py is exempt from the import check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockcomm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    # `np.zeros` is an Attribute over the Name `np`, so this covers modules.
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom math import log, exp\nnp.zeros(log(2))\n"
    assert unused_imports(source) == ["exp", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(node):
    """Names a statement reads, as bare names or as attributes."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unread_privates(sources):
    """module.name of each module-level _private definition that no other
    top-level statement of any module in sources ({module: source}) reads."""
    defined, statements = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            defined += [(module, name, node) for name in _top_level_names(node)
                        if name.startswith("_") and not name.startswith("__")]
    reads = [(node, _reads(node)) for node in statements]
    return sorted(f"{module}.{name}" for module, name, own in defined
                  if not any(name in names for node, names in reads if node is not own))


def test_checker_finds_unread_privates():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _self_only():\n    return _self_only()\n"
             "class _Kept:\n    pass\n__version__ = '1'\n",
        "b": "from .a import _USED\ndef public(x):\n    return x._Kept, _USED\n",
    }
    assert unread_privates(sources) == ["a._UNUSED", "a._self_only"]


def test_no_unread_private_definitions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_privates(sources) == []
