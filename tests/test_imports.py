"""Every name a package module imports is used in that module, every
module-level function, class or constant is read somewhere in the package
outside its own definition (a re-export in __init__.py counts as a read),
every instance attribute a method stores (self.name = ...) is read as an
attribute somewhere under src/, and importing the package and its CLI
leaves scipy.stats and scipy.sparse.csgraph unloaded.

No linter ships with the project, so this parses each module with ast.
__init__.py is exempt from the import check: its imports are the package's
re-exports.
"""

import ast
import os
import subprocess
import sys
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
    """Names a statement reads, as bare names, as attributes or as the
    names a from-import takes."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _unread(sources, wanted):
    """module.name of each module-level definition, among those whose name
    passes wanted, that no other top-level statement of any module in
    sources ({module: source}) reads."""
    defined, statements = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            defined += [(module, name, node) for name in _top_level_names(node)
                        if wanted(name)]
    reads = [(node, _reads(node)) for node in statements]
    return sorted(f"{module}.{name}" for module, name, own in defined
                  if not any(name in names for node, names in reads if node is not own))


def unread_privates(sources):
    return _unread(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unread_publics(sources):
    return _unread(sources, lambda name: not name.startswith("_"))


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


def test_checker_finds_unread_publics():
    sources = {
        "a": "LIMIT = 3\ndef used(x):\n    return x\ndef exported():\n    pass\n"
             "def orphan():\n    return orphan()\nclass Kept:\n    pass\n",
        "b": "from .a import used\ndef run(x):\n    return used(x) + LIMIT, x.Kept\n",
        "__init__": "__version__ = '1'\nfrom .a import exported\nfrom .b import run\n",
    }
    assert unread_publics(sources) == ["a.orphan"]


def test_no_unread_public_definitions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_publics(sources) == []


def unread_attributes(sources):
    """module.name of each attribute stored on self (self.name = ..., also
    in a tuple target or an augmented assignment) in sources ({module:
    source}) that no attribute expression in sources reads."""
    stored, read = set(), set()
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if not isinstance(n, ast.Attribute):
                continue
            if isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif (isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                  and n.value.id == "self"):
                stored.add((module, n.attr))
    return sorted(f"{module}.{name}" for module, name in stored if name not in read)


def test_checker_finds_unread_attributes():
    sources = {
        "a": "class A:\n    def __init__(self, x):\n        self.kept, self.lost = x, x\n"
             "        self.total = 0\n        self.count = 0\n        self.table = {}\n"
             "    def add(self, k):\n        self.total += k\n        self.count += 1\n"
             "        self.table[k] = self.total\n",
        "b": "def use(a):\n    return a.kept\n",
    }
    assert unread_attributes(sources) == ["a.count", "a.lost"]


def test_no_unread_instance_attributes():
    sources = {str(p.relative_to(SRC.parent).with_suffix("")): p.read_text()
               for p in SRC.parent.rglob("*.py")}
    assert unread_attributes(sources) == []


def test_import_leaves_scipy_stats_unloaded():
    # A child process: other tests load scipy.stats into this one.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = ("import blockcomm, blockcomm.cli, sys; "
            "print([m for m in ('scipy.stats', 'scipy.sparse.csgraph') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
