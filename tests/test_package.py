"""The package holds only what the program runs, reads every name it imports,
and exports only names it defines.

Reference computations that only tests call live in tests/oracles.py.  The
benchmark is a program that runs the package, so it counts as a reader of
class members.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hqopt"
BENCHMARK = ROOT / "benchmark"
MODULES = sorted("hqopt" if p.stem == "__init__" else f"hqopt.{p.stem}" for p in SRC.glob("*.py"))


def _defined(node: ast.stmt) -> set:
    """The names a top-level statement defines: a function, a class or module constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def _named(node: ast.stmt) -> set:
    """Every identifier a statement reads or writes, attribute names included.

    An import does not count: a name imported and never used has no caller.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached_definitions(src: pathlib.Path) -> list:
    """Sorted (module, name) of each top-level definition in src/*.py that no live code names.

    A statement other than the definition itself and __all__ must name it.
    Once a definition is dropped, the helpers only it named drop too, so the
    scan repeats until nothing more drops out.
    """
    statements = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            exports = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            if not exports:
                statements.append((path.stem, _defined(node), _named(node)))
    dead = set()
    while True:
        used = set()
        for module, defined, named in statements:
            if not defined or any((module, name) not in dead for name in defined):
                used |= named - defined
        newly = {(module, name) for module, defined, _ in statements for name in defined
                 if name not in used} - dead
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_definition_has_a_program_caller():
    assert unreached_definitions(SRC) == []


def test_scan_follows_dead_helpers(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["dead", "used"]\n'
        "LIMIT = 3\n"
        "def helper():\n    return LIMIT\n"
        "def dead():\n    return helper() + dead()\n"
        "def used():\n    return 1\n"
        "def imported():\n    return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import imported, used\nVALUE = used()\nprint(VALUE)\n")
    assert unreached_definitions(tmp_path) == [
        ("a", "LIMIT"), ("a", "dead"), ("a", "helper"), ("a", "imported")]


def unread_members(src: pathlib.Path, program: pathlib.Path) -> list:
    """Sorted (module, class, name) of each method or property of a src/*.py class that nothing reads.

    A member is read when some file among src/*.py and the program's *.py
    (its test_*.py files excluded) names it as an attribute.  Dunder methods
    are called by Python itself and do not count.

    A read is matched by name alone, not by class: it counts for every
    member of that name, which is why shared_member_names must find none.
    A method whose name equals another class's dataclass field (for example
    ``n``, ``m`` or ``sense``) stays unattributable: a read of that field
    counts as a read of the method.
    """
    readers = sorted(src.glob("*.py")) + [p for p in sorted(program.glob("*.py"))
                                          if not p.name.startswith("test_")]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in readers]
    read = {sub.attr for tree in trees for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    return sorted((module, cls, name) for module, cls, name in _members(src) if name not in read)


def _members(src: pathlib.Path) -> list:
    """(module, class, name) of each method or property a top-level src/*.py class defines, dunders excluded."""
    out = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                out += [(path.stem, cls.name, node.name) for node in cls.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("__")]
    return out


def shared_member_names(src: pathlib.Path) -> list:
    """Sorted (name, classes) of each method or property name that two or more src/*.py classes define.

    classes is the sorted tuple of "module.Class" that define the name.
    """
    owners = {}
    for module, cls, name in _members(src):
        owners.setdefault(name, []).append(f"{module}.{cls}")
    return sorted((name, tuple(sorted(classes))) for name, classes in owners.items() if len(classes) > 1)


def test_every_member_has_a_program_reader():
    assert unread_members(SRC, BENCHMARK) == []


def test_member_scan_counts_program_reads(tmp_path):
    src, program = tmp_path / "src", tmp_path / "program"
    src.mkdir()
    program.mkdir()
    (src / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = 1\n"
        "    def used(self):\n        return self.v\n"
        "    @property\n    def shown(self):\n        return 2\n"
        "    def dead(self):\n        return 3\n"
        "    @staticmethod\n    def made():\n        return Box()\n"
        "print(Box().used())\n"
    )
    (program / "run.py").write_text("from a import Box\nprint(Box.made().shown)\n")
    (program / "test_run.py").write_text("from a import Box\nprint(Box().dead())\n")
    assert unread_members(src, program) == [("a", "Box", "dead")]


def test_no_two_classes_share_a_member_name():
    assert shared_member_names(SRC) == []


def test_shared_member_scan_flags_a_clash(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = 1\n"
        "    def dump(self):\n        return self.v\n"
        "    @property\n    def size(self):\n        return 1\n"
    )
    (tmp_path / "b.py").write_text(
        "class Crate:\n"
        "    def __init__(self):\n        self.v = 2\n"
        "    def dump(self):\n        return self.v\n"
        "class Bag:\n"
        "    def size(self):\n        return 3\n"
    )
    assert shared_member_names(tmp_path) == [("dump", ("a.Box", "b.Crate")), ("size", ("a.Box", "b.Bag"))]


def unread_imports(src: pathlib.Path) -> list:
    """Sorted (module, name) of each name a module in src/*.py imports and never reads.

    A name in the module's __all__ counts as read; __future__ imports do not count.
    """
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = set(), {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        out += [(path.stem, name) for name in imported - read]
    return sorted(out)


def test_every_import_is_read():
    assert unread_imports(SRC) == []


def test_import_scan_counts_exports(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from .b import kept, exported, unused\n"
        '__all__ = ["exported"]\n'
        "print(os.sep, kept)\n"
    )
    (tmp_path / "b.py").write_text("import sys\n")
    assert unread_imports(tmp_path) == [("a", "js"), ("a", "unused"), ("b", "sys")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
