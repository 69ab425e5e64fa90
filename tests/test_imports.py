"""Every name a pentads module imports is used in that module, every
private helper it defines is referenced there, and every public one is
named somewhere.

No linter runs on this tree, so these stdlib ast checks stand in for three
rules.  The unused-import rule: a name bound by an import must be read
somewhere in the module, or re-exported through __all__; an import line
marked `# noqa: F401` is exempt.  The dead-helper rule: a module-level
function or class whose name starts with one underscore must be named
somewhere else in its own module, since nothing outside should reach it;
and a method must be read as an attribute somewhere in the package, be a
dunder, be named "Class.method" in perfbench/tracer.py, or be one of the
TEST_VIEWS that the differential tests read, so that no member only tests
call creeps back in.  The unnamed-public rule: a module-level function or
class without a leading underscore must be named elsewhere in the package,
be listed in pentads.__all__, or be named in perfbench/tracer.py.

Every process pays for what importing pentads pulls in, so a test also
keeps dataclasses (with inspect, ast, dis and tokenize behind it) out of a
fresh `import pentads.cli`, and others pin which pentads modules each
entry point loads and that the lazy package serves each exported name from
its home module.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pentads

SRC = Path(pentads.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_exempt_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "from re import compile  # noqa: F401\n"
              "__all__ = ['loads']\n"
              "print(osp)\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


def unreferenced_private(source):
    """(line, name) of each module-level _private function or class that the
    module never names outside its own definition."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            elsewhere = {n.id for other in tree.body if other is not node
                         for n in ast.walk(other) if isinstance(n, ast.Name)}
            if node.name not in elsewhere:
                out.append((node.lineno, node.name))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_private_helper_is_referenced(module):
    assert unreferenced_private((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_unreferenced_helpers():
    source = ("def _used():\n"
              "    return 1\n"
              "def _dead():\n"
              "    return _dead\n"
              "class _Dead:\n"
              "    pass\n"
              "class _Kept:\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    return name\n"
              "def public():\n"
              "    return _used() + _Kept.x\n")
    assert unreferenced_private(source) == [(3, "_dead"), (5, "_Dead")]


# methods the differential tests read and the package does not
TEST_VIEWS = ("GradedAlgebra.component_maps", "GradedAlgebra.action_matrices",
              "Matrix.flat", "Matrix.zeros")
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def unread_methods(sources, exempt):
    """"Class.method" of each method defined at class level in the sources
    whose name no attribute read outside its own body uses, leaving out
    dunders and the exempt names."""
    def reads(node):
        return Counter(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))

    trees = [ast.parse(source) for source in sources]
    read = sum(map(reads, trees), Counter())
    out = []
    for tree in trees:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for f in cls.body:
                    if (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (f.name.startswith("__") and f.name.endswith("__"))
                            and read[f.name] == reads(f)[f.name]
                            and f"{cls.name}.{f.name}" not in exempt):
                        out.append(f"{cls.name}.{f.name}")
    return out


def tracer_names():
    """Every string constant in perfbench/tracer.py: the names it wraps."""
    return {n.value for n in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8")))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_method_is_read():
    sources = [(SRC / module).read_text(encoding="utf-8") for module in MODULES]
    assert unread_methods(sources, tracer_names() | set(TEST_VIEWS)) == []


def test_the_check_sees_unread_methods():
    sources = ["class A:\n"
               "    def __init__(self):\n"
               "        self.kept = self.used()\n"
               "    def used(self):\n"
               "        return 1\n"
               "    def traced(self):\n"
               "        return 2\n"
               "    def dead(self):\n"
               "        return self.dead\n",
               "class B:\n"
               "    def stored(self):\n"
               "        return 3\n"
               "    x = 1\n"
               "def f(b):\n"
               "    b.stored = None\n"
               "    return A().used()\n"]
    assert unread_methods(sources, {"A.traced"}) == ["A.dead", "B.stored"]


def unnamed_public(sources, exempt):
    """Name of each module-level function or class in the sources, without
    a leading underscore, that no name or attribute outside its own
    definition uses, leaving out the exempt names; an import alone does not
    name it."""
    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = [ast.parse(source) for source in sources]
    named = sum(map(names, trees), Counter())
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and named[node.name] == names(node)[node.name]
            and node.name not in exempt]


def test_every_public_name_is_named():
    sources = [(SRC / module).read_text(encoding="utf-8") for module in MODULES]
    assert unnamed_public(sources, tracer_names() | set(pentads.__all__)) == []


def test_the_check_sees_unnamed_public_names():
    sources = ["from b import helper\n"
               "def used():\n"
               "    return 1\n"
               "def exported():\n"
               "    return exported\n"
               "class Dead:\n"
               "    x = Dead\n"
               "def dead():\n"
               "    return helper(used())\n"
               "def _private():\n"
               "    return 2\n",
               "import a\n"
               "from a import dead\n"
               "def helper(x):\n"
               "    return a.Read(x)\n"
               "class Read:\n"
               "    pass\n"]
    assert unnamed_public(sources, {"exported"}) == ["Dead", "dead"]


def run_fresh(code):
    """Stdout of code run in a fresh interpreter that imports pentads from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = "import sys, pentads.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_fresh(code) == "[]\n"


# What each entry point leaves in sys.modules: a process compiles only what it runs.
COMMON = {"exact_linalg", "lie", "pentad", "serialize"}
FOOTPRINTS = [
    ("import pentads", set()),
    ("from pentads import extend, resolve", {"exact_linalg", "lie", "pentad", "graded", "catalog"}),
    ("check --pentad F", COMMON | {"cli"}),
    ("regularity --verify-certificate --pentad F", COMMON | {"cli", "preh"}),
    ("graded-dims --example gl1_so_vector(3)", COMMON | {"cli", "catalog", "graded"}),
]


@pytest.mark.parametrize("entry, loaded", FOOTPRINTS, ids=[e for e, _ in FOOTPRINTS])
def test_each_entry_point_loads_only_what_it_runs(tmp_path, entry, loaded):
    from pentads.catalog import resolve
    from pentads.serialize import dumps, pentad_to_json
    path = tmp_path / "pentad.json"
    path.write_text(dumps(pentad_to_json(resolve("gl1_so_vector(3)").build())), encoding="utf-8")
    if not entry.startswith(("import", "from")):
        argv = [str(path) if a == "F" else a for a in entry.split()]
        entry = f"from pentads.cli import main\nassert main({argv!r}) == 0"
    out = run_fresh(entry + "\nimport sys\n"
                    "print(sorted(m for m in sys.modules if m.startswith('pentads')))")
    assert out.splitlines()[-1] == repr(sorted({"pentads"} | {f"pentads.{m}" for m in loaded}))


def test_package_names_read_through_to_their_home_modules(monkeypatch):
    assert set(pentads.__all__) == set(pentads._HOME)
    assert set(pentads.__all__) <= set(dir(pentads))
    # loading the submodule catalog leaves the package serving the function catalog
    assert pentads.catalog is importlib.import_module("pentads.catalog").catalog
    for name in pentads.__all__:
        home = importlib.import_module(f"pentads.{pentads._HOME[name]}")
        assert getattr(pentads, name) is getattr(home, name), name
        patched = object()
        monkeypatch.setattr(home, name, patched)
        assert getattr(pentads, name) is patched, name
    with pytest.raises(AttributeError, match="'pentads' has no attribute 'no_such_name'"):
        pentads.no_such_name


def test_star_import_binds_every_exported_name():
    code = ("from importlib import import_module\n"
            "import pentads\n"
            "from pentads import *\n"
            "print([n for n in pentads.__all__ if globals()[n] is not getattr(\n"
            "    import_module('pentads.' + pentads._HOME[n]), n)])")
    assert run_fresh(code) == "[]\n"
