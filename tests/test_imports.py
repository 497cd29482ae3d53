"""Import structure of the package: every import runs at module top and
is used, the syntax layer needs nothing of the analyzer but ``expr`` and
the ``value`` leaf, only ``export`` holds the output writers, and
start-up loads neither ``dataclasses`` nor ``inspect`` and compiles no
source of its own."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latreach"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_function_level_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _unused_imports(path):
    """'module:line: name' for each imported name that the module never
    reads (a ``__future__`` import binds nothing)."""
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports():
    """Every module reads each name it imports."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _unused_imports(path)
    assert found == []


def _imports(path):
    """(package modules, other top-level modules) that a module imports."""
    package, other = set(), set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            other.update(a.name.split(".")[0] for a in node.names)
    return package, other


STDLIB = set(sys.stdlib_module_names) | {"__future__"}


def test_syntax_imports_only_expr_value_and_the_standard_library():
    package, other = _imports(SRC / "syntax.py")
    assert package == {"expr", "value"}
    assert other <= STDLIB


def test_value_imports_only_the_standard_library():
    package, other = _imports(SRC / "value.py")
    assert package == set()
    assert other <= STDLIB


def _fresh(code):
    """Standard output of ``code`` run by a fresh interpreter that finds
    the package in this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    """Nor the bounded interpreter, which only tests and demos use."""
    out = _fresh("import sys, latreach.cli; print(sorted("
                 "{'dataclasses', 'inspect', 'latreach.concrete'} & set(sys.modules)))")
    assert out.strip() == "[]"


COMPILES = """
import sys
callers = []

def hook(event, args):
    if event == "compile":
        callers.append(sys._getframe(1).f_code.co_filename)

sys.addaudithook(hook)
import latreach.cli
print(*callers, sep="\\n")
"""


def test_cli_start_up_compiles_no_source_of_the_package():
    """Importing the driver compiles no source that the package builds at
    run time (code that no bytecode cache can hold); the standard
    library's own, such as a namedtuple, is not the package's."""
    callers = _fresh(COMPILES).splitlines()
    assert [c for c in callers if Path(c).resolve().is_relative_to(SRC.resolve())] == []


WRITER = re.compile(r"(.+_)?to_(json|dot)|dump_semantics")


def test_only_export_defines_writers():
    """The JSON and DOT writers live in ``export`` alone, and of the
    package only the driver imports it."""
    writers, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        if path.name != "export.py":
            writers += [f"{path.name}: {node.name}" for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and WRITER.fullmatch(node.name)]
        if "export" in _imports(path)[0]:
            importers.append(path.name)
    assert writers == []
    assert importers == ["cli.py"]


def test_every_private_helper_has_a_caller():
    """Every module-level ``_name`` function or class of the package is
    referenced somewhere in the package outside its own definition, so a
    refactoring leaves no helper behind."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = path.name
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    used.add(name)
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used) == []
