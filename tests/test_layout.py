"""Static checks of the repository layout; nothing here imports the package.

Every public top-level function and class of `src/pednet` has a caller in
the program (`src/`, `scripts/`, `perfbench/`), not only in the tests, no
script reaches into the test suite, and an OSError is caught only where an
input is read or where the command line reports it.
"""

import ast
import builtins
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _python_files(*dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _public_definitions():
    """(name, path, first line, last line) of each public top-level
    function and class in the package."""
    out = []
    for path in _python_files(os.path.join("src", "pednet")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((node.name, path, node.lineno, node.end_lineno))
    return out


def _references():
    """(path, line) of every identifier and attribute use, by name."""
    refs = {}
    for path in _python_files(*PROGRAM_DIRS):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_definition_has_a_program_caller():
    defs = _public_definitions()
    assert {"pad_amounts", "build_model", "prepare_dataset", "main"} <= \
        {name for name, *_ in defs}
    refs = _references()
    uncalled = [
        f"{os.path.relpath(path, ROOT)}:{first} {name}"
        for name, path, first, last in defs
        if not any(rpath != path or not first <= line <= last
                   for rpath, line in refs.get(name, ()))]
    assert not uncalled, ("public names used only by tests or not at all: "
                          + ", ".join(uncalled))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _is_test_module(module):
    top = module.split(".")[0]
    return top in ("tests", "conftest") or top.startswith("test_")


def test_scripts_do_not_import_tests():
    probe = ast.parse("import os\nfrom tests.conftest import x\n"
                      "import conftest, test_data\n")
    assert [_is_test_module(m) for m in _imported_modules(probe)] == \
        [False, True, True, True]
    offenders = [
        f"{os.path.relpath(path, ROOT)}: {module}"
        for path in _python_files("scripts", "perfbench")
        for module in _imported_modules(_parse(path))
        if _is_test_module(module)]
    assert not offenders, offenders


# OSError and every built-in exception derived from it
_OS_ERRORS = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, OSError)}


def _oserror_handlers(tree):
    """Name of the innermost enclosing function (or None) of each `except`
    clause that catches an OSError kind, alone or in a tuple."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if any(isinstance(t, ast.Name) and t.id in _OS_ERRORS
                   for t in types):
                out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_oserror_caught_only_where_read_or_reported():
    probe = ast.parse("def f():\n    try: pass\n    except OSError: pass\n"
                      "def g():\n    try: pass\n"
                      "    except (ValueError, FileNotFoundError): pass\n"
                      "    except ValueError: pass\n")
    assert _oserror_handlers(probe) == ["f", "g"]
    allowed = {("cli.py", "main"), ("data.py", "load_image")}
    offenders = [
        f"{os.path.relpath(path, ROOT)}: {func}"
        for path in _python_files(os.path.join("src", "pednet"))
        for func in _oserror_handlers(_parse(path))
        if (os.path.basename(path), func) not in allowed]
    assert not offenders, offenders
