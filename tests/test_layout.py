"""Static checks of the repository layout; nothing here imports the package.

Every public top-level function and class of `src/pednet` has a caller in
the program (`src/`, `scripts/`, `perfbench/`), not only in the tests, and
no script reaches into the test suite.
"""

import ast
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
