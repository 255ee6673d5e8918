"""Static checks of the repository layout; nothing here imports the package.

Every public top-level function and class of `src/pednet` has a caller in
the program (`src/`, `scripts/`, `perfbench/`), not only in the tests, and
every defaulted parameter of one is passed by a program call; no script
reaches into the test suite, an OSError is caught only where an input is
read or where the command line reports it, a ConfigError is raised only by
the registry lookup, no function of the package imports one of its
modules, no call in the package passes a `where=` mask, and only a
model's plan decides what a node keeps and what its backward walks.
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


# (class, parameter) pairs no program call passes, each kept for a reason
_UNPASSED_DEFAULTS = {
    # the float64 shadow mode of finite-difference gradient checks
    ("Conv2D", "dtype"), ("BatchNorm", "dtype"), ("Dense", "dtype"),
}


def _defaulted_parameters(tree):
    """(name, parameter, positional index or None, line) of each defaulted
    parameter of a public top-level function, and of the explicit
    `__init__` of a public top-level class, whose calls carry its name."""
    out = []
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        func, skip = node, 0
        if isinstance(node, ast.ClassDef):
            func = next((f for f in node.body
                         if isinstance(f, ast.FunctionDef)
                         and f.name == "__init__"), None)
            skip = 1  # self
            if func is None:
                continue
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            out.append((node.name, arg.arg, i - skip, node.lineno))
        out.extend((node.name, arg.arg, None, node.lineno)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None)
    return out


def _passed_arguments(tree):
    """{(callee name, parameter name or positional index)} of every call;
    a starred argument passes every parameter, marked by index -1."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        for i, arg in enumerate(node.args):
            out.add((name, -1 if isinstance(arg, ast.Starred) else i))
        for kw in node.keywords:
            out.add((name, -1 if kw.arg is None else kw.arg))
    return out


def _unpassed(defaulted, passed):
    """The entries of `defaulted` whose parameter no call in `passed`
    passes, by name or by position."""
    return [d for d in defaulted
            if not {(d[0], d[1]), (d[0], d[2]), (d[0], -1)} & passed]


def test_every_default_is_passed_by_a_program_call():
    probe = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "def _g(a=1): pass\n"
        "def h(a=1): pass\n"
        "class K:\n    def __init__(self, a, b=1, c=2): pass\n"
        "f(0, 1)\nK(0, c=3)\nh(*xs)\n")
    assert [d[:2] for d in _unpassed(_defaulted_parameters(probe),
                                     _passed_arguments(probe))] == \
        [("f", "c"), ("K", "b")]
    defaulted = [
        (name, param, index, f"{os.path.relpath(path, ROOT)}:{line}")
        for path in _python_files(os.path.join("src", "pednet"))
        for name, param, index, line in _defaulted_parameters(_parse(path))]
    assert ("Conv2D", "dtype") in {d[:2] for d in defaulted}
    passed = set().union(*(_passed_arguments(_parse(path))
                           for path in _python_files(*PROGRAM_DIRS)))
    unpassed = [f"{where} {name}({param})"
                for name, param, _, where in _unpassed(defaulted, passed)
                if (name, param) not in _UNPASSED_DEFAULTS]
    assert not unpassed, ("defaulted parameters no program call passes: "
                          + ", ".join(unpassed))


def _package_imports_in_functions(tree):
    """Name of the innermost enclosing function of each import, inside a
    function, of a pednet module: relative, or of `pednet` or below it."""
    out = []

    def is_package(name):
        return (name or "").split(".")[0] == "pednet"

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and (
                isinstance(node, ast.ImportFrom)
                and (node.level > 0 or is_package(node.module))
                or isinstance(node, ast.Import)
                and any(is_package(alias.name) for alias in node.names)):
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_package_import_inside_a_function():
    probe = ast.parse("import os\nfrom . import data\n"
                      "def f():\n    from .checkpoint import x\n"
                      "def g():\n    import pednet.data\n"
                      "    from PIL import Image\n    import pednetx\n"
                      "    def h():\n        from pednet import train\n"
                      "class K:\n    def m(self):\n        from . import y\n")
    assert _package_imports_in_functions(probe) == ["f", "g", "h", "m"]
    offenders = [
        f"{os.path.relpath(path, ROOT)}: {func}"
        for path in _python_files(os.path.join("src", "pednet"))
        for func in _package_imports_in_functions(_parse(path))]
    assert not offenders, ("pednet modules imported inside functions: "
                           + ", ".join(offenders))


def _config_error_raises(tree):
    """(innermost enclosing function or None, line) of each `raise` of a
    ConfigError, called or not."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ConfigError" in (getattr(exc, "id", None),
                                 getattr(exc, "attr", None)):
                out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_config_error_raised_only_by_the_registry():
    probe = ast.parse("def f():\n    raise ConfigError('x')\n"
                      "def g():\n    raise ConfigError\n"
                      "def h():\n    raise ValueError('x')\n"
                      "raise errors.ConfigError('y')\n")
    assert _config_error_raises(probe) == [("f", 2), ("g", 4), (None, 7)]
    offenders = [
        f"{os.path.relpath(path, ROOT)}:{line} {func}"
        for path in _python_files(os.path.join("src", "pednet"))
        for func, line in _config_error_raises(_parse(path))
        if (os.path.basename(path), func) != ("models.py", "registry_lookup")]
    assert not offenders, ("ConfigError raised outside "
                           "models.registry_lookup: " + ", ".join(offenders))


def _masked_calls(tree):
    """Line of each call that passes a `where=` keyword."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(kw.arg == "where" for kw in node.keywords)]


def test_no_masked_ufunc_call():
    """A masked numpy call leaves numpy's contiguous fast path: on a 2-core
    Xeon with numpy 2.4.6, `np.copyto(arg, i, where=mask)` into the
    8x49x49x32 uint8 first-max index of a 2x2/2 pool over a 99x99x32 map
    took 4.7 ms a cell against 0.43 ms for the `np.greater` that made its
    mask. Write a masked result with arithmetic on whole arrays instead."""
    probe = ast.parse("np.copyto(a, b, where=m)\nnp.add(a, b, out=c)\n"
                      "f(g(x, where=None))\nwhere(a)\n")
    assert _masked_calls(probe) == [1, 3]
    offenders = [
        f"{os.path.relpath(path, ROOT)}:{line}"
        for path in _python_files(os.path.join("src", "pednet"))
        for line in _masked_calls(_parse(path))]
    assert not offenders, "calls with where=: " + ", ".join(offenders)


def _out_none_checks(tree):
    """Line of each comparison with None of a parameter named `out`, in
    the function that takes it."""
    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        if "out" not in {p.arg for p in a.posonlyargs + a.args
                         + a.kwonlyargs}:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if (any(isinstance(n, ast.Name) and n.id == "out"
                    for n in sides)
                    and any(isinstance(n, ast.Constant) and n.value is None
                            for n in sides)):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_self_allocating_fork():
    """A layer writes only into the views its model's plan hands it: a
    function that takes `out` and tests it against None would allocate
    its own arrays when called without one, a second path beside the
    plan."""
    probe = ast.parse("def f(x, out=None):\n    if out is None:\n"
                      "        out = {}\n"
                      "def g(x):\n    out = None\n    return out is None\n"
                      "def h(x, *, out):\n    return None == out\n"
                      "def k(out):\n    return out.get('y') is None\n")
    assert _out_none_checks(probe) == [2, 8]
    offenders = [
        f"{os.path.relpath(path, ROOT)}:{line}"
        for path in _python_files(os.path.join("src", "pednet"))
        for line in _out_none_checks(_parse(path))]
    assert not offenders, ("`out` compared with None: "
                           + ", ".join(offenders))


def _decided_twice(tree):
    """Line of each `train and keep` conjunction, and of each `_frontier`
    call inside a method named `backward` of a class named `Model`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            names = {v.id for v in node.values if isinstance(v, ast.Name)}
            if {"train", "keep"} <= names:
                lines.add(node.lineno)
        if isinstance(node, ast.ClassDef) and node.name == "Model":
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef)
                        and meth.name == "backward"):
                    lines.update(
                        call.lineno for call in ast.walk(meth)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "_frontier")
    return sorted(lines)


def test_plan_alone_decides_walk_and_keep():
    """A model's plan decides which nodes keep a backward cache and the
    walk its backward runs: a layer that tests `train and keep` decides
    the first again, and a `Model.backward` that asks for the frontier
    decides the second again, from flags that may have changed since the
    forward."""
    probe = ast.parse("y = train and keep\nz = keep and x and train\n"
                      "w = train or keep\nv = train and j >= f\n"
                      "class Model:\n    def backward(self):\n"
                      "        return self._frontier()\n"
                      "    def _run(self):\n        self._frontier()\n")
    assert _decided_twice(probe) == [1, 2, 7]
    offenders = [
        f"{os.path.relpath(path, ROOT)}:{line}"
        for path in _python_files(os.path.join("src", "pednet"))
        for line in _decided_twice(_parse(path))]
    assert not offenders, ("walk or keep decided outside the plan: "
                           + ", ".join(offenders))
