"""A traced run of the program path enters every function of the package.

The static scans in `test_layout.py` see names, not calls, so they cannot
tell that a method is never entered. This test runs the command line end
to end under a call-only tracer: the synthetic corpus, `pednet prepare`
with a `--config` file, `train` and `evaluate` for models 8 (custom CNN)
and 1 (ResNet-50, both phases), `inspect` of an id and a checkpoint,
`infer`, and `inspect` of one corrupt checkpoint. Every `def` in
`src/pednet` must then have been entered, apart from the allow-list.
"""

import ast
import importlib.util
import os
import sys
import threading

from pednet import cli, data

PACKAGE = os.path.dirname(os.path.realpath(data.__file__))

# (file, qualified name) of each def the program path may leave unentered
_ALLOWED_UNENTERED = {
    # Model.backward starts at the logits and skips the softmax node, but
    # perfbench/spans.py's Tracer.install wraps vars(cls)["backward"] of
    # every layer kind, so deleting it breaks `--trace 1` and
    # perfbench/selftest.py
    ("layers.py", "Softmax.backward"),
}


def _definitions(paths):
    """{(real path, first line, name): qualified name} of every def in the
    files. A decorated def's first line is its first decorator's, as in
    its code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in paths:
        path = os.path.realpath(path)
        with open(path, encoding="utf-8") as f:
            visit(ast.parse(f.read(), filename=path), path, "")
    return out


def _entered(run):
    """{(real path, first line, name)} of every code object that `run()`
    enters, on its own thread or on a thread it starts; the tracer asks for
    call events only, never line events."""
    codes = {}

    def tracer(frame, event, arg):
        codes[id(frame.f_code)] = frame.f_code
        return None

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
            for c in codes.values()}


def _unentered(run, paths):
    """(file name, line, qualified name) of each def in the files that
    `run()` does not enter, in file and line order."""
    defs = _definitions(paths)
    entered = _entered(run)
    return [(os.path.basename(path), line, qualname)
            for (path, line, name), qualname in sorted(defs.items())
            if (path, line, name) not in entered]


def test_guard_names_the_function_not_entered(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class K:\n"
                     "    @property\n"
                     "    def entered(self):\n"
                     "        return 1\n"
                     "\n"
                     "def missed():\n"
                     "    return 2\n")
    spec = importlib.util.spec_from_file_location("probe", probe)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert _unentered(lambda: module.K().entered, [probe]) == \
        [("probe.py", 6, "missed")]


def _program_path(root):
    """The command line end to end on a 36-crop corpus: balancing to 6
    per class augments, since each class has 4 train originals."""
    ann, frames = data.make_synthetic_corpus(
        str(root / "corpus"), [6] * len(data.CLASS_NAMES), seed=0)
    cfg = root / "run.cfg"
    cfg.write_text("seed = 0\nbalance_target = 6\n", encoding="utf-8")
    work = str(root / "work")
    manifest = os.path.join(work, "manifest.tsv")
    corrupt = root / "corrupt.pdcn"
    corrupt.write_bytes(b"NOPE" + b"\x00" * 64)
    runs = [(["prepare", "--config", str(cfg), "--annotations", ann,
              "--frames", frames, "--workdir", work], 0)]
    for model_id in ("8", "1"):
        checkpoint = os.path.join(work, f"model{model_id}.pdcn")
        runs += [
            (["train", "--manifest", manifest, "--model-id", model_id,
              "--workdir", work, "--epochs", "1", "--epochs-phase2", "1"], 0),
            (["evaluate", "--checkpoint", checkpoint, "--manifest", manifest,
              "--out", work], 0),
        ]
    runs += [(["inspect", "1"], 0),
             (["inspect", os.path.join(work, "model8.pdcn")], 0),
             (["inspect", str(corrupt)], 2)]
    codes = [cli.main(argv) for argv, _ in runs]
    first = data.read_manifest(manifest).samples[0].path
    codes.append(cli.main(["infer", "--checkpoint",
                           os.path.join(work, "model8.pdcn"), first]))
    assert codes == [code for _, code in runs] + [0]


def test_program_path_enters_every_function(tmp_path, capsys):
    paths = [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py")]
    defined = {(os.path.basename(path), qualname)
               for (path, _, _), qualname in _definitions(paths).items()}
    assert _ALLOWED_UNENTERED <= defined, _ALLOWED_UNENTERED - defined
    unentered = [f"{file}:{line} {qualname}" for file, line, qualname
                 in _unentered(lambda: _program_path(tmp_path), paths)
                 if (file, qualname) not in _ALLOWED_UNENTERED]
    capsys.readouterr()
    assert not unentered, ("functions the program path never enters: "
                           + ", ".join(unentered))
