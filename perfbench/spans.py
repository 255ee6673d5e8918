"""Span tracing from outside the program, and the per-layer table.

`Tracer.install` wraps the public functions of each pednet module, the
`Model` and `Optimizer` entry points and every layer's forward/backward,
by rebinding the names in the module namespaces (and class dicts) where
they live. `uninstall` puts the originals back, so untraced jobs run the
program exactly as shipped. Spans stay in memory until the run ends.

A span is ``[name, start_ns, end_ns, parent, run_id, attrs]``; ``parent``
is the index of the enclosing span in ``Tracer.spans`` (-1 at top level).
"""

from __future__ import annotations

import inspect
import os
import statistics
import time

MODULES = ("tensor", "layers", "models", "optim", "train", "data", "metrics",
           "checkpoint", "cli")
LAYER_KINDS = ("conv2d", "batchnorm", "relu", "maxpool2d", "globalavgpool",
               "flatten", "dense", "dropout", "softmax", "add")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name, attrs=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, attrs)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1,
                           self.run_id, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, attrs_of=None):
        """fn with a span around each call; attrs_of(args, kwargs, result)
        may add attributes after the span has closed, outside its timing."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_of is not None:
                self.spans[idx][5] = attrs_of(args, kwargs, out)
            return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pednet_modules):
        """Wrap every public function and layer entry point of the modules
        (a name -> module mapping of the pednet package)."""
        mods = pednet_modules
        wrapped = {}
        for mname in MODULES:
            mod = mods[mname]
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{mname}.{fname}", fn,
                                            _FN_ATTRS.get(f"{mname}.{fname}"))
        # rebind every alias, e.g. cli's `from .models import build_model`
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        model_cls = mods["models"].Model
        for meth in ("forward", "backward", "zero_grads"):
            self._set(model_cls, meth,
                      self.wrap(f"models.Model.{meth}", vars(model_cls)[meth],
                                _train_mode if meth == "forward" else None))
        opt_cls = mods["optim"].Optimizer
        self._set(opt_cls, "step",
                  self.wrap("optim.Optimizer.step", vars(opt_cls)["step"],
                            _params_updated))
        for cls in vars(mods["layers"]).values():
            if getattr(cls, "kind", None) not in LAYER_KINDS:
                continue
            self._set(cls, "forward",
                      self.wrap(f"layers.{cls.kind}.fwd", vars(cls)["forward"],
                                _conv_fwd_attrs if cls.kind == "conv2d" else None))
            self._set(cls, "backward",
                      self.wrap(f"layers.{cls.kind}.bwd", vars(cls)["backward"],
                                _bwd_attrs))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.tracer.spans[self.idx][5] = self.attrs
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


# -- attributes computed after a span closes ------------------------------

def _conv_fwd_attrs(args, kwargs, out):
    layer, x = args[0], args[1]
    k = layer.kernel
    return {"flop": 2 * out.size * k * k * x.shape[3]}


def _bwd_attrs(args, kwargs, out):
    layer = args[0]
    outs = out if isinstance(out, tuple) else (out,)
    attrs = {"f64": int(any(getattr(o, "dtype", None) == "float64"
                            for o in outs)),
             "frozen": int(not layer.trainable)}
    if layer.kind == "conv2d":
        up = args[1]
        attrs["flop"] = 4 * up.size * layer.kernel ** 2 * layer.in_channels
    return attrs


def _train_mode(args, kwargs, out):
    return {"train": bool(kwargs.get("train", args[2] if len(args) > 2
                                     else False))}


def _params_updated(args, kwargs, out):
    model = args[1]
    return {"params": sum(layer.params[p].size for _, layer, p
                          in model.named_params(trainable_only=True))}


def _split_mb(args, kwargs, out):
    return {"mb": sum(a.nbytes for a in out) / 2 ** 20}


def _path_attr(args, kwargs, out):
    return {"path": str(args[0])}


def _file_mb(args, kwargs, out):
    return {"mb": os.path.getsize(args[0]) / 2 ** 20}


def _apply_phase_attrs(args, kwargs, out):
    return {"phase": args[3]}


_FN_ATTRS = {
    "data.load_split_arrays": _split_mb,
    "data.load_image": _path_attr,
    "checkpoint.write_checkpoint": _file_mb,
    "optim.apply_phase": _apply_phase_attrs,
}


# -- analysis -------------------------------------------------------------

def self_times(spans):
    """Per-span self time in ns: duration minus the direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def quantile_summary(values):
    """(median, label, value) of the highest percentile among p90/p99/p99.9
    that has at least ten samples beyond it; label is None if none does."""
    xs = sorted(values)
    n = len(xs)
    best = (None, None)
    for label, beyond in (("p90", 10), ("p99", 100), ("p99.9", 1000)):
        if n >= 10 * beyond:  # at least ten samples above the percentile
            best = (label, xs[n - 1 - n // beyond])
    return statistics.median(xs), best[0], best[1]


def descendants(spans, roots):
    """Boolean mask of spans at or below any index in roots."""
    mask = [False] * len(spans)
    roots = set(roots)
    for i, s in enumerate(spans):  # parents always precede children
        mask[i] = i in roots or (s[3] >= 0 and mask[s[3]])
    return mask


def phase_of(spans, mask):
    """Training phase (1 or 2) for each span under mask, taken from the
    latest `optim.apply_phase` span that started before it; 0 elsewhere."""
    phase = [0] * len(spans)
    current = 0
    for i, s in enumerate(spans):
        if not mask[i]:
            continue
        if s[0] == "train.train":
            current = 0
        elif s[0] == "optim.apply_phase":
            current = s[5]["phase"]
        phase[i] = current
    return phase


# -- the per-layer table ----------------------------------------------------

# (metric, span names, unit); per-call inclusive durations, median first
_TIMED = [
    ("models.forward_ms", ("models.Model.forward",), "ms"),
    ("models.backward_ms", ("models.Model.backward",), "ms"),
    ("models.zero_grads_ms", ("models.Model.zero_grads",), "ms"),
    ("models.build_s", ("models.build_model",), "s"),
    ("tensor.check_finite_ms", ("tensor.check_finite",), "ms"),
    ("optim.step_ms", ("optim.Optimizer.step",), "ms"),
    ("train.evaluate_ms", ("train.evaluate_arrays",), "ms"),
    ("train.cross_entropy_ms", ("train.cross_entropy_loss",), "ms"),
    ("data.load_image_ms", ("data.load_image",), "ms"),
    ("data.crop_ms", ("data.crop_and_resize",), "ms"),
    ("data.augment_ms", ("data.augment",), "ms"),
    ("data.write_ppm_ms", ("data.write_ppm",), "ms"),
    ("data.split_ms", ("data.stratified_split",), "ms"),
    ("data.manifest_ms", ("data.read_manifest", "data.write_manifest"), "ms"),
    ("data.load_split_arrays_ms", ("data.load_split_arrays",), "ms"),
    ("metrics.build_report_ms", ("metrics.build_report",), "ms"),
    ("metrics.pr_curve_ms", ("metrics.pr_curve",), "ms"),
    ("checkpoint.save_ms", ("checkpoint.save_model",), "ms"),
    ("checkpoint.restore_ms", ("checkpoint.restore_model",), "ms"),
]
_SELF = [("train.self_s", "train.train")] + [
    (f"cli.{c}.self_s", f"cli.cmd_{c}")
    for c in ("prepare", "inspect", "train", "evaluate", "infer")]
_SCALE = {"ms": 1e-6, "s": 1e-9}


def module_of(name):
    return name.split(".", 1)[0]


def summarize(spans, reps, frames_dir=None, design=None):
    """Per-layer metrics from the spans of `reps` traced repetitions.

    Returns (metrics, shares): metrics maps name -> dict(value, unit, n,
    and pct/pct_value when the sample supports a high percentile); shares
    maps group -> percent of the job's self time. `design` is
    (group name, predicate(span), phase or None): the group the
    workload is built to stress, whose share is compared with every module's.
    """
    own = self_times(spans)
    work = descendants(spans, [i for i, s in enumerate(spans)
                               if s[0] in ("bench.setup", "bench.job")])
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if work[i]:
            by_name.setdefault(s[0], []).append(i)
    metrics = {}

    def put(name, values, unit):
        if not values:
            return
        med, pct, pct_value = quantile_summary(values)
        metrics[name] = {"value": med, "unit": unit, "n": len(values)}
        if pct:
            metrics[name].update(pct=pct, pct_value=pct_value)

    def count(name, value):
        metrics[name] = {"value": value, "unit": "count", "n": reps}

    def durations(names, unit, self_time=False):
        idx = [i for n in names for i in by_name.get(n, ())]
        return [(own[i] if self_time else spans[i][2] - spans[i][1])
                * _SCALE[unit] for i in idx]

    for kind in LAYER_KINDS:
        for d in ("fwd", "bwd"):
            put(f"layers.{kind}.{d}_ms",
                durations([f"layers.{kind}.{d}"], "ms"), "ms")
        calls = sum(len(by_name.get(f"layers.{kind}.{d}", ()))
                    for d in ("fwd", "bwd"))
        if calls:
            count(f"layers.{kind}.calls", calls / reps)
    conv = [i for d in ("fwd", "bwd") for i in by_name.get(f"layers.conv2d.{d}", ())]
    if conv:
        flop = sum(spans[i][5]["flop"] for i in conv)
        secs = sum(spans[i][2] - spans[i][1] for i in conv) * 1e-9
        metrics["layers.conv2d.gflop"] = {"value": flop / reps / 1e9,
                                          "unit": "GFLOP", "n": reps}
        metrics["layers.conv2d.gflop_per_s"] = {"value": flop / 1e9 / secs,
                                                "unit": "GFLOP/s", "n": reps}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    steps = by_name.get("models.Model.backward", [])
    layer_calls = [[c for c in children.get(i, ())
                    if spans[c][0].startswith("layers.")] for i in steps]
    count("models.backward_layer_calls",
          statistics.median(map(len, layer_calls)) if steps else 0)
    count("layers.bwd_f64_outputs",
          statistics.median(sum(spans[c][5]["f64"] for c in cs)
                            for cs in layer_calls) if steps else 0)
    count("optim.params_updated",
          max((spans[i][5]["params"] for i in by_name.get(
              "optim.Optimizer.step", ())), default=0))
    count("data.load_image_calls", len(by_name.get("data.load_image", ())) / reps)
    count("data.augment_calls", len(by_name.get("data.augment", ())) / reps)
    for name, names, unit in _TIMED:
        put(name, durations(names, unit), unit)
    for mode, train in (("train", True), ("eval", False)):
        put(f"models.forward_{mode}_ms",
            [(spans[i][2] - spans[i][1]) * 1e-6
             for i in by_name.get("models.Model.forward", ())
             if spans[i][5]["train"] is train], "ms")
    for name, span_name in _SELF:
        put(name, durations([span_name], "s", self_time=True), "s")
    put("data.split_mb", [spans[i][5]["mb"] for i in
                          by_name.get("data.load_split_arrays", ())], "MB")
    put("checkpoint.mb", [spans[i][5]["mb"] for i in
                          by_name.get("checkpoint.write_checkpoint", ())], "MB")
    if frames_dir is not None:
        # (run id, path) so that each repetition's first decode counts
        frames = [(spans[i][4], spans[i][5]["path"])
                  for i in by_name.get("data.load_image", ())
                  if os.path.dirname(spans[i][5]["path"]) == frames_dir]
        if frames:
            metrics["data.frame_decode_ratio"] = {
                "value": len(set(frames)) / len(frames), "unit": "ratio",
                "n": len(frames)}
    steps, parts = train_breakdown(spans, children)
    for (phase, first), values in sorted(steps.items()):
        kind = "first" if first else "steady"
        put(f"train.phase{phase}.{kind}_step_ms",
            [v * 1e-6 for v in values], "ms")
    total = sum(parts.values())
    if total:
        for part, ns in parts.items():
            metrics[f"train.{part}_pct"] = {"value": 100.0 * ns / total,
                                            "unit": "%", "n": reps}
    plain = shares(spans, own)
    for module in MODULES:
        metrics[f"share.{module}_pct"] = {"value": plain.get(module, 0.0),
                                          "unit": "%", "n": reps}
    by_design = shares(spans, own, design)
    if design is not None:
        metrics["share.design_pct"] = {"value": by_design.get(design[0], 0.0),
                                       "unit": "%", "n": reps}
    return metrics, by_design


def train_breakdown(spans, children):
    """Where `train.train` spends its wall time.

    A step runs from a train-mode forward to the end of the optimizer step
    after it; the first step of each phase is kept apart, because it
    allocates the optimizer's slots. Returns ({(phase, first): [step ns]},
    {part: ns}) where the parts add up to the time of every train.train:
    first_steps, steady_steps, evaluate (validation passes) and rest (the
    per-epoch gather copy, best-weight snapshots, optimizer set-up and
    phase switches).
    """
    steps: dict[tuple[int, bool], list[int]] = {}
    parts = {"first_steps": 0, "steady_steps": 0, "evaluate": 0, "rest": 0}
    for i, s in enumerate(spans):
        if s[0] != "train.train":
            continue
        parts["rest"] += s[2] - s[1]
        phase, first, begin = 0, False, None
        for c in children.get(i, ()):
            name, start, end, _, _, attrs = spans[c]
            if name == "optim.apply_phase":
                phase, first = attrs["phase"], True
            elif name == "models.Model.forward" and attrs["train"]:
                begin = start
            elif name == "optim.Optimizer.step" and begin is not None:
                steps.setdefault((phase, first), []).append(end - begin)
                parts["first_steps" if first else "steady_steps"] += end - begin
                parts["rest"] -= end - begin
                first, begin = False, None
            elif name == "train.evaluate_arrays":
                parts["evaluate"] += end - start
                parts["rest"] -= end - start
    return steps, parts


def shares(spans, own, design=None):
    """Percent of job self time per module (and per design group)."""
    job = descendants(spans, [i for i, s in enumerate(spans)
                              if s[0] == "bench.job"])
    group_name, pred, only_phase = design or (None, None, None)
    phase = phase_of(spans, job)
    totals: dict[str, int] = {}
    for i, s in enumerate(spans):
        if not job[i] or (only_phase and phase[i] != only_phase):
            continue
        group = (group_name if pred is not None and pred(s)
                 else module_of(s[0]))
        totals[group] = totals.get(group, 0) + own[i]
    whole = sum(totals.values()) or 1
    return {g: 100.0 * t / whole for g, t in
            sorted(totals.items(), key=lambda kv: -kv[1])}
