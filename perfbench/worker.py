"""One workload in its own process: set-up, job and checks in a closed loop.

run.py starts this file once per workload run:

    python3 perfbench/worker.py --workload NAME --inputs DIR --work DIR \
        --seconds S --trace 0|1 --scale full|tiny --result FILE

It imports pednet from the checkout's src/, repeats (set-up, job, checks)
after one untimed warm-up (first BLAS calls, first allocations, cold
caches), until the next repetition would end after S seconds (at least
twice), and writes one JSON result. With --trace 1 every other repetition
runs under the tracer, so traced and untraced job times come from the same
warm process and their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import spans as tr  # noqa: E402
from gen import WORKLOADS, fsync_tree  # noqa: E402

import pednet  # noqa: E402
from pednet import (checkpoint, cli, data, layers, metrics, models,  # noqa: E402
                    optim, tensor, train)

P = {m.__name__.rsplit(".", 1)[1]: m for m in
     (tensor, layers, models, optim, train, data, metrics, checkpoint, cli)}


def _is_frozen_bwd_or_bn(span):
    name = span[0]
    return name.startswith("layers.") and (
        name.startswith("layers.batchnorm.")
        or (name.endswith(".bwd") and span[5]["frozen"]))


# The group of spans each workload is built to stress, and the training
# phase it is judged in (None: the whole job).
DESIGN = {
    "custom-train": ("conv2d+maxpool2d",
                     lambda s: s[0].startswith(("layers.conv2d.",
                                                "layers.maxpool2d.")), None),
    "resnet-two-phase": ("frozen-bwd+batchnorm", _is_frozen_bwd_or_bn, 1),
    "prepare-evaluate": ("data", lambda s: s[0].startswith("data."), None),
}


def sha(data_bytes):
    return hashlib.sha256(data_bytes).hexdigest()


def history_digest(history):
    rows = [[r.epoch, r.phase, repr(r.train_loss), repr(r.train_acc),
             repr(r.val_loss), repr(r.val_acc)] for r in history.records]
    return sha(json.dumps(rows).encode())


def rows_sum_to_one(probs, tol=1e-5):
    probs = np.asarray(probs, dtype=np.float64)
    return bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= tol))


# -- jobs ------------------------------------------------------------------

# custom-train must end at most this share of the untrained model's val loss
LEARNED = 0.8


def train_rep(w, sizes, inputs, work, span, rep, warmup=False):
    """Set-up (manifest, arrays, model build), then one `train.train`.
    A warm-up trains one batch for one epoch per phase."""
    with span("bench.setup"):
        t0 = time.perf_counter()
        manifest = data.read_manifest(os.path.join(inputs, "manifest.tsv"))
        x, y = data.load_split_arrays(manifest, "train")
        xv, yv = data.load_split_arrays(manifest, "val")
        config = models.registry_lookup(w["model_id"])
        model = models.build_model(config, seed=0)
        setup_s = time.perf_counter() - t0
    e = sizes["epochs"]
    if warmup:
        x, y, xv, yv, e = x[:8], y[:8], xv[:8], yv[:8], 1
    else:
        with span("bench.check"):
            untrained_loss, _ = train.evaluate_arrays(model, xv, yv)
    tc = train.TrainConfig(seed=0, batch_size=8, max_epochs_phase1=e,
                           max_epochs_phase2=e, patience=e + 1)
    with span("bench.job"):
        t0 = time.perf_counter()
        history = train.train(model, config, tc, x, y, xv, yv)
        job_s = time.perf_counter() - t0
    if warmup:
        return {}
    with span("bench.check"):
        probs = model.forward(xv[:8], train=False)
    recs = history.records
    out = {
        "setup_s": setup_s, "job_s": job_s, "ops": 1, "failed_ops": 0,
        "val_loss_end": recs[-1].val_loss,
        "val_loss_untrained": untrained_loss,
        "train_img_per_s": len(x) * len(recs) / job_s,
        "checks": {
            "losses_finite": all(math.isfinite(v) for r in recs
                                 for v in (r.train_loss, r.val_loss)),
            "softmax_rows_sum_to_1": rows_sum_to_one(probs),
            "epochs_as_configured": len(recs) == e * (
                2 if config.architecture == "resnet50" else 1),
        },
        "digests": {"history": history_digest(history)},
    }
    if sizes.get("learns"):
        out["checks"]["val_loss_learned"] = recs[-1].val_loss < min(
            LEARNED * untrained_loss, math.log(len(data.CLASS_NAMES)))
    for phase in sorted({r.phase for r in recs}):
        rs = [r for r in recs if r.phase == phase]
        out[f"phase{phase}_img_per_s"] = (len(x) * len(rs)
                                          / sum(r.wall_seconds for r in rs))
    return out


def _cli(argv):
    """Run `pednet <argv>` in-process; (exit code, stdout, stderr)."""
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        rc = cli.main(argv)
    return rc, so.getvalue(), se.getvalue()


def _split_paths(manifest_path, split):
    with open(manifest_path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    return [(r[0], r[1]) for r in rows if r[2] == split]


def prepare_rep(w, sizes, inputs, work, span, rep, warmup=False):
    """Set-up (model-8 build and checkpoint save), then prepare, evaluate
    and infer through the command line. A warm-up is a whole repetition."""
    spec, n_infer, split = sizes["corpus"], sizes["infer"], w["split"]
    work = os.path.join(work, "rep")
    wd, out_dir = os.path.join(work, "prepared"), os.path.join(work, "eval")
    ckpt = os.path.join(work, "model8.pdcn")
    shutil.rmtree(work, ignore_errors=True)  # left over by a failed repetition
    os.makedirs(work)
    with span("bench.setup"):
        t0 = time.perf_counter()
        config = models.registry_lookup(w["model_id"])
        checkpoint.save_model(ckpt, models.build_model(config, seed=0), config)
        setup_s = time.perf_counter() - t0
    manifest = os.path.join(wd, "manifest.tsv")
    with span("bench.job"):
        t0 = time.perf_counter()
        rc_p, _, err_p = _cli(["prepare", "--annotations",
                               os.path.join(inputs, "annotations.json"),
                               "--frames", os.path.join(inputs, "frames"),
                               "--workdir", wd, "--seed", "0",
                               "--balance-target", str(spec.balance_target)])
        prepare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        rc_e, _, err_e = _cli(["evaluate", "--checkpoint", ckpt,
                               "--manifest", manifest, "--split", split,
                               "--out", out_dir])
        evaluate_s = time.perf_counter() - t0
        split_rows = _split_paths(manifest, split) if rc_p == 0 else []
        images = [p for p, _ in split_rows[:n_infer]]
        t0 = time.perf_counter()
        rc_i, infer_out, err_i = _cli(["infer", "--checkpoint", ckpt, *images])
        infer_s = time.perf_counter() - t0
    errors = [e for e in (err_p, err_e, err_i) if e]
    crops = sum(len(files) for d in ("crops", "augmented")
                for _, _, files in os.walk(os.path.join(wd, d)))
    report_path = os.path.join(out_dir, f"model{w['model_id']}_{split}_report.json")
    with span("bench.check"):
        with open(manifest, "rb") as f:
            manifest_bytes = f.read().replace(wd.encode(), b"<workdir>")
        with open(report_path, "rb") as f:
            report_bytes = f.read()
        report = json.loads(report_bytes)
        lines = [line.split("\t") for line in infer_out.splitlines()]
        probs = [[float(v) for v in line[2].split()] for line in lines]
        out = {
            "setup_s": setup_s, "job_s": prepare_s + evaluate_s + infer_s,
            "ops": 3, "failed_ops": sum(rc != 0 for rc in (rc_p, rc_e, rc_i)),
            "prepare_crops_per_s": crops / prepare_s,
            "eval_img_per_s": len(split_rows) / evaluate_s,
            "infer_img_per_s": len(images) / infer_s,
            "checks": {
                "report_counts_split":
                    sum(map(sum, report["confusion_matrix"])) == len(split_rows),
                "infer_one_line_per_image": len(lines) == len(images),
                "infer_rows_sum_to_1": bool(probs) and rows_sum_to_one(probs),
                "infer_label_is_argmax": all(
                    line[1] == data.CLASS_NAMES[int(np.argmax(p))]
                    for line, p in zip(lines, probs)),
            },
            "digests": {"manifest": sha(manifest_bytes),
                        "report": sha(report_bytes)},
            "errors": errors,
        }
        if rep == 0:
            # the checkpoint's cross-entropy on the evaluated split; the
            # digests show it is the same for every repetition of the run
            model, _, _, _ = checkpoint.restore_model(ckpt)
            x, y = data.load_split_arrays(data.read_manifest(manifest), split)
            p = np.concatenate([model.forward(x[i:i + 8])
                                for i in range(0, len(x), 8)])
            out["val_loss_end"] = float(-np.mean(np.log(
                np.maximum(p[np.arange(len(y)), y.argmax(axis=1)], 1e-12))))
            out["checks"]["split_softmax_rows_sum_to_1"] = rows_sum_to_one(p)
            out["checks"]["val_loss_finite"] = math.isfinite(out["val_loss_end"])
    # written files reach the disk and go away before the next timed job
    fsync_tree(work)
    shutil.rmtree(work)
    return out


JOBS = {"train": train_rep, "prepare": prepare_rep}


# -- environment ----------------------------------------------------------

def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "pednet": pednet.__version__,
    }


# -- loop -----------------------------------------------------------------

def run(name, scale, inputs, work, seconds, trace):
    """One untimed warm-up, then repetitions until the next would end after
    `seconds` (at least two). With trace, every other repetition after the
    warm-up is traced, starting with the first."""
    w = WORKLOADS[name]
    sizes = w[scale]
    job = JOBS[w["kind"]]
    tracer = tr.Tracer()
    no_span = lambda *a: contextlib.nullcontext()  # noqa: E731
    start = time.perf_counter()
    try:
        job(w, sizes, inputs, work, no_span, -1, warmup=True)
        warmup_errors = []
    except Exception:  # the repetitions below will show the failure too
        warmup_errors = [traceback.format_exc()]
    reps = []
    while True:
        k = len(reps)
        traced = bool(trace) and k % 2 == 0
        tracer.run_id = f"{name}/{k}"
        span = tracer.span if traced else no_span
        if traced:
            tracer.install(P)
        t0 = time.perf_counter()
        try:
            rep = job(w, sizes, inputs, work, span, k)
        except Exception:  # a failed job is counted, not fatal
            rep = {"ops": 1, "failed_ops": 1, "checks": {},
                   "errors": [traceback.format_exc()]}
        finally:
            if traced:
                tracer.uninstall()
        rep["traced"] = traced
        rep["wall_s"] = time.perf_counter() - t0
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= 2 and elapsed + typical > seconds:
            break
    if warmup_errors:
        reps[0].setdefault("errors", []).extend(warmup_errors)
    result = {"workload": name, "scale": scale, "reps": reps,
              "environment": environment(),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        n_traced = sum(r["traced"] for r in reps)
        metrics_, shares = tr.summarize(
            tracer.spans, n_traced, os.path.join(inputs, "frames"), DESIGN[name])
        result["layers"] = metrics_
        result["shares"] = shares
        result["design"] = DESIGN[name][0]
        with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--result", required=True)
    a = ap.parse_args()
    os.makedirs(a.work, exist_ok=True)
    result = run(a.workload, a.scale, a.inputs, a.work, a.seconds, a.trace)
    with open(a.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
