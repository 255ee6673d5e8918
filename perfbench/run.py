#!/usr/bin/env python3
"""pednet benchmark: one command, every workload, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. For each workload it generates the inputs
from the seed (under .perfbench/, outside any timing), runs the workload in
its own process (perfbench/worker.py) as one closed-loop client repeating
offline batch jobs for S seconds, checks the outputs, and prints a table of
metrics with units and sample counts. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (from spans recorded by perfbench/spans.py).

BLAS threads are capped at the number of CPUs this process may use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # a run must end within 180 s
# Workload-specific end-to-end figures printed next to the gated ones.
EXTRA = {"train_img_per_s": "1/s", "phase1_img_per_s": "1/s",
         "phase2_img_per_s": "1/s", "prepare_crops_per_s": "1/s",
         "eval_img_per_s": "1/s", "infer_img_per_s": "1/s"}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(*dirs):
    """sha256 over the .py files of dirs (relative to the checkout root)."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py"):
                with open(os.path.join(ROOT, d, name), "rb") as f:
                    h.update(f"{d}/{name}".encode() + b"\0" + f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(workload, seed, seconds, trace, scale, run_dir, deadline):
    inputs, work = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "work")
    t0 = time.perf_counter()
    gen.make_inputs(workload, seed, scale, inputs)
    gen_s = time.perf_counter() - t0
    result_path = os.path.join(run_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--inputs", inputs, "--work", work,
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--result", result_path]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: worker did not finish in time")
    if rc != 0 or not os.path.exists(result_path):
        fail(f"{workload}: worker exited with code {rc}")
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    result["gen_s"] = gen_s
    return result


def summary(values):
    """(median, n, spread label) for a list of samples."""
    xs = sorted(values)
    if len(xs) >= 2:
        q = statistics.quantiles(xs, n=4)
        return statistics.median(xs), len(xs), f"IQR {q[0]:.6g}..{q[2]:.6g}"
    return xs[0], len(xs), ""


def check_digests(key, digests, store_path):
    """Digests of one seed must match those of every earlier run of the
    same program in this checkout; the first run records them."""
    store = {}
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as f:
            store = json.load(f)
    if key in store:
        return store[key] == digests
    store[key] = digests
    with open(store_path, "w", encoding="utf-8") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    return True


def evaluate(workload, seed, scale, trace, result, bench, out_dir):
    """Checks and metrics for one workload run: (checks, end-to-end
    metrics, table rows, attempted, failed). Operations and checks both
    count as attempted; a failed operation or check counts as failed."""
    reps = result["reps"]
    good = [r for r in reps if "job_s" in r]
    untraced = [r for r in good if not r["traced"]]
    checks = {f"rep{i}.{name}": ok for i, r in enumerate(reps)
              for name, ok in r["checks"].items()}
    digests = [r["digests"] for r in good]
    checks["digests_equal_across_reps"] = bool(digests) and all(
        d == digests[0] for d in digests)
    if digests:
        # same program, same benchmark, same seed: same outputs
        key = (f"{workload}|{scale}|{seed}|"
               f"{source_digest(os.path.join('src', 'pednet'), 'perfbench')}")
        checks["digests_equal_across_runs"] = check_digests(
            key, digests[0], os.path.join(out_dir, "digests.json"))
    rows, metrics = [], {}

    def add(name, values, unit):
        if values:
            med, n, spread = summary(values)
            metrics[name] = {"value": med, "unit": unit}
            rows.append((name, med, unit, n, spread))

    add("job_s", [r["job_s"] for r in untraced], "s")
    add("setup_s", [r["setup_s"] for r in good], "s")
    add("peak_rss_mb", [result["peak_rss_mb"]], "MB")
    for name in ("val_loss_end", "val_loss_untrained"):
        add(name, [r[name] for r in good if name in r], "nats")
    for name, unit in EXTRA.items():
        add(name, [r[name] for r in untraced if name in r], unit)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed_ops"] for r in reps)
    # val_loss_end may exceed the reference commit's value for the same seed
    # (perfbench/baseline.json; for other seeds, the highest value it
    # reached on any baseline seed) by its bound. A regression gate on
    # BENCHMARK.json compares medians over seeds; this check holds each seed
    # to itself. It guards
    # the numerics; whether training learns is checked on custom-train
    # (val_loss_learned), since resnet-two-phase's eval-mode loss mostly
    # reflects batch-norm running statistics that a few steps barely move,
    # and prepare-evaluate's checkpoint is never trained.
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}.get("val_loss_end")
    ref = baseline_reference().get(workload, {})
    ref = ref.get("val_loss_end", {}).get(str(seed), ref.get("val_loss_end_max"))
    if scale == "full" and ref and bound and "val_loss_end" in metrics:
        checks["val_loss_end_within_bound"] = (
            metrics["val_loss_end"]["value"] <= ref * (1 + bound))
    if trace:
        traced = [r["job_s"] for r in good if r["traced"]]
        if traced and untraced:
            over = (statistics.median(traced)
                    - statistics.median(r["job_s"] for r in untraced))
            result["layers"]["trace.overhead_s"] = {
                "value": over, "unit": "s", "n": len(traced) + len(untraced)}
            result["layers"]["trace.overhead_pct"] = {
                "value": 100 * over / statistics.median(
                    r["job_s"] for r in untraced),
                "unit": "%", "n": len(traced) + len(untraced)}
        for name in (m["name"] for m in bench["per_layer"]):
            checks[f"per_layer_reported.{name}"] = name in result["layers"]
    attempted += len(checks)
    failed += sum(not ok for ok in checks.values())
    rows.append(("fail_frac", failed / attempted, "ratio", attempted, ""))
    return checks, metrics, rows, attempted, failed


def baseline_reference():
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f).get("reference", {})


def print_report(workload, seed, result, checks, rows, trace):
    print(f"== {workload}  seed {seed}  reps {len(result['reps'])}  "
          f"(input generation {result['gen_s']:.2f} s, not timed)")
    for name, value, unit, n, spread in rows:
        print(f"  {name:<24} {value:>14.6g} {unit:<8} n={n:<4} {spread}")
    for name, ok in checks.items():
        if not ok:
            print(f"  FAILED check: {name}")
    for rep in result["reps"]:
        for err in rep.get("errors", []):
            print(f"  error: {err.strip()}")
    if trace:
        print("  -- per layer (median per call unless noted; n = samples)")
        for name, m in sorted(result["layers"].items()):
            pct = (f" {m['pct']} {m['pct_value']:.6g}" if "pct" in m else "")
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<8} "
                  f"n={m['n']}{pct}")
        shares = result["shares"]
        print("  -- share of job self time (%)"
              + (" in phase 1" if workload == "resnet-two-phase" else ""))
        for group, pct in shares.items():
            print(f"  {group:<32} {pct:>8.2f}")
        top = next(iter(shares), None)
        verdict = "confirmed" if top == result["design"] else "NOT confirmed"
        print(f"  design group '{result['design']}' is the largest share: "
              f"{verdict}")
    print("env " + json.dumps(result["environment"], sort_keys=True))


def run_one(workload, args, bench, out_dir):
    run_dir = os.path.join(out_dir, f"run-{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = run_worker(workload, args.seed, args.seconds, args.trace,
                            args.scale, run_dir, args.deadline)
        result["environment"].update(git_commit=git_commit(),
                                     source_sha256=source_digest(
                                         os.path.join("src", "pednet")))
        checks, metrics, rows, attempted, failed = evaluate(
            workload, args.seed, args.scale, args.trace, result, bench, out_dir)
        print_report(workload, args.seed, result, checks, rows, args.trace)
        last = os.path.join(out_dir, "last", workload)
        shutil.rmtree(last, ignore_errors=True)
        os.makedirs(last)
        with open(os.path.join(last, "result.json"), "w", encoding="utf-8") as f:
            json.dump(dict(result, checks=checks), f, indent=1)
        spans = os.path.join(run_dir, "work", "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(last, "spans.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in bench["per_layer"] if m["name"] in result["layers"]}
    else:
        metrics = {m["name"]: metrics[m["name"]] for m in bench["end_to_end"]
                   if m["name"] in metrics}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(gen.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "pednet", "__init__.py")):
        fail(f"no pednet sources under {os.path.join(ROOT, 'src')}; "
             "run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit()
                              and int(current) > 0 else nproc)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    names = tuple(gen.WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.deadline = (start if len(names) == 1 else time.monotonic()) + DEADLINE_S
        results[name] = run_one(name, args, bench, out_dir)
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
