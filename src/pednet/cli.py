"""Command-line surface: prepare, inspect, train, evaluate, infer.

Settings resolve as defaults < config file < flags; the fully resolved
configuration is printed (and written next to outputs) for reproducibility.
The config file is line-oriented `key = value` text.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data, metrics, train
from .errors import PednetError
from .models import (CLASS_NAMES, build_model, registry_lookup)

# setting -> train.TrainConfig field
_TRAIN_FIELDS = {"seed": "seed", "batch_size": "batch_size",
                 "epochs": "max_epochs_phase1",
                 "epochs_phase2": "max_epochs_phase2", "patience": "patience"}
_DEFAULTS = {
    **{key: getattr(train.TrainConfig(), name)
       for key, name in _TRAIN_FIELDS.items()},
    "balance_target": 5000,
}


def parse_config_file(path) -> dict:
    """Settings from a `key = value` file, each key one of the defaults and
    its value converted to the default's type; PednetError names the file
    and line of the first bad one."""
    values = {}
    for lineno, line in enumerate(data.read_text(path).split("\n"),
                                  start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PednetError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _DEFAULTS:
            raise PednetError(f"{path}:{lineno}: unknown key {key!r}")
        kind = type(_DEFAULTS[key])
        try:
            values[key] = kind(raw)
        except ValueError:
            raise PednetError(f"{path}:{lineno}: {key} must be "
                              f"{kind.__name__}, got {raw!r}") from None
    return values


def resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _print_config(cfg: dict):
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}")


def cmd_prepare(args) -> int:
    cfg = resolve_config(args)
    _print_config(cfg)
    os.makedirs(args.workdir, exist_ok=True)
    manifest = data.prepare_dataset(
        args.annotations, args.frames, args.workdir,
        target=cfg["balance_target"], seed=cfg["seed"])
    print(f"{'class':<16} {'train':>7} {'val':>7} {'test':>7}")
    for name in CLASS_NAMES:
        row = [manifest.per_class_counts(s)[name] for s in data.SPLITS]
        print(f"{name:<16} {row[0]:>7} {row[1]:>7} {row[2]:>7}")
    print(f"manifest written to {os.path.join(args.workdir, 'manifest.tsv')}")
    return 0


def cmd_inspect(args) -> int:
    if os.path.exists(args.model):
        model, config, _, _ = ckpt.restore_model(args.model)
    else:
        try:
            config = registry_lookup(int(args.model))
        except (ValueError, PednetError):
            raise PednetError(f"{args.model!r} is neither a checkpoint path "
                              "nor a model id 1..8") from None
        model = build_model(config, seed=0)
    ledger, total, trainable = model.summary()
    print(f"{'idx':>4} {'layer':<28} {'kind':<14} {'trainable':>12} "
          f"{'non-trainable':>14}")
    for e in ledger:
        print(f"{e.index:>4} {e.name:<28} {e.kind:<14} {e.trainable:>12,} "
              f"{e.non_trainable:>14,}")
    print(f"total parameters: {total:,} / trainable: {trainable:,}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _print_config(cfg)
    config = registry_lookup(args.model_id)
    tc = train.TrainConfig(**{name: cfg[key]
                              for key, name in _TRAIN_FIELDS.items()})
    manifest = data.read_manifest(args.manifest)
    x_train, y_train = data.load_split_arrays(manifest, "train")
    x_val, y_val = data.load_split_arrays(manifest, "val")
    model = build_model(config, seed=cfg["seed"])
    history = train.train(model, config, tc, x_train, y_train, x_val, y_val)
    os.makedirs(args.workdir, exist_ok=True)
    ckpt_path = os.path.join(args.workdir, f"model{config.model_id}.pdcn")
    ckpt.save_model(ckpt_path, model, config, optimizer=history.optimizer,
                    history=history, extra_meta={"seed": cfg["seed"]})
    hist_path = os.path.join(args.workdir, f"model{config.model_id}_history.csv")
    with open(hist_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(history.to_csv())
    with open(os.path.join(args.workdir,
                           f"model{config.model_id}_config.txt"), "w",
              encoding="utf-8", newline="\n") as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")
    last = history.records[-1]
    print(f"stopped after epoch {last.epoch} "
          f"({', '.join(history.stop_reasons)}); "
          f"best epoch {history.best_epoch}")
    print(f"checkpoint written to {ckpt_path}")
    print(f"history written to {hist_path}")
    return 0


def cmd_evaluate(args) -> int:
    model, config, _, _ = ckpt.restore_model(args.checkpoint)
    manifest = data.read_manifest(args.manifest)
    x, y = data.load_split_arrays(manifest, args.split)
    preds, _ = train.predict(model, x)
    report = metrics.build_report(config.model_id, preds, y.argmax(axis=1))
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir,
                               f"model{config.model_id}_{args.split}_report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(metrics.report_to_json(report))
    csv_path = os.path.join(out_dir,
                            f"model{config.model_id}_{args.split}_pr_curves.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(metrics.pr_curves_to_csv(report))
    print(f"accuracy {report.accuracy:.4f}  macro PR-AUC "
          f"{report.pr_auc_macro:.4f}")
    print(f"report written to {report_path}")
    return 0


def cmd_infer(args) -> int:
    model, _, _, _ = ckpt.restore_model(args.checkpoint)
    paths, images = [], []
    for path in args.images:
        try:
            img = data.load_image(path)
        except PednetError as e:
            print(f"{path}\terror: {e}", file=sys.stderr)
            continue
        paths.append(path)
        images.append(data.bilinear_resize(img, data.CROP_SIZE,
                                           data.CROP_SIZE))
    if images:
        probs, _ = train.predict(model,
                                 np.stack(images).astype(np.float32) / 255.0)
        for path, row in zip(paths, probs):
            label = CLASS_NAMES[int(row.argmax())]
            prob_str = " ".join(f"{p:.6f}" for p in row)
            print(f"{path}\t{label}\t{prob_str}")
    return 1 if len(paths) < len(args.images) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pednet",
        description="Six-class pedestrian demographics CNN engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("prepare", help="crop, split, balance, write manifest")
    add_common(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--balance-target", dest="balance_target", type=int)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("inspect", help="print the parameter ledger")
    p.add_argument("model", help="model id 1..8 or checkpoint path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train a registry model on a manifest")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-id", dest="model_id", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--epochs-phase2", dest="epochs_phase2", type=int)
    p.add_argument("--patience", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="write a metrics report for a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=data.SPLITS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("infer", help="classify images with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("images", nargs="+")
    p.set_defaults(func=cmd_infer)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PednetError, OSError) as e:
        # an OSError names its file apart from its reason, where it has one
        reason = (f"{e.filename}: {e.strerror}"
                  if isinstance(e, OSError) and e.filename else e)
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
