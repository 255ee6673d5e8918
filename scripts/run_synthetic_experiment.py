#!/usr/bin/env python3
"""End-to-end experiment on a generated synthetic corpus.

Writes class-colored frames plus COCO annotations, then runs `pednet
prepare`, `pednet train` and `pednet evaluate` (test split) for one registry
model. Everything lands under --workdir so a run is fully self-contained and
reproducible from the seed.

Example (with pednet installed, or src/ on PYTHONPATH):
    python scripts/run_synthetic_experiment.py --model-id 8 \
        --workdir /tmp/pednet-demo --per-class 12 --epochs 10
"""

import argparse
import os
import sys

from pednet import cli, data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model-id", type=int, default=8,
                        help="registry model id 1..8 (default 8)")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--per-class", type=int, default=12,
                        help="synthetic pedestrians per class (default 12)")
    parser.add_argument("--balance-target", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--epochs-phase2", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = os.path.join(args.workdir, "corpus")
    ann, frames = data.make_synthetic_corpus(
        corpus, [args.per_class] * len(data.CLASS_NAMES), seed=args.seed)
    print(f"synthetic corpus written under {corpus}")

    prepared = os.path.join(args.workdir, "prepared")
    manifest = os.path.join(prepared, "manifest.tsv")
    checkpoint = os.path.join(args.workdir, f"model{args.model_id}.pdcn")
    seed = ["--seed", str(args.seed)]
    for argv in (
            ["prepare", "--annotations", ann, "--frames", frames,
             "--workdir", prepared,
             "--balance-target", str(args.balance_target), *seed],
            ["train", "--manifest", manifest,
             "--model-id", str(args.model_id), "--workdir", args.workdir,
             "--epochs", str(args.epochs),
             "--epochs-phase2", str(args.epochs_phase2), *seed],
            ["evaluate", "--checkpoint", checkpoint, "--manifest", manifest,
             "--split", "test", "--out", args.workdir]):
        rc = cli.main(argv)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
