"""Seeded synthetic inputs for the benchmark.

Two kinds of input, both written as plain files so the program under test
sees nothing but what a user would hand it:

* a COCO corpus (frames as binary PPM plus ``annotations.json``) for
  ``pednet prepare``;
* a prepared corpus (99x99 PPM crops plus ``manifest.tsv``) for training.

This module imports nothing from the program: the class names, PPM layout
and manifest columns are written out here so that a change to the
program's own writers cannot change the inputs.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass

import numpy as np

CLASS_NAMES = ("Female Adult", "Female Child", "Female Teenager",
               "Male Adult", "Male Child", "Male Teenager")
CROP = 99
# One colour per class: the clothing of generated pedestrians and, in the
# training crops, the background too. Model 8 learns that cue in 16 steps
# (val loss about 1.3 nats against 2.0 untrained and ln 6 = 1.79 at chance),
# so custom-train's val_loss_end shows whether training still learns.
_PALETTE = np.array([[200, 40, 40], [40, 190, 60], [50, 60, 200],
                     [210, 200, 50], [190, 60, 190], [50, 190, 200]],
                    dtype=np.float64)


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the generated COCO corpus."""

    frames: int = 96
    frame_hw: tuple[int, int] = (480, 640)
    peds_per_frame: int = 4
    box_height: float = 150.0      # median pedestrian box height, pixels
    box_spread: float = 0.45       # sigma of log box height
    # relative class frequencies (imbalance); balance_target is the
    # per-class train count that `prepare` balances to
    class_weights: tuple[float, ...] = (0.34, 0.08, 0.10, 0.26, 0.10, 0.12)
    balance_target: int = 64


def write_ppm(path, image):
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def _quota(total, weights):
    """Exact per-class counts summing to total (largest remainder)."""
    w = np.asarray(weights, dtype=np.float64)
    raw = w / w.sum() * total
    counts = np.floor(raw).astype(int)
    for i in np.argsort(-(raw - counts), kind="stable")[:total - counts.sum()]:
        counts[i] += 1
    return counts


def _figure(rng, cls, h, w):
    """A pedestrian patch: head, torso in the class colour, legs."""
    patch = np.empty((h, w, 3))
    patch[:] = rng.uniform(70, 150)
    colour = _PALETTE[cls] * rng.uniform(0.85, 1.1)
    head = max(h // 6, 1)
    patch[:head, w // 4: w - w // 4] = (230, 190, 160)
    patch[head: head + (h - head) // 2] = colour
    patch[head + (h - head) // 2:] = colour * 0.45
    patch += rng.normal(0.0, 14.0, patch.shape)
    return patch


def make_coco_corpus(root, seed, spec=CorpusSpec()):
    """Write frames/ and annotations.json under root; returns their paths.

    Per-class counts and the set of box sizes are fixed by the spec, so
    every seed gives the same amount of work; the seed decides which
    pedestrian gets which box, where it stands, in which frame, and the
    pixels.
    """
    rng = np.random.default_rng([seed, 1])
    frames_dir = os.path.join(root, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    fh, fw = spec.frame_hw
    total = spec.frames * spec.peds_per_frame
    labels = np.repeat(np.arange(len(CLASS_NAMES)),
                       _quota(total, spec.class_weights))
    labels = rng.permutation(labels)
    # box heights and aspect ratios come from fixed quantile grids that the
    # seed only shuffles, so the crop work is the same for every seed
    grid = (np.arange(total) + 0.5) / total
    z = np.array([statistics.NormalDist().inv_cdf(q) for q in grid])
    heights = rng.permutation(spec.box_height * np.exp(spec.box_spread * z))
    aspects = rng.permutation(0.35 + 0.2 * grid)
    images, annotations = [], []
    yy = np.linspace(0.0, 1.0, fh, dtype=np.float32)[:, None, None]
    for f in range(spec.frames):
        base = rng.uniform(60, 160, 3).astype(np.float32)
        tilt = rng.uniform(-1, 1, 3).astype(np.float32)
        frame = base + np.float32(60.0) * yy * tilt
        frame = frame + rng.standard_normal((fh, fw, 3), dtype=np.float32) * 10
        name = f"frame_{f:05d}.ppm"
        for k in range(spec.peds_per_frame):
            ann_id = f * spec.peds_per_frame + k + 1
            cls = int(labels[ann_id - 1])
            bh = int(np.clip(heights[ann_id - 1], 24, fh - 2))
            bw = max(int(bh * aspects[ann_id - 1]), 8)
            x = int(rng.integers(0, fw - bw))
            y = int(rng.integers(0, fh - bh))
            frame[y:y + bh, x:x + bw] = _figure(rng, cls, bh, bw)
            annotations.append({"id": ann_id, "image_id": f + 1,
                                "category_id": cls + 1,
                                "bbox": [x, y, bw, bh]})
        write_ppm(os.path.join(frames_dir, name),
                  np.clip(np.rint(frame), 0, 255))
        images.append({"id": f + 1, "file_name": name,
                       "width": fw, "height": fh})
    doc = {"images": images, "annotations": annotations,
           "categories": [{"id": i + 1, "name": n}
                          for i, n in enumerate(CLASS_NAMES)]}
    ann_path = os.path.join(root, "annotations.json")
    with open(ann_path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return ann_path, frames_dir


def crop_image(rng, cls):
    """One 99x99 crop of a pedestrian of class cls on a background of the
    class colour, as uint8."""
    img = np.empty((CROP, CROP, 3))
    img[:] = _PALETTE[cls] * rng.uniform(0.85, 1.1)
    h = int(rng.integers(70, 96))
    w = int(h * rng.uniform(0.4, 0.6))
    y = int(rng.integers(0, CROP - h + 1))
    x = int(rng.integers(0, CROP - w + 1))
    img[y:y + h, x:x + w] = _figure(rng, cls, h, w)
    img += rng.normal(0.0, 6.0, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def make_prepared_corpus(root, seed, split_sizes, train_seed=None):
    """Write crops and a manifest.tsv in pednet's manifest format.

    split_sizes maps split name -> image count; classes cycle so every
    split is as balanced as its size allows. The train split's pixels come
    from train_seed when it is given, every other split's from seed.
    Returns the manifest path.
    """
    rows = []
    source_id = 0
    for k, (split, n) in enumerate(split_sizes.items()):
        split_seed = (train_seed if split == "train" and train_seed is not None
                      else seed)
        rng = np.random.default_rng([split_seed, 2, k])
        for i in range(n):
            source_id += 1
            cls = i % len(CLASS_NAMES)
            d = os.path.join(root, split)
            os.makedirs(d, exist_ok=True)
            path = os.path.abspath(os.path.join(d, f"crop_{source_id:06d}.ppm"))
            write_ppm(path, crop_image(rng, cls))
            rows.append(f"{path}\t{CLASS_NAMES[cls]}\t{split}\toriginal"
                        f"\t{source_id}\n")
    manifest = os.path.join(root, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8", newline="\n") as f:
        f.write("path\tclass\tsplit\torigin\tsource_id\n")
        f.writelines(rows)
    return manifest


# Workload inputs. Sizes are fixed per scale, so every seed gives the same
# amount of work; "tiny" is for the self-test. Train sizes are image counts
# per split; epochs are per phase. With "learns", the run fails unless
# val_loss_end ends clearly below the untrained model's loss and chance.
WORKLOADS = {
    "custom-train": {
        "kind": "train", "model_id": 8,
        "full": {"train": 32, "val": 16, "epochs": 4, "learns": True},
        "tiny": {"train": 8, "val": 8, "epochs": 1},
    },
    "resnet-two-phase": {
        # four batch-8 steps per phase: one first step that allocates the
        # Adam slots, three steady ones. The training crops are the same for
        # every seed: after eight steps the eval-mode loss scales with
        # batch-norm running statistics that each training batch's pixels
        # move, and seeded training crops spread val_loss_end over 72-137
        # nats across ten seeds. The validation crops come from the seed.
        "kind": "train", "model_id": 1,
        "full": {"train": 32, "val": 8, "epochs": 1, "train_seed": 0},
        "tiny": {"train": 8, "val": 8, "epochs": 1},
    },
    "prepare-evaluate": {
        "kind": "prepare", "model_id": 8, "split": "test",
        "full": {"corpus": CorpusSpec(), "infer": 8},
        "tiny": {"corpus": CorpusSpec(frames=12, frame_hw=(120, 160),
                                      box_height=40.0, balance_target=6),
                 "infer": 4},
    },
}


def make_inputs(workload, seed, scale, root):
    """Generate the inputs of one workload run under root."""
    sizes = WORKLOADS[workload][scale]
    if WORKLOADS[workload]["kind"] == "prepare":
        make_coco_corpus(root, seed, sizes["corpus"])
    else:
        make_prepared_corpus(root, seed, {"train": sizes["train"],
                                          "val": sizes["val"]},
                             sizes.get("train_seed"))
    fsync_tree(root)


def fsync_tree(root):
    """Flush every file and directory under root to disk, so that the
    kernel's deferred writeback of them does not land in a timed job."""
    for d, _, files in os.walk(root):
        for path in [os.path.join(d, f) for f in files] + [d]:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
