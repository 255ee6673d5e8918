"""COCO ingest, cropping, stratified split, balancing, and augmentation.

Crops are materialized as binary PPM (P6) files in per-class directories;
PNG input is supported behind the same decode interface when Pillow is
available. The manifest is a line-oriented TSV, one sample per line.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .models import CLASS_NAMES, NUM_CLASSES

_CLASS_BY_LOWER = {name.lower(): name for name in CLASS_NAMES}

SPLITS = ("train", "val", "test")
SPLIT_RATIOS = (0.7, 0.2, 0.1)  # train/val/test share of each class
CROP_SIZE = 99
# the ranges of the balancing augmentation's uniform draws
AUGMENT_ROTATION_DEG = 15.0
AUGMENT_SHIFT_FRAC = 0.10  # of the crop's width or height
AUGMENT_SHEAR_DEG = 10.0
AUGMENT_ZOOM_FRAC = 0.10
AUGMENT_FLIP_PROB = 0.5


def class_slug(name: str) -> str:
    return name.lower().replace(" ", "_")


@dataclass(frozen=True)
class AnnotationRecord:
    ann_id: int
    image_id: int
    file_name: str
    bbox: tuple[float, float, float, float]  # x, y, width, height
    class_name: str


@dataclass(frozen=True)
class SampleRecord:
    path: str
    class_name: str
    split: str
    origin: str        # "original" | "augmented"
    source_id: int     # annotation id of the underlying crop


@dataclass
class DatasetManifest:
    samples: list[SampleRecord] = field(default_factory=list)

    def split_samples(self, split: str) -> list[SampleRecord]:
        return [s for s in self.samples if s.split == split]

    def per_class_counts(self, split: str) -> dict[str, int]:
        counts = {name: 0 for name in CLASS_NAMES}
        for s in self.samples:
            if s.split == split:
                counts[s.class_name] += 1
        return counts

    def sorted(self) -> "DatasetManifest":
        key = lambda s: (s.class_name, SPLITS.index(s.split), s.origin,
                         s.source_id, s.path)
        return DatasetManifest(sorted(self.samples, key=key))


# -- image decode/encode --------------------------------------------------

def write_ppm(path, image: np.ndarray):
    """Write an (H,W,3) array of values in [0,255] as binary P6."""
    # rint and clip are exact in the image's own dtype: no float64 copy
    arr = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(b"P6"):
        raise DataError(f"{path}: not a binary P6 PPM")
    # header = magic, width, height, maxval, separated by whitespace/comments
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        fields.append(buf[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(x) for x in fields)
    except ValueError as e:
        raise DataError(f"{path}: malformed PPM header") from e
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported")
    raw = buf[pos:pos + w * h * 3]
    if len(raw) != w * h * 3:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def load_image(path) -> np.ndarray:
    """Decode to a uint8 (H,W,3) array; an image that cannot be read, or
    has no pixels, is a DataError that names its path."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext != ".ppm":
        try:
            from PIL import Image
        except ImportError as e:
            raise DataError(f"{path}: non-PPM decode requires Pillow") from e
    try:
        if ext == ".ppm":
            image = read_ppm(path)
        else:
            with Image.open(path) as im:
                image = np.asarray(im.convert("RGB"), dtype=np.uint8)
    except OSError as e:
        raise DataError(f"{path}: {e.strerror or e}") from e
    h, w = image.shape[:2]
    if not h or not w:
        raise DataError(f"{path}: image has zero width or height ({w}x{h})")
    return image


def read_text(path) -> str:
    """The text of a UTF-8 file, newlines as open() translates them; bytes
    that are not UTF-8 are a DataError that names the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte "
                            f"{e.start})") from None


# -- COCO parsing ---------------------------------------------------------

def _entry_field(entry, key, what):
    """entry[key], one JSON value; a DataError names `what` when the entry
    lacks the key or holds an array or object there."""
    if key not in entry:
        raise DataError(f"{what} has no {key!r}")
    if isinstance(entry[key], (list, dict)):
        raise DataError(f"{what}: {key!r} must be a number or string, "
                        f"got {entry[key]!r}")
    return entry[key]


def parse_coco(text: str) -> list[AnnotationRecord]:
    """Parse the text of a COCO-format annotation file.

    Returns records sorted by annotation id. An annotation with an absent,
    null or empty bbox is skipped; any other bbox must be four finite
    numbers, and no two kept annotations may share an int(id).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"invalid COCO JSON: {e}") from e
    if not isinstance(document, dict):
        raise DataError("COCO document is not a JSON object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(document.get(key), list):
            raise DataError(f"COCO document has no {key!r} array")
        for i, entry in enumerate(document[key]):
            if not isinstance(entry, dict):
                raise DataError(f"{key} entry {i} is not an object")
    cat_map = {}
    for cat in document["categories"]:
        name = str(cat.get("name", ""))
        mapped = _CLASS_BY_LOWER.get(name.lower())
        if mapped is None:
            raise DataError(f"unknown category name {name!r}")
        cat_map[_entry_field(cat, "id", f"category {name!r}")] = mapped
    images = {_entry_field(img, "id", "an image"): img
              for img in document["images"]}
    records = []
    first_ids = {}  # int(id), which names the crop file -> the first id
    for ann in document["annotations"]:
        bbox = ann.get("bbox")
        if bbox is None or bbox == []:
            continue
        ann_id = _entry_field(ann, "id", "an annotation")
        category_id = _entry_field(ann, "category_id", f"annotation {ann_id}")
        image_id = _entry_field(ann, "image_id", f"annotation {ann_id}")
        if category_id not in cat_map:
            raise DataError(f"annotation {ann_id} references "
                            f"unknown category id {category_id}")
        if image_id not in images:
            raise DataError(f"annotation {ann_id} references "
                            f"unknown image id {image_id}")
        try:
            box = (tuple(float(v) for v in bbox)
                   if isinstance(bbox, list) and len(bbox) == 4 else None)
            ids = int(ann_id), int(image_id)
        except (TypeError, ValueError):
            box = None
        if box is None or not all(map(math.isfinite, box)):
            raise DataError(f"annotation {ann_id}: id and image_id must be "
                            f"numbers and bbox four finite numbers, got "
                            f"bbox {bbox!r}")
        if ids[0] in first_ids:
            raise DataError(f"annotation {ann_id}: id repeats annotation "
                            f"{first_ids[ids[0]]}")
        first_ids[ids[0]] = ann_id
        file_name = _entry_field(images[image_id], "file_name",
                                 f"image {image_id}")
        if not isinstance(file_name, str):
            raise DataError(f"image {image_id}: 'file_name' must be a "
                            f"string, got {file_name!r}")
        records.append(AnnotationRecord(*ids, file_name, box,
                                        cat_map[category_id]))
    records.sort(key=lambda r: r.ann_id)
    return records


# -- crop and resize ------------------------------------------------------

def _bilinear(image: np.ndarray, sy, sx) -> np.ndarray:
    """Bilinear samples of an (H,W,C) image at the row/column coordinates
    sy, sx, which broadcast together and lie in [0, H-1] x [0, W-1], as
    float32. Each corner is one flat gather from a (C, H*W) view in the
    image's dtype (uint8 or float32), upcast exactly inside its multiply by
    a float64 weight plane."""
    h, w, c = image.shape
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
    wy = sy - y0
    wx = sx - x0
    ux = 1 - wx
    planes = image.transpose(2, 0, 1).reshape(c, h * w)
    top = np.take(planes, row0 + x0, axis=1) * ux
    top += np.take(planes, row0 + x1, axis=1) * wx
    bot = np.take(planes, row1 + x0, axis=1) * ux
    bot += np.take(planes, row1 + x1, axis=1) * wx
    top *= 1 - wy
    bot *= wy
    top += bot
    return top.transpose(1, 2, 0).astype(np.float32, order="C")


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resample to float32; identity sizes return
    a float32 copy."""
    h, w = image.shape[:2]
    if (h, w) == (out_h, out_w):
        return image.astype(np.float32)
    ys = np.linspace(0.0, h - 1, out_h)
    xs = np.linspace(0.0, w - 1, out_w)
    return _bilinear(image, ys[:, None], xs[None, :])


def crop_and_resize(frame: np.ndarray, record: AnnotationRecord) -> np.ndarray:
    """Clamped axis-aligned crop of the bbox, resized to 99x99."""
    h, w = frame.shape[:2]
    x, y, bw, bh = record.bbox
    if bw <= 0 or bh <= 0 or x >= w or y >= h or x + bw <= 0 or y + bh <= 0:
        raise DataError(f"annotation {record.ann_id}: degenerate box after clamping")
    x0 = min(max(int(math.floor(x)), 0), w - 1)
    y0 = min(max(int(math.floor(y)), 0), h - 1)
    x1 = min(max(int(math.ceil(x + bw)), x0 + 1), w)
    y1 = min(max(int(math.ceil(y + bh)), y0 + 1), h)
    return bilinear_resize(frame[y0:y1, x0:x1], CROP_SIZE, CROP_SIZE)


# -- augmentation ---------------------------------------------------------

@dataclass(frozen=True)
class AugmentParams:
    horizontal_flip: bool
    rotation_deg: float
    shift_x: float        # fraction of width
    shift_y: float        # fraction of height
    shear_deg: float
    zoom: float


def draw_augment_params(rng: np.random.Generator) -> AugmentParams:
    return AugmentParams(
        horizontal_flip=bool(rng.random() < AUGMENT_FLIP_PROB),
        rotation_deg=float(rng.uniform(-AUGMENT_ROTATION_DEG,
                                       AUGMENT_ROTATION_DEG)),
        shift_x=float(rng.uniform(-AUGMENT_SHIFT_FRAC, AUGMENT_SHIFT_FRAC)),
        shift_y=float(rng.uniform(-AUGMENT_SHIFT_FRAC, AUGMENT_SHIFT_FRAC)),
        shear_deg=float(rng.uniform(-AUGMENT_SHEAR_DEG, AUGMENT_SHEAR_DEG)),
        zoom=float(rng.uniform(1.0 - AUGMENT_ZOOM_FRAC,
                               1.0 + AUGMENT_ZOOM_FRAC)),
    )


def _affine_matrix(params: AugmentParams, h: int, w: int) -> np.ndarray:
    """Forward (input -> output) pixel-coordinate transform about the center."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    def mat(a, b, c, d, tx=0.0, ty=0.0):
        return np.array([[a, b, tx], [c, d, ty], [0, 0, 1.0]])
    m = mat(-1.0 if params.horizontal_flip else 1.0, 0, 0, 1)
    th = math.radians(params.rotation_deg)
    m = mat(math.cos(th), -math.sin(th), math.sin(th), math.cos(th)) @ m
    m = mat(1.0, math.tan(math.radians(params.shear_deg)), 0.0, 1.0) @ m
    m = mat(params.zoom, 0, 0, params.zoom) @ m
    m = mat(1, 0, 0, 1, params.shift_x * w, params.shift_y * h) @ m
    center = mat(1, 0, 0, 1, cx, cy)
    uncenter = mat(1, 0, 0, 1, -cx, -cy)
    return center @ m @ uncenter


def augment(image: np.ndarray, params: AugmentParams) -> np.ndarray:
    """Single composed affine warp, bilinear sampling, nearest-edge fill."""
    h, w = image.shape[:2]
    inv = np.linalg.inv(_affine_matrix(params, h, w))
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sx = inv[0, 0] * xx + inv[0, 1] * yy + inv[0, 2]
    sy = inv[1, 0] * xx + inv[1, 1] * yy + inv[1, 2]
    return _bilinear(image, np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1))


# -- parallel file work ---------------------------------------------------

def _in_order(fn, calls):
    """fn(*args) for each args of `calls`, on one worker thread per CPU this
    process may use (numpy's gathers and ufuncs and file writes release the
    GIL). Calls are submitted at most two per worker ahead of the one
    awaited, since a queued call holds about 1.7 KB and the default balance
    target makes tens of thousands. They are awaited in input order, so
    the error raised is the first in that order, and the calls still queued
    are then cancelled. The threads are joined before this returns."""
    workers = len(os.sched_getaffinity(0))
    pool = ThreadPoolExecutor(workers)
    queued = collections.deque()
    try:
        for args in calls:
            queued.append(pool.submit(fn, *args))
            if len(queued) > 2 * workers:
                queued.popleft().result()
        while queued:
            queued.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _crop_frame(annotation_path, frame_path, crops):
    """Decode one frame and write the crop of each (record, path) of
    `crops`; a box that cannot be cropped is a DataError that names the
    annotation file."""
    frame = load_image(frame_path)
    for rec, path in crops:
        try:
            crop = crop_and_resize(frame, rec)
        except DataError as e:
            raise DataError(f"{annotation_path}: {e}") from None
        write_ppm(path, crop)


def _augment_file(src_path, params, path):
    write_ppm(path, augment(load_image(src_path), params))


# -- split and balance ----------------------------------------------------

def stratified_split(records: list[SampleRecord],
                     seed: int = 0) -> DatasetManifest:
    """Class-wise seeded shuffle then floor/floor/remainder assignment of
    SPLIT_RATIOS; a class needs 3 samples (a val sample takes 5)."""
    by_class: dict[str, list[SampleRecord]] = {n: [] for n in CLASS_NAMES}
    for rec in records:
        if rec.class_name not in by_class:
            raise DataError(f"unknown class {rec.class_name!r}")
        by_class[rec.class_name].append(rec)
    out = []
    for ci, name in enumerate(CLASS_NAMES):
        recs = sorted(by_class[name], key=lambda r: r.source_id)
        if len(recs) < 3:
            raise DataError(f"class {name!r} has {len(recs)} samples; a "
                            "class needs 3 for a train and a test sample")
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, 10, ci])))
        order = rng.permutation(len(recs))
        n_train = int(math.floor(len(recs) * SPLIT_RATIOS[0] + 1e-9))
        n_val = int(math.floor(len(recs) * SPLIT_RATIOS[1] + 1e-9))
        for pos, idx in enumerate(order):
            split = ("train" if pos < n_train
                     else "val" if pos < n_train + n_val else "test")
            out.append(replace(recs[idx], split=split))
    return DatasetManifest(out).sorted()


def balance_train(manifest: DatasetManifest, target: int, seed: int,
                  aug_dir) -> DatasetManifest:
    """Downsample majority classes to `target` train originals; augment
    minority classes round-robin until each reaches `target`. Augmented
    crops are materialized under aug_dir/<class-slug>/; their parameters
    are drawn here in class and copy order, and the warps run in parallel."""
    keep = [s for s in manifest.samples if s.split != "train"]
    jobs = []  # (source crop, parameters, output path)
    for ci, name in enumerate(CLASS_NAMES):
        originals = sorted(
            (s for s in manifest.samples
             if s.split == "train" and s.class_name == name),
            key=lambda s: s.source_id)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, 20, ci])))
        if len(originals) >= target:
            chosen = rng.permutation(len(originals))[:target]
            keep.extend(originals[i] for i in sorted(chosen))
            continue
        keep.extend(originals)
        out_dir = os.path.join(aug_dir, class_slug(name))
        os.makedirs(out_dir, exist_ok=True)
        need = target - len(originals)
        for k in range(need):
            src = originals[k % len(originals)]
            path = os.path.join(out_dir, f"aug_{src.source_id}_{k:05d}.ppm")
            jobs.append((src.path, draw_augment_params(rng), path))
            keep.append(SampleRecord(path, name, "train", "augmented",
                                     src.source_id))
    _in_order(_augment_file, jobs)
    return DatasetManifest(keep).sorted()


# -- manifest file --------------------------------------------------------

_MANIFEST_HEADER = "path\tclass\tsplit\torigin\tsource_id"


def write_manifest(manifest: DatasetManifest, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_MANIFEST_HEADER + "\n")
        for s in manifest.sorted().samples:
            f.write(f"{s.path}\t{s.class_name}\t{s.split}\t{s.origin}"
                    f"\t{s.source_id}\n")


def read_manifest(path) -> DatasetManifest:
    samples = []
    header, *lines = read_text(path).split("\n")
    if header != _MANIFEST_HEADER:
        raise DataError(f"{path}: unexpected manifest header")
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: malformed manifest line")
        p, cls, split, origin, source_id = parts
        if cls not in CLASS_NAMES or split not in SPLITS \
                or origin not in ("original", "augmented"):
            raise DataError(f"{path}:{lineno}: invalid field value")
        try:
            samples.append(SampleRecord(p, cls, split, origin,
                                        int(source_id)))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad source id") from e
    return DatasetManifest(samples)


# -- end-to-end preparation ----------------------------------------------

def prepare_dataset(annotation_path, frames_dir, workdir, target: int,
                    seed: int = 0) -> DatasetManifest:
    """parse -> split -> crop -> balance -> manifest, all under workdir; an
    annotation that cannot be parsed or cropped, or class counts that give
    no usable split, are a DataError that names the annotation file. The
    counts are checked before any frame is decoded."""
    if target < 1:
        raise DataError(f"balance target must be >= 1, got {target}")
    try:
        records = parse_coco(read_text(annotation_path))
    except DataError as e:
        raise DataError(f"{annotation_path}: {e}") from None
    crop_dir = os.path.join(workdir, "crops")
    samples = [SampleRecord(os.path.join(crop_dir, class_slug(r.class_name),
                                         f"crop_{r.ann_id:08d}.ppm"),
                            r.class_name, "train", "original", r.ann_id)
               for r in records]
    try:
        manifest = stratified_split(samples, seed)
    except DataError as e:
        raise DataError(f"{annotation_path}: {e}") from None
    if not manifest.split_samples("val"):
        raise DataError(f"{annotation_path}: no class has 5 samples, so "
                        "the val split is empty")
    for name in sorted({r.class_name for r in records}):
        os.makedirs(os.path.join(crop_dir, class_slug(name)), exist_ok=True)
    # one call per frame, so that each worker holds one decoded frame
    by_frame = sorted(zip(records, (s.path for s in samples)),
                      key=lambda rp: (rp[0].file_name, rp[0].ann_id))
    _in_order(_crop_frame, (
        (annotation_path, os.path.join(frames_dir, file_name), list(crops))
        for file_name, crops in itertools.groupby(
            by_frame, key=lambda rp: rp[0].file_name)))
    manifest = balance_train(manifest, target, seed,
                             os.path.join(workdir, "augmented"))
    write_manifest(manifest, os.path.join(workdir, "manifest.tsv"))
    return manifest


def one_hot(class_indices):
    """float32 rows with a 1 in each index's column of the six classes."""
    out = np.zeros((len(class_indices), NUM_CLASSES), np.float32)
    out[np.arange(len(class_indices)), class_indices] = 1.0
    return out


def load_split_arrays(manifest: DatasetManifest, split: str):
    """(images scaled to [0,1], one-hot labels) for one split."""
    samples = manifest.split_samples(split)
    if not samples:
        raise DataError(f"split {split!r} is empty")
    x = np.empty((len(samples), CROP_SIZE, CROP_SIZE, 3), np.float32)
    for i, s in enumerate(samples):
        img = load_image(s.path)
        if img.shape != x.shape[1:]:
            raise DataError(f"{s.path}: expected a {CROP_SIZE}x{CROP_SIZE} "
                            f"RGB crop, got shape {img.shape}")
        x[i] = img
    x /= 255.0
    y = one_hot([CLASS_NAMES.index(s.class_name) for s in samples])
    return x, y


# -- synthetic corpus ----------------------------------------------------

# One distinctive solid color per class, in CLASS_NAMES order.
CLASS_COLORS = np.array([
    [220, 30, 30],
    [30, 220, 30],
    [30, 30, 220],
    [220, 220, 30],
    [220, 30, 220],
    [30, 220, 220],
], dtype=np.float32)


def make_synthetic_corpus(root, per_class_counts, seed=7):
    """Write frames + a COCO annotation file for a toy corpus.

    Each 120x160 frame holds a single 80x60 class-colored pedestrian box,
    with Gaussian noise of standard deviation 12, on a gray background.
    Returns (annotations path, frames dir).
    """
    frames_dir = os.path.join(root, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    h, w = 120, 160
    images, annotations = [], []
    ann_id = 1
    for c, count in enumerate(per_class_counts):
        for _ in range(count):
            frame = np.full((h, w, 3), 110.0, np.float32)
            bx = int(rng.integers(0, w - 60))
            by = int(rng.integers(0, h - 80))
            patch = (CLASS_COLORS[c]
                     + rng.normal(0, 12.0, (80, 60, 3)).astype(np.float32))
            frame[by:by + 80, bx:bx + 60] = np.clip(patch, 0, 255)
            fname = f"frame_{ann_id:05d}.ppm"
            write_ppm(os.path.join(frames_dir, fname), frame)
            images.append({"id": ann_id, "file_name": fname,
                           "width": w, "height": h})
            annotations.append({"id": ann_id, "image_id": ann_id,
                                "category_id": c,
                                "bbox": [bx, by, 60, 80]})
            ann_id += 1
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": name}
                       for c, name in enumerate(CLASS_NAMES)],
    }
    ann_path = os.path.join(root, "annotations.json")
    with open(ann_path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return ann_path, frames_dir
