import gc
import json
import os
import re
import shutil
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pednet import data
from pednet.errors import DataError
from pednet.models import CLASS_NAMES

from conftest import make_synthetic_corpus


def coco_doc(annotations, categories=None, images=None):
    if categories is None:
        categories = [{"id": i, "name": n} for i, n in enumerate(CLASS_NAMES)]
    if images is None:
        ids = sorted({a["image_id"] for a in annotations})
        images = [{"id": i, "file_name": f"f{i}.ppm", "width": 100,
                   "height": 100} for i in ids]
    return json.dumps({"images": images, "annotations": annotations,
                       "categories": categories})


class TestParseCoco:
    def test_empty(self):
        assert data.parse_coco(coco_doc([])) == []

    def test_two_boxes_one_image(self):
        doc = coco_doc([
            {"id": 1, "image_id": 9, "category_id": 3, "bbox": [0, 0, 5, 5]},
            {"id": 2, "image_id": 9, "category_id": 3, "bbox": [4, 4, 6, 6]},
        ])
        records = data.parse_coco(doc)
        assert len(records) == 2
        assert {r.image_id for r in records} == {9}
        assert all(r.class_name == "Male Adult" for r in records)

    def test_case_insensitive_category(self):
        doc = coco_doc(
            [{"id": 1, "image_id": 1, "category_id": 0,
              "bbox": [1, 1, 2, 2]}],
            categories=[{"id": 0, "name": "female teenager"}])
        records = data.parse_coco(doc)
        assert records[0].class_name == "Female Teenager"

    def test_unknown_category_name(self):
        doc = coco_doc([], categories=[{"id": 0, "name": "Dog"}])
        with pytest.raises(DataError, match="Dog"):
            data.parse_coco(doc)

    @pytest.mark.parametrize("doc", ["5", "[]", '"images"'])
    def test_not_an_object(self, doc):
        with pytest.raises(DataError, match="not a JSON object"):
            data.parse_coco(doc)

    @pytest.mark.parametrize("second_id,message", [
        (1, "annotation 1: id repeats annotation 1"),
        (1.5, "annotation 1.5: id repeats annotation 1")])
    def test_repeated_id(self, second_id, message):
        # both would be written as crop_00000001.ppm
        doc = coco_doc([
            {"id": 1, "image_id": 9, "category_id": 3, "bbox": [0, 0, 5, 5]},
            {"id": second_id, "image_id": 9, "category_id": 3,
             "bbox": [4, 4, 6, 6]},
        ])
        with pytest.raises(DataError) as e:
            data.parse_coco(doc)
        assert str(e.value) == message

    def test_missing_bbox_skipped(self):
        doc = coco_doc([
            {"id": 1, "image_id": 1, "category_id": 0, "bbox": [0, 0, 3, 3]},
            {"id": 2, "image_id": 1, "category_id": 0},
            {"id": 3, "image_id": 1, "category_id": 0, "bbox": None},
            {"id": 4, "image_id": 1, "category_id": 0, "bbox": []},
        ])
        records = data.parse_coco(doc)
        assert [r.ann_id for r in records] == [1]

    @pytest.mark.parametrize("bbox", [[0, 0, 5], [0, 0, 5, 5, 5], 0, "",
                                      False, {}])
    def test_present_bbox_not_four_numbers(self, bbox):
        doc = coco_doc([{"id": 7, "image_id": 1, "category_id": 0,
                         "bbox": bbox}])
        with pytest.raises(DataError, match="annotation 7: .*bbox four "
                                            "finite numbers"):
            data.parse_coco(doc)

    def test_sorted_by_annotation_id(self):
        doc = coco_doc([
            {"id": 5, "image_id": 1, "category_id": 0, "bbox": [0, 0, 3, 3]},
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [0, 0, 3, 3]},
        ])
        records = data.parse_coco(doc)
        assert [r.ann_id for r in records] == [2, 5]


class TestCropResize:
    def _record(self, bbox):
        return data.AnnotationRecord(1, 1, "f.ppm", bbox, "Male Adult")

    def test_full_frame_identity(self):
        frame = np.random.default_rng(0).integers(
            0, 256, (99, 99, 3)).astype(np.float32)
        out = data.crop_and_resize(frame, self._record((0, 0, 99, 99)))
        assert np.array_equal(out, frame)

    def test_uniform_gray_invariance(self):
        frame = np.full((40, 60, 3), 128.0, np.float32)
        out = data.crop_and_resize(frame, self._record((10, 10, 2, 2)))
        assert out.shape == (99, 99, 3)
        assert np.allclose(out, 128.0)

    def test_corner_alignment(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, (1080, 1920, 3)).astype(np.float32)
        out = data.crop_and_resize(frame, self._record((0, 0, 192, 108)))
        assert out.shape == (99, 99, 3)
        assert np.allclose(out[0, 0], frame[0, 0])
        assert np.allclose(out[0, -1], frame[0, 191])
        assert np.allclose(out[-1, 0], frame[107, 0])
        assert np.allclose(out[-1, -1], frame[107, 191])

    def test_box_clamped_to_frame(self):
        frame = np.full((50, 50, 3), 10.0, np.float32)
        out = data.crop_and_resize(frame, self._record((-20, -20, 200, 200)))
        assert np.allclose(out, 10.0)

    def test_degenerate_box(self):
        frame = np.zeros((50, 50, 3), np.float32)
        with pytest.raises(DataError):
            data.crop_and_resize(frame, self._record((200, 200, 5, 5)))

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-100, 100), y=st.floats(-100, 100),
           w=st.floats(0.5, 200), h=st.floats(0.5, 200))
    def test_crop_never_reads_outside(self, x, y, w, h):
        frame = np.full((60, 80, 3), 7.0, np.float32)
        try:
            out = data.crop_and_resize(frame, self._record((x, y, w, h)))
        except DataError:
            return
        assert np.allclose(out, 7.0)


class TestAugment:
    def test_identity_bit_equal(self):
        img = np.random.default_rng(0).random((99, 99, 3)).astype(np.float32)
        identity = data.AugmentParams(False, 0.0, 0.0, 0.0, 0.0, 1.0)
        out = data.augment(img, identity)
        assert np.array_equal(out, img)

    def test_flip_involution(self):
        img = np.random.default_rng(1).random((99, 99, 3)).astype(np.float32)
        flip = data.AugmentParams(True, 0.0, 0.0, 0.0, 0.0, 1.0)
        twice = data.augment(data.augment(img, flip), flip)
        assert np.all(np.abs(twice - img) < 1e-6)

    def test_uniform_color_invariance(self):
        img = np.full((99, 99, 3), 200.0, np.float32)
        img[..., 1] = 90.0
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = data.draw_augment_params(rng)
            out = data.augment(img, params)
            assert np.allclose(out[..., 0], 200.0, atol=1e-6)
            assert np.allclose(out[..., 1], 90.0, atol=1e-6)

    def test_shape_preserved(self):
        img = np.zeros((99, 99, 3), np.float32)
        params = data.AugmentParams(True, 12.0, 0.08, -0.05, 7.0, 1.08)
        assert data.augment(img, params).shape == (99, 99, 3)

    def test_draw_determinism(self):
        a = data.draw_augment_params(np.random.default_rng(5))
        b = data.draw_augment_params(np.random.default_rng(5))
        assert a == b

    def test_draw_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = data.draw_augment_params(rng)
            assert abs(p.rotation_deg) <= data.AUGMENT_ROTATION_DEG
            assert abs(p.shift_x) <= data.AUGMENT_SHIFT_FRAC
            assert abs(p.shift_y) <= data.AUGMENT_SHIFT_FRAC
            assert abs(p.shear_deg) <= data.AUGMENT_SHEAR_DEG
            assert abs(p.zoom - 1.0) <= data.AUGMENT_ZOOM_FRAC


def reference_bilinear(image, sy, sx):
    """Bilinear sampling by 2-D fancy indexing of a float64 copy: the formula
    that `data._bilinear` must equal byte for byte."""
    h, w = image.shape[:2]
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[..., None]
    wx = (sx - x0)[..., None]
    src = image.astype(np.float64)
    top = src[y0, x0] * (1 - wx) + src[y0, x1] * wx
    bot = src[y1, x0] * (1 - wx) + src[y1, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(image.dtype)


def _by_reference(fn, *args):
    """fn(*args) with `data._bilinear` replaced by the reference."""
    with mock.patch.object(data, "_bilinear", reference_bilinear):
        return fn(*args)


class TestBilinearMatchesReference:
    """Crops and augments are byte-identical to the reference formula."""

    FRAME = (np.random.default_rng(11).random((120, 160, 3)) * 255
             ).astype(np.float32)
    CROP = FRAME[:99, :99].copy()

    def _assert_same_crop(self, bbox):
        rec = data.AnnotationRecord(1, 1, "f.ppm", bbox, "Male Adult")
        try:
            got = data.crop_and_resize(self.FRAME, rec)
        except DataError:
            return
        want = _by_reference(data.crop_and_resize, self.FRAME, rec)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def _assert_same_augment(self, params):
        got = data.augment(self.CROP, params)
        want = _by_reference(data.augment, self.CROP, params)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bbox", [
        (5.5, 10.2, 150.0, 20.0), (30.0, 2.0, 8.3, 110.0),
        (40.0, 40.0, 1.0, 60.0), (10.0, 50.0, 70.0, 1.0),
        (-30.0, -20.0, 300.0, 400.0), (7.0, 3.0, 99.0, 99.0),
    ], ids=["wide", "tall", "one_pixel_wide", "one_pixel_high", "clamped",
            "identity_size"])
    def test_resize(self, bbox):
        self._assert_same_crop(bbox)

    def test_identity_grid(self):
        ys = np.arange(120.0)[:, None]
        xs = np.arange(160.0)[None, :]
        got = data._bilinear(self.FRAME, ys, xs)
        assert got.tobytes() == reference_bilinear(self.FRAME, ys, xs).tobytes()
        assert got.tobytes() == self.FRAME.tobytes()

    def test_uint8_image_equals_float32_copy(self):
        frame = self.FRAME.astype(np.uint8)
        crop = frame[:99, :99]
        ys = np.linspace(2.0, 119.0, 99)[:, None]
        xs = np.linspace(3.5, 150.2, 99)[None, :]
        params = data.AugmentParams(True, -14.0, 0.08, -0.1, 7.0, 0.92)
        for got, want in [
                (data._bilinear(frame, ys, xs),
                 data._bilinear(frame.astype(np.float32), ys, xs)),
                (data.augment(crop, params),
                 data.augment(crop.astype(np.float32), params)),
                (data.bilinear_resize(crop, 99, 99),
                 data.bilinear_resize(crop.astype(np.float32), 99, 99))]:
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("params", [
        data.AugmentParams(True, 0.0, 0.0, 0.0, 0.0, 1.0),
        data.AugmentParams(False, 12.5, 0.0, 0.0, 0.0, 1.0),
        data.AugmentParams(False, 0.0, 0.0, 0.0, -9.0, 1.0),
        data.AugmentParams(False, 0.0, 0.0, 0.0, 0.0, 1.09),
        data.AugmentParams(True, -14.0, 0.08, -0.1, 7.0, 0.92),
    ], ids=["flip", "rotation", "shear", "zoom", "composed"])
    def test_augment(self, params):
        self._assert_same_augment(params)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-100, 200), y=st.floats(-100, 150),
           w=st.floats(0.5, 250), h=st.floats(0.5, 250))
    def test_drawn_boxes(self, x, y, w, h):
        self._assert_same_crop((x, y, w, h))

    @settings(max_examples=40, deadline=None)
    @given(params=st.builds(
        data.AugmentParams, st.booleans(), st.floats(-15, 15),
        st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(-10, 10),
        st.floats(0.9, 1.1)))
    def test_drawn_params(self, params):
        self._assert_same_augment(params)


def make_records(counts):
    recs = []
    sid = 0
    for name, n in zip(CLASS_NAMES, counts):
        for _ in range(n):
            recs.append(data.SampleRecord(f"crops/{sid}.ppm", name, "train",
                                          "original", sid))
            sid += 1
    return recs


class TestStratifiedSplit:
    @pytest.mark.parametrize("n,expected", [
        (100, (70, 20, 10)),
        (10, (7, 2, 1)),
        (13, (9, 2, 2)),
    ])
    def test_rounding_rule(self, n, expected):
        recs = make_records([n, 3, 3, 3, 3, 3])
        manifest = data.stratified_split(recs, seed=0)
        counts = tuple(
            sum(1 for s in manifest.samples
                if s.class_name == CLASS_NAMES[0] and s.split == split)
            for split in data.SPLITS)
        assert counts == expected

    def test_partition(self):
        recs = make_records([20, 10, 8, 7, 5, 4])
        manifest = data.stratified_split(recs, seed=1)
        assert len(manifest.samples) == len(recs)
        assert {s.source_id for s in manifest.samples} == \
            {r.source_id for r in recs}

    def test_too_small_class(self):
        recs = make_records([5, 5, 5, 5, 5, 2])
        with pytest.raises(DataError):
            data.stratified_split(recs, seed=0)

    def test_class_without_samples(self):
        # every class reaches train, so balancing has originals to copy
        recs = make_records([5, 5, 5, 5, 5, 0])
        with pytest.raises(DataError, match="'Male Teenager' has 0 samples"):
            data.stratified_split(recs, seed=0)

    def test_deterministic(self):
        recs = make_records([20, 10, 8, 7, 5, 4])
        a = data.stratified_split(recs, seed=3)
        b = data.stratified_split(recs, seed=3)
        assert a.samples == b.samples


class TestBalance:
    def _manifest_with_files(self, tmp_path, counts, seed=0):
        rng = np.random.default_rng(seed)
        samples = []
        sid = 0
        for name, n in zip(CLASS_NAMES, counts):
            d = tmp_path / "crops" / data.class_slug(name)
            d.mkdir(parents=True, exist_ok=True)
            for _ in range(n):
                img = rng.integers(0, 256, (99, 99, 3)).astype(np.float32)
                path = d / f"crop_{sid:05d}.ppm"
                data.write_ppm(path, img)
                samples.append(data.SampleRecord(str(path), name, "train",
                                                 "original", sid))
                sid += 1
        return data.stratified_split(samples, seed=seed)

    def test_exact_target_everywhere(self, tmp_path):
        manifest = self._manifest_with_files(
            tmp_path, [60, 20, 12, 10, 8, 6])
        balanced = data.balance_train(manifest, target=10, seed=1,
                                      aug_dir=str(tmp_path / "aug"))
        for name, count in balanced.per_class_counts("train").items():
            assert count == 10, name
        # val/test untouched
        for split in ("val", "test"):
            assert balanced.per_class_counts(split) == \
                manifest.per_class_counts(split)
        # no augmented records outside train
        assert all(s.split == "train" for s in balanced.samples
                   if s.origin == "augmented")

    def test_exact_count_is_fixed_point(self, tmp_path):
        manifest = self._manifest_with_files(tmp_path, [10] * 6)
        n_train = manifest.per_class_counts("train")[CLASS_NAMES[0]]
        balanced = data.balance_train(manifest, target=n_train, seed=2,
                                      aug_dir=str(tmp_path / "aug"))
        assert sorted(balanced.samples, key=id) is not None
        assert {s.path for s in balanced.samples} == \
            {s.path for s in manifest.samples}
        assert all(s.origin == "original" for s in balanced.samples)

    def test_round_robin_copy_counts(self, tmp_path):
        # 3 train originals augmented to 10: each spawns 2 or 3 copies
        manifest = self._manifest_with_files(tmp_path, [5, 5, 5, 5, 5, 5])
        balanced = data.balance_train(manifest, target=10, seed=3,
                                      aug_dir=str(tmp_path / "aug"))
        for name in CLASS_NAMES:
            aug = [s for s in balanced.samples
                   if s.class_name == name and s.origin == "augmented"]
            per_source = {}
            for s in aug:
                per_source[s.source_id] = per_source.get(s.source_id, 0) + 1
            assert set(per_source.values()) <= {2, 3}

    def test_deterministic_pixels(self, tmp_path):
        manifest = self._manifest_with_files(tmp_path, [8, 8, 8, 8, 8, 8])
        b1 = data.balance_train(manifest, target=8, seed=5,
                                aug_dir=str(tmp_path / "a1"))
        manifest2 = self._manifest_with_files(tmp_path, [8, 8, 8, 8, 8, 8])
        b2 = data.balance_train(manifest2, target=8, seed=5,
                                aug_dir=str(tmp_path / "a2"))
        assert [s.source_id for s in b1.samples] == \
            [s.source_id for s in b2.samples]


class TestManifestIO:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        data.write_manifest(data.DatasetManifest([]), path)
        assert path.read_text() == "path\tclass\tsplit\torigin\tsource_id\n"
        assert data.read_manifest(path).samples == []

    def test_round_trip(self, tmp_path):
        recs = make_records([4, 3, 3, 3, 3, 3])
        manifest = data.stratified_split(recs, seed=0)
        path = tmp_path / "m.tsv"
        data.write_manifest(manifest, path)
        back = data.read_manifest(path)
        assert set(back.samples) == set(manifest.samples)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("path\tclass\tsplit\torigin\tsource_id\n"
                        "only\ttwo\n")
        with pytest.raises(DataError, match=":2"):
            data.read_manifest(path)


class TestPPM:
    def test_round_trip(self, tmp_path):
        img = np.random.default_rng(0).integers(
            0, 256, (13, 17, 3)).astype(np.float32)
        path = tmp_path / "x.ppm"
        data.write_ppm(path, img)
        assert np.array_equal(data.read_ppm(path), img)

    @pytest.mark.parametrize("image", [
        np.array([0.5, 1.5, 2.5, 253.5, 254.5, 255.5, -0.5, -0.49, -3.0,
                  255.49, 256.0, 300.7, 1e9, 127.4999], np.float32),
        np.array([0.5, 1.5, -0.5, 254.5, 255.5, 300.0, 2.499999999],
                 np.float64),
        np.arange(256, dtype=np.uint8),
        np.array([-7, 0, 1, 128, 255, 256, 2**40], np.int64),
    ], ids=["float32", "float64", "uint8", "int64"])
    def test_rounds_as_float64(self, tmp_path, image):
        """Each dtype is written as if rounded and clipped in float64."""
        image = np.resize(image, (2, image.size, 3))
        path = tmp_path / "r.ppm"
        data.write_ppm(path, image)
        want = np.clip(np.rint(image.astype(np.float64)), 0, 255)
        assert path.read_bytes() == (f"P6\n{image.shape[1]} 2\n255\n".encode()
                                     + want.astype(np.uint8).tobytes())

    def test_load_image_is_uint8(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, (5, 7, 3))
        path = tmp_path / "u.ppm"
        data.write_ppm(path, img)
        got = data.load_image(path)
        assert got.dtype == np.uint8 and np.array_equal(got, img)

    def test_header_with_comment(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert data.read_ppm(path).shape == (1, 2, 3)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(DataError):
            data.read_ppm(path)

    def test_not_ppm(self, tmp_path):
        path = tmp_path / "n.ppm"
        path.write_bytes(b"GIF89a")
        with pytest.raises(DataError):
            data.read_ppm(path)


class TestLoadSplitArrays:
    def _manifest(self, tmp_path, shapes):
        rng = np.random.default_rng(0)
        samples = []
        for i, shape in enumerate(shapes):
            path = str(tmp_path / f"c{i}.ppm")
            data.write_ppm(path, rng.integers(0, 256, shape))
            samples.append(data.SampleRecord(path, CLASS_NAMES[i % 6],
                                             "train", "original", i))
        return data.DatasetManifest(samples)

    def test_scaled_float32(self, tmp_path):
        manifest = self._manifest(tmp_path, [(99, 99, 3)] * 3)
        x, y = data.load_split_arrays(manifest, "train")
        want = np.stack([data.load_image(s.path)
                         for s in manifest.samples]) / np.float32(255.0)
        assert x.dtype == np.float32
        assert x.tobytes() == want.tobytes()
        assert y.argmax(axis=1).tolist() == [0, 1, 2]

    def test_wrong_size_crop_names_path(self, tmp_path):
        manifest = self._manifest(tmp_path, [(99, 99, 3), (50, 60, 3)])
        with pytest.raises(DataError, match="c1.ppm"):
            data.load_split_arrays(manifest, "train")


class TestPrepareDataset:
    def test_end_to_end(self, tmp_path):
        ann, frames = make_synthetic_corpus(
            str(tmp_path), [8, 6, 6, 5, 5, 4])
        work = tmp_path / "work"
        work.mkdir()
        manifest = data.prepare_dataset(ann, frames, str(work),
                                        target=6, seed=0)
        assert all(c == 6 for c in manifest.per_class_counts("train").values())
        assert (work / "manifest.tsv").exists()
        back = data.read_manifest(work / "manifest.tsv")
        assert set(back.samples) == set(manifest.samples)
        # every referenced crop exists and decodes at 99x99
        for s in manifest.samples[:5]:
            assert data.load_image(s.path).shape == (99, 99, 3)

    def test_holds_one_frame_at_a_time(self, tmp_path, monkeypatch):
        # each of two workers holds one frame at a time. Three frames with
        # ten pedestrians each, five of every class (a class needs five for
        # a val sample); annotation ids alternate between the frames, so id
        # order revisits every frame ten times
        frames = tmp_path / "frames"
        frames.mkdir()
        rng = np.random.default_rng(0)
        images, anns = [], []
        for f in range(3):
            data.write_ppm(frames / f"f{f}.ppm",
                           rng.integers(0, 256, (40, 200, 3)))
            images.append({"id": f, "file_name": f"f{f}.ppm"})
        for k in range(30):
            anns.append({"id": k + 1, "image_id": k % 3,
                         "category_id": k // 5,
                         "bbox": [30 * (k // 5), 5, 20, 30]})
        ann = tmp_path / "ann.json"
        ann.write_text(coco_doc(anns, images=images))

        real_load = data.load_image
        alive = []
        lock = threading.Lock()

        def load_image(path):
            if os.path.dirname(str(path)) == str(frames):
                with lock:
                    gc.collect()
                    held = sum(ref() is not None for ref in alive)
                    assert held < 2, \
                        f"{held} earlier frames are held when loading {path}"
                    image = real_load(path)
                    alive.append(weakref.ref(image))
                return image
            return real_load(path)

        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(data, "load_image", load_image)
        work = tmp_path / "work"
        manifest = data.prepare_dataset(str(ann), str(frames), str(work),
                                        target=3, seed=0)
        assert len(alive) == 3
        assert sorted(s.source_id for s in manifest.samples) == \
            list(range(1, 31))

    def test_same_bytes_for_any_cpu_count(self, tmp_path, monkeypatch):
        ann, frames = make_synthetic_corpus(
            str(tmp_path), [8, 6, 6, 5, 5, 4])
        work = tmp_path / "work"
        trees = []
        for cpus in (1, 4):
            monkeypatch.setattr(data.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            data.prepare_dataset(ann, frames, str(work), target=6, seed=0)
            trees.append({path.relative_to(work): path.read_bytes()
                          for path in work.rglob("*") if path.is_file()})
            shutil.rmtree(work)
        assert trees[0] == trees[1]
        assert {path.parts[0] for path in trees[0]} == \
            {"crops", "augmented", "manifest.tsv"}

    def test_first_error_in_frame_order(self, tmp_path, monkeypatch):
        # annotation k+1 is in frame f<k % 3>: of the two boxes outside
        # their frame, annotation 29 (f1) comes before annotation 3 (f2)
        frames = tmp_path / "frames"
        frames.mkdir()
        images, anns = [], []
        for f in range(3):
            data.write_ppm(frames / f"f{f}.ppm", np.zeros((40, 200, 3)))
            images.append({"id": f, "file_name": f"f{f}.ppm"})
        for k in range(30):
            x = 500 if k + 1 in (3, 29) else 30 * (k // 5)
            anns.append({"id": k + 1, "image_id": k % 3,
                         "category_id": k // 5, "bbox": [x, 5, 20, 30]})
        ann = tmp_path / "ann.json"
        ann.write_text(coco_doc(anns, images=images))
        monkeypatch.setattr(data.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        threads = threading.active_count()
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(ann))}: annotation 29: "):
            data.prepare_dataset(str(ann), str(frames),
                                 str(tmp_path / "work"), target=3, seed=0)
        assert threading.active_count() == threads
