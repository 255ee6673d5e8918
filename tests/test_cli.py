import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pednet import checkpoint as ckpt
from pednet import cli, data, train

from conftest import make_synthetic_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    ann, frames = make_synthetic_corpus(str(root), [8, 6, 6, 5, 5, 4])
    return root, ann, frames


@pytest.fixture(scope="module")
def prepared(corpus):
    root, ann, frames = corpus
    work = root / "work"
    rc = cli.main(["prepare", "--annotations", ann, "--frames", frames,
                   "--workdir", str(work), "--balance-target", "6",
                   "--seed", "0"])
    assert rc == 0
    return work


@pytest.fixture(scope="module")
def trained(prepared):
    rc = cli.main(["train", "--manifest", str(prepared / "manifest.tsv"),
                   "--model-id", "8", "--workdir", str(prepared),
                   "--epochs", "2", "--seed", "0"])
    assert rc == 0
    return prepared / "model8.pdcn"


class TestPrepare:
    def test_manifest_counts(self, prepared):
        manifest = data.read_manifest(prepared / "manifest.tsv")
        assert all(c == 6
                   for c in manifest.per_class_counts("train").values())

    def test_missing_annotations_exit_2(self, corpus, tmp_path):
        root, _, frames = corpus
        rc = cli.main(["prepare", "--annotations", "/no/such/file.json",
                       "--frames", frames, "--workdir", str(tmp_path)])
        assert rc == 2

    def test_rerun_byte_identical(self, corpus, tmp_path):
        root, ann, frames = corpus
        work = tmp_path / "w"
        cli.main(["prepare", "--annotations", ann, "--frames", frames,
                  "--workdir", str(work), "--balance-target", "6",
                  "--seed", "3"])
        first = (work / "manifest.tsv").read_bytes()
        import shutil
        shutil.rmtree(work)
        cli.main(["prepare", "--annotations", ann, "--frames", frames,
                  "--workdir", str(work), "--balance-target", "6",
                  "--seed", "3"])
        assert (work / "manifest.tsv").read_bytes() == first


class TestInspect:
    def test_model_8_counts(self, capsys):
        assert cli.main(["inspect", "8"]) == 0
        out = capsys.readouterr().out
        assert "1,573,574" in out and "1,572,614" in out

    def test_model_1_counts(self, capsys):
        assert cli.main(["inspect", "1"]) == 0
        out = capsys.readouterr().out
        assert "24,639,878" in out and "1,052,166" in out

    def test_models_5_and_7_identical(self, capsys):
        cli.main(["inspect", "5"])
        out5 = capsys.readouterr().out
        cli.main(["inspect", "7"])
        out7 = capsys.readouterr().out
        assert out5 == out7

    def test_bad_id_exit_2(self, capsys):
        assert cli.main(["inspect", "99"]) == 2


class TestTrain:
    def test_outputs_exist(self, trained):
        work = trained.parent
        assert trained.exists()
        assert (work / "model8_history.csv").exists()
        assert (work / "model8_config.txt").exists()

    def test_history_has_one_record_per_epoch(self, trained):
        lines = (trained.parent / "model8_history.csv").read_text() \
            .strip().split("\n")
        # header + 2 epochs + trailer comment
        assert len(lines) == 4

    def test_inspect_checkpoint(self, trained, capsys):
        assert cli.main(["inspect", str(trained)]) == 0
        out = capsys.readouterr().out
        assert "1,573,574" in out

    def test_checkpoint_holds_trained_optimizer(self, trained, prepared):
        model, cfg, opt, _ = ckpt.restore_model(trained)
        n_train = len(data.read_manifest(prepared / "manifest.tsv")
                      .split_samples("train"))
        assert opt.t == 2 * -(-n_train // 8)  # two epochs of batch-8 steps
        assert opt.lr == cfg.lr_initial  # model 8 has a single phase
        trainable = [name for name, _, _ in
                     model.named_params(trainable_only=True)]
        assert sorted(opt.slots) == sorted(trainable)
        assert all(set(s) == {"velocity"} for s in opt.slots.values())

    @pytest.mark.parametrize("caps", [
        ["--epochs", "0"], ["--epochs", "-3"],
        ["--epochs", "1", "--epochs-phase2", "-1"],
    ], ids=["phase1_zero", "phase1_negative", "phase2_negative"])
    def test_epoch_cap_below_minimum_exit_2(self, prepared, tmp_path, capsys,
                                            caps):
        work = tmp_path / "w"
        rc = cli.main(["train", "--manifest", str(prepared / "manifest.tsv"),
                       "--model-id", "8", "--workdir", str(work), *caps])
        assert rc == 2
        assert "epoch cap must be" in capsys.readouterr().err
        assert not work.exists()


class TestEvaluate:
    def test_report_written(self, trained, capsys):
        work = trained.parent
        rc = cli.main(["evaluate", "--checkpoint", str(trained),
                       "--manifest", str(work / "manifest.tsv"),
                       "--split", "test", "--out", str(work)])
        assert rc == 0
        report = json.loads((work / "model8_test_report.json").read_text())
        cm = report["confusion_matrix"]
        assert len(cm) == 6 and all(len(row) == 6 for row in cm)
        csv = (work / "model8_test_pr_curves.csv").read_text()
        assert csv.startswith("class,threshold,recall,precision")

    def test_missing_checkpoint_exit_2(self, prepared):
        rc = cli.main(["evaluate", "--checkpoint", "/no/ckpt.pdcn",
                       "--manifest", str(prepared / "manifest.tsv")])
        assert rc == 2


class TestInfer:
    def test_probabilities_sum_to_one(self, trained, prepared, capsys):
        manifest = data.read_manifest(prepared / "manifest.tsv")
        image = manifest.samples[0].path
        rc = cli.main(["infer", "--checkpoint", str(trained), image])
        assert rc == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        printed = [float(v) for v in line.split("\t")[2].split()]
        model, _, _, _ = ckpt.restore_model(trained)
        crop = data.bilinear_resize(data.load_image(image), data.CROP_SIZE,
                                    data.CROP_SIZE)
        probs, _ = train.predict(model,
                                 crop[None].astype(np.float32) / 255.0)
        row = probs[0].astype(np.float64)
        assert abs(row.sum() - 1.0) < 1e-6
        # six printed decimals: each within half a unit in the last place
        assert np.abs(np.array(printed) - row).max() <= 5e-7 + 1e-12

    def test_same_image_identical_output(self, trained, prepared, capsys):
        manifest = data.read_manifest(prepared / "manifest.tsv")
        image = manifest.samples[0].path
        cli.main(["infer", "--checkpoint", str(trained), image])
        first = capsys.readouterr().out
        cli.main(["infer", "--checkpoint", str(trained), image])
        assert capsys.readouterr().out == first

    def test_undecodable_image_exit_1(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"not an image")
        rc = cli.main(["infer", "--checkpoint", str(trained), str(bad)])
        assert rc == 1

    def test_batch_with_bad_image_matches_single_runs(self, trained, prepared,
                                                      tmp_path, capsys):
        manifest = data.read_manifest(prepared / "manifest.tsv")
        good = [manifest.samples[0].path, manifest.samples[-1].path]
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"not an image")
        single = []
        for image in good:
            assert cli.main(["infer", "--checkpoint", str(trained),
                             image]) == 0
            single.append(capsys.readouterr().out.strip().split("\t"))
        rc = cli.main(["infer", "--checkpoint", str(trained),
                       good[0], str(bad), good[1]])
        out, err = capsys.readouterr()
        assert rc == 1
        err_lines = err.strip().split("\n")
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"{bad}\terror: ")
        lines = [line.split("\t") for line in out.strip().split("\n")]
        assert [line[0] for line in lines] == good
        for got, want in zip(lines, single):
            assert got[1] == want[1]
            # printed with six decimals: equal up to one unit in the last place
            assert np.allclose([float(v) for v in got[2].split()],
                               [float(v) for v in want[2].split()],
                               rtol=0, atol=1e-6 + 1e-12)


def _missing_crop_manifest(prepared, tmp_path, split):
    """A copy of the prepared manifest whose first `split` row names a crop
    that does not exist: (manifest path, that crop's path)."""
    gone = str(tmp_path / f"gone_{split}.ppm")
    lines = (prepared / "manifest.tsv").read_text().split("\n")
    row = next(i for i, line in enumerate(lines)
               if line.split("\t")[2:3] == [split])
    lines[row] = "\t".join([gone] + lines[row].split("\t")[1:])
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines))
    return str(manifest), gone


def _infer_missing_image(t):
    manifest = data.read_manifest(t.prepared / "manifest.tsv")
    gone = str(t.tmp / "gone.ppm")
    good = [manifest.samples[0].path, manifest.samples[-1].path]
    return (["infer", "--checkpoint", str(t.trained), good[0], gone, good[1]],
            gone, 1)


def _train_missing_crop(t):
    manifest, gone = _missing_crop_manifest(t.prepared, t.tmp, "train")
    return (["train", "--manifest", manifest, "--model-id", "8",
             "--workdir", str(t.tmp / "w"), "--epochs", "1"], gone, 2)


def _evaluate_missing_crop(t):
    manifest, gone = _missing_crop_manifest(t.prepared, t.tmp, "test")
    return (["evaluate", "--checkpoint", str(t.trained), "--manifest",
             manifest, "--out", str(t.tmp)], gone, 2)


def _prepare_missing_frame(t):
    _, ann, frames = t.corpus
    copy = t.tmp / "frames"
    shutil.copytree(frames, copy)
    gone = os.path.join(str(copy), sorted(os.listdir(copy))[2])
    os.remove(gone)
    return (["prepare", "--annotations", ann, "--frames", str(copy),
             "--workdir", str(t.tmp / "w"), "--balance-target", "6"],
            gone, 2)


def _directory_checkpoint(command):
    def case(t):
        adir = str(t.tmp / "adir")
        os.mkdir(adir)
        manifest = str(t.prepared / "manifest.tsv")
        image = data.read_manifest(manifest).samples[0].path
        argv = {"inspect": ["inspect", adir],
                "infer": ["infer", "--checkpoint", adir, image],
                "evaluate": ["evaluate", "--checkpoint", adir,
                             "--manifest", manifest]}[command]
        return argv, adir, 2
    return case


def _not_utf8(t, name):
    """A text file whose first byte, 0xff, can never start UTF-8."""
    bad = t.tmp / name
    bad.write_bytes(b"\xff" + b"seed = 1\n")
    return str(bad)


def _prepare_argv(t, annotations, *extra):
    _, _, frames = t.corpus
    return ["prepare", "--annotations", annotations, "--frames", frames,
            "--workdir", str(t.tmp / "w"), "--balance-target", "6", *extra]


def _annotations_not_utf8(t):
    bad = _not_utf8(t, "ann.json")
    return _prepare_argv(t, bad), bad, 2


def _config_not_utf8(t):
    _, ann, _ = t.corpus
    bad = _not_utf8(t, "run.cfg")
    return _prepare_argv(t, ann, "--config", bad), bad, 2


def _manifest_not_utf8(t):
    bad = _not_utf8(t, "manifest.tsv")
    return (["train", "--manifest", bad, "--model-id", "8",
             "--workdir", str(t.tmp / "w"), "--epochs", "1"], bad, 2)


def _coco_document(edit):
    """A copy of the corpus annotations changed by `edit(document)`."""
    def case(t):
        _, ann, _ = t.corpus
        with open(ann, encoding="utf-8") as f:
            document = json.load(f)
        edit(document)
        changed = t.tmp / "ann.json"
        changed.write_text(json.dumps(document), encoding="utf-8")
        return _prepare_argv(t, str(changed)), str(changed), 2
    return case


def _unknown_category(document):
    document["categories"][0]["name"] = "nobody"


def _missing_annotations(document):
    del document["annotations"]


def _image_without_file_name(document):
    del document["images"][0]["file_name"]


def _annotation_without(key):
    def edit(document):
        del document["annotations"][0][key]
    return edit


def _bbox_not_a_number(document):
    document["annotations"][0]["bbox"] = [0, 0, "x", 5]


def _zero_width_box(document):
    document["annotations"][0]["bbox"][2] = 0


def _repeated_id(document):
    """A second annotation whose int(id) is the first one's."""
    annotations = document["annotations"]
    annotations[1]["id"] = annotations[0]["id"] + 0.5


def _class_counts(counts):
    """An edit that keeps the first counts[c] annotations of category c."""
    def edit(document):
        kept = {c: [] for c in range(len(counts))}
        for a in document["annotations"]:
            kept[a["category_id"]].append(a)
        document["annotations"] = [a for c, n in enumerate(counts)
                                   for a in kept[c][:n]]
    return edit


def _prepare_zero_width_frame(t):
    """The third frame decodes to 0x5 pixels, and its box starts left of
    the frame, so that cropping alone would not reject it."""
    _, ann, frames = t.corpus
    copy = t.tmp / "frames"
    shutil.copytree(frames, copy)
    with open(ann, encoding="utf-8") as f:
        document = json.load(f)
    image = sorted(document["images"], key=lambda i: i["file_name"])[2]
    box = next(a["bbox"] for a in document["annotations"]
               if a["image_id"] == image["id"])
    box[0] = -10
    changed = t.tmp / "ann.json"
    changed.write_text(json.dumps(document), encoding="utf-8")
    frame = os.path.join(str(copy), image["file_name"])
    with open(frame, "wb") as f:
        f.write(b"P6\n0 5\n255\n")
    return (["prepare", "--annotations", str(changed), "--frames", str(copy),
             "--workdir", str(t.tmp / "w"), "--balance-target", "6"],
            frame, 2)


def _coco_set(path, value):
    """An edit that puts `value` at `path`, a key or a tuple of keys and
    indices."""
    *outer, last = (path,) if isinstance(path, str) else path
    def edit(document):
        for key in outer:
            document = document[key]
        document[last] = value
    return edit


def _checkpoint_meta(edit):
    """A copy of the trained checkpoint whose metadata `edit(meta)` changed;
    `pednet inspect` reads it."""
    return _checkpoint(lambda saved: edit(saved.meta))


def _checkpoint(edit):
    """A copy of the trained checkpoint that `edit(saved)` changed, given
    its CheckpointData; `pednet inspect` reads it."""
    def case(t):
        saved = ckpt.read_checkpoint(t.trained)
        edit(saved)
        changed = str(t.tmp / "changed.pdcn")
        ckpt.write_checkpoint(changed, saved.meta, saved.tensors)
        return ["inspect", changed], changed, 2
    return case


def _no_config(meta):
    del meta["config"]


def _optimizer_without(key):
    def edit(meta):
        del meta["optimizer"][key]
    return edit


def _optimizer_set(key, value):
    def edit(meta):
        meta["optimizer"][key] = value
    return edit


def _slot_renamed(name):
    """An edit that moves block 1's conv-weight velocity to slot `name`."""
    def edit(saved):
        saved.tensors[name] = saved.tensors.pop(
            "slot:block1_conv.weight:velocity")
    return edit


def _slot_of_another_shape(saved):
    key = "slot:block1_conv.weight:velocity"
    saved.tensors[key] = saved.tensors[key][:1]


def _unknown_architecture(meta):
    meta["config"]["architecture"] = "vgg"


def _config_set(key, value):
    def edit(meta):
        meta["config"][key] = value
    return edit


def _trainable_nodes_not_a_list(meta):
    meta["trainable_nodes"] = 5


def _trainable_node_unknown(meta):
    meta["trainable_nodes"].append("nosuch")


def _corrupt_checkpoint(t):
    bad = t.tmp / "bad.pdcn"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    return ["inspect", str(bad)], str(bad), 2


class TestFailures:
    """Each input fails where it is read: one `error:` line on stderr that
    names the file, no traceback, exit 2 (1 for infer's per-image case)."""

    @pytest.mark.parametrize("case", [
        _infer_missing_image, _train_missing_crop, _evaluate_missing_crop,
        _prepare_missing_frame, _directory_checkpoint("inspect"),
        _directory_checkpoint("infer"), _directory_checkpoint("evaluate"),
        _corrupt_checkpoint, _annotations_not_utf8, _config_not_utf8,
        _manifest_not_utf8, _coco_document(_unknown_category),
        _coco_document(_missing_annotations),
        _coco_document(_image_without_file_name),
        _coco_document(_annotation_without("id")),
        _coco_document(_annotation_without("image_id")),
        _coco_document(_annotation_without("category_id")),
        _coco_document(_bbox_not_a_number), _coco_document(_zero_width_box),
        _checkpoint_meta(_no_config),
        _checkpoint_meta(_optimizer_without("lr")),
        _checkpoint_meta(_optimizer_without("t")),
        _checkpoint_meta(_unknown_architecture),
        _coco_document(_coco_set("images", 5)),
        _coco_document(_coco_set("annotations", {"a": 1})),
        _coco_document(_coco_set("categories", None)),
        _coco_document(_coco_set(("images", 0), 7)),
        _coco_document(_coco_set(("annotations", 0), 5)),
        _coco_document(_coco_set(("categories", 0), [0])),
        _coco_document(_coco_set(("annotations", 0, "bbox"), 5)),
        _coco_document(_coco_set(("annotations", 0, "bbox"), [0, 0, 5])),
        _prepare_zero_width_frame,
        _coco_document(_coco_set(("annotations", 0, "image_id"), [1])),
        _coco_document(_coco_set(("categories", 0, "id"), [0])),
        _coco_document(_coco_set(("images", 0, "file_name"), 7)),
        _checkpoint_meta(_optimizer_set("lr", "x")),
        _checkpoint_meta(_optimizer_set("lr", 0)),
        _checkpoint_meta(_optimizer_set("t", "x")),
        _checkpoint_meta(_optimizer_set("t", -1)),
        _checkpoint(_slot_renamed("slot:nosuch.weight:velocity")),
        _checkpoint(_slot_renamed("slot:block1_conv.weight:m")),
        _checkpoint(_slot_of_another_shape),
        _coco_document(_repeated_id),
        _checkpoint_meta(_config_set("optimizer", "rmsprop")),
        _checkpoint_meta(_config_set("model_id", 99)),
        _checkpoint_meta(_config_set("lr_initial", -1.0)),
        _checkpoint_meta(_trainable_nodes_not_a_list),
        _checkpoint_meta(_trainable_node_unknown),
        _coco_document(_class_counts([8, 6, 6, 5, 5, 2])),
        _coco_document(_class_counts([8, 6, 6, 5, 5, 0])),
        _coco_document(_class_counts([4] * 6)),
    ], ids=["infer_missing_image", "train_missing_crop",
            "evaluate_missing_crop", "prepare_missing_frame",
            "inspect_directory_checkpoint", "infer_directory_checkpoint",
            "evaluate_directory_checkpoint", "corrupt_checkpoint",
            "annotations_not_utf8", "config_not_utf8", "manifest_not_utf8",
            "coco_unknown_category", "coco_missing_annotations",
            "coco_image_without_file_name", "coco_annotation_without_id",
            "coco_annotation_without_image_id",
            "coco_annotation_without_category_id", "coco_bbox_not_a_number",
            "coco_zero_width_box", "checkpoint_without_config",
            "checkpoint_optimizer_without_lr",
            "checkpoint_optimizer_without_t",
            "checkpoint_unknown_architecture",
            "coco_images_not_an_array", "coco_annotations_not_an_array",
            "coco_categories_not_an_array", "coco_image_not_an_object",
            "coco_annotation_not_an_object", "coco_category_not_an_object",
            "coco_bbox_a_number", "coco_bbox_three_numbers",
            "prepare_zero_width_frame", "coco_image_id_a_list",
            "coco_category_id_a_list", "coco_file_name_a_number",
            "checkpoint_optimizer_lr_not_a_number",
            "checkpoint_optimizer_lr_zero",
            "checkpoint_optimizer_t_not_a_number",
            "checkpoint_optimizer_t_negative",
            "checkpoint_slot_of_unknown_parameter",
            "checkpoint_slot_of_unknown_name",
            "checkpoint_slot_of_another_shape", "coco_repeated_id",
            "checkpoint_unknown_optimizer",
            "checkpoint_model_id_not_in_registry",
            "checkpoint_config_not_the_registry_one",
            "checkpoint_trainable_nodes_not_a_list",
            "checkpoint_trainable_node_unknown", "coco_class_of_two",
            "coco_class_missing", "coco_no_class_of_five"])
    def test_names_the_file(self, case, corpus, prepared, trained, tmp_path):
        argv, named, code = case(SimpleNamespace(
            corpus=corpus, prepared=prepared, trained=trained, tmp=tmp_path))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "pednet.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if "error: " in line]
        assert len(errors) == 1, proc.stderr
        if code == 2:
            assert errors[0].startswith(f"error: {named}: "), errors[0]
        else:  # the bad image is reported; the others are classified
            assert errors[0].startswith(f"{named}\terror: "), errors[0]
            assert [line.split("\t")[0] for line in
                    proc.stdout.strip().split("\n")] == \
                [path for path in argv[3:] if path != named]

    @pytest.mark.parametrize("counts", [
        [8, 6, 6, 5, 5, 2], [8, 6, 6, 5, 5, 0], [4] * 6],
        ids=["coco_class_of_two", "coco_class_missing",
             "coco_no_class_of_five"])
    def test_refused_counts_write_no_crop(self, counts, corpus, tmp_path,
                                          capsys):
        argv, named, _ = _coco_document(_class_counts(counts))(
            SimpleNamespace(corpus=corpus, tmp=tmp_path))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert not [name for _, _, names in os.walk(tmp_path / "w" / "crops")
                    for name in names]

    @pytest.mark.parametrize("target", ["0", "-2"])
    def test_balance_target_below_one(self, corpus, tmp_path, capsys,
                                      target):
        _, ann, _ = corpus
        t = SimpleNamespace(corpus=corpus, tmp=tmp_path)
        argv = _prepare_argv(t, ann)
        argv[argv.index("--balance-target") + 1] = target
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: balance target must be >= 1, got {target}\n"
        assert not (tmp_path / "w" / "crops").exists()


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nbatch_size = 4\n")

        class Args:
            config = str(cfg)
            seed = 9
            batch_size = None

        resolved = cli.resolve_config(Args())
        assert resolved["seed"] == 9       # flag beats file
        assert resolved["batch_size"] == 4  # file beats default
        assert resolved["patience"] == 10   # default

    def test_malformed_line(self, tmp_path):
        from pednet.errors import PednetError

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        with pytest.raises(PednetError):
            cli.parse_config_file(cfg)

    @pytest.mark.parametrize("line, message", [
        ("epoch = 5", "unknown key 'epoch'"),
        ("batch_size = eight", "batch_size must be int, got 'eight'"),
        ("rotation_deg = 20", "unknown key 'rotation_deg'"),
    ], ids=["unknown_key", "non_numeric", "removed_augment_key"])
    def test_bad_entry_names_file_and_line(self, tmp_path, capsys, line,
                                           message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        rc = cli.main(["prepare", "--config", str(cfg), "--annotations",
                       str(tmp_path / "a.json"), "--frames", str(tmp_path),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert f"error: {cfg}:2: {message}" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        rc = cli.main(["prepare", "--config", str(cfg), "--annotations",
                       str(tmp_path / "a.json"), "--frames", str(tmp_path),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert f"error: {cfg}: " in capsys.readouterr().err


class TestSyntheticExperimentScript:
    def test_runs_with_only_src_on_path(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        work = tmp_path / "demo"
        proc = subprocess.run(
            [sys.executable,
             os.path.join(root, "scripts", "run_synthetic_experiment.py"),
             "--workdir", str(work), "--per-class", "5",
             "--balance-target", "3", "--epochs", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (work / "model8.pdcn").exists()
        assert (work / "model8_test_report.json").exists()
