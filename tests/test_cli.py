import csv
import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from conftest import (mutate_bytes, shape_scenes, write_filtered_png, write_pnm,
                      write_zero_checkpoint)
from pointprops import cli, image_io, model, simulate
from pointprops.config import EvalConfig


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    rng = np.random.default_rng(0)
    rows, cols = np.indices((24, 24))
    for i in range(4):
        period = 6 + 2 * i
        img = (((rows // period) + (cols // period)) % 2) * 0.8 + 0.1
        img = np.clip(img + rng.normal(0, 0.02, img.shape), 0, 1)
        write_pnm(root / f"scene_{i}.pgm", img)
    (root / "notes.txt").write_text("not an image")
    return root


@pytest.fixture(scope="module")
def empty_png(tmp_path_factory):
    """A PNG that declares width 0 and height 8."""
    path = tmp_path_factory.mktemp("empty") / "empty.png"
    write_filtered_png(path, np.zeros((8, 0, 1), dtype=np.uint8), 0, [0])
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(
        "[train]\n"
        "iterations = 2\n"
        "batch_scenes = 2\n"
        "transforms_per_scene = 2\n"
        "descriptor_dim = 4\n"
        "image_height = 24\n"
        "image_width = 24\n"
        "seed = 9\n"
        "[properties]\n"
        "rad = 2\n"
        "n_min = 1\n"
        "n_max = 12\n"
        "m_p = 0.9\n"
        "m_n = 0.1\n"
        "[eval]\n"
        "max_points = 20\n"
        "ransac_iters = 300\n"
    )
    return path


@pytest.fixture(scope="module")
def trained_dir(image_dir, config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["train", "--config", str(config_file), "--images", str(image_dir),
                     "--output", str(out)])
    assert code == 0
    return out


class TestTrainCommand:
    def test_checkpoint_round_trip(self, trained_dir):
        ckpt = trained_dir / "model.ckpt"
        assert ckpt.exists()
        params = model.load_checkpoint(ckpt)
        assert params.descriptor_dim == 4
        assert (trained_dir / "train_log.csv").exists()

    def test_log_columns(self, trained_dir):
        lines = (trained_dir / "train_log.csv").read_text().splitlines()
        assert lines[0] == "iteration,E_y_L,mean_num_yhat,skipped_scenes,seconds"
        assert len(lines) == 3

    def test_deterministic_across_runs(self, image_dir, config_file, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert cli.main(["train", "--config", str(config_file),
                             "--images", str(image_dir), "--output", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
        # log rows identical except the wall-time column
        strip = lambda p: [",".join(line.split(",")[:4])
                           for line in (p / "train_log.csv").read_text().splitlines()]
        assert strip(outs[0]) == strip(outs[1])

    def test_corrupt_png_is_skipped_with_warning(self, image_dir, config_file, tmp_path,
                                                 capsys):
        images = tmp_path / "mixed"
        images.mkdir()
        good = image_io.read_image(image_dir / "scene_0.pgm")
        image_io.write_png(images / "good.png", good)
        image_io.write_png(images / "broken.png", good)
        blob = bytearray((images / "broken.png").read_bytes())
        start = blob.index(b"IDAT") + 8
        blob[start : start + 8] = bytes(b ^ 0xFF for b in blob[start : start + 8])
        (images / "broken.png").write_bytes(bytes(blob))
        code = cli.main(["train", "--config", str(config_file), "--images", str(images),
                         "--output", str(tmp_path / "run")])
        assert code == 0
        err = capsys.readouterr().err
        assert "broken.png" in err and "good.png" not in err
        assert (tmp_path / "run" / "model.ckpt").exists()

    def test_cut_pgm_is_skipped_with_warning(self, image_dir, config_file, tmp_path,
                                             capsys):
        images = tmp_path / "mixed"
        images.mkdir()
        (images / "good.pgm").write_bytes((image_dir / "scene_0.pgm").read_bytes())
        (images / "cut.pgm").write_bytes(b"P5\n")
        code = cli.main(["train", "--config", str(config_file), "--images", str(images),
                         "--output", str(tmp_path / "run")])
        assert code == 0
        err = capsys.readouterr().err
        assert "cut.pgm: truncated PNM header" in err and "good.pgm" not in err
        assert (tmp_path / "run" / "model.ckpt").exists()

    def test_empty_png_is_skipped_with_warning(self, image_dir, config_file, empty_png,
                                               tmp_path, capsys):
        images = tmp_path / "mixed"
        images.mkdir()
        (images / "good.pgm").write_bytes((image_dir / "scene_0.pgm").read_bytes())
        (images / "empty.png").write_bytes(empty_png.read_bytes())
        code = cli.main(["train", "--config", str(config_file), "--images", str(images),
                         "--output", str(tmp_path / "run")])
        assert code == 0
        err = capsys.readouterr().err
        assert "empty.png: PNG size 0x8 is empty" in err and "good.pgm" not in err
        assert (tmp_path / "run" / "model.ckpt").exists()

    def test_dead_detector_exits_2_without_checkpoint(self, dead_detector, image_dir,
                                                       config_file, tmp_path, capsys):
        long_run = tmp_path / "long.cfg"
        long_run.write_text(config_file.read_text().replace("iterations = 2",
                                                            "iterations = 12"))
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(long_run), "--images", str(image_dir),
                         "--output", str(out)])
        assert code == 2
        assert ("iteration 10: every scene skipped for 10 iterations in a row "
                "(no candidate local maxima)") in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_dead_worker_exits_2_naming_iteration(self, two_cpus, image_dir, config_file,
                                                  tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        make_scene = simulate.make_scene

        def dying_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return make_scene(*args, **kwargs)

        monkeypatch.setattr(simulate, "make_scene", dying_in_worker)
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(config_file), "--images", str(image_dir),
                         "--output", str(out)])
        assert code == 2
        assert ("pointprops train: iteration 1: a training worker process died before "
                "returning its scene") in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()
        assert multiprocessing.active_children() == []

    def test_missing_directory_names_path(self, config_file, tmp_path, capsys):
        code = cli.main(["train", "--config", str(config_file),
                         "--images", str(tmp_path / "nope"), "--output", str(tmp_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_no_images_required(self, config_file, tmp_path):
        assert cli.main(["train", "--config", str(config_file),
                         "--output", str(tmp_path)]) == 1

    def test_rejects_invalid_config(self, image_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[properties]\nn_min = 40\nn_max = 30\n")
        code = cli.main(["train", "--config", str(bad), "--images", str(image_dir),
                         "--output", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("[properties]\nrad = 0\n", "rad must be >= 1, got 0"),
        ("[train]\nbeta1 = 2\n", "beta1 must be in [0, 1), got 2.0"),
        ("[properties]\nn_min = 5\nn_max = 6\n",
         "need 0 <= n_min < n_max - 1 so the exclusive window (n_min, n_max) holds a count, "
         "got n_min=5 n_max=6"),
        ("[properties]\nalpha = nan\n", "alpha must be finite, got nan"),
        ("[properties]\nalpha = inf\n", "alpha must be finite, got inf"),
        ("[properties]\nneg_weight = nan\n", "neg_weight must be finite, got nan"),
        ("[train]\nlearning_rate = nan\n", "learning_rate must be finite, got nan"),
        ("[train]\nlearning_rate = inf\n", "learning_rate must be finite, got inf"),
        ("[train]\nadam_eps = nan\n", "adam_eps must be finite, got nan"),
        ("[eval]\nepsilon = nan\n", "epsilon must be finite, got nan"),
        ("[eval]\nransac_threshold = nan\n", "ransac_threshold must be finite, got nan"),
    ], ids=["rad", "beta1", "empty-count-window", "alpha-nan", "alpha-inf", "neg-weight-nan",
            "learning-rate-nan", "learning-rate-inf", "adam-eps-nan", "epsilon-nan",
            "ransac-threshold-nan"])
    def test_out_of_range_value_names_file(self, image_dir, tmp_path, capsys, text,
                                           message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert cli.main(["train", "--config", str(bad), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 2
        assert f"pointprops train: {bad}: {message}" in capsys.readouterr().err

    def test_out_of_range_flag_does_not_name_config_file(self, config_file, tmp_path,
                                                         capsys):
        assert cli.main(["eval", "--config", str(config_file), "--threads", "0",
                         "--output", str(tmp_path)]) == 2
        assert "pointprops eval: threads must be >= 1, got 0" in capsys.readouterr().err

    def test_rejects_unknown_key(self, image_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\niterations = 2\nwarp_speed = 9\n")
        assert cli.main(["train", "--config", str(bad), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 2
        assert "bad.cfg: line 3: unknown config key 'train.warp_speed'" in capsys.readouterr().err

    def test_non_utf8_config_names_file_and_line(self, image_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[train]\niterations = 2\nseed = \xff\n")
        assert cli.main(["train", "--config", str(bad), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 2
        assert "bad.cfg: line 3: not UTF-8 text" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, image_dir, config_file, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        assert cli.main(["train", "--config", str(cfg), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 0
        assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 1 + 2
        # the mark does not shift the line a bad byte is reported on
        cfg.write_bytes(b"\xef\xbb\xbf[train]\n\xff\n")
        assert cli.main(["train", "--config", str(cfg), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 2
        assert "bom.cfg: line 2: not UTF-8 text" in capsys.readouterr().err

    def test_epochs_set_the_iteration_count(self, image_dir, config_file, tmp_path):
        cfg = tmp_path / "epochs.cfg"
        cfg.write_text(config_file.read_text().replace("iterations = 2", "iterations = 5")
                       + "[train]\nepochs = 1\n")
        assert cli.main(["train", "--config", str(cfg), "--images", str(image_dir),
                         "--output", str(tmp_path)]) == 0
        # one pass over 4 images at 2 scenes per iteration
        assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 1 + 2


class TestEvalCommand:
    def test_self_pair_metrics(self, image_dir, config_file, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--images", str(image_dir), "--output", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("pair_id,m_score,homo_error,HE,"
                            "num_points_A,num_points_B,num_matches")
        assert lines[-1].startswith("# skipped_pairs")
        assert any(line.startswith("aggregate,") for line in lines)

    def test_metrics_deterministic(self, image_dir, config_file, trained_dir, tmp_path):
        texts = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert cli.main(["eval", "--config", str(config_file),
                             "--checkpoint", str(trained_dir / "model.ckpt"),
                             "--images", str(image_dir), "--output", str(out)]) == 0
            texts.append((out / "metrics.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_pair_list_with_identity(self, image_dir, config_file, trained_dir, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(
            f"{image_dir}/scene_0.pgm {image_dir}/scene_0.pgm 1 0 0 0 1 0 0 0 1\n"
            "malformed line\n"
        )
        out = tmp_path / "eval"
        code = cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--pairs", str(pairs), "--output", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[-1] == "# skipped_pairs 1"

    def test_pair_list_homography_is_taken_up_to_scale(self, image_dir, config_file,
                                                       trained_dir, tmp_path):
        scene = image_dir / "scene_0.pgm"
        hom = np.array([[1.0, 0.02, 1.5], [-0.02, 1.0, -0.5], [1e-4, 0.0, 1.0]])
        rows = []
        for scale in (1.0, 1e-4):
            pairs = tmp_path / f"pairs_{scale}.txt"
            values = " ".join(map(repr, (hom * scale).ravel().tolist()))
            pairs.write_text(f"{scene} {scene} {values}\n")
            out = tmp_path / f"eval_{scale}"
            assert cli.main(["eval", "--config", str(config_file),
                             "--checkpoint", str(trained_dir / "model.ckpt"),
                             "--pairs", str(pairs), "--output", str(out)]) == 0
            lines = (out / "metrics.csv").read_text().splitlines()
            assert lines[-1] == "# skipped_pairs 0"
            rows.append(dict(zip(lines[0].split(","), lines[1].split(","))))
        for name in ("m_score", "HE", "num_points_A", "num_points_B", "num_matches"):
            assert rows[0][name] == rows[1][name], name
        assert float(rows[0]["homo_error"]) == pytest.approx(float(rows[1]["homo_error"]),
                                                             rel=1e-9)

    def test_non_finite_homography_line_is_skipped(self, image_dir, config_file,
                                                   trained_dir, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        scene = image_dir / "scene_0.pgm"
        pairs.write_text(f"{scene} {scene} 1 0 0 0 1 0 0 0 1\n"
                         f"{scene} {scene} 1 0 nan 0 1 0 0 0 1\n"
                         f"{scene} {scene} 1 0 0 0 1 0 0 0 inf\n")
        out = tmp_path / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["eval", "--config", str(config_file),
                             "--checkpoint", str(trained_dir / "model.ckpt"),
                             "--pairs", str(pairs), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert "pair line 2 skipped: homography holds a non-finite value" in err
        assert "pair line 3 skipped" in err
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4 and lines[-1] == "# skipped_pairs 2"

    def test_empty_png_pair_line_is_skipped(self, image_dir, config_file, trained_dir,
                                            empty_png, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        scene = image_dir / "scene_0.pgm"
        pairs.write_text(f"{scene} {empty_png} 1 0 0 0 1 0 0 0 1\n"
                         f"{scene} {scene} 1 0 0 0 1 0 0 0 1\n")
        out = tmp_path / "eval"
        assert cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--pairs", str(pairs), "--output", str(out)]) == 0
        assert (f"pair line 1 skipped: {empty_png}: PNG size 0x8 is empty"
                in capsys.readouterr().err)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4 and lines[-1] == "# skipped_pairs 1"

    def test_non_utf8_pair_list_names_file_and_line(self, image_dir, config_file,
                                                    trained_dir, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        scene = image_dir / "scene_0.pgm"
        pairs.write_bytes(f"{scene} {scene} 1 0 0 0 1 0 0 0 1\n".encode() + b"\xff\n")
        code = cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--pairs", str(pairs), "--output", str(tmp_path / "eval")])
        assert code == 2
        assert "pairs.txt: line 2: not UTF-8 text" in capsys.readouterr().err

    def test_identity_self_pair_scores_one(self, image_dir, config_file, trained_dir,
                                            tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(
            f"{image_dir}/scene_1.pgm {image_dir}/scene_1.pgm 1 0 0 0 1 0 0 0 1\n"
        )
        out = tmp_path / "eval"
        assert cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--pairs", str(pairs), "--output", str(out)]) == 0
        row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        n_points = int(float(row[4]))
        if n_points:  # identical images: every point matches itself exactly
            assert float(row[1]) == pytest.approx(1.0)

    def test_save_visuals(self, image_dir, config_file, trained_dir, tmp_path):
        out = tmp_path / "eval"
        assert cli.main(["eval", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--images", str(image_dir), "--output", str(out),
                         "--save-visuals"]) == 0
        composites = sorted(out.glob("pair_*.png"))
        assert len(composites) == 4
        assert image_io.read_png(composites[0]).shape == (24, 48, 3)

    def test_requires_checkpoint(self, image_dir, config_file, tmp_path):
        assert cli.main(["eval", "--config", str(config_file),
                         "--images", str(image_dir), "--output", str(tmp_path)]) == 1

    def test_truncated_checkpoint_exits_2_naming_file(self, image_dir, config_file,
                                                      trained_dir, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((trained_dir / "model.ckpt").read_bytes()[:3000])
        code = cli.main(["eval", "--config", str(config_file), "--checkpoint", str(cut),
                         "--images", str(image_dir), "--output", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cut.ckpt: line" in err and "Traceback" not in err

    @pytest.mark.parametrize("dim", [0, 1])
    def test_descriptor_dim_below_two_exits_2_naming_file(self, image_dir, config_file,
                                                          tmp_path, capsys, dim):
        ckpt = tmp_path / "small.ckpt"
        write_zero_checkpoint(ckpt, dim)
        code = cli.main(["eval", "--config", str(config_file), "--checkpoint", str(ckpt),
                         "--images", str(image_dir), "--output", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: line 2: descriptor_dim {dim}" in err and "Traceback" not in err

    def test_threads_flag_matches_serial(self, image_dir, config_file, trained_dir,
                                         tmp_path):
        texts = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert cli.main(["eval", "--config", str(config_file),
                             "--checkpoint", str(trained_dir / "model.ckpt"),
                             "--images", str(image_dir), "--output", str(out),
                             "--threads", threads]) == 0
            texts.append((out / "metrics.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_points_in_the_edge_padding_are_dropped(self):
        # 62x61 images are edge-padded to 64x64 for the model; points that
        # land in the pad lie outside the image and must not be scored
        params = model.init_params(0, 16)
        scored = 0
        for img in shape_scenes(0, 6, 64):
            crop = img[:62, :61]
            row, (pts_a, pts_b, _) = cli.evaluate_pair(params, crop, crop, np.eye(3),
                                                       EvalConfig(), rad=4)
            for pts in (pts_a, pts_b):
                assert np.all(pts.xy[:, 0] <= 60) and np.all(pts.xy[:, 1] <= 61)
            assert row["num_points_A"] == len(pts_a)
            scored += len(pts_a)
        assert scored > 0

    def test_images_directory_scores_no_points_in_the_edge_padding(self, tmp_path,
                                                                   monkeypatch):
        # self-pairs simulated from 62x61 images must keep the image's own
        # size, so that the model's 64x64 edge pad is cropped off again
        images = tmp_path / "crops"
        images.mkdir()
        for i, img in enumerate(shape_scenes(0, 6, 64)):
            write_pnm(images / f"crop_{i}.pgm", img[:62, :61])
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(ckpt, model.init_params(0, 16))
        scored = []
        evaluate_pair = cli.evaluate_pair

        def record(params, img_a, img_b, hom, eval_cfg, rad, pair_seed=0):
            row, artifacts = evaluate_pair(params, img_a, img_b, hom, eval_cfg, rad, pair_seed)
            scored.append((img_a.shape, artifacts[0].xy))
            return row, artifacts

        monkeypatch.setattr(cli, "evaluate_pair", record)
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--output", str(tmp_path / "eval")]) == 0
        assert len(scored) == 6
        for shape, xy in scored:
            assert shape == (62, 61)
            assert np.all(xy[:, 0] <= 60) and np.all(xy[:, 1] <= 61)
        assert sum(len(xy) for _, xy in scored) > 0

    def test_images_directory_skips_an_image_too_small_to_warp(self, tmp_path, capsys):
        images = tmp_path / "sizes"
        images.mkdir()
        rng = np.random.default_rng(0)
        image_io.write_png(images / "square.png", rng.random((32, 32)))
        image_io.write_png(images / "line.png", rng.random((1, 40)))
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(ckpt, model.init_params(0, 16))
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert f"skipping {images / 'line.png'}: image size 1x40" in err
        assert "square.png" not in err
        ids = [line.split(",")[0] for line in (out / "metrics.csv").read_text().splitlines()]
        assert ids[1:3] == ["square.png#0", "aggregate"]

    def test_images_directory_counts_each_image_left_out(self, tmp_path, capsys):
        images = tmp_path / "mixed"
        images.mkdir()
        rng = np.random.default_rng(0)
        image_io.write_png(images / "square.png", rng.random((32, 32)))
        image_io.write_png(images / "line.png", rng.random((1, 40)))
        (images / "corrupt.png").write_bytes(b"\x89PNG\r\n\x1a\n not a png")
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(ckpt, model.init_params(0, 16))
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"unreadable image {images / 'corrupt.png'}" in captured.err
        assert "over 1 pairs (2 skipped)" in captured.out
        lines = (out / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:3]] == ["square.png#0", "aggregate"]
        assert lines[-1] == "# skipped_pairs 2"

    def test_image_name_with_a_comma_is_quoted(self, tmp_path):
        images = tmp_path / "named"
        images.mkdir()
        image_io.write_png(images / "a,b.png", np.random.default_rng(0).random((32, 32)))
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(ckpt, model.init_params(0, 16))
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--output", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows[:3]] == [7, 7, 7]
        assert [row[0] for row in rows[1:3]] == ["a,b.png#0", "aggregate"]
        assert rows[-1] == ["# skipped_pairs 0"]


class TestPairListMutations:
    def test_each_mutant_line_parses_or_is_skipped_with_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(20191007)
        for name in ("a.pgm", "b.pgm"):
            write_pnm(tmp_path / name, rng.random((8, 8)))
        source = (b"# imgA imgB h11..h33\n"
                  b"a.pgm b.pgm 1 0 0 0 1 0 0 0 1\n"
                  b"b.pgm a.pgm 1 0 2 0 1 -1 0 0 1\n"
                  b"a.pgm a.pgm 0.9 0.1 0 -0.1 0.9 0 0 0 1\n")
        path = tmp_path / "pairs.txt"
        parsed = skipped_total = rejected = 0
        for _ in range(200):
            path.write_bytes(mutate_bytes(source, rng))
            try:
                pairs, skipped = cli._pairs_from_file(path)
            except ValueError as err:
                assert str(path) in str(err)
                rejected += 1
                continue
            assert capsys.readouterr().err.count("warning: pair line") == skipped
            for _, img_a, img_b, hom in pairs:
                assert img_a.shape == img_b.shape == (8, 8)
                assert hom.shape == (3, 3) and np.all(np.isfinite(hom))
            parsed += len(pairs)
            skipped_total += skipped
        assert parsed > 0 and skipped_total > 0 and rejected > 0


class TestOracleCheckCommand:
    def test_passes(self, capsys):
        assert cli.main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "all 10 checks passed" in out
        for line in out.splitlines():
            if "PASS" in line:
                assert "deviation=" in line and "tolerance=" in line

    def test_corrupted_counts_fail(self, corrupted_counts, capsys):
        assert cli.main(["oracle-check"]) == 3
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.endswith("FAIL")]
        assert failed == ["counts-vs-enumeration", "counts-bigint-exact",
                          "count-split-identity", "gammaln-vs-exact"]
        # the former self-test flag is an unknown flag like any other
        assert cli.main(["oracle-check", "--self-test-corrupt-counts"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_lists_every_check(self, corrupted_counts, capsys):
        assert cli.main(["oracle-check", "--json"]) == 3
        out = capsys.readouterr().out
        records = json.loads(out)
        assert out.count("\n") == 1
        assert [r["name"] for r in records] == [
            "counts-vs-enumeration", "counts-bigint-exact", "count-split-identity",
            "gammaln-vs-exact", "posterior-tiny-deviation", "posterior-symmetric-exact",
            "expectation-identities", "grad-model-vs-fd", "grad-detector-chain-vs-fd",
            "grad-descriptor-chain-vs-fd"]
        assert all(set(r) == {"name", "deviation", "tolerance", "passed", "seconds"}
                   for r in records)
        assert [r["name"] for r in records if not r["passed"]] == [
            "counts-vs-enumeration", "counts-bigint-exact", "count-split-identity",
            "gammaln-vs-exact"]
        assert all(r["passed"] == (r["deviation"] <= r["tolerance"]) for r in records)
        assert all(r["seconds"] > 0 for r in records)


class TestVisualizeCommand:
    def test_writes_composite_and_sidecar(self, image_dir, config_file, trained_dir,
                                          tmp_path):
        out = tmp_path / "vis"
        code = cli.main(["visualize", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         str(image_dir / "scene_0.pgm"), str(image_dir / "scene_1.pgm"),
                         "--output", str(out)])
        assert code == 0
        png = out / "scene_0__scene_1.png"
        sidecar = out / "scene_0__scene_1.txt"
        assert png.exists() and sidecar.exists()
        text = sidecar.read_text()
        assert "m_score" in text and "homo_error" in text
        composite = image_io.read_png(png)
        assert composite.shape == (24, 48, 3)

    def test_deterministic_output(self, image_dir, config_file, trained_dir, tmp_path):
        blobs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            assert cli.main(["visualize", "--config", str(config_file),
                             "--checkpoint", str(trained_dir / "model.ckpt"),
                             str(image_dir / "scene_0.pgm"),
                             str(image_dir / "scene_1.pgm"),
                             "--output", str(out)]) == 0
            blobs.append((out / "scene_0__scene_1.png").read_bytes())
        assert blobs[0] == blobs[1]

    def test_estimation_failure_recorded_gracefully(self, image_dir, config_file,
                                                    trained_dir, tmp_path, monkeypatch):
        from pointprops import evaluate

        monkeypatch.setattr(evaluate, "estimate_homography",
                            lambda *args, **kwargs: None)
        out = tmp_path / "vis"
        code = cli.main(["visualize", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         str(image_dir / "scene_0.pgm"), str(image_dir / "scene_1.pgm"),
                         "--output", str(out)])
        assert code == 0
        assert "homo_error failed" in (out / "scene_0__scene_1.txt").read_text()

    def test_empty_png_exits_2_naming_file(self, image_dir, config_file, trained_dir,
                                           empty_png, tmp_path, capsys):
        out = tmp_path / "vis"
        code = cli.main(["visualize", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         str(image_dir / "scene_0.pgm"), str(empty_png),
                         "--output", str(out)])
        assert code == 2
        assert (f"pointprops visualize: {empty_png}: PNG size 0x8 is empty"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_descriptor_dim_below_two_exits_2_naming_file(self, image_dir, config_file,
                                                          tmp_path, capsys, dim):
        ckpt = tmp_path / "small.ckpt"
        write_zero_checkpoint(ckpt, dim)
        code = cli.main(["visualize", "--config", str(config_file), "--checkpoint", str(ckpt),
                         str(image_dir / "scene_0.pgm"), str(image_dir / "scene_1.pgm"),
                         "--output", str(tmp_path / "vis")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: line 2: descriptor_dim {dim}" in err and "Traceback" not in err

    @pytest.mark.parametrize("values", [
        ["1e-4", "0", "0", "0", "1e-4", "0", "0", "0", "1e-4"],
        ["1", "0", "2000", "0", "1", "0", "0", "0", "1"],
    ], ids=["identity-times-1e-4", "translation-2000"])
    def test_homography_is_taken_up_to_scale(self, image_dir, config_file, trained_dir,
                                             tmp_path, values):
        out = tmp_path / "vis"
        assert cli.main(["visualize", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         str(image_dir / "scene_0.pgm"), str(image_dir / "scene_1.pgm"),
                         "--homography", *values, "--output", str(out)]) == 0
        assert (out / "scene_0__scene_1.txt").exists()

    @pytest.mark.parametrize("values, message", [
        (["1", "0", "0", "0", "1", "0", "0", "0", "nan"], "holds a non-finite value"),
        (["1", "2", "0", "2", "4", "0", "0", "0", "1"], "is singular"),
    ])
    def test_unusable_homography_exits_2(self, image_dir, config_file, trained_dir,
                                         tmp_path, capsys, values, message):
        out = tmp_path / "vis"
        code = cli.main(["visualize", "--config", str(config_file),
                         "--checkpoint", str(trained_dir / "model.ckpt"),
                         str(image_dir / "scene_0.pgm"), str(image_dir / "scene_1.pgm"),
                         "--homography", *values, "--output", str(out)])
        assert code == 2
        assert f"--homography: homography {message}" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["transmogrify"]) == 1

    def test_bad_flag_value(self):
        assert cli.main(["train", "--seed", "banana"]) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--threads", "2"],
        ["visualize", "--seed", "1", "a.png", "b.png"],
        ["visualize", "--preset", "pn-i", "a.png", "b.png"],
        ["visualize", "--threads", "2", "a.png", "b.png"],
        ["oracle-check", "--seed", "1"],
        ["oracle-check", "--config", "run.cfg"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
