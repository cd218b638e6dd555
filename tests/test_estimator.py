import contextlib
import dataclasses
import inspect

import numpy as np
import pytest

from conftest import shape_scenes
from pointprops import config, em, estimator, image_io, model, workers
from pointprops.estimator import NotFittedError, PointPropsDetector


def tiny_detector(**overrides):
    params = dict(
        descriptor_dim=4, rad=2, n_min=1, n_max=12, m_p=0.9, m_n=0.1,
        batch_scenes=1, transforms_per_scene=2, iterations=2, seed=5,
        prob_threshold=0.4, max_points=20,
    )
    params.update(overrides)
    return PointPropsDetector(**params)


class TestValidationHelpers:
    def test_accepts_valid_image(self):
        img = np.random.default_rng(0).random((8, 8))
        np.testing.assert_array_equal(estimator.as_float_image(img), img)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            estimator.as_float_image(np.full((4, 4), 2.0))

    def test_rejects_nan(self):
        img = np.zeros((4, 4))
        img[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimator.as_float_image(img)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            estimator.as_float_image(np.zeros(7))

    def test_padding(self):
        img = np.random.default_rng(1).random((9, 14))
        padded, shape = image_io.pad_to_multiple_of_4(img)
        assert shape == (9, 14)
        assert padded.shape == (12, 16)
        np.testing.assert_array_equal(padded[:9, :14], img)
        np.testing.assert_array_equal(padded[9:, :14], np.tile(img[8:9, :], (3, 1)))

    def test_padding_noop(self):
        img = np.zeros((8, 8))
        padded, _ = image_io.pad_to_multiple_of_4(img)
        assert padded is img


class TestParamsProtocol:
    def test_defaults_are_the_config_defaults(self):
        declared = {f.name: f.default
                    for cls in (config.PropertyConfig, config.TrainConfig, config.EvalConfig)
                    for f in dataclasses.fields(cls)}
        for name, param in inspect.signature(PointPropsDetector).parameters.items():
            assert param.default == declared[name], name

    def test_invalid_hyperparameters_caught_at_fit(self):
        # (5, 6) holds no count: both ends of the window are exclusive
        for n_min, n_max in [(15, 12), (5, 6)]:
            det = tiny_detector(n_min=n_min, n_max=n_max)
            with pytest.raises(ValueError, match=f"n_min={n_min} n_max={n_max}"):
                det.fit(shape_scenes(0, 2, size=16))

    def test_negative_seed_caught_at_fit(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            tiny_detector(seed=-1).fit(shape_scenes(0, 2, size=16))

    @pytest.mark.parametrize("name, value, message", [
        ("max_points", 0, r"max_points must be >= 1, got 0"),
        ("max_points", -1, r"max_points must be >= 1, got -1"),
        ("prob_threshold", 1.5, r"prob_threshold must be in \(0, 1\), got 1.5"),
    ], ids=["max-points-0", "max-points-minus-1", "prob-threshold-1.5"])
    def test_invalid_eval_settings_caught_at_detect(self, name, value, message):
        det = tiny_detector(**{name: value})
        det.params_ = model.init_params(0, det.descriptor_dim)
        with pytest.raises(ValueError, match=message):
            det.detect(shape_scenes(3, 1, size=16)[0])

    def test_non_finite_hyperparameter_caught_at_fit(self):
        det = tiny_detector(alpha=float("nan"))
        with pytest.raises(ValueError, match="alpha must be finite, got nan"):
            det.fit(shape_scenes(0, 2, size=16))


class TestFitDetect:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            tiny_detector().detect(np.zeros((8, 8)))

    def test_fit_sets_state_and_detects(self):
        det = tiny_detector()
        images = shape_scenes(3, 2, size=16)
        assert det.fit(images) is det
        assert det.params_.descriptor_dim == 4
        assert len(det.train_log_) == 2
        points = det.detect(images[0])
        assert points.xy.shape[1] == 2
        if len(points):
            assert points.descriptors.shape[1] == 4

    def test_training_forks_its_pool_after_a_laned_detect(self, two_cpus, lane_counts,
                                                          monkeypatch):
        # the detect's lane threads are joined before it returns, so training
        # in the same process still finds itself the only thread and forks
        det = tiny_detector()
        det.params_ = model.init_params(0, det.descriptor_dim)
        det.detect(np.random.default_rng(0).random((240, 320)))
        assert lane_counts == [2]
        pools = []
        fork_pool = workers.fork_pool

        @contextlib.contextmanager
        def recording(n):
            with fork_pool(n) as pool:
                pools.append(pool)
                yield pool

        monkeypatch.setattr(workers, "fork_pool", recording)
        em.train(shape_scenes(3, 2, size=16),
                 config.TrainConfig(iterations=1, seed=2, transforms_per_scene=2))
        assert len(pools) == 1 and pools[0] is not None

    def test_detect_crops_padding(self):
        det = tiny_detector().fit(shape_scenes(3, 2, size=16))
        img = np.random.default_rng(2).random((13, 18))
        points = det.detect(img)
        if len(points):
            assert points.xy[:, 0].max() <= 17
            assert points.xy[:, 1].max() <= 12

    def test_predict_detects_each_image(self):
        det = tiny_detector().fit(shape_scenes(3, 2, size=16))
        imgs = shape_scenes(4, 2, size=16)
        out = det.predict(imgs)
        assert len(out) == 2
        for points, img in zip(out, imgs):
            np.testing.assert_array_equal(points.xy, det.detect(img).xy)

    def test_fit_validates_shapes(self):
        det = tiny_detector()
        with pytest.raises(ValueError, match="share one shape"):
            det.fit([np.zeros((16, 16)), np.zeros((8, 8))])
        with pytest.raises(ValueError, match="multiples of 4"):
            det.fit([np.zeros((10, 10))])
        with pytest.raises(ValueError, match="at least one"):
            det.fit([])

    def test_checkpoint_round_trip(self, tmp_path):
        det = tiny_detector().fit(shape_scenes(3, 2, size=16))
        det.save_checkpoint(tmp_path / "m.ckpt")
        loaded = PointPropsDetector().load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.descriptor_dim == 4
        for k in det.params_.weights:
            np.testing.assert_array_equal(loaded.params_.weights[k],
                                          det.params_.weights[k])
