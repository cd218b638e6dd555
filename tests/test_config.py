import dataclasses

import numpy as np
import pytest

from conftest import mutate_bytes
from pointprops import cli, config

# every config key: its caster, a valid value, and the RunConfig field it sets
# (a dotted path) with the value it takes there
SCHEMA = {
    "train.batch_scenes": (int, "3", "train.batch_scenes", 3),
    "train.transforms_per_scene": (int, "3", "train.transforms_per_scene", 3),
    "train.iterations": (int, "7", "train.iterations", 7),
    "train.descriptor_dim": (int, "8", "train.descriptor_dim", 8),
    "train.image_height": (int, "32", "train.image_height", 32),
    "train.image_width": (int, "48", "train.image_width", 48),
    "train.learning_rate": (float, "0.01", "train.learning_rate", 0.01),
    "train.seed": (int, "9", "train.seed", 9),
    "properties.rad": (int, "3", "train.properties.rad", 3),
    "properties.n_min": (int, "4", "train.properties.n_min", 4),
    "properties.n_max": (int, "20", "train.properties.n_max", 20),
    "properties.m_p": (float, "0.9", "train.properties.m_p", 0.9),
    "properties.m_n": (float, "0.1", "train.properties.m_n", 0.1),
    "properties.neg_weight": (float, "0.25", "train.properties.neg_weight", 0.25),
    "properties.alpha": (float, "2", "train.properties.alpha", 2.0),
    "simulate.illumination": (str, "illum_full", "train.illumination", "illum_full"),
    "simulate.viewpoint": (str, "viewpoint_full", "train.viewpoint", "viewpoint_full"),
    "eval.prob_threshold": (float, "0.25", "eval.prob_threshold", 0.25),
    "eval.max_points": (int, "50", "eval.max_points", 50),
    "eval.epsilon": (float, "2", "eval.epsilon", 2.0),
    "eval.ransac_iters": (int, "100", "eval.ransac_iters", 100),
    "eval.ransac_threshold": (float, "2.5", "eval.ransac_threshold", 2.5),
    "eval.pairs_per_image": (int, "2", "eval.pairs_per_image", 2),
    "paths.images_dir": (str, "imgs", "images_dir", "imgs"),
    "paths.output_dir": (str, "o", "output_dir", "o"),
    "paths.checkpoint": (str, "m.ckpt", "checkpoint", "m.ckpt"),
    "paths.pairs_file": (str, "p.txt", "pairs_file", "p.txt"),
}


def config_with(cls, path, value):
    """``cls`` built with only the field at dotted ``path`` set, through its
    nested config dataclasses, so derived defaults are derived again."""
    name, _, rest = path.partition(".")
    if rest:
        field = next(f for f in dataclasses.fields(cls) if f.name == name)
        value = config_with(field.default_factory, rest, value)
    return cls(**{name: value})


class TestPropertyConfig:
    def test_defaults_and_derived_weight(self):
        cfg = config.PropertyConfig()
        assert cfg.neg_weight == pytest.approx(10.0 / cfg.n_max)
        assert cfg.margin_max == pytest.approx(cfg.m_p - cfg.neg_weight * cfg.m_n)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            config.PropertyConfig(n_min=30, n_max=30)
        with pytest.raises(ValueError):
            config.PropertyConfig(n_min=40, n_max=30)
        # (5, 6) is exclusive at both ends, so no point count lies inside it
        with pytest.raises(ValueError, match="holds a count, got n_min=5 n_max=6"):
            config.PropertyConfig(n_min=5, n_max=6)
        assert config.PropertyConfig(n_min=5, n_max=7).n_max == 7

    def test_rejects_bad_margins(self):
        with pytest.raises(ValueError):
            config.PropertyConfig(m_p=0.2, m_n=0.2)
        with pytest.raises(ValueError):
            config.PropertyConfig(m_p=0.1, m_n=0.5)

    def test_rejects_bad_radius_and_alpha(self):
        with pytest.raises(ValueError):
            config.PropertyConfig(rad=0)
        with pytest.raises(ValueError):
            config.PropertyConfig(alpha=0.0)


class TestTrainConfig:
    def test_rejects_too_few_transforms(self):
        with pytest.raises(ValueError):
            config.TrainConfig(transforms_per_scene=1)

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            config.TrainConfig(image_height=30)
        with pytest.raises(ValueError):
            config.TrainConfig(image_width=4)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            config.TrainConfig(illumination="illum_whatever")


class TestConfigFile:
    def test_parse_and_build(self):
        text = """
        [train]
        iterations = 7
        seed = 5
        # a comment
        [properties]
        rad = 3
        n_min = 4
        n_max = 20

        [simulate]
        viewpoint = viewpoint_full
        [eval]
        epsilon = 2.5
        """
        run = config.build_run_config(config.parse_config_text(text))
        assert run.train.iterations == 7
        assert run.train.seed == 5
        assert run.train.properties.rad == 3
        assert run.train.properties.n_max == 20
        assert run.train.viewpoint == "viewpoint_full"
        assert run.eval.epsilon == 2.5

    def test_hash_inside_a_value_is_kept(self):
        values = config.parse_config_text("[paths]\noutput_dir = runs/exp#3\n"
                                          "[train]\niterations = 7  # note\n#seed = 2\n")
        assert values == {"paths.output_dir": "runs/exp#3", "train.iterations": 7}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config.parse_config_text("[train]\nlearning_speed = 3\n")

    def test_key_before_any_header_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: config key 'threads' before any "
                                             r"\[section\] header"):
            config.parse_config_text("# no section yet\nthreads = 2\n[train]\nseed = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            config.parse_config_text("[train]\niterations 7\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            config.parse_config_text("[train]\niterations = soon\n")

    def test_key_set_twice_rejected(self):
        with pytest.raises(ValueError, match="line 5: config key 'train.seed' already set "
                                             "on line 2"):
            config.parse_config_text("[train]\nseed = 1\niterations = 3\n[train]\nseed = 2\n")

    def test_invalid_combination_rejected_before_work(self):
        for text, message in [
            ("[properties]\nn_min = 50\nn_max = 20\n", "n_min < n_max"),
            ("[train]\nlearning_rate = 0\n", "learning_rate must be > 0"),
            ("[train]\nlearning_rate = -0.1\n", "learning_rate must be > 0"),
            ("[train]\niterations = -1\n", "iterations must be >= 0"),
            ("[eval]\nransac_threshold = 0\n", "ransac_threshold must be > 0"),
            ("[train]\nseed = -1\n", "seed must be >= 0, got -1"),
            ("[eval]\nransac_iters = 0\n", "ransac_iters must be >= 1, got 0"),
            ("[properties]\nalpha = nan\n", "alpha must be finite, got nan"),
            ("[properties]\nalpha = inf\n", "alpha must be finite, got inf"),
            ("[properties]\nneg_weight = nan\n", "neg_weight must be finite, got nan"),
            ("[train]\nlearning_rate = nan\n", "learning_rate must be finite, got nan"),
            ("[train]\nlearning_rate = inf\n", "learning_rate must be finite, got inf"),
            ("[eval]\nprob_threshold = nan\n", "prob_threshold must be finite, got nan"),
            ("[eval]\nepsilon = nan\n", "epsilon must be finite, got nan"),
            ("[eval]\nransac_threshold = nan\n", "ransac_threshold must be finite, got nan"),
        ]:
            values = config.parse_config_text(text)
            with pytest.raises(ValueError, match=message):
                config.build_run_config(values)

    def test_seed_and_path_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nseed = 5\ndescriptor_dim = 32\n[paths]\noutput_dir = p\n")
        args = cli.build_parser().parse_args(
            ["eval", "--config", str(path), "--preset", "pn-full", "--seed", "123",
             "--checkpoint", "m.ckpt", "--output", "o"])
        run = cli._load_config(args)
        assert run.train.seed == 123
        assert (run.checkpoint, run.output_dir) == ("m.ckpt", "o")
        assert run.train.descriptor_dim == 32  # the file beats the preset
        assert run.train.illumination == "illum_full"

    def test_empty_values_give_the_dataclass_defaults(self):
        assert config.build_run_config({}) == config.RunConfig()

    def test_schema_is_pinned(self):
        assert len(SCHEMA) == 27
        assert sorted(config._SCHEMA) == sorted(SCHEMA)
        for key, (caster, text, path, expected) in SCHEMA.items():
            section, name = key.split(".")
            values = config.parse_config_text(f"[{section}]\n{name} = {text}\n")
            assert type(values[key]) is caster, key
            assert values == {key: caster(text)}, key
            # the key sets its one field and leaves every other at its default
            assert config.build_run_config(values) == \
                config_with(config.RunConfig, path, expected), key

    def test_unknown_dotted_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config.build_run_config({"train.in_channels": 1})

    def test_presets(self):
        for name, d, illum, view in [
            ("pn-i", 64, "illum_full", "viewpoint_medium"),
            ("pn-v", 64, "illum_mild", "viewpoint_full"),
            ("pn-full", 128, "illum_full", "viewpoint_full"),
        ]:
            run = config.build_run_config({}, preset=name)
            assert run.train.descriptor_dim == d
            assert run.train.illumination == illum
            assert run.train.viewpoint == view

    def test_explicit_keys_beat_preset(self):
        values = config.parse_config_text("[train]\ndescriptor_dim = 16\n")
        run = config.build_run_config(values, preset="pn-full")
        assert run.train.descriptor_dim == 16
        assert run.train.illumination == "illum_full"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            config.build_run_config({}, preset="pn-x")


class TestConfigMutations:
    SOURCE = (b"# tiny run\n"
              b"[train]\niterations = 2\nbatch_scenes = 2\ndescriptor_dim = 4\n"
              b"image_height = 24\nimage_width = 24\nlearning_rate = 0.002\nseed = 9\n"
              b"[properties]\nrad = 2\nn_min = 1\nn_max = 12\nm_p = 0.9\nm_n = 0.1\n"
              b"[simulate]\nillumination = illum_mild\n"
              b"[eval]\nmax_points = 20\nransac_iters = 300\n")

    def test_each_mutant_loads_whole_or_names_the_file(self, tmp_path):
        rng = np.random.default_rng(20191006)
        path = tmp_path / "mutant.cfg"
        args = cli.build_parser().parse_args(["train", "--config", str(path)])
        loaded = rejected = 0
        for _ in range(200):
            path.write_bytes(mutate_bytes(self.SOURCE, rng))
            try:
                run = cli._load_config(args)
            except ValueError as err:
                assert str(path) in str(err)
                rejected += 1
                continue
            assert isinstance(run, config.RunConfig)
            loaded += 1
        assert loaded > 0 and rejected > 0
