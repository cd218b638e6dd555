import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import FieldOutput, shape_scenes
from pointprops import em, model, oracle, properties, simulate, workers
from pointprops.config import PropertyConfig, TrainConfig
from test_properties import paper_scale_config, sparsity_brute_force


def local_max_brute_force(values, rad):
    h, w = values.shape
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            best = True
            for dr in range(-rad, rad + 1):
                for dc in range(-rad, rad + 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and values[rr, cc] >= values[r, c]:
                        best = False
            out[r, c] = best
    return out


class TestSelectLocalMaxima:
    def test_single_peak(self):
        cols, rows = np.meshgrid(np.arange(16), np.arange(16))
        bump = np.exp(-((rows - 7.3) ** 2 + (cols - 9.1) ** 2) / 20.0)
        yhat = properties.select_local_maxima(bump, rad=2)
        assert yhat.sum() == 1
        assert yhat[7, 9]

    def test_constant_grid_selects_nothing(self):
        assert not properties.select_local_maxima(np.full((10, 10), 0.3), rad=2).any()

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.random((16, 16))
            np.testing.assert_array_equal(
                properties.select_local_maxima(values, rad=2), local_max_brute_force(values, 2)
            )

    def test_result_is_locally_sparse(self):
        rng = np.random.default_rng(1)
        for rad in (1, 2, 4):
            for _ in range(50):
                yhat = properties.select_local_maxima(rng.random((20, 20)), rad)
                np.testing.assert_array_equal(sparsity_brute_force(yhat, rad), yhat)


class TestCountSampleSpace:
    def test_small_binomial_fixture(self):
        # m=5, bounds (1, 4): n in {2, 3} -> C(5,2)+C(5,3)=20, C(4,1)+C(4,2)=10
        counts = em.log_count_sample_space(5, 1, 4)
        assert counts.exact == (20, 10, 10)
        assert counts.log_total == pytest.approx(math.log(20), abs=1e-15)

    def test_full_enumeration_fixture(self):
        # m=3, bounds (0, 4): all nonempty subsets -> 7, 4 contain a fixed point
        counts = em.log_count_sample_space(3, 0, 4)
        assert counts.exact == (7, 4, 3)

    def test_large_instance_is_finite_and_sane(self):
        counts = em.log_count_sample_space(2000, 200, 400)
        assert np.isfinite(counts.log_total)
        ratio = np.exp(counts.log_with_point - counts.log_total)
        assert 0.0 < ratio < 1.0

    def test_exact_counts_equal_binomial_sums(self):
        def binomial_sums(m, n_min, n_max):
            ns = range(n_min + 1, min(n_max - 1, m) + 1)
            total = sum(math.comb(m, n) for n in ns)
            with_point = sum(math.comb(m - 1, n - 1) for n in ns)
            return total, with_point, total - with_point

        cases = [(2000, 200, 400)]
        for m in range(1, 201):
            for n_min in sorted({0, min(1, m - 1), m // 3, m - 1}):
                # windows that stop below m, end at m, reach m and run past it
                for n_max in sorted({n_min + 2, (n_min + m) // 2 + 2, m, m + 1, m + 7}):
                    if n_max >= n_min + 2:
                        cases.append((m, n_min, n_max))
        for m, n_min, n_max in cases:
            counts = em.log_count_sample_space(m, n_min, n_max)
            expected = binomial_sums(m, n_min, n_max)
            assert counts.exact == expected, (m, n_min, n_max)
            assert counts.log_total == math.log(expected[0])
            assert counts.log_with_point == math.log(expected[1])

    def test_empty_space_signal(self):
        with pytest.raises(em.EmptySampleSpaceError):
            em.log_count_sample_space(5, 5, 9)
        with pytest.raises(em.EmptySampleSpaceError):
            em.log_count_sample_space(3, 7, 9)

    def test_split_identity_property(self):
        # |Y with point| + |Y without point| = |Y| across 1000 random cases
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = int(rng.integers(1, 120))
            n_min = int(rng.integers(0, 60))
            n_max = n_min + int(rng.integers(2, 60))
            try:
                counts = em.log_count_sample_space(m, n_min, n_max)
            except em.EmptySampleSpaceError:
                assert m <= n_min
                continue
            total, with_point, without = counts.exact
            assert with_point + without == total
            split = np.exp(counts.log_with_point - counts.log_total) + np.exp(
                counts.log_without_point - counts.log_total
            )
            assert split == pytest.approx(1.0, abs=1e-9)


class TestApproximatePosterior:
    def test_balanced_counts_return_repeatability(self):
        counts = em.log_count_sample_space(5, 1, 4)  # W1 == W0 == 10
        p = em.approximate_posterior(0.9, 1.0, counts)
        assert p == pytest.approx(0.9, abs=1e-12)

    def test_exponential_discount(self):
        counts = em.log_count_sample_space(5, 1, 4)
        p = em.approximate_posterior(0.5, np.exp(-1.0), counts)
        assert p == pytest.approx(np.exp(-1.0) / (np.exp(-1.0) + 1.0), abs=1e-12)
        assert p == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_forced_selection_when_every_mask_contains_point(self):
        counts = em.log_count_sample_space(3, 2, 4)  # only the full mask is feasible
        assert counts.log_without_point == -np.inf
        assert em.approximate_posterior(0.2, 0.5, counts) == pytest.approx(1.0)

    def test_monotone_in_repeatability_and_discriminability(self):
        counts = em.log_count_sample_space(9, 2, 7)
        r = np.linspace(0.05, 0.95, 40)
        p = em.approximate_posterior(r, 0.7, counts)
        assert np.all(np.diff(p) > 0)
        c = np.linspace(0.05, 1.0, 40)
        p2 = em.approximate_posterior(0.4, c, counts)
        assert np.all(np.diff(p2) > 0)

    def test_range(self):
        rng = np.random.default_rng(3)
        counts = em.log_count_sample_space(30, 4, 17)
        p = em.approximate_posterior(
            rng.uniform(0.01, 0.99, 1000), rng.uniform(0.05, 1.0, 1000), counts
        )
        assert np.all((p >= 0.0) & (p <= 1.0))


def synthetic_scene(prob_maps, desc_fields):
    """Scene stub with identity correspondence and full validity."""
    h, w = prob_maps[0].shape
    j = len(prob_maps)
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")

    class Scene:
        canonical = np.zeros((h, w))
        images = [np.zeros((h, w))] * j
        outputs = [FieldOutput(p, d) for p, d in zip(prob_maps, desc_fields)]
        map_rows = np.broadcast_to(rows, (j, h, w)).copy()
        map_cols = np.broadcast_to(cols, (j, h, w)).copy()
        valid = np.ones((j, h, w), dtype=bool)
        num_views = j

    return Scene()


def unit_fields(rng, shape, j):
    fields = []
    for _ in range(j):
        f = rng.normal(size=shape)
        f /= np.linalg.norm(f, axis=-1, keepdims=True)
        fields.append(f)
    return fields


def latent_state(scene, yhat, p, cfg):
    """E-step state of ``scene`` for a given candidate mask and posterior."""
    r, valid_count = em.repeatability(scene, scene.outputs)
    rows, cols = np.nonzero(yhat)
    descriptors, valid = properties.gather_selected_descriptors(rows, cols, scene.outputs,
                                                                scene)
    return em.LatentState(
        r=r, valid_count=valid_count, sel_rows=rows, sel_cols=cols,
        p=np.broadcast_to(p, yhat.shape)[rows, cols],
        h=properties.margins(len(rows), descriptors, valid, cfg),
        sel_descriptors=descriptors, sel_valid=valid, expected_log_likelihood=0.0,
    )


class TestEStep:
    def make_fixed_point_scene(self):
        eps = 1e-7
        prob = np.full((12, 12), eps)
        spots = [(2, 2), (2, 9), (8, 3), (9, 9)]
        for r, c in spots:
            prob[r, c] = 1.0 - eps
        desc = np.zeros((12, 12, 16))
        desc[:, :, 0] = 1.0  # background all identical
        for k, (r, c) in enumerate(spots):
            desc[r, c] = 0.0
            desc[r, c, k] = 1.0  # one-hot at the spikes: negative sims 0
        return synthetic_scene([prob, prob.copy()], [desc, desc.copy()]), spots

    def test_fixed_point(self):
        scene, spots = self.make_fixed_point_scene()
        cfg = PropertyConfig(rad=2, n_min=2, n_max=6, m_p=1.0, m_n=0.2, neg_weight=0.1)
        states, expected, _ = em.e_step([scene], None, cfg)
        state = states[0]
        assert state.num_selected == len(spots)
        np.testing.assert_array_equal(np.stack([state.sel_rows, state.sel_cols], axis=1),
                                      spots)
        np.testing.assert_allclose(state.p, 1.0, atol=1e-4)
        np.testing.assert_allclose(properties.discriminability_prob(state.h, cfg), 1.0,
                                   atol=1e-12)
        assert abs(expected) < 1e-3

    def test_expected_value_is_nonpositive(self):
        rng = np.random.default_rng(4)
        cfg = PropertyConfig(rad=2, n_min=1, n_max=9, m_p=0.9, m_n=0.1, neg_weight=0.4)
        for _ in range(10):
            probs = [rng.uniform(0.05, 0.95, size=(12, 12)) for _ in range(3)]
            descs = unit_fields(rng, (12, 12, 6), 3)
            states, expected, _ = em.e_step([synthetic_scene(probs, descs)], None, cfg)
            assert states[0] is not None
            assert expected <= 0.0

    def test_posterior_matches_enumeration_oracle(self):
        # moderate rates and a gentle discriminability exponent: the regime
        # where the averaging approximation is trusted (see checks module)
        rng = np.random.default_rng(5)
        cfg = PropertyConfig(rad=3, n_min=2, n_max=6, m_p=0.9, m_n=0.1, neg_weight=0.4,
                             alpha=0.3)
        compared = 0
        for _ in range(12):
            probs = [rng.uniform(0.4, 0.6, size=(12, 12)) for _ in range(2)]
            descs = unit_fields(rng, (12, 12, 6), 2)
            scene = synthetic_scene(probs, descs)
            states, expected, _ = em.e_step([scene], None, cfg)
            state = states[0]
            if state is None or not 2 < state.num_selected <= 12:
                continue
            off = np.ones(state.r.shape, dtype=bool)
            off[state.sel_rows, state.sel_cols] = False
            inst = oracle.TinyInstance(
                r=state.r[~off], n_min=cfg.n_min, n_max=cfg.n_max,
                c_tilde=properties.discriminability_prob(state.h, cfg),
            )
            space = oracle.enumerate_reduced_space(inst)
            exact = oracle.exact_posterior(inst, space)
            assert np.max(np.abs(state.p - exact)) <= 0.05
            # expectation: exact posterior over candidates + deterministic background
            exact_e = oracle.exact_expectation(inst, space)
            background = np.log1p(-np.clip(state.r[off], 1e-7, 1 - 1e-7)).sum()
            bound = np.abs(state.p - exact) @ np.abs(
                np.log(inst.r) - np.log1p(-inst.r) + np.log(inst.c_tilde)
            )
            assert abs(state.expected_log_likelihood - (exact_e + background)) <= bound + 1e-9
            compared += 1
        assert compared >= 5

    def test_skips_scene_without_feasible_space(self):
        prob = np.full((8, 8), 0.3)
        prob[4, 4] = 0.9  # one candidate only
        desc = np.zeros((8, 8, 4))
        desc[:, :, 0] = 1.0
        scene = synthetic_scene([prob, prob.copy()], [desc, desc.copy()])
        cfg = PropertyConfig(rad=2, n_min=5, n_max=9)
        states, expected, reasons = em.e_step([scene], None, cfg)
        assert states == [None]
        assert expected == 0.0
        assert reasons == ["no feasible count for m=1 in (5, 9)"]


class TestDetectorGradient:
    def build_state(self, p_value, r_value, j):
        prob = np.full((8, 8), r_value)
        desc = np.zeros((8, 8, 4))
        desc[:, :, 0] = 1.0
        scene = synthetic_scene([prob.copy() for _ in range(j)],
                                [desc.copy() for _ in range(j)])
        # one candidate, at (4, 4)
        state = em.LatentState(
            r=np.full((8, 8), r_value), valid_count=np.full((8, 8), j),
            sel_rows=np.array([4]), sel_cols=np.array([4]),
            p=np.array([p_value]), h=np.zeros(1),
            sel_descriptors=np.zeros((j, 1, 4)), sel_valid=np.ones((j, 1), dtype=bool),
            expected_log_likelihood=0.0,
        )
        return state, scene

    def test_stationary_when_posterior_equals_repeatability(self):
        state, scene = self.build_state(0.5, 0.5, j=3)
        for g in em.detector_gradient_coefficients(state, scene):
            assert g[4, 4] == 0.0

    def test_unit_fixture(self):
        # (1 - 0.5) / (10 * 0.5 * 0.5) = 0.2
        state, scene = self.build_state(1.0, 0.5, j=10)
        grads = em.detector_gradient_coefficients(state, scene)
        assert len(grads) == 10
        for g in grads:
            assert g[4, 4] == pytest.approx(0.2, abs=1e-12)

    def test_background_pushes_down(self):
        state, scene = self.build_state(1.0, 0.5, j=2)
        g = em.detector_gradient_coefficients(state, scene)[0]
        assert np.all(g[state.r < 1] <= g[4, 4])
        assert g[0, 0] == pytest.approx((0.0 - 0.5) / (2 * 0.25), abs=1e-12)


class TestDescriptorGradient:
    def test_zero_posterior_gives_zero(self):
        rng = np.random.default_rng(6)
        probs = [rng.uniform(0.2, 0.8, size=(12, 12)) for _ in range(2)]
        descs = unit_fields(rng, (12, 12, 6), 2)
        scene = synthetic_scene(probs, descs)
        cfg = PropertyConfig(rad=2, n_min=1, n_max=9)
        states, _, _ = em.e_step([scene], None, cfg)
        state = states[0]
        state.p[:] = 0.0
        for _, _, g in em.descriptor_field_gradients(state, scene, cfg):
            assert not g.any()

    def test_saturated_margins_give_zero(self):
        # identical one-hot descriptors across views: positive sims exceed
        # m_p (clipped) and negative sims fall below m_n (clipped)
        eps = 1e-3
        prob = np.full((12, 12), eps)
        spots = [(2, 2), (2, 9), (8, 3), (9, 9)]
        desc = np.zeros((12, 12, 16))
        desc[:, :, 15] = 1.0
        for k, (r, c) in enumerate(spots):
            prob[r, c] = 1.0 - eps
            desc[r, c] = 0.0
            desc[r, c, k] = 1.0
        scene = synthetic_scene([prob, prob.copy()], [desc, desc.copy()])
        cfg = PropertyConfig(rad=2, n_min=2, n_max=6, m_p=0.8, m_n=0.2, neg_weight=0.3)
        states, _, _ = em.e_step([scene], None, cfg)
        state = states[0]
        assert state.num_selected == 4
        assert state.p.min() > 0.5
        for _, _, g in em.descriptor_field_gradients(state, scene, cfg):
            assert not g.any()

    def test_coefficients_are_alpha_times_posterior(self):
        rng = np.random.default_rng(7)
        probs = [rng.uniform(0.2, 0.8, size=(12, 12)) for _ in range(2)]
        descs = unit_fields(rng, (12, 12, 6), 2)
        scene = synthetic_scene(probs, descs)
        cfg = PropertyConfig(rad=2, n_min=1, n_max=9, alpha=1.7)
        states, _, _ = em.e_step([scene], None, cfg)
        state = states[0]
        # identity correspondence: each selected row lands on its own pixel
        weights = 1.7 * state.p
        rows = properties.margin_gradients(state.sel_descriptors, state.sel_valid, cfg,
                                           weights)
        for j, (rr, cc, g) in enumerate(em.descriptor_field_gradients(state, scene, cfg)):
            np.testing.assert_array_equal(rr, state.sel_rows)
            np.testing.assert_array_equal(cc, state.sel_cols)
            np.testing.assert_array_equal(g, rows[j])

    def test_margins_above_the_cap_carry_no_gradient(self):
        # the one-hot fixture of test_orthogonal_descriptors_paper_constants:
        # h = 0.99502 > margin_max = 0.995, where the logged min(h, margin_max)
        # is flat
        cfg = paper_scale_config()
        shape = (15, 20)
        field = np.eye(300).reshape(*shape, 300)
        scene = synthetic_scene([np.full(shape, 0.5)] * 2, [field, field.copy()])
        state = latent_state(scene, np.ones(shape, dtype=bool), 0.5, cfg)
        assert np.all(state.h > cfg.margin_max)
        for _, _, g in em.descriptor_field_gradients(state, scene, cfg):
            assert not g.any()


class TestViewScatter:
    """The view-major gathers and scatters against literal per-point loops,
    on a scene whose correspondence is many-to-one and partly invalid."""

    J, H, W, D = 3, 6, 7, 4

    def scene_and_state(self):
        rng = np.random.default_rng(21)
        shape = (self.H, self.W)
        probs = [rng.uniform(0.1, 0.9, shape) for _ in range(self.J)]
        scene = synthetic_scene(probs, unit_fields(rng, (*shape, self.D), self.J))
        scene.map_rows = rng.integers(0, self.H, size=(self.J, *shape))
        scene.map_cols = rng.integers(0, self.W, size=(self.J, *shape))
        scene.valid = rng.random((self.J, *shape)) < 0.7
        # two selected points land on one pixel of view 0; one is unseen in view 2
        scene.map_rows[0, 4, 5] = scene.map_rows[0, 1, 1]
        scene.map_cols[0, 4, 5] = scene.map_cols[0, 1, 1]
        scene.valid[0, [1, 4], [1, 5]] = True
        scene.valid[2, 0, 3] = False
        yhat = np.zeros(shape, dtype=bool)
        yhat[[1, 4, 0, 2, 5, 3], [1, 5, 3, 6, 0, 2]] = True
        cfg = PropertyConfig(rad=1, n_min=1, n_max=9, m_p=0.9, m_n=-0.2, neg_weight=0.5)
        state = latent_state(scene, yhat, rng.uniform(0.1, 0.9, shape), cfg)
        return scene, state, cfg

    def test_detector_coefficients_match_per_point_loop(self):
        scene, state, _ = self.scene_and_state()
        p = np.zeros((self.H, self.W))
        p[state.sel_rows, state.sel_cols] = state.p
        expected = np.zeros((self.J, self.H, self.W))
        for j in range(self.J):
            for y in range(self.H):
                for x in range(self.W):
                    if not scene.valid[j, y, x]:
                        continue
                    r = min(max(state.r[y, x], properties.PROB_EPS),
                            1.0 - properties.PROB_EPS)
                    coeff = (p[y, x] - r) / (state.valid_count[y, x] * r * (1.0 - r))
                    expected[j, scene.map_rows[j, y, x], scene.map_cols[j, y, x]] += coeff
        np.testing.assert_array_equal(em.detector_gradient_coefficients(state, scene),
                                      expected)

    def test_descriptor_gradients_match_per_point_loop(self):
        scene, state, cfg = self.scene_and_state()
        points = list(zip(state.sel_rows, state.sel_cols))
        weights = [cfg.alpha * p if h <= cfg.margin_max else 0.0
                   for p, h in zip(state.p, state.h)]
        row_grads = properties.margin_gradients(state.sel_descriptors, state.sel_valid,
                                                cfg, weights)
        expected = [np.zeros((self.H, self.W, self.D)) for _ in range(self.J)]
        for j in range(self.J):
            for i, (y, x) in enumerate(points):
                if scene.valid[j, y, x]:
                    expected[j][scene.map_rows[j, y, x], scene.map_cols[j, y, x]] += \
                        row_grads[j, i]
        got = em.descriptor_field_gradients(state, scene, cfg)
        assert len(got) == self.J and any(g.any() for _, _, g in got)
        # the two points on one pixel of view 0 stay two points
        rr, cc, _ = got[0]
        assert len(set(zip(rr, cc))) < len(rr)
        for (rr, cc, g), e in zip(got, expected):
            field = np.zeros_like(e)
            np.add.at(field, (rr, cc), g)
            np.testing.assert_array_equal(field, e)


class TestTrain:
    def small_config(self, iterations):
        return TrainConfig(
            batch_scenes=1,
            transforms_per_scene=2,
            iterations=iterations,
            properties=PropertyConfig(rad=2, n_min=1, n_max=9, m_p=0.9, m_n=0.1,
                                      neg_weight=0.4),
            descriptor_dim=4,
            image_size=(16, 16),
            seed=11,
        )

    def images(self):
        rng = np.random.default_rng(11)
        return [rng.random((16, 16)) for _ in range(3)]

    def test_zero_iterations_returns_initial_params(self):
        result = em.train(self.images(), self.small_config(0))
        fresh = model.init_params(11, 4)
        for k in fresh.weights:
            np.testing.assert_array_equal(result.params.weights[k], fresh.weights[k])
        assert result.log_rows == []

    def test_deterministic(self, tmp_path):
        a = em.train(self.images(), self.small_config(3))
        b = em.train(self.images(), self.small_config(3))
        model.save_checkpoint(tmp_path / "a.ckpt", a.params)
        model.save_checkpoint(tmp_path / "b.ckpt", b.params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        for ra, rb in zip(a.log_rows, b.log_rows):
            for key in ("iteration", "E_y_L", "mean_num_yhat", "skipped_scenes"):
                assert ra[key] == rb[key] or (
                    math.isnan(ra[key]) and math.isnan(rb[key])
                )

    def test_parameters_change_and_log_shape(self):
        result = em.train(self.images(), self.small_config(3))
        fresh = model.init_params(11, 4)
        assert any(
            not np.array_equal(result.params.weights[k], fresh.weights[k])
            for k in fresh.weights
        )
        assert len(result.log_rows) == 3
        assert set(result.log_rows[0]) == {
            "iteration", "E_y_L", "mean_num_yhat", "skipped_scenes", "seconds"
        }

    def test_non_finite_gradient_names_iteration_and_parameter(self, monkeypatch):
        def poisoned(state, scene, params, cfg):
            grads = model.zero_grads(params)
            grads["det1_w"][0, 0, 1, 1] = np.nan
            return grads

        monkeypatch.setattr(em, "scene_parameter_gradients", poisoned)
        with pytest.raises(ValueError, match="iteration 1: non-finite gradient for "
                                             "parameter det1_w"):
            em.train(self.images(), self.small_config(2))

    def test_non_finite_expected_log_likelihood_names_iteration(self, monkeypatch):
        e_step = em.e_step

        def poisoned(scenes, params, cfg):
            states, _, reasons = e_step(scenes, params, cfg)
            return states, np.inf, reasons

        monkeypatch.setattr(em, "e_step", poisoned)
        with pytest.raises(ValueError, match=r"iteration 1: expected log-likelihood "
                                             r"E\[L\] is inf"):
            em.train(self.images(), self.small_config(2))

    def test_dead_detector_stops_training(self, dead_detector):
        # the last all-skipped iteration that still returns, then the guard
        result = em.train(self.images(), self.small_config(em._DEAD_ITERATIONS - 1))
        assert [row["skipped_scenes"] for row in result.log_rows] == \
            [1] * (em._DEAD_ITERATIONS - 1)
        with pytest.raises(ValueError, match=rf"iteration {em._DEAD_ITERATIONS}: every "
                                             rf"scene skipped for {em._DEAD_ITERATIONS} "
                                             r"iterations in a row \(no candidate local "
                                             r"maxima\)"):
            em.train(self.images(), self.small_config(em._DEAD_ITERATIONS + 5))


class TestScenePool:
    """``em.train`` runs an iteration's scenes in forked workers; the result
    is the serial one bit for bit."""

    def train(self, monkeypatch, tmp_path, cpus, images, cfg):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        result = em.train(images, cfg)
        path = tmp_path / f"cpus{cpus}.ckpt"
        model.save_checkpoint(path, result.params)
        rows = [{k: v for k, v in row.items() if k != "seconds"} for row in result.log_rows]
        return path.read_bytes(), repr(rows)

    @pytest.mark.parametrize("case", ["default", "three scenes", "skipped scene"])
    def test_pooled_equals_serial(self, monkeypatch, tmp_path, case):
        images = shape_scenes(3, 4)
        cfg = TrainConfig(iterations=3, seed=2)
        if case == "three scenes":  # this process runs scenes 0 and 2, a worker scene 1
            cfg = replace(cfg, batch_scenes=3)
        elif case == "skipped scene":  # a flat image has no candidate local maxima
            images[1] = np.zeros((64, 64))
        pooled = self.train(monkeypatch, tmp_path, 2, images, cfg)
        serial = self.train(monkeypatch, tmp_path, 1, images, cfg)
        assert pooled == serial
        assert ("'skipped_scenes': 1" in serial[1]) == (case == "skipped scene")
        assert multiprocessing.active_children() == []

    def test_pooled_equals_serial_where_blas_threads_move_bits(self, monkeypatch, tmp_path):
        # at 192x192 one iteration's parameters differed between 1 and 2 BLAS
        # threads; both paths pin one, so a 2-thread caller cannot tell them apart
        get, set_ = workers._blas_thread_functions()
        before = get()
        cfg = TrainConfig(iterations=1, seed=2, transforms_per_scene=3)
        try:
            set_(2)
            pooled = self.train(monkeypatch, tmp_path, 2, shape_scenes(3, 2, size=192), cfg)
            serial = self.train(monkeypatch, tmp_path, 1, shape_scenes(3, 2, size=192), cfg)
        finally:
            set_(before)
        assert pooled == serial

    def test_unpinnable_blas_trains_serially(self, two_cpus, monkeypatch, tmp_path):
        images = shape_scenes(3, 4, size=32)
        cfg = TrainConfig(iterations=2, seed=2, transforms_per_scene=3)
        pooled = self.train(monkeypatch, tmp_path, 2, images, cfg)
        here = []
        e_step = em.e_step

        def recording(scenes, params, cfg):
            here.append(os.getpid())
            return e_step(scenes, params, cfg)

        monkeypatch.setattr(em, "e_step", recording)
        monkeypatch.setattr(workers, "_blas_thread_functions", lambda: None)
        assert self.train(monkeypatch, tmp_path, 2, images, cfg) == pooled
        assert here == [os.getpid()] * 4  # both scenes of both iterations

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blas_thread_count_is_restored(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        get, set_ = workers._blas_thread_functions()
        before = get()
        seen = []
        e_step = em.e_step

        def recording(scenes, params, cfg):
            seen.append(get())
            return e_step(scenes, params, cfg)

        def poisoned(state, scene, params, cfg):
            raise ValueError("poisoned gradient")

        monkeypatch.setattr(em, "e_step", recording)
        cfg = TrainConfig(iterations=1, seed=2, transforms_per_scene=3)
        try:
            set_(2)
            em.train(shape_scenes(3, 2, size=32), cfg)
            assert get() == 2
            monkeypatch.setattr(em, "scene_parameter_gradients", poisoned)
            with pytest.raises(ValueError, match="iteration 1: poisoned gradient"):
                em.train(shape_scenes(3, 2, size=32), cfg)
            assert get() == 2
        finally:
            set_(before)
        assert seen and set(seen) == {1}  # this process's scenes, under the pin

    def test_worker_value_error_keeps_type_and_names_iteration(self, two_cpus, monkeypatch):
        parent = os.getpid()
        make_scene = simulate.make_scene

        def failing_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("bad scene")
            return make_scene(*args, **kwargs)

        monkeypatch.setattr(simulate, "make_scene", failing_in_worker)
        cfg = TrainConfig(iterations=1, seed=2, transforms_per_scene=3)
        with pytest.raises(ValueError, match=r"^iteration 1: bad scene$"):
            em.train(shape_scenes(3, 2, size=32), cfg)
        assert multiprocessing.active_children() == []
