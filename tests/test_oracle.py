import numpy as np
import pytest

import naive_oracle
from pointprops import em, oracle


def make_instance(n, n_min, n_max, seed=0):
    rng = np.random.default_rng(seed)
    return oracle.TinyInstance(
        r=rng.uniform(0.2, 0.8, size=n),
        n_min=n_min,
        n_max=n_max,
        c_tilde=np.exp(rng.uniform(-0.6, 0.0, size=n)),
    )


class TestEnumerateReducedSpace:
    def test_all_nonempty_subsets(self):
        inst = make_instance(3, 0, 4)
        space = oracle.enumerate_reduced_space(inst)
        assert len(space) == 7
        assert sorted(int(m.sum()) for m in space) == [1, 1, 1, 2, 2, 2, 3]

    def test_empty_feasible_range(self):
        # two points, and no count strictly inside (2, 3)
        inst = make_instance(2, 2, 3)
        space = oracle.enumerate_reduced_space(inst)
        assert space.shape == (0, 2)

    def test_count_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            n_min = int(rng.integers(0, 6))
            n_max = n_min + int(rng.integers(2, 8))
            inst = make_instance(n, n_min, n_max, seed=int(rng.integers(1 << 30)))
            space = oracle.enumerate_reduced_space(inst)
            try:
                counts = em.log_count_sample_space(n, n_min, n_max)
            except em.EmptySampleSpaceError:
                assert len(space) == 0
                continue
            with_point = int(space[:, 0].sum())
            assert counts.exact == (len(space), with_point, len(space) - with_point)

    def test_refuses_oversized_support(self):
        inst = make_instance(10, 0, 5)
        inst.r = np.full(21, 0.5)  # bypass constructor cap to hit the op guard
        with pytest.raises(ValueError, match="instance of 21 points exceeds the cap of 20"):
            oracle.enumerate_reduced_space(inst)


class TestExactPosterior:
    def test_degenerate_space(self):
        inst = make_instance(4, 1, 4)
        mask = np.array([True, False, True, False])
        p = oracle.exact_posterior(inst, [mask])
        np.testing.assert_array_equal(p, mask.astype(float))

    def test_symmetric_singletons(self):
        inst = oracle.TinyInstance(
            r=np.array([0.4, 0.4]), n_min=0, n_max=2, c_tilde=np.array([0.8, 0.8])
        )
        space = oracle.enumerate_reduced_space(inst)
        assert len(space) == 2
        np.testing.assert_allclose(oracle.exact_posterior(inst, space), [0.5, 0.5],
                                   atol=1e-15)

    def test_marginal_sum_lies_inside_count_window(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 11))
            n_min = int(rng.integers(0, n - 2))
            n_max = n_min + int(rng.integers(2, n - n_min + 1))
            inst = make_instance(n, n_min, n_max, seed=int(rng.integers(1 << 30)))
            space = oracle.enumerate_reduced_space(inst)
            if len(space) == 0:
                continue
            p = oracle.exact_posterior(inst, space)
            assert np.all((p >= 0) & (p <= 1))
            assert n_min < p.sum() < n_max

    def test_empty_space_rejected(self):
        inst = make_instance(3, 0, 4)
        with pytest.raises(ValueError):
            oracle.exact_posterior(inst, [])


class TestExactExpectation:
    def test_concentrated_distribution_near_zero(self):
        eps = 1e-7
        r = np.array([1 - eps, 1 - eps, eps, eps])
        inst = oracle.TinyInstance(r=r, n_min=1, n_max=3, c_tilde=np.ones(4))
        mask = np.array([True, True, False, False])
        value = oracle.exact_expectation(inst, [mask])
        assert abs(value) < 1e-5

    def test_constant_discriminability_reduces_to_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            inst = oracle.TinyInstance(
                r=rng.uniform(0.2, 0.8, size=n), n_min=0, n_max=n + 1,
                c_tilde=np.ones(n),
            )
            space = oracle.enumerate_reduced_space(inst)
            value = oracle.exact_expectation(inst, space)
            p = oracle.exact_posterior(inst, space)
            closed = float(np.sum(p * np.log(inst.r) + (1 - p) * np.log1p(-inst.r)))
            assert value == pytest.approx(closed, abs=1e-12)

    def test_reordered_summation(self):
        inst = make_instance(8, 1, 6, seed=7)
        space = oracle.enumerate_reduced_space(inst)
        a = oracle.exact_expectation(inst, space)
        b = oracle.exact_expectation(inst, list(reversed(space)))
        assert a == pytest.approx(b, abs=1e-12)


class TestGuards:
    def test_instance_cap(self):
        with pytest.raises(ValueError):
            oracle.TinyInstance(r=np.full(21, 0.5), n_min=0, n_max=5,
                                c_tilde=np.ones(21))

    def test_rejects_shorter_discriminability(self):
        with pytest.raises(ValueError, match=r"c_tilde has shape \(3,\); r has shape \(4,\)"):
            oracle.TinyInstance(r=np.full(4, 0.5), n_min=0, n_max=5, c_tilde=np.ones(3))

    def test_rejects_broadcast_discriminability(self):
        with pytest.raises(ValueError, match=r"c_tilde has shape \(1,\); r has shape \(4,\)"):
            oracle.TinyInstance(r=np.full(4, 0.5), n_min=0, n_max=5, c_tilde=np.ones(1))

    def test_rejects_degenerate_rates(self):
        with pytest.raises(ValueError):
            oracle.TinyInstance(r=np.array([0.0, 0.5]), n_min=0, n_max=2,
                                c_tilde=np.ones(2))


class TestMatchesNaiveOracle:
    """The matrix oracle against the mask-by-mask walk, bit for bit."""

    @staticmethod
    def windows(m):
        # wide and clipped by the support size, narrow inside it, a single
        # count, and empty (no count strictly inside the bounds)
        return [(0, m + 3), (0, m + 1), (max(m - 4, 0), m), (max(m // 2 - 1, 0), m // 2 + 1),
                (m, m + 4), (2, 3)]

    def test_support_sizes_with_gaps(self):
        rng = np.random.default_rng(12)
        compared, empty = 0, 0
        for m in range(13):
            for n_min, n_max in self.windows(m):
                inst = oracle.TinyInstance(
                    r=rng.uniform(0.05, 0.95, size=m), n_min=n_min, n_max=n_max,
                    c_tilde=np.exp(rng.uniform(-3.0, 0.0, size=m)),
                )
                space = oracle.enumerate_reduced_space(inst)
                masks = naive_oracle.enumerate_reduced_space(inst)
                assert space.dtype == bool and space.shape == (len(masks), m)
                np.testing.assert_array_equal(space, np.reshape(masks, (len(masks), m)))
                if not masks:
                    with pytest.raises(ValueError, match="empty sample space"):
                        oracle.exact_posterior(inst, space)
                    with pytest.raises(ValueError, match="empty sample space"):
                        oracle.exact_expectation(inst, space)
                    empty += 1
                    continue
                for rows, listed in ((space, masks), (space[::-1], masks[::-1])):
                    assert np.array_equal(oracle.exact_posterior(inst, rows),
                                          naive_oracle.exact_posterior(inst, listed))
                    assert (oracle.exact_expectation(inst, rows)
                            == naive_oracle.exact_expectation(inst, listed))
                compared += 1
        assert compared >= 40 and empty >= 13
