import numpy as np
import pytest

from pointprops import checks, em, oracle


class TestCountingChecks:
    def test_all_pass(self):
        for check in (checks.check_counts_vs_enumeration, checks.check_counts_bigint,
                      checks.check_count_split_identity, checks.check_gammaln_matches_exact):
            result = check()
            assert result.passed, result

    def test_corruption_hook_detected(self, corrupted_counts):
        assert not checks.check_counts_vs_enumeration().passed
        assert not checks.check_counts_bigint().passed
        assert not checks.check_count_split_identity().passed

    def test_comb_product_matches_math(self):
        import math
        for m in range(0, 40):
            for n in range(0, m + 1):
                assert checks._comb_product(m, n) == math.comb(m, n)


class TestPosteriorChecks:
    def test_tiny_deviation_within_budget(self):
        result = checks.check_posterior_tiny()
        assert result.passed
        assert result.deviation > 0.0  # the approximation is genuinely inexact

    def test_symmetric_exact(self):
        result = checks.check_posterior_symmetric()
        assert result.passed

    def test_equal_rates_alone_are_not_exact(self):
        # regression pin: equal r and c with a binding count window is NOT the
        # exact regime; the with/without averages run over different shells
        inst = oracle.TinyInstance(r=np.array([0.9, 0.9]), n_min=0, n_max=2,
                                   c_tilde=np.ones(2))
        counts = em.log_count_sample_space(2, 0, 2)
        approx = em.approximate_posterior(inst.r, inst.c_tilde, counts, np.ones(2, bool))
        exact = oracle.exact_posterior(
            inst, oracle.enumerate_reduced_space(inst, np.ones(2, bool))
        )
        np.testing.assert_allclose(exact, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(approx, [0.9, 0.9], atol=1e-12)

    def test_expectation_identities(self):
        assert checks.check_expectation_identities().passed


class TestPinnedDeviations:
    def test_non_gradient_deviations(self):
        # These depend only on em's counting and posterior and on the oracle,
        # not on the network; a change that moves one must say why.
        pinned = [
            (checks.check_counts_vs_enumeration, 0.0),
            (checks.check_counts_bigint, 0.0),
            (checks.check_count_split_identity, 2.3869795029440866e-14),
            (checks.check_gammaln_matches_exact, 2.80441042197543e-15),
            (checks.check_posterior_tiny, 0.028899735101530877),
            (checks.check_posterior_symmetric, 3.774758283725532e-15),
            (checks.check_expectation_identities, 3.552713678800501e-15),
        ]
        assert [check().deviation for check, _ in pinned] == [value for _, value in pinned]


class TestGradientChecks:
    def test_model_gradients(self):
        result = checks.check_model_gradients()
        assert result.passed

    def test_detector_chain(self):
        result = checks.check_detector_chain()
        assert result.passed
        assert result.deviation > 0.0

    def test_descriptor_chain(self):
        result = checks.check_descriptor_chain()
        assert result.passed
        assert result.deviation > 0.0

    def test_chain_fixture_has_signal(self):
        scene, state, params, cfg = checks.toy_scene_state()
        assert state.num_selected >= 5
        p = state.p[state.yhat]
        assert p.min() > 0.05 and p.max() < 0.98
        upstream = em.descriptor_field_gradients(state, scene, cfg)
        assert sum(float(np.abs(g).sum()) for _, _, g in upstream) > 0.1
