import multiprocessing
import os
import threading

import numpy as np
import pytest

from pointprops import checks, cli, em, oracle, workers


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
        assert not checks.check_gammaln_matches_exact().passed

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
        approx = em.approximate_posterior(inst.r, inst.c_tilde, counts)
        exact = oracle.exact_posterior(inst, oracle.enumerate_reduced_space(inst))
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
            (checks.check_count_split_identity, 4.1522341120980855e-14),
            (checks.check_gammaln_matches_exact, 3.672902104989561e-15),
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

    def test_detector_chain_objective_is_the_logged_value(self, monkeypatch):
        # the detector gate differentiates the very E[L] that training logs:
        # at the fixture's parameters it equals the E-step's value bit for
        # bit, and both come from em.expected_log_likelihood
        scene, state, params, cfg = checks.toy_scene_state()
        assert checks.detector_chain_objective(params, scene, state, cfg) == \
            state.expected_log_likelihood
        calls = []
        summed = em.expected_log_likelihood
        monkeypatch.setattr(em, "expected_log_likelihood",
                            lambda *args: calls.append(args) or summed(*args))
        scene, state, params, cfg = checks.toy_scene_state()
        checks.detector_chain_objective(params, scene, state, cfg)
        assert len(calls) == 2

    def test_chain_fixture_has_signal(self):
        scene, state, params, cfg = checks.toy_scene_state()
        assert state.num_selected >= 5
        assert state.p.min() > 0.05 and state.p.max() < 0.98
        upstream = em.descriptor_field_gradients(state, scene, cfg)
        assert sum(float(np.abs(g).sum()) for _, _, g in upstream) > 0.1


NAMES = [check.__name__ for check in checks.CHECKS]


def stub_checks(monkeypatch, raising=None):
    """Replace every check with one that reports the id of the process that
    ran it as its deviation; the check named ``raising`` raises instead."""
    for name in NAMES:
        def stub(name=name):
            if name == raising:
                raise FloatingPointError(f"{name} failed")
            return checks.CheckResult(name, float(os.getpid()), 0.0)
        monkeypatch.setattr(checks, name, stub)


class TestRunAllChecks:
    def test_pool_results_equal_each_serial_check(self, two_cpus):
        pooled = checks.run_all_checks()
        serial = [getattr(checks, name)() for name in NAMES]
        assert [(r.name, repr(r.deviation), r.tolerance) for r in pooled] == \
            [(r.name, repr(r.deviation), r.tolerance) for r in serial]
        assert all(r.seconds > 0 for r in pooled)
        assert multiprocessing.active_children() == []

    def test_checks_run_in_workers_and_return_in_list_order(self, two_cpus, monkeypatch):
        stub_checks(monkeypatch)
        results = checks.run_all_checks()
        assert [r.name for r in results] == NAMES
        assert os.getpid() not in {r.deviation for r in results}
        assert multiprocessing.active_children() == []

    def test_check_exception_keeps_its_type(self, two_cpus, monkeypatch):
        stub_checks(monkeypatch, raising="check_posterior_tiny")
        with pytest.raises(FloatingPointError, match="check_posterior_tiny failed"):
            checks.run_all_checks()
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_2(self, two_cpus, monkeypatch, capsys):
        stub_checks(monkeypatch)
        monkeypatch.setattr(checks, "check_posterior_tiny", lambda: os._exit(1))
        assert cli.main(["oracle-check"]) == 2
        assert "terminated abruptly" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_unpinnable_blas_runs_serially(self, two_cpus, monkeypatch):
        stub_checks(monkeypatch)
        monkeypatch.setattr(workers, "BLAS_PINNED", False)
        results = checks.run_all_checks()
        assert [r.name for r in results] == NAMES
        assert {r.deviation for r in results} == {float(os.getpid())}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cause", ["one cpu", "daemonic caller", "other thread"])
    def test_serial_in_this_process(self, two_cpus, monkeypatch, cause):
        stub_checks(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if cause == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif cause == "daemonic caller":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            waiter.start()
        try:
            results = checks.run_all_checks()
        finally:
            release.set()
        assert [r.name for r in results] == NAMES
        assert {r.deviation for r in results} == {float(os.getpid())}
        if waiter.ident is not None:
            waiter.join(timeout=5)
            assert not waiter.is_alive()
