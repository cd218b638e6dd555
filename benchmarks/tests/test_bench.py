"""Tests of the benchmark itself: span arithmetic, seeded inputs, smoke runs.

    python3 -m pytest benchmarks/tests -q
"""

import json
import types

import numpy as np
import pytest

import inputs
import run
import spans
import workloads
from env import REPO_ROOT
from pointprops import simulate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_module(clock):
    """outer: 1 s, inner, 2 s, inner, 3 s; inner: 5 s."""
    mod = types.ModuleType("fake_layer")

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 2.0
        mod.inner()
        clock.now += 3.0
        return "done"

    def inner():
        clock.now += 5.0

    for fn in (outer, inner):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    return mod


class TestSpans:
    def test_self_time_subtracts_child_spans(self):
        clock = FakeClock()
        mod = nested_module(clock)
        tracer = spans.Tracer(clock=clock)
        tracer.install([mod])
        assert mod.outer() == "done"
        stats = tracer.stats()
        assert stats["fake_layer.outer"].calls == 1
        assert stats["fake_layer.outer"].busy_s == pytest.approx(16.0)
        assert stats["fake_layer.outer"].self_s == pytest.approx(6.0)
        assert stats["fake_layer.inner"].calls == 2
        assert stats["fake_layer.inner"].busy_s == pytest.approx(10.0)
        assert stats["fake_layer.inner"].self_s == pytest.approx(10.0)
        outer_idx = next(i for i, s in enumerate(tracer.spans) if s.label == "fake_layer.outer")
        assert [s.parent for s in tracer.spans if s.label == "fake_layer.inner"] == [outer_idx] * 2

    def test_uninstall_restores_and_hooks_run_untraced(self):
        clock = FakeClock()
        mod = nested_module(clock)
        original = mod.outer
        seen = []

        def hook(args, kwargs, result):
            seen.append(result)
            mod.inner()  # counting work inside a hook records no span

        tracer = spans.Tracer(clock=clock)
        tracer.install([mod], {"fake_layer.outer": hook})
        mod.outer()
        assert seen == ["done"]
        assert tracer.stats()["fake_layer.inner"].calls == 2
        tracer.uninstall()
        assert mod.outer is original

    def test_unmeasured_functions_are_reported(self):
        stats = {"cli.evaluate_pair": spans.LabelStats(calls=3, busy_s=1.0, self_s=0.1)}
        missing = workloads.unmeasured(workloads.WORKLOADS["eval-240x320"], stats)
        assert "model.forward" in missing
        assert "cli.evaluate_pair" not in missing


class TestInputs:
    def test_same_seed_same_inputs(self):
        for a, b in zip(inputs.shape_scenes(3, 6), inputs.shape_scenes(3, 6)):
            np.testing.assert_array_equal(a, b)
        pairs_a = inputs.eval_pairs(3, 2, (240, 320), "illum_mild", "viewpoint_medium",
                                    simulate.make_pair)
        pairs_b = inputs.eval_pairs(3, 2, (240, 320), "illum_mild", "viewpoint_medium",
                                    simulate.make_pair)
        for pa, pb in zip(pairs_a, pairs_b):
            for xa, xb in zip(pa, pb):
                np.testing.assert_array_equal(xa, xb)

    def test_different_seed_different_inputs(self):
        for a, b in zip(inputs.shape_scenes(3, 6), inputs.shape_scenes(4, 6)):
            assert not np.array_equal(a, b)
        pa = inputs.eval_pairs(3, 1, (240, 320), "illum_mild", "viewpoint_medium",
                               simulate.make_pair)[0]
        pb = inputs.eval_pairs(4, 1, (240, 320), "illum_mild", "viewpoint_medium",
                               simulate.make_pair)[0]
        assert not np.array_equal(pa[0], pb[0])
        assert not np.array_equal(pa[2], pb[2])

    def test_scenes_fill_the_requested_shape(self):
        for img in inputs.shape_scenes(5, 3, (240, 320)):
            assert img.shape == (240, 320)
            assert 0.0 <= img.min() and img.max() <= 1.0
            assert img.std() > 0.01


class TestDefinition:
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)

    def test_eval_checkpoint_is_the_recorded_one(self):
        assert workloads.file_sha256(workloads.EVAL_CKPT) == workloads.EVAL_CKPT_SHA256

    def test_conv_flops_count_every_conv_at_its_resolution(self):
        params = workloads.model.init_params(0, 16)
        # 64x64: enc1 1->8, enc2 8->8 full; enc3 8->16, enc4 16->16 at 32x32;
        # det1 24->8, det2 8->1 full; desc1 16->16, desc2 16->16 at 16x16
        macs = (64 * 64 * (1 * 8 + 8 * 8 + 24 * 8 + 8 * 1)
                + 32 * 32 * (8 * 16 + 16 * 16) + 16 * 16 * (16 * 16 + 16 * 16))
        assert workloads.conv_flops(params, (64, 64)) == 2 * 9 * macs

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert run.tail_percentile(list(range(19))) is None
        assert run.tail_percentile(list(range(20))) == (50, 9)
        assert run.tail_percentile(list(range(1, 101))) == (90, 90)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads.Train64, "CHUNK", 2)
    monkeypatch.setattr(workloads.Eval240x320, "PAIRS", 2)
    # one child process times its own set-up; it runs the full-size set-up
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def test_eval_cycles_score_the_same_pairs(tiny_workloads):
    workload = workloads.WORKLOADS["eval-240x320"]
    state = workload.setup(2)
    first, second = workload.run_cycle(state, 0), workload.run_cycle(state, 1)
    assert [idx for idx, _ in first.payload] == [idx for idx, _ in second.payload] == [0, 1]
    problems, notes = workload.check(state, [first, second])
    assert problems == [] and notes["pairs"] == 2


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(name, trace, tiny_workloads, capsys):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.END_TO_END if trace == 0 else workloads.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.unmeasured"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
