"""Tests of the benchmark's own code: span arithmetic, names, wrappers, checks.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import env
import metrics
import run
from tracer import TRACED_MODULES, Tracer, function_stats
from workloads import WORKLOADS


def _scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_of_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    tracer = Tracer(clock=_scripted_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    c = tracer.wrap("m.c", lambda: None)
    b = tracer.wrap("m.b", lambda: c())
    d = tracer.wrap("m.d", lambda: None)

    def body():
        b()
        d()

    tracer.wrap("m.a", body)()
    stats = function_stats(tracer.spans)
    assert {k: v["self_s"] for k, v in stats.items()} == {
        "m.a": 3.0, "m.b": 2.0, "m.c": 1.0, "m.d": 4.0}
    assert {k: v["incl_s"] for k, v in stats.items()} == {
        "m.a": 10.0, "m.b": 3.0, "m.c": 1.0, "m.d": 4.0}
    assert sum(v["self_s"] for v in stats.values()) == stats["m.a"]["incl_s"]


def test_recursive_spans_count_inclusive_time_once():
    spans = [["m.f", -1, 0.0, 8.0, False], ["m.f", 0, 2.0, 5.0, False]]
    stats = function_stats(spans)
    assert stats["m.f"] == {"calls": 2, "self_s": 8.0, "incl_s": 8.0, "failed": 0}


def test_a_raising_call_closes_its_span_and_counts_as_failed():
    tracer = Tracer(clock=_scripted_clock([0.0, 1.0, 2.0, 3.0]))

    def boom():
        raise ValueError("no")

    inner = tracer.wrap("m.inner", boom)

    def outer():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("m.outer", outer)()
    stats = function_stats(tracer.spans)
    assert stats["m.inner"]["failed"] == 1
    assert stats["m.outer"]["failed"] == 0
    assert stats["m.outer"]["self_s"] == 2.0
    assert tracer._open == []


def test_every_emitted_name_is_valid_and_matches_benchmark_json():
    per_layer = metrics.per_layer_units()
    names = list(per_layer) + list(metrics.END_TO_END) + list(WORKLOADS)
    assert all(metrics.NAME_RE.fullmatch(name) for name in names)
    assert len(set(per_layer) | set(metrics.END_TO_END)) == len(per_layer) + len(
        metrics.END_TO_END)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def _functions(package):
    return {
        (short, attr): value
        for short in TRACED_MODULES
        for attr, value in vars(getattr(package, short)).items()
        if callable(value)
    }


def test_uninstall_restores_every_original_function():
    import euler2d

    before = _functions(euler2d)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install(euler2d)
            assert euler2d.spectral.forward is not before[("spectral", "forward")]
            assert euler2d.runner.run is not before[("runner", "run")]
            raise RuntimeError("leave the block early")
    after = _functions(euler2d)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_run(tmp_path, label, **config):
    import euler2d
    from euler2d import runner

    with Tracer() as tracer:
        tracer.install(euler2d)
        artifacts = runner.run(runner.RunConfig(**config), output_dir=str(tmp_path / label))
    values = metrics.layer_values(function_stats(tracer.spans), tracer.counters)
    return artifacts, values


def _counts(values):
    return {k: v for k, v in values.items() if k.endswith(run.EXACT_SUFFIXES)}


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    config = dict(method="CL", order=4, n=32, t_end=0.3, radius_cadence=2,
                  radius_depth=12, output_cadence=1)
    artifacts, first = _traced_run(tmp_path, "a", **config)
    _, second = _traced_run(tmp_path, "b", **config)
    assert _counts(first) == _counts(second)
    steps = len(artifacts.steps)
    probes = first["runner.radius_probe.calls"]
    assert probes == (steps + 1) // 2
    assert first["lagrangian.build_stack.calls"] == steps + probes
    # sum of (s - 1) over s = 2..S for each stack
    assert first["lagrangian.recurrence_terms"] == steps * 6 + probes * 66
    assert first["io.write_field.calls"] == steps + 1
    assert first["io.bytes_written"] > 0
    assert metrics.accounted_pct(first) == pytest.approx(100.0, abs=1e-6)


def test_rk4_counts_four_rhs_per_step_and_no_lagrangian_work(tmp_path):
    artifacts, values = _traced_run(tmp_path, "rk4", method="RK4", dt=0.05, n=32,
                                    t_end=0.2)
    assert len(artifacts.steps) == 4
    assert values["eulerian.rhs.calls"] == 16
    assert values["lagrangian.build_stack.calls"] == 0
    assert values["interpolation.cascade_revert.calls"] == 0


def _good_sample(workload):
    config = workload.run_config()
    return {"mode": "run", "finite": True, "t": config["t_end"], "rel_dE": 1e-13,
            "rel_dZ": 1e-13, "max_truncation_term": 0.5 * config["epsilon"], "radius0": 1.2,
            "max_err": 0.1 * workload.max_err_budget}


@pytest.mark.parametrize("key, bad", [
    ("finite", False), ("t", 0.3), ("rel_dE", 1e-9), ("rel_dZ", float("nan")),
    ("max_truncation_term", 2e-12), ("radius0", None), ("radius0", 1.5),
    ("max_err", 1.0),
])
def test_output_checks_reject_a_bad_sample(key, bad):
    workload = WORKLOADS["cl16-probe"]
    assert run.check_sample(_good_sample(workload), workload) == []
    sample = dict(_good_sample(workload), **{key: bad})
    assert len(run.check_sample(sample, workload)) == 1
