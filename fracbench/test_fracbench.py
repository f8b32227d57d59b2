"""Tests for the benchmark's own code: generators, statistics, tracing, smoke runs."""

import json
import os
import random

import pytest

import run
from measure import tail_latency
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, sweep_cell_keys


def _ops(wl):
    return [op for block in wl.blocks for op in block] + [wl.warmup]


def _files(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_and_change_with_the_seed(name, tmp_path):
    def build(seed, work):
        wl = WORKLOADS[name](seed, run.ROOT, str(tmp_path / work), tiny=True)
        os.makedirs(wl.work_dir, exist_ok=True)
        wl.setup()
        return wl

    first, again, other = build(11, "a"), build(11, "a"), build(12, "c")
    assert _ops(first) == _ops(again)
    assert _ops(first) != _ops(other)
    if not first.in_process:
        # inputs written for child processes are byte-identical too
        build(11, "b")
        assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_sweep_cells_are_the_embedded_ones():
    run.use_sources()
    from fracorder.refvalues import sweep_cells

    for s in (1, 2, 3):
        assert sorted(sweep_cell_keys(s)) == sorted(sweep_cells(s))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert tail_latency(values) == (90, 90.0, 100)
    for n in (11, 12, 37, 250):
        value, pct, count = tail_latency([float(k) for k in range(n)])
        assert count == n
        assert sum(1 for k in range(n) if k > value) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
    # too few samples for any percentile: the smallest, at percentile 0
    assert tail_latency([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)


def _span(tracer, name, start, end, children=()):
    idx = tracer.open_span(name, start)
    for child in children:
        child()
    tracer.close_span(idx, end)


def test_self_time_subtracts_what_children_cover():
    tr = Tracer()
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 6]
    _span(tr, "a", 0.0, 10.0, [
        lambda: _span(tr, "b", 1.0, 4.0, [lambda: _span(tr, "c", 2.0, 3.0)]),
        lambda: _span(tr, "d", 5.0, 6.0),
    ])
    assert list(tr.self_times()) == [6.0, 2.0, 1.0, 1.0]
    assert list(tr.parent) == [-1, 0, 1, 0]
    totals = tr.totals()
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["b"]["self_s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    tr = Tracer()
    # children [1, 5] and [3, 7] overlap on [3, 5]; [9, 12] sticks out of [0, 10]
    _span(tr, "p", 0.0, 10.0, [
        lambda: _span(tr, "x", 1.0, 5.0),
        lambda: _span(tr, "y", 3.0, 7.0),
        lambda: _span(tr, "z", 9.0, 12.0),
    ])
    assert tr.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    run.use_sources()
    from fracorder import regbasis, tikhonov
    from fracorder.obsmodel import example71_observation

    original = regbasis.eval_basis
    tr = Tracer()
    tr.install()
    try:
        assert tikhonov.eval_basis is regbasis.eval_basis
        assert regbasis.eval_basis.__wrapped__ is original
        obs = example71_observation(0.5)
        spec = regbasis.BasisSpec(regbasis.initial_power_exponents(0.25), obs.grid.t_end)
        tikhonov.design_matrix(obs, spec)
    finally:
        tr.uninstall()
    assert regbasis.eval_basis is original and tikhonov.eval_basis is original
    names = [tr.names[i] for i in tr.name_of]
    assert names[0] == "tikhonov.design_matrix"
    assert names.count("regbasis.eval_basis") == len(obs.grid.points) + 1
    assert all(p == 0 for p in list(tr.parent)[1:])


def test_layer_metrics_cover_the_declared_list_and_read_zero_when_unused():
    # cli.* and trace.* are timed outside spans and always handed in
    measured = {name: 0.0 for name, *_ in LAYER_METRICS if name.startswith(("cli.", "trace."))}
    values = layer_metrics({}, 1, {}, {}, measured)
    assert list(values) == [name for name, *_ in LAYER_METRICS]
    assert all(v == 0.0 for v in values.values())


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, trace, tmp_path):
    result, lines = run.run_benchmark(name, 5, 0.0, trace, tiny=True, out_dir=str(tmp_path))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 3
    declared = [m[0] for m in (LAYER_METRICS if trace else run.E2E_METRICS)]
    assert list(result["metrics"]) == declared
    assert any(line.startswith("fingerprint ") for line in lines)
    assert not os.path.exists(tmp_path / f"work-{os.getpid()}")
