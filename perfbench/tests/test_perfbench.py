"""Tests of the benchmark itself: its inputs, its span rollup, its traced run."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import gen
import workloads
from spans import Span, Tracer, covered, layer_totals, self_times

#: Largest share of a closed-loop read's measured time that no span may
#: account for on a tiny traced run (the wrappers' own bookkeeping).
RESIDUAL_BOUND = 0.05


# -- generators -----------------------------------------------------------------


def _weights(stream):
    return np.stack([r.weights for r in stream])


def _schedule_key(schedule):
    return [
        (op.at, op.round, op.step, op.kind, op.rid, op.origin,
         None if op.vector is None else op.vector.tobytes())
        for op in schedule
    ]


def test_dataset_is_deterministic_per_seed():
    assert np.array_equal(gen.dataset(3).points, gen.dataset(3).points)
    assert not np.array_equal(gen.dataset(3).points, gen.dataset(4).points)


@pytest.mark.parametrize("make", [
    lambda seed: gen.cold_stream(seed, 50),
    lambda seed: gen.hot_stream(seed, 200, catalog=16, zipf_s=1.1),
])
def test_read_streams_are_deterministic_per_seed(make):
    assert np.array_equal(_weights(make(7)), _weights(make(7)))
    assert not np.array_equal(_weights(make(7)), _weights(make(8)))


def test_hot_stream_repeats_its_catalog_exactly():
    stream = gen.hot_stream(5, 2000, catalog=16, zipf_s=1.1)
    catalog = gen.catalog_of(stream)
    assert 1 < len(catalog) <= 16
    keys = {w.tobytes() for w in catalog}
    assert all(r.weights.tobytes() in keys for r in stream)


def test_serve_schedule_is_deterministic_per_seed():
    a = gen.serve_schedule(11, step_s=2.0, rounds=2)
    b = gen.serve_schedule(11, step_s=2.0, rounds=2)
    c = gen.serve_schedule(12, step_s=2.0, rounds=2)
    assert _schedule_key(a) == _schedule_key(b)
    assert _schedule_key(a) != _schedule_key(c)
    assert np.array_equal(gen.serve_hot_vectors(11), gen.serve_hot_vectors(11))


def test_serve_schedule_offers_the_stated_mix():
    step_s, rounds = 2.0, 3
    params = gen.SERVE
    ops = gen.serve_schedule(2, step_s=step_s, rounds=rounds)
    assert [op.at for op in ops] == sorted(op.at for op in ops)
    assert {op.round for op in ops} == set(range(rounds))
    hot = {w.tobytes() for w in gen.serve_hot_vectors(2)}
    for rnd in range(rounds):
        for step, rate in enumerate(params.ladder):
            mine = [op for op in ops if op.round == rnd and op.step == step]
            assert len(mine) == round(rate * step_s)
            writes = [op for op in mine if op.kind != "read"]
            assert len(writes) == round(params.write_share * len(mine))
            bursts = [op for op in mine if op.origin == "burst"]
            assert bursts and len(bursts) % params.burst_len == 0
            leaders = bursts[:: params.burst_len]
            assert all(op.vector.tobytes() in hot for op in leaders)


def test_serve_schedule_deletes_each_rid_at_most_once():
    ops = gen.serve_schedule(4, step_s=4.0, rounds=4)
    rids = [op.rid for op in ops if op.kind == "delete"]
    assert rids and len(rids) == len(set(rids))
    assert all(0 <= rid < gen.N for rid in rids)


# -- self-time rollup ----------------------------------------------------------------


def _span(i, parent, start, end, name="x", request=1):
    return Span(i, parent, request, name, start, end)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0, 10) == 0
    assert covered([(1, 4), (3, 6)], 0, 10) == pytest.approx(5)
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([(-2, 1), (11, 12)], 0, 10) == pytest.approx(1)
    assert covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),  # overlaps a: parallel fan-out
        _span(4, 3, 3.5, 4.5, "c"),
        _span(5, 1, 8.0, 9.0, "a"),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5 - 1)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(3 - 1)
    assert selfs[4] == pytest.approx(1)
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 2, "total_s": pytest.approx(4), "self_s": pytest.approx(4)}
    assert totals["root"]["self_s"] == pytest.approx(4)


def test_self_times_sum_to_the_root_without_overlap():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 0.5, 3.0),
        _span(3, 2, 1.0, 2.0),
        _span(4, 1, 3.0, 9.5),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_tracer_nests_and_shares_the_request_id():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    with tracer.span("next") as nxt:
        pass
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == outer.request != nxt.request
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_adopts_pool_thread_spans_under_the_open_adopter():
    tracer = Tracer(adopters=("fanout",))
    seen = {}

    def shard(i):
        with tracer.span("shard") as sp:
            seen[i] = sp

    with tracer.span("fanout") as parent:
        threads = [threading.Thread(target=shard, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert {sp.parent for sp in seen.values()} == {parent.id}
    assert {sp.request for sp in seen.values()} == {parent.request}


# -- a tiny traced run -------------------------------------------------------------------


def test_tiny_traced_run_accounts_for_the_end_to_end_time():
    res = workloads.run("cold_uniform", seed=3, seconds=1.0, trace=True)
    assert res.correct and res.attempted > 0
    layers = res.layers
    assert set(workloads.LAYER_UNITS) <= set(layers)
    residual = layers["trace.residual_frac"]
    assert 0.0 <= residual <= RESIDUAL_BOUND
    # Σ layer self time + the residual = the loop's own clock.
    assert sum(layers["_self_s"].values()) / layers["_e2e_s"] + residual == pytest.approx(1.0)
    assert res.property_share["miss_share"] > 0.5
    assert layers["phase2.self_ms"] > 0 and layers["fp.build_fan_ms"] > 0


def test_normalized_figures_are_the_wall_figures_over_the_host_factor():
    res = workloads.run("cold_uniform", seed=3, seconds=2.5, trace=False)
    assert res.correct
    host = res.params["host_speed"]
    assert host["samples"] >= 2 and 0 < host["min"] <= host["median"] <= host["max"]
    assert len(res.params["setup_host_factors"]) == workloads.SETUP_REPS
    # The run's read-weighted factor lies within the sampled ones.
    scale = res.e2e["read_qps"][0] / res.extra["read_qps_wall"][0]
    assert host["min"] <= scale <= host["max"]
    figures = {**res.e2e, **res.extra}
    for name in ("read_p50_ms", "read_p95_ms"):
        value, wall = figures[name][0], figures[name + "_wall"][0]
        assert wall / host["max"] <= value <= wall / host["min"]


# -- the contract file ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WORKLOADS[name] for name in workloads.GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert spec["command"] == ["python3", "perfbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
