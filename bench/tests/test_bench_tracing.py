"""The tracer's wrappers see every layer they are meant to count."""

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from exorb import algebra, cli, linalg, orbits, reach


def _run_small_workload():
    """G2/F4 sweeps with every analysis, plus one CLI verify (all layers)."""
    for tname in ("G2", "F4"):
        L = algebra.build_lie_algebra(tname)
        for o in orbits.enumerate_orbits(L, seed=2):
            reach.analyze(L, o)
    workloads.cli_verify("G2", 2)


@pytest.fixture(scope="module")
def traced():
    with tracing.Tracer() as tracer:
        _run_small_workload()
        end = tracer.snapshot()
    return tracer, end


def test_every_target_is_counted(traced):
    tracer, end = traced
    for module, path in tracing.TARGETS:
        key = tracing._key(module, path)
        assert end["calls"][key] > 0, key
        assert end["incl"][key] > 0, key


def test_layer_metrics_cover_every_unit(traced):
    tracer, end = traced
    empty = {"calls": {}, "incl": {}, "self": {}, "counters": {}}
    layers = tracing.layer_metrics(empty, end, 1)
    assert set(layers) == set(tracing.LAYER_UNITS)
    # no G2/F4 diagram fails at the triple solve; see the next test
    zero = {k for k, v in layers.items() if v <= 0}
    assert zero <= {"orbits.complete_triple_raised"}, zero
    assert 0 < layers["orbits.complete_triple_yield"] <= 1
    assert layers["orbits.complete_triple_calls"] >= layers["orbits.complete_triple_raised"]
    assert layers["linalg.rref_s"] <= end["incl"]["linalg.rref"]


def test_raised_calls_are_counted():
    L = algebra.build_lie_algebra("G2")
    h = orbits.characteristic_element(L, orbits.WeightedDynkinDiagram((2, 2)))
    with tracing.Tracer() as tracer:
        with pytest.raises(ValueError):
            orbits.complete_triple(L, h, L.cartan_element(0))
    assert tracer.calls["orbits.complete_triple"] == 1
    assert tracer.counters["complete_triple_raised"] == 1
    assert tracer._children == [] and tracer._current == -1


def test_self_time_never_exceeds_inclusive(traced):
    tracer, end = traced
    for key, incl in end["incl"].items():
        assert 0 <= end["self"][key] <= incl + 1e-9, key
    # analyze spends most of its time inside traced layers
    assert end["self"]["reach.analyze"] < end["incl"]["reach.analyze"]


def test_spans_nest(traced):
    tracer, _ = traced
    names = tracer.names
    spans = tracer.spans
    assert len(spans) == sum(tracer.calls.values())
    for name_id, parent, start, duration in spans:
        if parent >= 0:
            p_name, _, p_start, p_duration = spans[parent]
            assert p_start <= start and start + duration <= p_start + p_duration + 1e-6


def test_uninstall_restores_originals():
    before = {
        m.__name__: dict(vars(m)) for m in (orbits, linalg, algebra, reach, cli)
    }
    contains = algebra.Subspace.__dict__["contains"]
    from_rows = algebra.Subspace.__dict__["from_rows"]
    with tracing.Tracer():
        assert orbits.complete_triple is not before["exorb.orbits"]["complete_triple"]
        assert hasattr(orbits.solve, "__wrapped__")
        assert hasattr(algebra.Subspace.contains, "__wrapped__")
    for m in (orbits, linalg, algebra, reach, cli):
        for attr, value in before[m.__name__].items():
            assert vars(m)[attr] is value, (m.__name__, attr)
    assert algebra.Subspace.__dict__["contains"] is contains
    assert algebra.Subspace.__dict__["from_rows"] is from_rows
    assert "exorb._modp" in sys.modules


def test_reference_kernel_is_fixed_work():
    assert run.reference_kernel() == run.REFERENCE_SIZE
    assert 0 < run.time_reference() < 5


def test_benchmark_json_lists_what_the_run_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **tracing.LAYER_UNITS,
        **tracing.SETUP_UNITS,
    }
