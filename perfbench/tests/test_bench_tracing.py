"""Tracer arithmetic, exact counts, and the paper's cost guarantees."""

import json
from pathlib import Path

import numpy as np
import pytest

import chorddiv
import chorddiv.cli
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    tr.begin_op()
    tr.enter("outer")
    tr.enter("a")
    tr.exit()
    tr.enter("b")
    tr.enter("c")
    tr.exit()
    tr.exit()
    tr.exit()
    tr.end_op()
    assert tr.totals() == {
        "outer": [1, 10, 3],
        "a": [1, 3, 3],
        "b": [1, 4, 3],
        "c": [1, 1, 1],
    }
    assert tr.per_op[0]["outer"] == [1, 10, 3]


def test_nested_span_of_same_name_stays_in_outer():
    tr = tracing.Tracer(clock=FakeClock([0, 2, 5, 8]))
    tr.begin_op()
    tr.enter("divergence")
    assert not tr.enter("divergence")
    tr.enter("generators.fn")
    tr.exit()
    tr.exit("bregman")
    tr.end_op()
    assert tr.totals() == {"divergence": [1, 8, 5],
                           "divergence.bregman": [1, 8, 5],
                           "generators.fn": [1, 3, 3]}


def test_nothing_recorded_outside_an_operation():
    tr = tracing.Tracer()
    f = tr.wrap("x", lambda: 7)
    assert f() == 7
    assert not tr.totals()


def _toy(with_grad: bool):
    grad = (lambda t: 4.0 * t ** 3) if with_grad else None
    return chorddiv.Generator("quartic", 2, chorddiv.Domain("reals"),
                              lambda t: float(np.sum(t ** 4)), grad)


@pytest.fixture
def traced():
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    yield tr
    uninstall()


def _counts(tr, div_id, generator, params=None):
    G = tracing.traced_generator(tr, generator)
    D = chorddiv.registry.resolve_divergence(div_id, G, params or {})
    tr.begin_op()
    D(np.array([0.3, -1.2]), np.array([0.9, 0.4]))
    tr.end_op()
    return {name: row[0] for name, row in tr.totals().items()}


def test_chord_counts_are_exact(traced):
    counts = _counts(traced, "bregman_chord", _toy(False),
                     {"alpha": 0.25, "beta": 0.75})
    assert counts == {
        "generators.point": 7,
        "generators.fn": 3,
        "generators.restrict": 1,
        "divergence": 1,
        "divergence.bregman_chord": 1,
    }
    assert traced.counts["generators.fn.distinct"] == 3


def test_chord_needs_no_gradient_and_three_evaluations(traced):
    counts = _counts(traced, "bregman_chord", _toy(False),
                     {"alpha": 0.9, "beta": 1.0})
    assert counts.get("generators.grad", 0) == 0
    assert counts["generators.fn"] <= 3


def test_bregman_costs_two_evaluations_and_one_gradient(traced):
    counts = _counts(traced, "bregman", _toy(True))
    assert counts["generators.fn"] == 2
    assert counts["generators.grad"] == 1


def test_install_restores_and_reports_missing_targets(monkeypatch):
    monkeypatch.delattr(chorddiv.cli, "sweep")
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        assert tr.absent == ["chorddiv.cli.sweep"]
        assert chorddiv.cli.kmeans is not chorddiv.clustering.kmeans
    finally:
        uninstall()
    assert chorddiv.cli.kmeans is chorddiv.clustering.kmeans


def test_layer_metrics_match_benchmark_json():
    import workloads

    names = tracing.layer_metrics(tracing.Tracer(), 1, workloads.PAIRS_IDS,
                                  {})
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(declared) == list(names)
    assert all(declared[n] == tracing.unit(n) for n in names)
