"""Tests of the benchmark's own logic: tail choice, self time, tracing, checks, inputs.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import crocbench

crocbench.use_checkout_source()

from croccolab import crocco, fieldcalc, manufactured  # noqa: E402

import run  # noqa: E402
from crocbench import inputs, report, tracing, workloads  # noqa: E402

# -- tail percentile -----------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in np.random.default_rng(1).permutation(np.arange(1, 41))]
    value, pct, beyond = report.tail(samples)
    assert value == 30.0 and pct == 75.0 and beyond == 10
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_lowest():
    value, pct, beyond = report.tail([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert (value, beyond) == (1.0, 10)
    assert pct == pytest.approx(100.0 / 11.0)


def test_tail_without_enough_samples_is_the_maximum():
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- self time on synthetic nested spans ----------------------------------------------


def _span(sid, parent, layer, name, start, end, extra=0, raised=False):
    return [sid, parent, 0, layer, name, start, end, extra, raised]


SYNTHETIC = [
    _span(0, -1, tracing.Tracer.ROOT_LAYER, "op", 0.0, 10.0),
    _span(1, 0, "crocco", "korteweg_crocco", 1.0, 6.0),
    _span(2, 1, "fieldcalc", "grad_scalar", 2.0, 4.0, extra=64),
    _span(3, 2, "fieldcalc", "Field.__init__", 2.5, 3.0),
    _span(4, 0, "cli", "main", 7.0, 9.0, extra=1),
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(SYNTHETIC) == [3.0, 3.0, 1.5, 0.5, 2.0]


def test_layer_metrics_from_synthetic_spans():
    (metrics,) = tracing.per_op_metrics(SYNTHETIC).values()
    assert metrics["crocco.calls"] == 1
    assert metrics["crocco.self_ms"] == pytest.approx(3000.0)
    assert metrics["crocco.relation_ms"] == pytest.approx(3000.0)
    assert metrics["fieldcalc.calls"] == 2
    assert metrics["fieldcalc.self_ms"] == pytest.approx(2000.0)
    assert metrics["fieldcalc.stencil_ms"] == pytest.approx(1500.0)
    assert metrics["fieldcalc.field_inits"] == 1
    assert metrics["fieldcalc.bytes_computed"] == 64
    assert metrics["cli.exit_nonzero"] == 1
    assert metrics["transport.calls"] == 0


# -- tracing the real package -------------------------------------------------------


def test_wrappers_catch_calls_inside_a_module_and_uninstall_cleanly():
    original = fieldcalc.curl_vector
    catalog_entry = manufactured.CATALOG["korteweg-basic"]
    grid = fieldcalc.Grid.periodic(8)
    v = fieldcalc.VectorField(grid, np.ones(grid.extents + (2,)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert manufactured.CATALOG["korteweg-basic"] is not catalog_entry
        tracer.begin_op(0)
        crocco.lamb_vector(v)  # calls curl_vector through crocco's own namespace
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert fieldcalc.curl_vector is original and crocco.curl_vector is original
    assert manufactured.CATALOG["korteweg-basic"] is catalog_entry
    names = {s[tracing.NAME]: s for s in tracer.spans}
    assert names["curl_vector"][tracing.PARENT] == names["lamb_vector"][tracing.ID]
    assert "Field.__init__" in names


def test_traced_transport_op_counts_and_bypasses():
    workload = workloads.Transport(None)
    workload.setup(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        workload.op()
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracing.per_op_metrics(tracer.spans)[0]
    assert metrics["transport.steps"] == 10
    assert metrics["transport.poisson_calls"] == 40
    assert metrics["transport.rhs_calls"] == 12
    assert all(metrics[f"{layer}.calls"] == 0 for layer in workload.bypass)


# -- checks turn corrupted outputs into failed ops ----------------------------------


def test_identity_refining_at_first_order_fails_the_certify_check():
    good = {"korteweg-basic": (2.0, (4e-3, 1e-3, 2.5e-4)), "smectic-oracle": (math.inf, (0.0, 0.0, 0.0))}
    assert workloads.Certify.check(good, good) == []
    bad = dict(good, **{"korteweg-basic": (1.0, (4e-3, 2e-3, 1e-3))})
    assert any("order 1.000" in p for p in workloads.Certify.check(bad, good))


def test_flipped_byte_in_a_term_field_fails_the_cli_check(tmp_path):
    out = tmp_path / "eval-complex"
    out.mkdir()
    (out / "term_lhs.field").write_bytes(bytes(range(256)))
    (out / "norms.csv").write_text("term,l2,linf\n", encoding="utf-8")
    workload = workloads.Cli(tmp_path)
    workload.outputs = {"eval-complex": out}
    baseline = ((0, 0, 0), workload.artifact_digests())
    assert workloads.Cli.check(baseline, baseline) == []
    blob = bytearray((out / "term_lhs.field").read_bytes())
    blob[100] ^= 0x01
    (out / "term_lhs.field").write_bytes(bytes(blob))
    corrupted = ((0, 0, 0), workload.artifact_digests())
    assert workloads.Cli.check(corrupted, baseline) == ["artifact bytes differ from the first op of this run"]
    assert workloads.Cli.check(((0, 2, 0), baseline[1]), baseline) == ["command 1 exited 2"]


def test_transport_check_rejects_changed_or_non_finite_runs():
    baseline = (((0.0, 1.0, 2.0, 3.0, 4.0, 5.0),), True)
    assert workloads.Transport.check(baseline, baseline) == []
    drifted = (((0.0, 1.0, 2.0, 3.0 + 1e-15, 4.0, 5.0),), True)
    assert workloads.Transport.check(drifted, baseline)
    assert workloads.Transport.check((baseline[0], False), baseline) == ["final vorticity is not finite"]


def test_raising_op_is_a_failed_op_not_an_aborted_run():
    class Broken:
        def op(self):
            raise RuntimeError("streamfunction residual too large")

    output, seconds, problems = run.run_op(Broken(), None)
    assert output is None and seconds >= 0.0
    assert problems == ["RuntimeError: streamfunction residual too large"]


def test_reference_comparison_uses_relative_and_absolute_tolerance():
    expected = {"a": [1.0, 1e-17, "exact"]}
    assert workloads.compare({"a": [1.0 + 1e-9, 3e-17, "exact"]}, expected, 1e-6, 1e-12) == []
    assert workloads.compare({"a": [1.001, 1e-17, "exact"]}, expected, 1e-6, 1e-12)
    assert workloads.compare({"a": [1.0, 1e-17, "1.999"]}, expected, 1e-6, 1e-12)


# -- seeded inputs ------------------------------------------------------------------


def test_seeded_inputs_repeat_and_keep_the_states_admissible():
    assert inputs.draw_modes(7) == inputs.draw_modes(7)
    assert inputs.draw_modes(7) != inputs.draw_modes(8)
    grid = fieldcalc.Grid.periodic(64)
    base_iota = manufactured.CATALOG["korteweg-basic"](grid)[0].iota.values
    layers, _ = manufactured.SMECTIC_CATALOG["smectic-wavy"](grid)
    h = grid.spacing[1]
    for seed in range(20):
        d = inputs.sample_all(inputs.draw_modes(seed), ("iota", "layer_w", "omega"), grid)
        assert np.min(base_iota + d["iota"]) > 1.2
        w = layers.w.values + d["layer_w"]
        assert np.min(np.diff(w, axis=1)) / h > 0.5  # layers stay stacked: no defect core
        assert abs(np.mean(d["omega"])) < 1e-15
