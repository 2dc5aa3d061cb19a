import pytest

from tracer import Span, Tracer, instrumented, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union covers 1..6
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_layer_metrics_from_a_synthetic_tree():
    spans = [
        Span("command.lyapunov", 0.0, 10.0),
        Span("lyapunov.kantz_curve", 1.0, 7.0, parent=0, counts={"refs_used": 1}),
        Span("embedding.radius_point", 2.0, 3.0, parent=1, counts={"rows_returned": 4}),
        Span("embedding.radius_point", 4.0, 4.5, parent=1, counts={"rows_returned": 0}),
        Span("embedding.radius_point", 9.0, 9.5, parent=0, counts={"rows_returned": 2}),
        Span("fitting.fit_scaling_region", 7.0, 8.0, parent=0, error=True),
    ]
    m = layer_metrics(spans)
    assert m["lyapunov.kantz_curve.calls"] == 1
    assert m["lyapunov.kantz_curve.busy_s"] == pytest.approx(6.0)
    assert m["lyapunov.kantz_curve.self_s"] == pytest.approx(4.5)
    # only the two radius queries made inside kantz_curve are its attempts
    assert m["lyapunov.kantz_curve.refs_used_ratio"] == pytest.approx(0.5)
    assert m["embedding.radius_point.calls"] == 3
    assert m["embedding.radius_point.rows_returned"] == 6
    assert m["fitting.fit_scaling_region.failed"] == 1
    assert m["identify.fit_model.calls"] == 0
    assert m["predict.stepwise_reconstruct.configs_gated_ratio"] == 0.0


def test_every_binding_is_wrapped_and_restored():
    from phasekit import cli, dimensions, fitting, lyapunov, series
    from phasekit.embedding import NeighborIndex

    originals = (series.load_csv, fitting.fit_scaling_region,
                 NeighborIndex.__dict__["query_point"])
    tracer = Tracer()
    with instrumented(tracer):
        assert cli.load_csv is series.load_csv is not originals[0]
        assert lyapunov.fit_scaling_region is fitting.fit_scaling_region
        assert dimensions.fit_scaling_region is not originals[1]
        cli.canonical({"a": [1.0, {"b": 2.0}]})
    assert (series.load_csv, fitting.fit_scaling_region,
            NeighborIndex.__dict__["query_point"]) == originals
    assert cli.load_csv is originals[0]
    # canonical recurses through its module global; one span per outer call
    assert [s.name for s in tracer.take()] == ["cli.canonical"]


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    traced = tracer.wrap("x", boom)
    with pytest.raises(ValueError):
        traced()
    (span,) = tracer.take()
    assert span.error and span.end >= span.start
