"""Span arithmetic and the traced wrappers, on hand-built inputs."""
import json
import os
import types

import numpy as np
import pytest

import spans
from spans import Span, Tracer, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_merged_children():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.1", 1.5, 2.0, 1),
        Span("a.2", 1.8, 3.0, 1),      # overlaps a.1: the union 1.5..3.0 counts once
        Span("b", 6.0, 9.0, 0),
        Span("b.1", 8.5, 9.5, 4),      # overhangs b: only 8.5..9.0 is inside it
    ]
    assert self_times(tree) == pytest.approx([4.0, 1.5, 0.5, 1.2, 2.5, 1.0])


def test_tracer_records_parents_in_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_backward_is_the_gap_to_the_step_minus_grads_to_flat():
    tree = [
        Span("optim.optimizer_sweep", 0.0, 20.0, -1),
        Span("model.forward_train", 1.0, 3.0, 0),
        Span("model.grads_to_flat", 5.0, 5.5, 0),
        Span("optim.step", 6.0, 7.0, 0, {"kind": "sgd"}),
        Span("model.from_flat", 7.0, 7.5, 0),
        Span("model.forward_train", 8.0, 9.0, 0),   # diverged batch: no step follows
        Span("model.forward_train", 10.0, 11.0, 0),
        Span("optim.step", 12.0, 13.0, 0, {"kind": "sgd"}),
        Span("model.evaluate", 14.0, 16.0, 0),
    ]
    assert spans._backward_gaps(tree) == pytest.approx([2.5, 1.0])
    # covered: forwards 4 + gaps 3.5 + steps 2 + plumbing 1 over 20 - 0 (no train parent)
    assert spans.coverage(tree) == pytest.approx(10.5 / 20.0)


def test_forward_flop_counts_gemm_shapes():
    # one step, batch 1, D=1, H=1, G=1: LSTM 2*(2*4+2*4), GRU 2*(2*2*3+2*3), dense 2*4*3
    assert spans.forward_flop(1, 1, 1, 1, 1) == 32 + 36 + 24


def test_fresh_bytes_counts_copies_not_views_or_inputs():
    a = np.zeros(10)
    params = types.SimpleNamespace(blocks={"w": a}, embedding=np.zeros(4))
    result = types.SimpleNamespace(blocks={"w": a[:5], "v": np.ones(3)}, embedding=params.embedding)
    assert spans.fresh_bytes(result, [params]) == 3 * 8


def test_wrappers_bind_every_name_and_restore(monkeypatch):
    from embfuse import model, optim
    original = model.from_flat
    monkeypatch.delattr(model, "grads_to_flat")           # a name a refactor removed
    tracer = Tracer()
    with spans.installed(tracer):
        assert optim.from_flat is model.from_flat is not original
        cfg = model.ModelConfig(max_len=3, emb_dim=2, lstm_units=2, gru_units=2,
                                spatial_dropout_rate=0.0, dropout_rate=0.0)
        params = model.init_parameters(cfg, np.ones((4, 2)))
        optim.from_flat(params, cfg, optim.to_flat(params, cfg))
    assert optim.from_flat is model.from_flat is original
    assert "model.grads_to_flat" in tracer.absent
    names = [s.name for s in tracer.spans]
    assert names[:1] == ["model.init"] and "model.from_flat" in names and "model.to_flat" in names
    metrics = spans.layer_metrics(tracer, 1, 0.0, 0.0)
    assert metrics["model.grads_to_flat_s"] == 0.0 and metrics["trace.absent"] == 1.0
    assert metrics["model.param_bytes"] > 0 and metrics["model.from_flat_s"] > 0


def test_layer_metrics_match_the_declared_lists():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    produced = spans.layer_metrics(Tracer(), 1, 0.0, 0.0)
    assert [m["name"] for m in layers] == list(produced)
    assert declared == [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
