"""Tests of the benchmark's own metric and tracing code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_metrics as bm  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(1, 100), (10, 100), (19, 100), (20, 50), (38, 73), (40, 75), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_leaves_ten_beyond(n, expected):
    p = bm.tail_percentile(n)
    assert p == expected
    if p < 100:
        rank = math.ceil(p / 100 * n)
        assert n - rank >= bm.TAIL_MIN_BEYOND
        assert n - math.ceil((p + 1) / 100 * n) < bm.TAIL_MIN_BEYOND


def test_tail_reports_value_percentile_and_count():
    values = [float(v) for v in range(100, 0, -1)]
    assert bm.tail(values) == (90.0, 90, 100)
    assert sum(v > 90.0 for v in values) == 10
    assert bm.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)


def test_percentile_and_median():
    assert bm.percentile([5, 1, 3, 2, 4], 50) == 3
    assert bm.percentile([5, 1, 3, 2, 4], 100) == 5
    assert bm.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        bm.median([])


def test_self_times_subtract_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child of root
        (2.0, 3.0, 1),  # grandchild
        (5.0, 9.0, 0),  # second child of root
        (11.0, 12.0, -1),  # second root
    ]
    assert bm.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_straggler_idle_share_on_hand_made_schedule():
    # Round 1: the slowest client takes 3; the others wait 2 and 1.
    # Round 2: equal clients, no waiting. Round 3: a lone client never waits.
    rounds = [[1.0, 2.0, 3.0], [4.0, 4.0], [7.0]]
    assert bm.straggler_idle_share(rounds) == pytest.approx(3.0 / (9.0 + 8.0 + 7.0))
    assert bm.straggler_idle_share([[2.0, 2.0]]) == 0.0
    assert bm.straggler_idle_share([]) == 0.0


def test_pooled_rate():
    calls = [(10, 1.0), (30, 2.0), (5, 0.0)]
    assert bm.pooled_rate(calls) == 45 / 3.0
    with pytest.raises(ValueError):
        bm.pooled_rate([(5, 0.0)])


def test_reference_routine_records_and_hands_over_its_times():
    from bench_reference import Reference

    ref = Reference()
    times = [ref.run(), ref.run()]
    assert all(t > 0.0 for t in times)
    assert ref.take() == times
    assert ref.take() == []


def test_unique_ratio():
    assert bm.unique_ratio(["a", "b", "a", "a"]) == 0.5
    assert bm.unique_ratio([("x", "y"), ("x", "y")]) == 0.5
    assert bm.unique_ratio(list(range(7))) == 1.0
    assert bm.unique_ratio([]) == 0.0


def test_bytes_per_round_from_known_payloads():
    from fedspan.prototypes import PrototypeSet, encode_payload, make_payload

    import numpy as np

    def blob(client, round_index, n_classes, dim=16):
        vectors = {c: np.full(dim, 0.5, dtype=np.float32) for c in range(1, n_classes + 1)}
        return encode_payload(make_payload(client, round_index, 0.5, PrototypeSet(dim, vectors)))

    # 22-byte header, then one class byte and 16 float32 per class.
    sizes = {(0, 1): 3, (1, 1): 5, (0, 2): 4, (1, 2): 4}
    blobs = [(r, blob(c, r, k)) for (c, r), k in sizes.items()]
    assert [len(b) for _, b in blobs] == [22 + k * 65 for k in sizes.values()]
    per_round = bm.bytes_per_round((r, len(b)) for r, b in blobs)
    assert per_round == ((44 + 8 * 65) + (44 + 8 * 65)) / 2
    assert bm.payload_overhead_ratio(22 + 3 * 65, 3 * 16) == (22 + 3 * 65) / (4 * 48)
    with pytest.raises(ValueError):
        bm.bytes_per_round([])


def test_metric_names_match_benchmark_json():
    import bench_trace
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tracer_wraps_every_binding_and_restores_them():
    import bench_trace
    import run
    from fedspan.corpus import Polarity, Sentence, Span, Triplet

    fs, _ = run.import_fedspan()
    encoder, model = fs.encoder, fs.model
    original = encoder.forward_sentence
    sentences = [
        Sentence(("the", "pool", "is", "great"), (Triplet(Span(1, 1), Span(3, 3), Polarity.POS),)),
        Sentence(("awful", "bed"), (Triplet(Span(1, 1), Span(0, 0), Polarity.NEG),)),
    ]
    tracer = bench_trace.Tracer(fs).install()
    try:
        assert model.forward_sentence is encoder.forward_sentence is not original
        tagger = model.SpanTagger(seed=0)
        tagger.fit(sentences, epochs=2)
        tagger.score(sentences)
    finally:
        tracer.uninstall()
    assert model.forward_sentence is encoder.forward_sentence is original

    index = {name: i for i, name in enumerate(tracer.names)}
    assert tracer.names.count("encoder.batch_gradients") == 2
    # partial_fit tokenizes each sentence once per call, score once more.
    assert tracer.names.count("encoder.tokenize") == 2 + 2
    train_forward = tracer.durations("encoder.forward_sentence", parent="encoder.batch_gradients")
    infer_forward = tracer.durations(
        "encoder.forward_sentence", exclude_parent="encoder.batch_gradients"
    )
    assert len(train_forward) == 4 and len(infer_forward) == 2
    assert tracer.parents[index["model.predict_tags"]] == index["model.predict"]
    self_s = tracer.self_seconds()
    busy = sum(tracer.durations("model.partial_fit"))
    assert 0.0 <= self_s["model.partial_fit"] <= busy
    values, _ = bench_trace.layer_metrics(tracer, 0.0)
    assert [name for name, _ in bench_trace.LAYER_METRICS] == list(values)
    assert values["encoder.tokenize.unique_ratio"] == 0.5
    assert values["encoder.adam_step.calls"] == 2


def test_probe_rates_count_sentences_per_call_and_restore():
    import bench_trace
    import run
    from fedspan.corpus import Polarity, Sentence, Span, Triplet

    fs, _ = run.import_fedspan()
    tagger_cls = fs.model.SpanTagger
    original = tagger_cls.partial_fit
    sentences = [
        Sentence(("the", "pool", "is", "great"), (Triplet(Span(1, 1), Span(3, 3), Polarity.POS),)),
        Sentence(("awful", "bed"), (Triplet(Span(1, 1), Span(0, 0), Polarity.NEG),)),
    ]
    probe = bench_trace.RoundProbe(fs).install()
    try:
        tagger = tagger_cls(seed=0)
        tagger.fit(sentences, epochs=3)
        tagger.partial_fit(sentences)
        tagger.score(sentences)
        assert [n for n, _ in probe.fits] == [6, 2]
        assert [n for n, _ in probe.evaluations] == [2]
        fits, evaluations = probe.take_calls()
    finally:
        probe.uninstall()
    assert tagger_cls.partial_fit is original
    assert all(seconds > 0.0 for _, seconds in fits + evaluations)
    assert probe.take_calls() == ([], [])
