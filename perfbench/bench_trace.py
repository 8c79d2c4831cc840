"""Spans around the calls into each fedspan module, recorded from outside.

``Tracer.install`` replaces every binding of each hooked function with a
timing wrapper: the defining module's attribute and every other module of
the package that imported the same object (``fedspan.model.forward_sentence``
as well as ``fedspan.encoder.forward_sentence``), and methods on their class.
Nothing under ``src/`` changes. Spans live in memory until ``write``.

``RoundProbe`` is the much lighter hook both the traced and the untraced run
keep: it captures what the benchmark checks but fedspan does not return
(client states, uploaded blobs, the predictions behind a score), stamps the
start of each round and times each ``client_round``, ``SpanTagger.partial_fit``
and ``SpanTagger.evaluate`` call.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import bench_metrics as bm
from bench_reference import Reference

NO_CONTEXT = -1

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("encoder.batch_gradients.calls", "count"),
    ("encoder.batch_gradients.ms_p50", "ms"),
    ("encoder.backward.self_s", "s"),
    ("encoder.forward_sentence.busy_s", "s"),
    ("encoder.forward_sentence.train_share", "ratio"),
    ("encoder.forward_sentence.us_p50", "us"),
    ("encoder.adam_step.calls", "count"),
    ("encoder.adam_step.us_p50", "us"),
    ("encoder.adam_step.busy_s", "s"),
    ("encoder.tokenize.calls", "count"),
    ("encoder.tokenize.busy_s", "s"),
    ("encoder.tokenize.unique_ratio", "ratio"),
    ("tagging.derive_gold_tags.calls", "count"),
    ("tagging.derive_gold_tags.busy_s", "s"),
    ("tagging.derive_gold_tags.unique_ratio", "ratio"),
    ("decoding.decode_triplets.calls", "count"),
    ("decoding.decode_triplets.us_p50", "us"),
    ("decoding.decode_triplets.busy_s", "s"),
    ("corpus.evaluate_triplets.busy_s", "s"),
    ("model.predict_tags.busy_s", "s"),
    ("model.score.busy_s", "s"),
    ("model.partial_fit.busy_s", "s"),
    ("model.partial_fit.self_s", "s"),
    ("prototypes.build_local_prototypes.busy_s", "s"),
    ("prototypes.momentum_update.busy_s", "s"),
    ("prototypes.encode_payload.calls", "count"),
    ("prototypes.encode_payload.busy_s", "s"),
    ("prototypes.decode_payload.busy_s", "s"),
    ("prototypes.payload_bytes", "bytes"),
    ("prototypes.payload_overhead_ratio", "ratio"),
    ("federation.receive_and_aggregate.busy_s", "s"),
    ("federation.broadcast.busy_s", "s"),
    ("federation.client_round.ms_p50", "ms"),
    ("federation.client_round.ms_tail", "ms"),
    ("federation.straggler_idle_share", "ratio"),
    ("synth.generate_synthetic.busy_s", "s"),
    ("corpus.deduplicate.busy_s", "s"),
    ("trace.overhead_s", "s"),
]


def _all_bindings(owner, attr):
    """(holder, attr) pairs binding the same object as ``owner.attr``.

    For a module-level function this is its defining module plus every
    ``fedspan`` module that imported it; for a method, the class alone.
    """
    target = getattr(owner, attr)
    if isinstance(owner, type):
        return [(owner, attr)]
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "fedspan" or name.startswith("fedspan.")):
            continue
        for key, value in vars(module).items():
            if value is target:
                out.append((module, key))
    return out


class _Patches:
    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for holder, key in _all_bindings(owner, attr):
            self._saved.append((holder, key, original))
            setattr(holder, key, wrapper)

    def restore(self):
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)


def _round_of_client_round(args):
    return args[2], args[0].client_id


def _round_of_aggregate(args):
    return args[2], NO_CONTEXT


def _round_of_broadcast(args):
    return args[1], NO_CONTEXT


def _tokens_key(args):
    return tuple(args[1])


def _sentence_key(args):
    return tuple(args[0].tokens)


def hooks(fs):
    """(span name, owner, attribute, options) for every traced call.

    ``fs`` is a namespace holding the fedspan modules.
    """
    return [
        ("synth.generate_synthetic", fs.synth, "generate_synthetic", {}),
        ("corpus.deduplicate", fs.corpus, "deduplicate", {}),
        ("corpus.evaluate_triplets", fs.corpus, "evaluate_triplets", {}),
        ("tagging.derive_gold_tags", fs.tagging, "derive_gold_tags", {"key": _sentence_key}),
        ("encoder.tokenize", fs.encoder.Tokenizer, "tokenize", {"key": _tokens_key}),
        ("encoder.forward_sentence", fs.encoder, "forward_sentence", {}),
        ("encoder.batch_gradients", fs.encoder, "batch_gradients", {}),
        ("encoder.adam_step", fs.encoder, "adam_step", {}),
        ("model.partial_fit", fs.model.SpanTagger, "partial_fit", {}),
        ("model.predict_tags", fs.model.SpanTagger, "predict_tags", {}),
        ("model.predict", fs.model.SpanTagger, "predict", {}),
        ("model.evaluate", fs.model.SpanTagger, "evaluate", {}),
        ("model.score", fs.model.SpanTagger, "score", {}),
        ("decoding.decode_triplets", fs.decoding, "decode_triplets", {}),
        ("prototypes.build_local_prototypes", fs.prototypes, "build_local_prototypes", {}),
        ("prototypes.momentum_update", fs.prototypes, "momentum_update", {}),
        ("prototypes.encode_payload", fs.prototypes, "encode_payload", {"payload": True}),
        ("prototypes.decode_payload", fs.prototypes, "decode_payload", {}),
        ("federation.run_federated", fs.federation, "run_federated", {}),
        ("federation.client_round", fs.federation, "client_round", {"ctx": _round_of_client_round}),
        (
            "federation.receive_and_aggregate",
            fs.federation.Server,
            "receive_and_aggregate",
            {"ctx": _round_of_aggregate},
        ),
        ("federation.broadcast", fs.federation.Server, "broadcast", {"ctx": _round_of_broadcast}),
    ]


class Tracer:
    """Records (name, start, end, parent, round, client) for each hooked call."""

    def __init__(self, fs):
        self.fs = fs
        self._patches = _Patches()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.clients: list[int] = []
        self.keys: dict[str, list] = defaultdict(list)
        # (round, client id, encoded bytes, float count) per encode_payload call
        self.payloads: list[tuple[int, int, int, int]] = []
        self._stack: list[int] = []
        self._round = NO_CONTEXT
        self._client = NO_CONTEXT

    def install(self) -> "Tracer":
        for name, owner, attr, options in hooks(self.fs):
            self._patches.wrap(
                owner, attr, lambda fn, name=name, options=options: self._wrapper(name, fn, **options)
            )
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrapper(self, name, fn, key=None, ctx=None, payload=False):
        # Spans use the cheaper wall clock: they attribute time between layers.
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        rounds, clients, stack = self.rounds, self.clients, self._stack
        keys = self.keys[name] if key is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = self._round, self._client
            if ctx is not None:
                self._round, self._client = ctx(args)
            if keys is not None:
                keys.append(key(args))
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self._round)
            clients.append(self._client)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                self._round, self._client = saved
            if payload:
                sent = args[0]
                self.payloads.append(
                    (sent.round_index, sent.client_id, len(out), sent.float_count())
                )
            return out

        return traced

    # -- derived figures ------------------------------------------------------

    def durations(self, name: str, parent: str | None = None, exclude_parent: str | None = None):
        out = []
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            pname = self.names[p] if p >= 0 else None
            if parent is not None and pname != parent:
                continue
            if exclude_parent is not None and pname == exclude_parent:
                continue
            out.append(self.ends[i] - self.starts[i])
        return out

    def self_seconds(self) -> dict[str, float]:
        spans = list(zip(self.starts, self.ends, self.parents))
        totals: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, bm.self_times(spans)):
            totals[name] += value
        return totals

    def client_rounds(self) -> list[list[float]]:
        """Client durations grouped by round, in schedule order."""
        grouped: dict[tuple[int, int], list[float]] = defaultdict(list)
        run = -1
        for i, name in enumerate(self.names):
            if name == "federation.run_federated":
                run += 1
            elif name == "federation.client_round":
                grouped[(run, self.rounds[i])].append(self.ends[i] - self.starts[i])
        return [grouped[k] for k in sorted(grouped)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for row in zip(
                self.names, self.starts, self.ends, self.parents, self.rounds, self.clients
            ):
                fh.write(json.dumps(row) + "\n")


class RoundProbe:
    """Captures what ``run_federated`` and ``SpanTagger.score`` keep to
    themselves: client states, uploaded blobs, round start times, the
    predictions and counts behind the last score. Times each
    ``client_round`` call, and each ``SpanTagger.partial_fit`` and
    ``SpanTagger.evaluate`` call with the sentences it handled. Runs the
    reference routine after each ``client_round``, outside its timing."""

    def __init__(self, fs):
        self._fs = fs
        self._patches = _Patches()
        self.states: dict[int, object] = {}
        self.blobs: list[tuple[int, list[bytes]]] = []
        self.round_starts: list[tuple[int, float]] = []
        self.last_predictions = None
        self.last_metrics = None
        self.client_seconds: list[float] = []
        # (sentence-epochs, seconds) of each partial_fit call
        self.fits: list[tuple[int, float]] = []
        # (sentences, seconds) of each evaluate call
        self.evaluations: list[tuple[int, float]] = []
        self.reference = Reference()

    def install(self) -> "RoundProbe":
        probe = self

        def client_round(fn):
            @functools.wraps(fn)
            def probed(state, global_prototypes, round_index, config):
                t0 = bm.clock()
                if not probe.round_starts or probe.round_starts[-1][0] != round_index:
                    probe.round_starts.append((round_index, t0))
                probe.states[state.client_id] = state
                out = fn(state, global_prototypes, round_index, config)
                probe.client_seconds.append(bm.clock() - t0)
                probe.reference.run()
                return out

            return probed

        def partial_fit(fn):
            @functools.wraps(fn)
            def probed(model, sentences, epochs=1, global_prototypes=None):
                t0 = bm.clock()
                out = fn(model, sentences, epochs=epochs, global_prototypes=global_prototypes)
                probe.fits.append((len(sentences) * epochs, bm.clock() - t0))
                return out

            return probed

        def receive(fn):
            @functools.wraps(fn)
            def probed(server, blobs, round_index):
                probe.blobs.append((round_index, list(blobs)))
                return fn(server, blobs, round_index)

            return probed

        def predict(fn):
            @functools.wraps(fn)
            def probed(model, sentences):
                probe.last_predictions = fn(model, sentences)
                return probe.last_predictions

            return probed

        def evaluate(fn):
            @functools.wraps(fn)
            def probed(model, sentences):
                t0 = bm.clock()
                probe.last_metrics = fn(model, sentences)
                probe.evaluations.append((len(sentences), bm.clock() - t0))
                return probe.last_metrics

            return probed

        federation, tagger = self._fs.federation, self._fs.model.SpanTagger
        self._patches.wrap(federation, "client_round", client_round)
        self._patches.wrap(tagger, "partial_fit", partial_fit)
        self._patches.wrap(federation.Server, "receive_and_aggregate", receive)
        self._patches.wrap(tagger, "predict", predict)
        self._patches.wrap(tagger, "evaluate", evaluate)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def reset(self) -> None:
        self.states = {}
        self.blobs = []
        self.round_starts = []
        self.client_seconds = []

    def take_calls(self) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
        """The partial_fit and evaluate calls since the last take."""
        fits, evaluations = self.fits, self.evaluations
        self.fits = []
        self.evaluations = []
        return fits, evaluations

    def round_seconds(self, end: float) -> list[float]:
        """Round times: from one round's first client to the next's;
        the last round ends at ``end``."""
        stamps = [t for _, t in self.round_starts] + [end]
        return [b - a for a, b in zip(stamps, stamps[1:])]


def layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metric values, and notes on how the tails were taken."""
    busy: dict[str, float] = defaultdict(float)
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        busy[name] += end - start
    calls = Counter(tracer.names)
    self_s = tracer.self_seconds()

    def p50(name, scale, **where):
        values = tracer.durations(name, **where)
        return bm.median(values) * scale if values else 0.0

    forward_busy = busy.get("encoder.forward_sentence", 0.0)
    train_forward = sum(
        tracer.durations("encoder.forward_sentence", parent="encoder.batch_gradients")
    )
    uploads = [p for p in tracer.payloads if p[1] != tracer.fs.federation.SERVER_CLIENT_ID]
    up_bytes = sum(p[2] for p in uploads)
    up_floats = sum(p[3] for p in uploads)
    client_ms = [d * 1e3 for d in tracer.durations("federation.client_round")]
    tail_ms, tail_p, tail_n = bm.tail(client_ms) if client_ms else (0.0, 100, 0)

    values = {
        "encoder.batch_gradients.calls": calls.get("encoder.batch_gradients", 0),
        "encoder.batch_gradients.ms_p50": p50("encoder.batch_gradients", 1e3),
        "encoder.backward.self_s": self_s.get("encoder.batch_gradients", 0.0),
        "encoder.forward_sentence.busy_s": forward_busy,
        "encoder.forward_sentence.train_share": train_forward / forward_busy if forward_busy else 0.0,
        "encoder.forward_sentence.us_p50": p50(
            "encoder.forward_sentence", 1e6, exclude_parent="encoder.batch_gradients"
        ),
        "encoder.adam_step.calls": calls.get("encoder.adam_step", 0),
        "encoder.adam_step.us_p50": p50("encoder.adam_step", 1e6),
        "encoder.adam_step.busy_s": busy.get("encoder.adam_step", 0.0),
        "encoder.tokenize.calls": calls.get("encoder.tokenize", 0),
        "encoder.tokenize.busy_s": busy.get("encoder.tokenize", 0.0),
        "encoder.tokenize.unique_ratio": bm.unique_ratio(tracer.keys["encoder.tokenize"]),
        "tagging.derive_gold_tags.calls": calls.get("tagging.derive_gold_tags", 0),
        "tagging.derive_gold_tags.busy_s": busy.get("tagging.derive_gold_tags", 0.0),
        "tagging.derive_gold_tags.unique_ratio": bm.unique_ratio(
            tracer.keys["tagging.derive_gold_tags"]
        ),
        "decoding.decode_triplets.calls": calls.get("decoding.decode_triplets", 0),
        "decoding.decode_triplets.us_p50": p50("decoding.decode_triplets", 1e6),
        "decoding.decode_triplets.busy_s": busy.get("decoding.decode_triplets", 0.0),
        "corpus.evaluate_triplets.busy_s": busy.get("corpus.evaluate_triplets", 0.0),
        "model.predict_tags.busy_s": busy.get("model.predict_tags", 0.0),
        "model.score.busy_s": busy.get("model.score", 0.0),
        "model.partial_fit.busy_s": busy.get("model.partial_fit", 0.0),
        "model.partial_fit.self_s": self_s.get("model.partial_fit", 0.0),
        "prototypes.build_local_prototypes.busy_s": busy.get(
            "prototypes.build_local_prototypes", 0.0
        ),
        "prototypes.momentum_update.busy_s": busy.get("prototypes.momentum_update", 0.0),
        "prototypes.encode_payload.calls": calls.get("prototypes.encode_payload", 0),
        "prototypes.encode_payload.busy_s": busy.get("prototypes.encode_payload", 0.0),
        "prototypes.decode_payload.busy_s": busy.get("prototypes.decode_payload", 0.0),
        "prototypes.payload_bytes": up_bytes / len(uploads) if uploads else 0.0,
        "prototypes.payload_overhead_ratio": (
            bm.payload_overhead_ratio(up_bytes, up_floats) if up_floats else 0.0
        ),
        "federation.receive_and_aggregate.busy_s": busy.get(
            "federation.receive_and_aggregate", 0.0
        ),
        "federation.broadcast.busy_s": busy.get("federation.broadcast", 0.0),
        "federation.client_round.ms_p50": bm.median(client_ms) if client_ms else 0.0,
        "federation.client_round.ms_tail": tail_ms,
        "federation.straggler_idle_share": bm.straggler_idle_share(tracer.client_rounds()),
        "synth.generate_synthetic.busy_s": busy.get("synth.generate_synthetic", 0.0),
        "corpus.deduplicate.busy_s": busy.get("corpus.deduplicate", 0.0),
        "trace.overhead_s": overhead_s,
    }
    notes = {
        "federation.client_round.ms_tail": {"percentile": tail_p, "samples": tail_n},
        "spans": len(tracer.names),
    }
    return values, notes
