"""The two benchmark workloads: inputs, the timed closed loop, checks.

Each workload is a closed loop with one caller: the code below waits for
every call into fedspan to return before it makes the next. Calls go through
module attributes (``fs.federation.run_federated``), never through names
imported here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import bench_metrics as bm

clock = bm.clock
wall = time.perf_counter

# Sentences per predict call on predict_long: one "round" of that workload.
PREDICT_CALL_SENTENCES = 20
# predict_long's set-up fit: long training sentences and epochs, one
# single-epoch client round each.
LONG_TRAIN_SENTENCES = 160
LONG_EPOCHS = 8

# Clauses of the shipped templates (trailing period dropped) and fillers
# without slots; predict_long joins them into 25-35 token sentences.
_LONG_CLAUSES = [
    "the {ASP} is {OPI}",
    "the {ASP} was really {OPI}",
    "i found the {ASP} quite {OPI}",
    "honestly the {ASP} seemed {OPI}",
    "{OPI} {ASP} overall",
    "everyone says the {ASP} is {OPI}",
    "my friends thought the {ASP} felt {OPI}",
    "the {ASP} looked {OPI} to us",
]
_CONNECTORS = ["and", "but", "while", "although", "so", "because", "yet", "since"]
_FILLERS = [
    "to be fair", "all in all", "on our visit", "in my view", "for the record", "as we expected",
]


class Ops:
    """Attempted and failed operations; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(message)


def spans_ok(triplets, n_tokens: int, l_max: int) -> bool:
    """Every predicted span lies inside the sentence and spans <= l_max."""
    for t in triplets:
        cover = (min(t.aspect.start, t.opinion.start), max(t.aspect.end, t.opinion.end))
        for start, end in (tuple(t.aspect), tuple(t.opinion), cover):
            if not (0 <= start <= end < n_tokens) or end - start + 1 > l_max:
                return False
    return True


def input_shape(fs, sentences, l_max: int, **extra) -> dict:
    lengths = [len(s.tokens) for s in sentences]
    spans = [fs.tagging.span_count(n, l_max) for n in lengths]
    return {
        "sentences": len(sentences),
        "tokens_p50": bm.median(lengths),
        "tokens_max": max(lengths),
        "spans_per_sentence_p50": bm.median(spans),
        **extra,
    }


# -- synthetic configs ---------------------------------------------------------


def long_synth_config(fs, n_templates: int = 24):
    """Two shipped domains with multi-clause templates of 25-35 tokens.

    Template k chains four distinct clauses of the shipped templates with
    connectors, and every other one opens with a filler clause. The set is
    fixed, so the seed varies the corpus drawn from it and nothing else.
    """
    base = fs.synth.default_synth_config()
    n = len(_LONG_CLAUSES)
    templates = []
    for k in range(n_templates):
        clauses = [_LONG_CLAUSES[(k + 3 * j) % n] for j in range(4)]
        parts = [clauses[0]]
        for j, clause in enumerate(clauses[1:]):
            parts.append(f", {_CONNECTORS[(k + j) % len(_CONNECTORS)]} {clause}")
        if k % 2 == 0:
            parts.insert(0, f"{_FILLERS[(k // 2) % len(_FILLERS)]} ,")
        templates.append(" ".join(parts) + " .")
    return fs.synth.SynthConfig(
        domains=base.domains[:2],
        opinions=base.opinions,
        templates=templates,
        train_size=LONG_TRAIN_SENTENCES,
        val_size=60,
        test_size=100,
        shared_aspects=base.shared_aspects,
        shared_aspect_rate=base.shared_aspect_rate,
    )


def make_corpora(fs, synth_config, seed: int):
    """Draw the corpus from ``seed`` and drop train/val sentences seen in a test split."""
    corpora, _ = fs.corpus.deduplicate(fs.synth.generate_synthetic(synth_config, seed))
    return corpora


# -- results ------------------------------------------------------------------


@dataclass
class RunResult:
    """What the timed phase measured, plus what is compared across runs.

    The timing metrics pool many short calls spread across the run
    (``call_seconds``, ``train_calls``, ``predict_calls``) and divide by the
    reference routine's mean time over the same run (``reference_seconds``);
    whole passes and rounds are kept for the details file only.
    """

    pass_seconds: list[float] = field(default_factory=list)
    pass_wall_seconds: list[float] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    # The workload's unit call: client_round (federated) or one scoring call.
    call_seconds: list[float] = field(default_factory=list)
    # (sentence-epochs, seconds) of each SpanTagger.partial_fit call.
    train_calls: list[tuple[int, float]] = field(default_factory=list)
    # (sentences, seconds) of each SpanTagger.evaluate call: validation,
    # test matrices and scoring.
    predict_calls: list[tuple[int, float]] = field(default_factory=list)
    # CPU time of each run of the reference routine, one after each call.
    reference_seconds: list[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    records: list = field(default_factory=list)


def _score(model, sentences, probe, ops: Ops, l_max: int, what: str):
    """One ``SpanTagger.score`` call, checked through the predictions and
    counts the probe kept. Returns (predictions, counts) or (None, None)."""
    ops.add()
    try:
        f1 = model.score(sentences)
    except Exception:
        ops.fail(f"{what}: {traceback.format_exc(limit=3)}")
        return None, None
    pred, counts = probe.last_predictions, probe.last_metrics
    if not all(spans_ok(p, len(s.tokens), l_max) for p, s in zip(pred, sentences)):
        ops.fail(f"{what}: predicted span outside its sentence or wider than l_max")
    elif not 0.0 <= f1 <= 1.0 or f1 != counts.f1:
        ops.fail(f"{what}: F1 {f1} outside [0, 1] or not the counts' F1")
    return pred, counts


# -- federated workloads --------------------------------------------------------


class Federated:
    """``run_federated`` on a fixed config, then the final test-F1 matrix."""

    def __init__(self, name, why, synth_config, config_overrides):
        self.name = name
        self.why = why
        self._synth_config = synth_config
        self._overrides = config_overrides

    def setup(self, fs, seed: int):
        corpora = make_corpora(fs, self._synth_config(fs), seed)
        config = fs.config.ExperimentConfig(corpus_seed=seed, **self._overrides)
        config.validate()
        return corpora, config

    def fingerprint(self, state):
        """What two set-ups from one seed must agree on."""
        return state

    def shape(self, fs, state) -> dict:
        corpora, config = state
        return input_shape(
            fs,
            [s for c in corpora for s in c.train],
            config.l_max,
            clients=len(corpora),
            train_sentences=sum(len(c.train) for c in corpora),
            rounds=config.rounds,
            local_epochs=config.local_epochs,
            rep_dim=config.rep_dim,
        )

    def run(self, fs, state, seconds: float, probe, ops: Ops) -> RunResult:
        corpora, config = state
        result = RunResult()
        start = wall()
        while True:
            probe.reset()
            gc.collect()
            w0 = wall()
            t0 = clock()
            try:
                records = fs.federation.run_federated(corpora, config)
            except Exception:
                records = None
                ops.fail(f"run_federated: {traceback.format_exc(limit=3)}", 0)
            t1 = clock()
            result.pass_seconds.append(t1 - t0)
            result.pass_wall_seconds.append(wall() - w0)
            result.round_seconds.extend(probe.round_seconds(t1))
            result.call_seconds.extend(probe.client_seconds)
            gc.collect()
            outcome = self._final_eval(corpora, config, probe, ops)
            train_calls, predict_calls = probe.take_calls()
            result.train_calls.extend(train_calls)
            result.predict_calls.extend(predict_calls)
            result.reference_seconds.extend(probe.reference.take())
            outcome["records"] = records
            outcome["blobs"] = probe.blobs
            self._check(fs, corpora, config, outcome, ops)
            if not result.records:
                result.records = [records, outcome["predictions"]]
                result.metrics = self._metrics(fs, corpora, config, outcome)
            elif [records, outcome["predictions"]] != result.records:
                ops.fail("a repeated pass gave different records or predictions")
            if wall() - start + (wall() - w0) > seconds:
                return result

    def _final_eval(self, corpora, config, probe, ops):
        """Each final client model on every test split."""
        matrix = np.zeros((len(corpora), len(corpora)))
        predictions = []
        pooled = [0, 0, 0]
        for i in range(len(corpora)):
            state = probe.states.get(i)
            for j, corpus in enumerate(corpora):
                if state is None:
                    ops.add()
                    ops.fail(f"client {i} never trained")
                    continue
                pred, counts = _score(
                    state.model, corpus.test, probe, ops, config.l_max, f"client {i} on {corpus.name}"
                )
                if counts is not None:
                    matrix[i, j] = counts.f1
                    pooled = [pooled[0] + counts.tp, pooled[1] + counts.fp, pooled[2] + counts.fn]
                    predictions.append(pred)
        return {"matrix": matrix, "pooled": pooled, "predictions": predictions}

    def _check(self, fs, corpora, config, outcome, ops):
        records, blobs = outcome["records"], outcome["blobs"]
        expected = [(r, c) for r in range(1, config.rounds + 1) for c in range(len(corpora))]
        ops.add(len(expected))
        if records is None:
            ops.fail("no records", len(expected))
            return
        if [(rec["round"], rec["client"]) for rec in records] != expected:
            ops.fail(f"{len(records)} records, expected rounds x clients = {len(expected)}")
        uploads = {r: b for r, b in blobs}
        for rec in records:
            problem = None
            losses = (rec["train_loss"], rec["stage_loss"], rec["proto_loss"])
            f1s = [rec["val_p"], rec["val_r"], rec["val_f1"], *rec["test_f1_matrix"].values()]
            round_blobs = uploads.get(rec["round"], [])
            if not all(np.isfinite(losses)):
                problem = f"non-finite loss {losses}"
            elif not all(0.0 <= f <= 1.0 for f in f1s):
                problem = "F1 outside [0, 1]"
            elif rec["client"] >= len(round_blobs):
                problem = "no uploaded blob"
            else:
                blob = round_blobs[rec["client"]]
                try:
                    again = fs.prototypes.encode_payload(fs.prototypes.decode_payload(blob))
                except Exception as exc:
                    again = repr(exc)
                if again != blob:
                    problem = "uploaded blob does not round-trip through the codec"
            if problem:
                ops.fail(f"round {rec['round']} client {rec['client']}: {problem}")
        if config.track_test_matrix:
            names = [c.name for c in corpora]
            last = [rec for rec in records if rec["round"] == config.rounds]
            logged = np.array([[rec["test_f1_matrix"][n] for n in names] for rec in last])
            if not np.array_equal(logged, outcome["matrix"]):
                ops.fail("final test matrix differs from the last round's records")

    def _metrics(self, fs, corpora, config, outcome) -> dict:
        records, matrix = outcome["records"], outcome["matrix"]
        k = len(corpora)
        off = ~np.eye(k, dtype=bool)
        out = {
            "f1_in_domain": float(np.diag(matrix).mean()),
            "f1_cross_domain": float(matrix[off].mean()),
            "predict_f1": fs.corpus.TripletMetrics.from_counts(*outcome["pooled"]).f1,
        }
        if records:
            last = [rec for rec in records if rec["round"] == config.rounds]
            out["f1_val"] = float(np.mean([rec["val_f1"] for rec in last]))
        if outcome["blobs"]:
            out["upload_bytes_per_round"] = bm.bytes_per_round(
                (r, len(b)) for r, blobs in outcome["blobs"] for b in blobs
            )
        return out


# -- inference workload -----------------------------------------------------------


class PredictLong:
    """Fit as one federated client, then predict held-out long sentences."""

    name = "predict_long"
    why = (
        "inference only on 25-35 token sentences (~265 spans each): no backward "
        "or Adam in the timed phase, and per-sentence work grows with span count"
    )

    def setup(self, fs, seed: int):
        corpora = make_corpora(fs, long_synth_config(fs), seed)
        config = fs.config.ExperimentConfig(
            rounds=LONG_EPOCHS, local_epochs=1, track_test_matrix=False, corpus_seed=seed
        )
        home = corpora[0]
        model = fs.model.SpanTagger(**config.model_kwargs((config.seed, 0)))
        client = fs.federation.ClientState(0, home, model)
        # Local rounds without global prototypes: one short partial_fit each,
        # so train_sent_per_s is a median over many calls.
        for round_index in range(1, LONG_EPOCHS + 1):
            payload, round_metrics = fs.federation.client_round(client, None, round_index, config)
        blob = fs.prototypes.encode_payload(payload)
        server = fs.federation.Server(config.aggregation)
        server.receive_and_aggregate([blob], LONG_EPOCHS)
        fs.prototypes.decode_payload(server.broadcast(LONG_EPOCHS))
        held_out = [("val", home.val), ("in_domain", home.test), ("cross_domain", corpora[1].test)]
        return {
            "corpora": corpora,
            "config": config,
            "model": model,
            "blob": blob,
            "val_f1": round_metrics["val_f1"],
            "held_out": held_out,
        }

    def fingerprint(self, state):
        """What two set-ups from one seed must agree on."""
        return state["corpora"], state["blob"], state["model"].params_.flatten().tobytes()

    def shape(self, fs, state) -> dict:
        config = state["config"]
        held = [s for _, group in state["held_out"] for s in group]
        return input_shape(
            fs,
            held,
            config.l_max,
            clients=1,
            train_sentences=len(state["corpora"][0].train),
            train_tokens_p50=bm.median([len(s.tokens) for s in state["corpora"][0].train]),
            fit_rounds=config.rounds,
            local_epochs=config.local_epochs,
            call_sentences=PREDICT_CALL_SENTENCES,
        )

    def run(self, fs, state, seconds: float, probe, ops: Ops) -> RunResult:
        model, l_max = state["model"], state["config"].l_max
        calls = [
            (group, sentences[lo : lo + PREDICT_CALL_SENTENCES])
            for group, sentences in state["held_out"]
            for lo in range(0, len(sentences), PREDICT_CALL_SENTENCES)
        ]
        result = RunResult()
        probe.reset()
        start = wall()
        while True:
            gc.collect()
            w0 = wall()
            t_pass = clock()
            counts: dict[str, list[int]] = {}
            predictions = []
            for group, batch in calls:
                t0 = clock()
                pred, got = _score(model, batch, probe, ops, l_max, group)
                result.call_seconds.append(clock() - t0)
                result.reference_seconds.append(probe.reference.run())
                predictions.append(pred)
                if got is not None:
                    c = counts.setdefault(group, [0, 0, 0])
                    c[0] += got.tp
                    c[1] += got.fp
                    c[2] += got.fn
            result.pass_seconds.append(clock() - t_pass)
            result.pass_wall_seconds.append(wall() - w0)
            result.predict_calls.extend(probe.take_calls()[1])
            if not result.records:
                result.records = [
                    state["blob"],
                    model.params_.flatten().tobytes(),
                    predictions,
                ]
                result.metrics = self._metrics(fs, state, counts)
                if result.metrics.get("f1_val") != state["val_f1"]:
                    ops.fail("validation F1 differs from the client round's own")
            elif predictions != result.records[2]:
                ops.fail("a repeated pass gave different predictions")
            if wall() - start + (wall() - w0) > seconds:
                return result

    def _metrics(self, fs, state, counts) -> dict:
        f1 = fs.corpus.TripletMetrics.from_counts
        pooled = [sum(c[i] for c in counts.values()) for i in range(3)]
        out = {
            "predict_f1": f1(*pooled).f1,
            "upload_bytes_per_round": float(len(state["blob"])),
        }
        for group, key in (("val", "f1_val"), ("in_domain", "f1_in_domain"), ("cross_domain", "f1_cross_domain")):
            if group in counts:
                out[key] = f1(*counts[group]).f1
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Federated(
            "fed_shipped",
            "the shipped acceptance experiment (4 clients, 10 rounds, 5 local "
            "epochs, rep_dim 16, test matrix on): training dominates it",
            lambda fs: fs.synth.default_synth_config(),
            {"rounds": 10},
        ),
        PredictLong(),
    )
}
