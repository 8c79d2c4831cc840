"""Round orchestration for simulated federated training.

Clients are in-process actors; the only thing that crosses the client/server
boundary is the encoded prototype payload (both directions), so the payload
codec is the real communication surface. Aggregation weights clients by
validation F1 (or uniformly), renormalizing per class when a client did not
report that class. Everything is sequential and seeded, so a run is
reproducible byte for byte.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .config import ExperimentConfig
from .corpus import Corpus
from .encoder import EncoderConfig, TrainingDivergedError
from .model import SpanTagger
from .prototypes import (
    PrototypePayload,
    PrototypeSet,
    decode_payload,
    encode_payload,
    make_payload,
    safe_cosine,
)
from .tagging import NUM_CLASSES

logger = logging.getLogger(__name__)

SERVER_CLIENT_ID = 0xFFFFFFFF

# Published parameter count of the transformer-based reference system whose
# full-model exchange the prototype payload is compared against.
REFERENCE_FULL_MODEL_FLOATS = 110_298_760


@dataclass
class ClientState:
    client_id: int
    corpus: Corpus
    model: SpanTagger
    last_val_f1: float = 0.0


def aggregation_weights(scores: Sequence[float], mode: str) -> list[float]:
    """Per-client aggregation weights from validation F1 scores.

    ``f1_weighted`` normalizes the scores to sum to 1; ``uniform`` ignores
    them. Equal scores short-circuit to the uniform weights so both modes
    produce bit-identical aggregates in that case. An all-zero score vector
    falls back to uniform (logged). Scores outside [0, 1], NaN included,
    are rejected in both modes.
    """
    if not scores:
        raise ValueError("need at least one score")
    for s in scores:
        if not math.isfinite(s):
            raise ValueError(f"non-finite F1 score: {s}")
        if s < 0:
            raise ValueError(f"negative F1 score: {s}")
        if s > 1:
            raise ValueError(f"F1 score above 1: {s}")
    n = len(scores)
    uniform = [1.0 / n] * n
    if mode == "uniform":
        return uniform
    if mode != "f1_weighted":
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if min(scores) == max(scores):
        return uniform
    total = sum(scores)
    if total == 0.0:
        logger.info("all validation F1 scores are 0, falling back to uniform weights")
        return uniform
    return [s / total for s in scores]


def _aggregate(
    payloads: Sequence[PrototypePayload], mode: str
) -> tuple[PrototypeSet, list[float], dict[int, list[tuple[int, float]]]]:
    if not payloads:
        raise ValueError("no payloads to aggregate")
    payloads = sorted(payloads, key=lambda p: p.client_id)
    dim = payloads[0].prototypes.dim
    round_index = payloads[0].round_index
    for p in payloads:
        if p.prototypes.dim != dim:
            raise ValueError(
                f"client {p.client_id} payload has dim {p.prototypes.dim}, expected {dim}"
            )
        if p.round_index != round_index:
            raise ValueError(
                f"client {p.client_id} payload is for round {p.round_index}, expected {round_index}"
            )
    base_weights = aggregation_weights([p.val_f1 for p in payloads], mode)
    all_classes = sorted({c for p in payloads for c in p.prototypes.classes()})
    vectors: dict[int, np.ndarray] = {}
    class_weights: dict[int, list[tuple[int, float]]] = {}
    for cls in all_classes:
        reporters = [i for i, p in enumerate(payloads) if p.prototypes.present(cls)]
        sub = [base_weights[i] for i in reporters]
        sub_total = sum(sub)
        if sub_total == 0.0:
            logger.info("class %d reported only by zero-weight clients, using uniform", cls)
            sub = [1.0 / len(reporters)] * len(reporters)
        else:
            sub = [w / sub_total for w in sub]
        vec = np.zeros(dim, dtype=np.float64)
        for w, i in zip(sub, reporters):
            vec += w * payloads[i].prototypes.vectors[cls].astype(np.float64)
        vectors[cls] = vec
        class_weights[cls] = [(payloads[i].client_id, w) for i, w in zip(reporters, sub)]
    return PrototypeSet(dim, vectors, round_index), base_weights, class_weights


def aggregate_global(payloads: Sequence[PrototypePayload], mode: str) -> PrototypeSet:
    """Weighted per-class mean of the uploaded prototypes.

    Weights are renormalized per class over the clients that reported it, in
    ascending client-id order so float summation is reproducible.
    """
    return _aggregate(payloads, mode)[0]


class Server:
    """Aggregation endpoint; consumes and produces encoded payload bytes."""

    def __init__(self, aggregation: str):
        self.aggregation = aggregation
        self.global_prototypes: PrototypeSet | None = None
        self.history: list[PrototypeSet] = []
        self.payload_log: list[dict] = []
        self.last_weights: list[float] = []
        self.last_class_weights: dict[int, list[tuple[int, float]]] = {}

    def receive_and_aggregate(self, blobs: Sequence[bytes], round_index: int) -> PrototypeSet:
        payloads = [decode_payload(blob) for blob in blobs]
        for payload, blob in zip(payloads, blobs):
            self.payload_log.append(
                {
                    "round": round_index,
                    "client": payload.client_id,
                    "bytes": len(blob),
                    "floats": payload.float_count(),
                    "val_f1": payload.val_f1,
                }
            )
        aggregated, base_weights, class_weights = _aggregate(payloads, self.aggregation)
        self.global_prototypes = aggregated
        self.history.append(aggregated)
        self.last_weights = base_weights
        self.last_class_weights = class_weights
        self._mean_val_f1 = float(np.mean([p.val_f1 for p in payloads]))
        return aggregated

    def broadcast(self, round_index: int) -> bytes:
        if self.global_prototypes is None:
            raise RuntimeError("nothing aggregated yet")
        payload = make_payload(
            SERVER_CLIENT_ID, round_index, self._mean_val_f1, self.global_prototypes
        )
        return encode_payload(payload)


def client_round(
    state: ClientState,
    global_prototypes: PrototypeSet | None,
    round_index: int,
    config: ExperimentConfig,
) -> tuple[PrototypePayload, dict]:
    """One client's local training for one round, ending with its upload."""
    try:
        state.model.partial_fit(
            state.corpus.train,
            epochs=config.local_epochs,
            global_prototypes=global_prototypes,
        )
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(
            f"client {state.client_id} ({state.corpus.name}) round {round_index}: {exc}"
        ) from exc
    val = state.model.evaluate(state.corpus.val)
    state.last_val_f1 = val.f1
    payload = make_payload(state.client_id, round_index, val.f1, state.model.prototypes_)
    stats = state.model.last_fit_metrics_
    metrics = {
        "train_loss": stats["train_loss"],
        "tag_loss": stats["tag_loss"],
        "proto_loss": stats["proto_loss"],
        "val_p": val.precision,
        "val_r": val.recall,
        "val_f1": val.f1,
    }
    return payload, metrics


class _RecordWriter:
    """Appends one JSON object per line, flushed immediately."""

    def __init__(self, out_dir: Path | None):
        self._fh: IO[str] | None = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(out_dir / "records.jsonl", "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _check_splits(corpora: Sequence[Corpus]) -> None:
    if not corpora:
        raise ValueError("need at least one corpus")
    for corpus in corpora:
        for split, sentences in corpus.splits():
            if not sentences:
                raise ValueError(f"corpus {corpus.name!r} has an empty {split} split")


def _test_matrix(model: SpanTagger, corpora: Sequence[Corpus]) -> dict[str, float]:
    return {corpus.name: float(model.score(corpus.test)) for corpus in corpora}


def _record(
    round_index: int,
    client_id: int,
    corpus_name: str,
    metrics: dict,
    test_matrix: dict[str, float],
    uploaded: int,
    downloaded: int,
    weights: list[float],
) -> dict:
    return {
        "round": round_index,
        "client": client_id,
        "corpus": corpus_name,
        "train_loss": float(metrics["train_loss"]),
        "stage_loss": float(metrics["tag_loss"]),
        "proto_loss": float(metrics["proto_loss"]),
        "val_p": float(metrics["val_p"]),
        "val_r": float(metrics["val_r"]),
        "val_f1": float(metrics["val_f1"]),
        "test_f1_matrix": test_matrix,
        "uploaded_floats": int(uploaded),
        "downloaded_floats": int(downloaded),
        "weights": [float(w) for w in weights],
    }


def run_federated(
    corpora: Sequence[Corpus], config: ExperimentConfig, out_dir: str | Path | None = None
) -> list[dict]:
    """Full federated run: local training, upload, aggregation, broadcast.

    Returns one record per (round, client); with ``out_dir`` set, records are
    streamed to ``records.jsonl`` after every round and final checkpoints and
    payloads are persisted. A diverging client halts the run with everything
    recorded so far already flushed.
    """
    _check_splits(corpora)
    config.validate()
    out_path = Path(out_dir) if out_dir is not None else None
    clients = [
        ClientState(i, corpus, SpanTagger(**config.model_kwargs((config.seed, i))))
        for i, corpus in enumerate(corpora)
    ]
    server = Server(config.aggregation)
    records: list[dict] = []
    writer = _RecordWriter(out_path)
    incoming: PrototypeSet | None = None
    downloaded = 0
    final_blobs: list[bytes] = []
    try:
        for round_index in range(1, config.rounds + 1):
            blobs = []
            payloads = []
            metrics_list = []
            for client in clients:
                payload, metrics = client_round(client, incoming, round_index, config)
                payloads.append(payload)
                blobs.append(encode_payload(payload))
                metrics_list.append(metrics)
            server.receive_and_aggregate(blobs, round_index)
            for client, payload, metrics in zip(clients, payloads, metrics_list):
                test_matrix = (
                    _test_matrix(client.model, corpora) if config.track_test_matrix else {}
                )
                record = _record(
                    round_index,
                    client.client_id,
                    client.corpus.name,
                    metrics,
                    test_matrix,
                    payload.float_count(),
                    downloaded,
                    server.last_weights,
                )
                records.append(record)
                writer.write(record)
            broadcast_blob = server.broadcast(round_index)
            incoming = decode_payload(broadcast_blob).prototypes
            downloaded = incoming.float_count()
            final_blobs = blobs
    finally:
        writer.close()
    if out_path is not None:
        ckpt_dir = out_path / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for client in clients:
            if client.model.is_fitted:
                client.model.save(
                    ckpt_dir / f"client_{client.client_id:02d}_{client.corpus.name}.ckpt"
                )
        if final_blobs:
            payload_dir = out_path / "payloads"
            payload_dir.mkdir(parents=True, exist_ok=True)
            for client, blob in zip(clients, final_blobs):
                (payload_dir / f"client_{client.client_id:02d}_{client.corpus.name}.bin").write_bytes(blob)
            (payload_dir / "global.bin").write_bytes(server.broadcast(config.rounds))
    return records


def run_baselines(
    corpora: Sequence[Corpus],
    config: ExperimentConfig,
    mode: str | None = None,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Non-federated reference runs on the same record schema.

    ``merged`` trains one model on the concatenated train/val splits;
    ``single`` trains one isolated model per corpus. Both evaluate on every
    test split, use the same per-round epoch schedule as the federated run,
    and never exchange prototypes.
    """
    mode = mode or config.mode
    if mode not in ("single", "merged"):
        raise ValueError(f"baseline mode must be 'single' or 'merged', got {mode!r}")
    _check_splits(corpora)
    config.validate()
    out_path = Path(out_dir) if out_dir is not None else None

    if mode == "merged":
        train = [s for corpus in corpora for s in corpus.train]
        val = [s for corpus in corpora for s in corpus.val]
        units = [
            (0, "merged", SpanTagger(**config.model_kwargs((config.seed, len(corpora)))), train, val)
        ]
    else:
        units = [
            (i, corpus.name, SpanTagger(**config.model_kwargs((config.seed, i))), corpus.train, corpus.val)
            for i, corpus in enumerate(corpora)
        ]

    records: list[dict] = []
    writer = _RecordWriter(out_path)
    try:
        for round_index in range(1, config.rounds + 1):
            for unit_id, name, model, train, val in units:
                model.partial_fit(train, epochs=config.local_epochs)
                val_metrics = model.evaluate(val)
                stats = model.last_fit_metrics_
                metrics = {
                    "train_loss": stats["train_loss"],
                    "tag_loss": stats["tag_loss"],
                    "proto_loss": stats["proto_loss"],
                    "val_p": val_metrics.precision,
                    "val_r": val_metrics.recall,
                    "val_f1": val_metrics.f1,
                }
                test_matrix = _test_matrix(model, corpora) if config.track_test_matrix else {}
                record = _record(round_index, unit_id, name, metrics, test_matrix, 0, 0, [])
                records.append(record)
                writer.write(record)
    finally:
        writer.close()
    if out_path is not None:
        ckpt_dir = out_path / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for unit_id, name, model, _, _ in units:
            if model.is_fitted:
                model.save(ckpt_dir / f"model_{unit_id:02d}_{name}.ckpt")
    return records


def prototype_similarity(payloads: Sequence[PrototypePayload]) -> np.ndarray:
    """K x K mean cosine similarity between clients' prototypes.

    Entry (k, l) averages the cosine over the classes both clients report;
    a pair with no shared class is an error.
    """
    n = len(payloads)
    if n == 0:
        raise ValueError("no payloads")
    matrix = np.eye(n, dtype=np.float64)
    for k in range(n):
        for l in range(k + 1, n):
            a, b = payloads[k].prototypes, payloads[l].prototypes
            shared = sorted(set(a.classes()) & set(b.classes()))
            if not shared:
                raise ValueError(
                    f"clients {payloads[k].client_id} and {payloads[l].client_id} share no classes"
                )
            value = float(
                np.mean([safe_cosine(a.vectors[c], b.vectors[c]) for c in shared])
            )
            matrix[k, l] = matrix[l, k] = value
    return matrix


def comm_ledger(config: ExperimentConfig, records: Sequence[dict] | None = None) -> dict:
    """Communication accounting: model size vs classifier vs prototype payload."""
    encoder = EncoderConfig(
        vocab_size=config.vocab_size,
        embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim,
        rep_dim=config.rep_dim,
        chunk_size=config.chunk_size,
        l_max=config.l_max,
    )
    prototype_floats = NUM_CLASSES * config.rep_dim
    report = {
        "num_classes": NUM_CLASSES,
        "rep_dim": config.rep_dim,
        "full_model_floats": encoder.param_count(),
        "classifier_floats": NUM_CLASSES * config.rep_dim + NUM_CLASSES,
        "prototype_floats": prototype_floats,
        "reference_full_model_floats": REFERENCE_FULL_MODEL_FLOATS,
        "reference_to_prototype_ratio": REFERENCE_FULL_MODEL_FLOATS / prototype_floats,
    }
    if records is not None:
        per_round: dict[int, dict[str, int]] = {}
        for rec in records:
            slot = per_round.setdefault(rec["round"], {"uploaded_floats": 0, "downloaded_floats": 0})
            slot["uploaded_floats"] += rec["uploaded_floats"]
            slot["downloaded_floats"] += rec["downloaded_floats"]
        report["per_round"] = [
            {"round": r, **counts} for r, counts in sorted(per_round.items())
        ]
        report["total_uploaded_floats"] = sum(c["uploaded_floats"] for c in per_round.values())
        report["total_downloaded_floats"] = sum(c["downloaded_floats"] for c in per_round.values())
    return report
