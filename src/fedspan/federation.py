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
from typing import Sequence, get_args, get_type_hints

import numpy as np

from .config import ExperimentConfig
from .corpus import Corpus, repeated_names
from .encoder import TrainingDivergedError
from .model import SpanTagger
from .prototypes import (
    PayloadError,
    PrototypePayload,
    PrototypeSet,
    decode_payload,
    encode_payload,
    make_payload,
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


def _client_weights(scores: Sequence[float], mode: str) -> list[float]:
    """Per-client aggregation weights from validation F1 scores, each in
    [0, 1] as its payload checked.

    ``f1_weighted`` normalizes the scores to sum to 1; ``uniform`` ignores
    them. Equal scores, all-zero ones included, short-circuit to the uniform
    weights so both modes produce bit-identical aggregates in that case.
    """
    n = len(scores)
    uniform = [1.0 / n] * n
    if mode == "uniform" or min(scores) == max(scores):
        return uniform
    total = sum(scores)
    return [s / total for s in scores]


def _aggregate(
    payloads: Sequence[PrototypePayload], mode: str, round_index: int
) -> tuple[PrototypeSet, list[float], np.ndarray]:
    """Aggregate, client weights, and the renormalized clients x classes
    weights. Each class's prototype is the weighted mean over the clients
    that reported it, summed in ascending client id so float summation is
    reproducible. ``PayloadError`` names a client with a payload of another
    round than ``round_index`` or with two, and lists every client's
    prototype width when they differ."""
    if not payloads:
        raise ValueError("no payloads to aggregate")
    payloads = sorted(payloads, key=lambda p: p.client_id)
    for prev, p in zip([None, *payloads], payloads):
        if p.round_index != round_index:
            raise PayloadError(
                f"client {p.client_id} payload is for round {p.round_index}, expected {round_index}"
            )
        if prev is not None and prev.client_id == p.client_id:
            raise PayloadError(f"client {p.client_id} sent more than one payload")
    dim = payloads[0].prototypes.dim
    if any(p.prototypes.dim != dim for p in payloads):
        widths = ", ".join(f"client {p.client_id} dim {p.prototypes.dim}" for p in payloads)
        raise PayloadError(f"prototype widths differ: {widths}")
    base_weights = _client_weights([p.val_f1 for p in payloads], mode)
    reported = np.array([p.prototypes.present for p in payloads])
    class_weights = np.where(reported, np.array(base_weights)[:, None], 0.0)
    # Each per-class float64 sum adds clients one at a time in ascending id,
    # as a per-class loop would.
    totals = np.zeros(NUM_CLASSES)
    for row in class_weights:
        totals += row
    zero_total = reported.any(axis=0) & (totals == 0.0)
    if zero_total.any():
        fallback = zero_total.nonzero()[0].tolist()
        logger.info("classes %s reported only by zero-weight clients, using uniform", fallback)
    class_weights = np.where(
        zero_total,
        reported / np.maximum(reported.sum(axis=0), 1),
        class_weights / np.where(totals == 0.0, 1.0, totals),
    )
    matrix = np.zeros((NUM_CLASSES, dim))
    for weights, p in zip(class_weights, payloads):
        matrix += weights[:, None] * p.prototypes.matrix.astype(np.float64)
    aggregated = PrototypeSet.from_arrays(matrix, reported.any(axis=0))
    return aggregated, base_weights, class_weights


class Server:
    """The aggregation endpoint; consumes and produces encoded payload bytes.
    ``aggregation`` is one of ``ExperimentConfig.aggregation``'s choices."""

    def __init__(self, aggregation: str):
        choices = get_args(get_type_hints(ExperimentConfig)["aggregation"])
        if aggregation not in choices:
            raise ValueError(f"aggregation must be one of {choices}, got {aggregation!r}")
        self.aggregation = aggregation
        self.global_prototypes: PrototypeSet | None = None
        self.last_weights: list[float] = []
        self.last_class_weights = np.zeros((0, NUM_CLASSES))

    def receive_and_aggregate(self, blobs: Sequence[bytes], round_index: int) -> PrototypeSet:
        payloads = [decode_payload(blob) for blob in blobs]
        aggregated, base_weights, class_weights = _aggregate(payloads, self.aggregation, round_index)
        self.global_prototypes = aggregated
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
    """One client's local training for one round, ending with its upload and
    its metrics, named and ordered as in the records (``stage_loss`` is the tag loss)."""
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
    payload = make_payload(state.client_id, round_index, val.f1, state.model.prototypes_)
    stats = state.model.last_fit_metrics_
    metrics = {
        "train_loss": stats["train_loss"],
        "stage_loss": stats["tag_loss"],
        "proto_loss": stats["proto_loss"],
        "val_p": val.precision,
        "val_r": val.recall,
        "val_f1": val.f1,
    }
    return payload, metrics


def check_corpora(corpora: Sequence[Corpus], splits: Sequence[str] = ("train", "val", "test")) -> None:
    """Every corpus has a distinct name, which keys the test F1 matrix and
    the metrics of ``fedspan eval``, and none of ``splits`` empty."""
    if not corpora:
        raise ValueError("need at least one corpus")
    if repeated := repeated_names([corpus.name for corpus in corpora]):
        raise ValueError(f"corpus names must be distinct, repeated: {repeated}")
    for corpus in corpora:
        for split in splits:
            if not corpus.split(split):
                raise ValueError(f"corpus {corpus.name!r} has an empty {split} split")


def _test_matrix(model: SpanTagger, corpora: Sequence[Corpus]) -> dict[str, float]:
    return {corpus.name: model.score(corpus.test) for corpus in corpora}


def _clients(corpora: Sequence[Corpus], config: ExperimentConfig) -> list[ClientState]:
    """One client per corpus, or in ``merged`` mode one client on the
    concatenated train/val splits with its own data seed."""
    if config.mode == "merged":
        merged = Corpus(
            "merged",
            [s for corpus in corpora for s in corpus.train],
            [s for corpus in corpora for s in corpus.val],
            [],
        )
        model = SpanTagger(**config.model_kwargs((config.seed, len(corpora))))
        return [ClientState(0, merged, model)]
    return [
        ClientState(i, corpus, SpanTagger(**config.model_kwargs((config.seed, i))))
        for i, corpus in enumerate(corpora)
    ]


def run_federated(
    corpora: Sequence[Corpus], config: ExperimentConfig, out_dir: str | Path | None = None
) -> list[dict]:
    """The round loop of every mode: local training, then in ``federated``
    mode upload, aggregation and broadcast.

    ``config.mode`` picks the clients and whether they exchange prototypes:
    ``federated`` trains one client per corpus and exchanges them through a
    ``Server``; ``single`` trains the same clients in isolation; ``merged``
    trains one client on the concatenated train/val splits. Every mode uses
    the same per-round epoch schedule and evaluates on every test split.

    Returns one record per (round, client); the baselines record zero
    uploaded/downloaded floats and no weights. With ``out_dir`` set, each round
    appends its records to ``records.jsonl`` when it ends, so a diverging client
    halts the run with every earlier round on disk. Then come the checkpoints
    (``client_XX_<corpus>.ckpt`` federated, ``model_XX_<name>.ckpt`` otherwise)
    and, federated, the last round's upload blobs and ``global.bin`` broadcast.
    """
    check_corpora(corpora)
    config.validate()
    federated = config.mode == "federated"
    clients = _clients(corpora, config)
    server = Server(config.aggregation)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "records.jsonl").write_bytes(b"")
    records: list[dict] = []
    incoming: PrototypeSet | None = None
    blobs: list[bytes] = []
    tested = corpora if config.track_test_matrix else []
    for round_index in range(1, config.rounds + 1):
        downloaded = incoming.float_count() if incoming is not None else 0
        outcomes = [client_round(client, incoming, round_index, config) for client in clients]
        if federated:
            blobs = [encode_payload(payload) for payload, _ in outcomes]
            server.receive_and_aggregate(blobs, round_index)
            broadcast = server.broadcast(round_index)
            incoming = decode_payload(broadcast).prototypes
        round_records = [
            {
                "round": round_index,
                "client": client.client_id,
                "corpus": client.corpus.name,
                **metrics,
                "test_f1_matrix": _test_matrix(client.model, tested),
                "uploaded_floats": payload.float_count() if federated else 0,
                "downloaded_floats": downloaded,
                "weights": list(server.last_weights),
            }
            for client, (payload, metrics) in zip(clients, outcomes)
        ]
        records.extend(round_records)
        if out_path is not None:
            with open(out_path / "records.jsonl", "a", encoding="utf-8") as records_file:
                records_file.writelines(json.dumps(record) + "\n" for record in round_records)
    if out_path is not None:
        prefix = "client" if federated else "model"
        ckpt_dir = out_path / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for client in clients:
            if client.model.is_fitted:
                client.model.save(
                    ckpt_dir / f"{prefix}_{client.client_id:02d}_{client.corpus.name}.ckpt"
                )
        if blobs:
            payload_dir = out_path / "payloads"
            payload_dir.mkdir(parents=True, exist_ok=True)
            for client, blob in zip(clients, blobs):
                (payload_dir / f"client_{client.client_id:02d}_{client.corpus.name}.bin").write_bytes(blob)
            (payload_dir / "global.bin").write_bytes(broadcast)
    return records


def prototype_similarity(payloads: Sequence[PrototypePayload]) -> np.ndarray:
    """K x K mean cosine similarity between clients' prototypes, in float64.

    Entry (k, l) averages the cosine over the classes both clients report, a
    zero-norm prototype counting as 0; a pair with no shared class is an error.
    """
    if not payloads:
        raise ValueError("no payloads")
    matrices = np.array([p.prototypes.matrix for p in payloads], dtype=np.float64)
    present = np.array([p.prototypes.present for p in payloads])
    norms = np.linalg.norm(matrices, axis=2, keepdims=True)
    unit = np.divide(matrices, norms, out=np.zeros_like(matrices), where=norms > 0.0)
    shared = present[:, None, :] & present[None, :, :]
    counts = shared.sum(axis=2)
    disjoint = np.argwhere(counts + np.eye(len(payloads), dtype=int) == 0)
    if len(disjoint):
        k, l = disjoint[0]
        raise ValueError(
            f"clients {payloads[k].client_id} and {payloads[l].client_id} share no classes"
        )
    cosines = np.einsum("kcd,lcd->klc", unit, unit)
    similarity = np.where(shared, cosines, 0.0).sum(axis=2) / np.maximum(counts, 1)
    np.fill_diagonal(similarity, 1.0)
    return similarity


def comm_ledger(config: ExperimentConfig, records: Sequence[dict] | None = None) -> dict:
    """Communication accounting: model size vs classifier vs prototype payload."""
    shapes = config.block_shapes()
    prototype_floats = NUM_CLASSES * config.rep_dim
    report = {
        "num_classes": NUM_CLASSES,
        "rep_dim": config.rep_dim,
        "full_model_floats": config.param_count(),
        "classifier_floats": math.prod(shapes["w_cls"]) + math.prod(shapes["b_cls"]),
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
