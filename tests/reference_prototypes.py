"""Scalar and per-class reference forms of the prototype code.

The package keeps a prototype set as one ``(NUM_CLASSES, dim)`` matrix with a
presence mask and works on whole arrays. This module states the same
definitions one span, one class or one client pair at a time, over plain
``{class: vector}`` dicts, so tests can check the array code against them:

- ``align_loss``, ``sep_loss`` and ``proto_loss`` are the prototype losses
  that ``fedspan.encoder.batch_gradients`` computes batched;
- ``reference_build``, ``reference_momentum`` and ``reference_aggregate`` are
  the dict implementations of the prototype build, the momentum merge and the
  server aggregation, which the array versions must match bit for bit;
- ``replay_local_prototypes`` smooths local prototypes one batch at a time,
  the oracle of ``fedspan.prototypes.smooth_prototypes``, which
  ``SpanTagger.partial_fit`` calls once per epoch;
- ``reference_similarity`` is the per-pair form of ``prototype_similarity``;
- ``payload_to_json``/``payload_from_json`` mirror the binary codec.
"""

import json
import math

import numpy as np

from fedspan.federation import _client_weights
from fedspan.prototypes import PrototypePayload, PrototypeSet, build_local_prototypes, momentum_update


def vectors(protos: PrototypeSet) -> dict[int, np.ndarray]:
    """The present rows of a set, keyed by class in ascending order."""
    return {int(c): protos.matrix[c] for c in np.flatnonzero(protos.present)}


def classes_of(protos: PrototypeSet) -> list[int]:
    return np.flatnonzero(protos.present).tolist()


def safe_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector has zero norm."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def align_loss(rep: np.ndarray, prototype: np.ndarray) -> float:
    """Negative cosine between a span representation and its class prototype."""
    return -safe_cosine(rep, prototype)


def sep_loss(rep: np.ndarray, prototypes: PrototypeSet, label: int) -> float:
    """log-sum-exp of cosines to every *other* present class prototype."""
    others = [vec for c, vec in vectors(prototypes).items() if c != label]
    if not others:
        return 0.0
    return float(math.log(sum(math.exp(safe_cosine(rep, vec)) for vec in others)))


def proto_loss(
    reps: np.ndarray,
    labels: np.ndarray,
    prototypes: PrototypeSet,
    align_weight: float,
    sep_weight: float,
) -> float:
    """Mean over spans of the weighted alignment + separation terms."""
    reps = np.asarray(reps)
    labels = np.asarray(labels)
    if reps.shape[0] != labels.shape[0]:
        raise ValueError("reps and labels misaligned")
    if reps.shape[0] == 0:
        return 0.0
    total = 0.0
    for rep, label in zip(reps, labels):
        label = int(label)
        present = prototypes.present[label]
        align = align_loss(rep, prototypes.matrix[label]) if present else 0.0
        total += align_weight * align + sep_weight * sep_loss(rep, prototypes, label)
    return total / reps.shape[0]


def reference_build(reps: np.ndarray, classes: np.ndarray) -> dict[int, np.ndarray]:
    """One boolean mask and one ``.mean`` per class."""
    return {int(cls): reps[classes == cls].mean(axis=0) for cls in np.unique(classes)}


def reference_momentum(
    previous: dict[int, np.ndarray], batch: dict[int, np.ndarray], momentum: float
) -> dict[int, np.ndarray]:
    """Blend the classes both dicts hold; adopt or carry the rest."""
    out: dict[int, np.ndarray] = {}
    for cls, prev_vec in previous.items():
        batch_vec = batch.get(cls)
        if batch_vec is None:
            out[cls] = prev_vec.copy()
        else:
            out[cls] = momentum * prev_vec + (1.0 - momentum) * batch_vec
    for cls, batch_vec in batch.items():
        if cls not in out:
            out[cls] = batch_vec.copy()
    return out


def replay_local_prototypes(
    previous: PrototypeSet, batches: list[tuple[np.ndarray, np.ndarray]], momentum: float
) -> PrototypeSet:
    """``previous`` after one ``build_local_prototypes`` and one
    ``momentum_update`` per batch of (reps, classes), in order, skipping a
    batch with no rows: the per-step smoothing training did before it
    smoothed once per epoch."""
    for reps, classes in batches:
        if len(reps):
            previous = momentum_update(previous, build_local_prototypes(reps, classes), momentum)
    return previous


def reference_aggregate(
    payloads: list[PrototypePayload], mode: str
) -> tuple[dict[int, np.ndarray], dict[int, list[tuple[int, float]]]]:
    """Per class, renormalize the reporters' weights and sum their vectors in
    float64, in ascending client id. Returns the vectors and, per class, the
    (client id, weight) pairs."""
    payloads = sorted(payloads, key=lambda p: p.client_id)
    sets = [vectors(p.prototypes) for p in payloads]
    dim = payloads[0].prototypes.dim
    base_weights = _client_weights([p.val_f1 for p in payloads], mode)
    out: dict[int, np.ndarray] = {}
    class_weights: dict[int, list[tuple[int, float]]] = {}
    for cls in sorted({c for s in sets for c in s}):
        reporters = [i for i, s in enumerate(sets) if cls in s]
        sub = [base_weights[i] for i in reporters]
        sub_total = sum(sub)
        if sub_total == 0.0:
            sub = [1.0 / len(reporters)] * len(reporters)
        else:
            sub = [w / sub_total for w in sub]
        vec = np.zeros(dim, dtype=np.float64)
        for w, i in zip(sub, reporters):
            vec += w * sets[i][cls].astype(np.float64)
        out[cls] = vec
        class_weights[cls] = [(payloads[i].client_id, w) for i, w in zip(reporters, sub)]
    return out, class_weights


def reference_similarity(payloads: list[PrototypePayload]) -> np.ndarray:
    """Per client pair, the mean float64 cosine over the shared classes."""
    n = len(payloads)
    sets = [
        {c: v.astype(np.float64) for c, v in vectors(p.prototypes).items()} for p in payloads
    ]
    matrix = np.eye(n, dtype=np.float64)
    for k in range(n):
        for l in range(k + 1, n):
            shared = sorted(set(sets[k]) & set(sets[l]))
            if not shared:
                raise ValueError("no shared classes")
            value = float(np.mean([safe_cosine(sets[k][c], sets[l][c]) for c in shared]))
            matrix[k, l] = matrix[l, k] = value
    return matrix


def payload_to_json(payload: PrototypePayload) -> str:
    """Debug mirror of the binary format."""
    return json.dumps(
        {
            "client": payload.client_id,
            "round": payload.round_index,
            "val_f1": payload.val_f1,
            "dim": payload.prototypes.dim,
            "classes": {
                str(c): [float(x) for x in vec] for c, vec in vectors(payload.prototypes).items()
            },
        }
    )


def payload_from_json(text: str) -> PrototypePayload:
    data = json.loads(text)
    rows = {int(c): np.asarray(vals, dtype=np.float32) for c, vals in data["classes"].items()}
    protos = PrototypeSet(int(data["dim"]), rows)
    return PrototypePayload(int(data["client"]), int(data["round"]), float(data["val_f1"]), protos)
