"""Scalar reference forms of the prototype losses and a JSON mirror of the
payload codec.

The training path computes the prototype terms batched inside
``fedspan.encoder.batch_gradients``; these per-span loops state the same
definitions one span at a time so tests can check properties (bounds, scale
invariance, hand arithmetic) against them.
"""

import json
import math

import numpy as np

from fedspan.prototypes import PrototypePayload, PrototypeSet, safe_cosine


def align_loss(rep: np.ndarray, prototype: np.ndarray) -> float:
    """Negative cosine between a span representation and its class prototype."""
    return -safe_cosine(rep, prototype)


def sep_loss(rep: np.ndarray, prototypes: PrototypeSet, label: int) -> float:
    """log-sum-exp of cosines to every *other* present class prototype."""
    others = [c for c in prototypes.classes() if c != label]
    if not others:
        return 0.0
    return float(
        math.log(sum(math.exp(safe_cosine(rep, prototypes.vectors[c])) for c in others))
    )


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
        align = align_loss(rep, prototypes.vectors[label]) if prototypes.present(label) else 0.0
        total += align_weight * align + sep_weight * sep_loss(rep, prototypes, label)
    return total / reps.shape[0]


def payload_to_json(payload: PrototypePayload) -> str:
    """Debug mirror of the binary format."""
    return json.dumps(
        {
            "client": payload.client_id,
            "round": payload.round_index,
            "val_f1": payload.val_f1,
            "dim": payload.prototypes.dim,
            "classes": {
                str(c): [float(x) for x in payload.prototypes.vectors[c]]
                for c in payload.prototypes.classes()
            },
        }
    )


def payload_from_json(text: str) -> PrototypePayload:
    data = json.loads(text)
    vectors = {
        int(c): np.asarray(vals, dtype=np.float32) for c, vals in data["classes"].items()
    }
    protos = PrototypeSet(int(data["dim"]), vectors, int(data["round"]))
    return PrototypePayload(int(data["client"]), int(data["round"]), float(data["val_f1"]), protos)
