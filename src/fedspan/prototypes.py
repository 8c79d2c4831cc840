"""Class-level prototypes and the payload that crosses the client/server wire.

A prototype is the mean representation of the spans assigned to one composite
tag class. Clients smooth their prototypes with an exponential moving average
over training batches, regularize span representations against the broadcast
global prototypes (cosine alignment/separation), and upload a compact binary
payload instead of model weights.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .tagging import NUM_CLASSES

logger = logging.getLogger(__name__)


class PayloadError(ValueError):
    pass


@dataclass(eq=False)
class PrototypeSet:
    """Per-class vectors; classes never observed carry no vector."""

    dim: int
    vectors: dict[int, np.ndarray] = field(default_factory=dict)
    round_index: int = 0

    def present(self, cls: int) -> bool:
        return cls in self.vectors

    def classes(self) -> list[int]:
        return sorted(self.vectors)

    def float_count(self) -> int:
        return len(self.vectors) * self.dim

    def copy(self) -> "PrototypeSet":
        return PrototypeSet(
            self.dim, {c: v.copy() for c, v in self.vectors.items()}, self.round_index
        )

    def as_arrays(self, num_classes: int = NUM_CLASSES) -> tuple[np.ndarray, np.ndarray]:
        """(num_classes, dim) matrix plus a presence mask; absent rows are zero."""
        matrix = np.zeros((num_classes, self.dim), dtype=np.float64)
        present = np.zeros(num_classes, dtype=bool)
        for cls, vec in self.vectors.items():
            matrix[cls] = vec
            present[cls] = True
        return matrix, present


def build_local_prototypes(reps: np.ndarray, classes: np.ndarray) -> PrototypeSet:
    """Group-by-class mean of span representations."""
    reps = np.asarray(reps)
    classes = np.asarray(classes)
    if reps.ndim != 2:
        raise ValueError(f"reps must be (n, dim), got shape {reps.shape}")
    if reps.shape[0] != classes.shape[0]:
        raise ValueError(f"{reps.shape[0]} reps but {classes.shape[0]} class labels")
    if len(classes) and (classes.min() < 0 or classes.max() >= NUM_CLASSES):
        raise ValueError("class index out of range")
    vectors = {}
    for cls in np.unique(classes):
        vectors[int(cls)] = reps[classes == cls].mean(axis=0)
    return PrototypeSet(reps.shape[1], vectors)


def momentum_update(previous: PrototypeSet, batch: PrototypeSet, momentum: float) -> PrototypeSet:
    """Blend ``momentum * previous + (1 - momentum) * batch`` per class.

    Classes only in the batch are adopted as-is; classes only in the previous
    set are carried forward unchanged.
    """
    if previous.dim != batch.dim:
        raise ValueError(f"dimension mismatch: {previous.dim} vs {batch.dim}")
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    vectors: dict[int, np.ndarray] = {}
    for cls, prev_vec in previous.vectors.items():
        batch_vec = batch.vectors.get(cls)
        if batch_vec is None:
            vectors[cls] = prev_vec.copy()
        else:
            vectors[cls] = momentum * prev_vec + (1.0 - momentum) * batch_vec
    for cls, batch_vec in batch.vectors.items():
        if cls not in vectors:
            vectors[cls] = batch_vec.copy()
    return PrototypeSet(previous.dim, vectors, batch.round_index)


def safe_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector has zero norm."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        logger.debug("cosine against zero-norm vector treated as 0")
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


@dataclass(frozen=True, eq=False)
class PrototypePayload:
    """The only object crossing the client/server boundary."""

    client_id: int
    round_index: int
    val_f1: float
    prototypes: PrototypeSet

    def float_count(self) -> int:
        return self.prototypes.float_count()


def make_payload(
    client_id: int, round_index: int, val_f1: float, prototypes: PrototypeSet
) -> PrototypePayload:
    """Build a payload at wire precision (float32) so codec round-trips exactly."""
    if not 0.0 <= val_f1 <= 1.0:
        raise PayloadError(f"validation F1 out of range: {val_f1}")
    snapped = PrototypeSet(
        prototypes.dim,
        {c: np.asarray(v, dtype=np.float32) for c, v in prototypes.vectors.items()},
        round_index,
    )
    return PrototypePayload(client_id, round_index, float(np.float32(val_f1)), snapped)


PAYLOAD_MAGIC = b"PROT"
PAYLOAD_VERSION = 1
_HEADER = struct.Struct("<4sHIIfHH")  # magic, version, client, round, f1, classes, dim


def encode_payload(payload: PrototypePayload) -> bytes:
    protos = payload.prototypes
    if not 0.0 <= payload.val_f1 <= 1.0:
        raise PayloadError(f"validation F1 out of range: {payload.val_f1}")
    parts = [
        _HEADER.pack(
            PAYLOAD_MAGIC,
            PAYLOAD_VERSION,
            payload.client_id,
            payload.round_index,
            payload.val_f1,
            len(protos.vectors),
            protos.dim,
        )
    ]
    for cls in protos.classes():
        vec = np.asarray(protos.vectors[cls])
        if vec.shape != (protos.dim,):
            raise PayloadError(f"class {cls} vector has shape {vec.shape}, expected ({protos.dim},)")
        if not np.all(np.isfinite(vec)):
            raise PayloadError(f"class {cls} vector contains non-finite values")
        parts.append(struct.pack("<B", cls))
        parts.append(np.ascontiguousarray(vec, dtype="<f4").tobytes())
    return b"".join(parts)


def decode_payload(blob: bytes) -> PrototypePayload:
    if len(blob) < _HEADER.size:
        raise PayloadError("payload truncated before header")
    magic, version, client_id, round_index, val_f1, n_classes, dim = _HEADER.unpack_from(blob)
    if magic != PAYLOAD_MAGIC:
        raise PayloadError("bad payload magic")
    if version != PAYLOAD_VERSION:
        raise PayloadError(f"unsupported payload version {version}")
    if not 0.0 <= val_f1 <= 1.0 or not math.isfinite(val_f1):
        raise PayloadError(f"validation F1 out of range: {val_f1}")
    entry_size = 1 + 4 * dim
    expected = _HEADER.size + n_classes * entry_size
    if len(blob) != expected:
        raise PayloadError(f"payload has {len(blob)} bytes, expected {expected}")
    vectors: dict[int, np.ndarray] = {}
    offset = _HEADER.size
    for _ in range(n_classes):
        (cls,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        vec = np.frombuffer(blob, dtype="<f4", count=dim, offset=offset).copy()
        offset += 4 * dim
        if cls >= NUM_CLASSES:
            raise PayloadError(f"class index {cls} out of range")
        if cls in vectors:
            raise PayloadError(f"duplicate class {cls} in payload")
        if not np.all(np.isfinite(vec)):
            raise PayloadError(f"class {cls} vector contains non-finite values")
        vectors[cls] = vec
    protos = PrototypeSet(dim, vectors, round_index)
    return PrototypePayload(client_id, round_index, val_f1, protos)
