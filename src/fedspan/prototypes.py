"""Class-level prototypes and the payload that crosses the client/server wire.

A prototype is the mean representation of the spans assigned to one composite
tag class. Clients smooth their prototypes with an exponential moving average
over training batches, regularize span representations against the broadcast
global prototypes (cosine alignment/separation), and upload a compact binary
payload instead of model weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .tagging import NUM_CLASSES


class PayloadError(ValueError):
    pass


class PrototypeSet:
    """Class prototypes as one ``(NUM_CLASSES, dim)`` ``matrix`` plus a boolean
    ``present`` mask; rows of classes never observed are zero.

    ``PrototypeSet(dim, {cls: vector})`` converts a mapping once; everything
    else builds sets from arrays with ``from_arrays``.
    """

    def __init__(self, dim: int, vectors: Mapping[int, np.ndarray] = {}):
        classes = np.fromiter(vectors, dtype=np.intp, count=len(vectors))
        rows = [np.asarray(v) for v in vectors.values()]
        if len(classes) and (classes.min() < 0 or classes.max() >= NUM_CLASSES):
            raise ValueError("class index out of range")
        self.matrix = np.zeros((NUM_CLASSES, dim), dtype=np.result_type(1.0, *rows))
        if rows:
            self.matrix[classes] = rows
        self.present = np.zeros(NUM_CLASSES, dtype=bool)
        self.present[classes] = True

    @classmethod
    def from_arrays(cls, matrix: np.ndarray, present: np.ndarray) -> "PrototypeSet":
        if matrix.ndim != 2 or (len(matrix), present.shape) != (NUM_CLASSES, (NUM_CLASSES,)):
            raise ValueError(f"bad prototype layout {matrix.shape}, mask {present.shape}")
        out = cls.__new__(cls)
        out.matrix, out.present = matrix, present
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def float_count(self) -> int:
        return int(self.present.sum()) * self.dim


def _group_means(reps: np.ndarray, keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the rows of ``reps`` per key in ``range(n_keys)``, in the dtype
    of ``reps``, and which keys have rows. Each key's rows are summed in
    order from +0.0 and divided in float64."""
    sums = np.zeros((n_keys, reps.shape[1]), dtype=reps.dtype)
    np.add.at(sums, keys, reps)
    counts = np.bincount(keys, minlength=n_keys)
    return (sums / np.maximum(counts, 1.0)[:, None]).astype(reps.dtype), counts > 0


def build_local_prototypes(reps: np.ndarray, classes: np.ndarray) -> PrototypeSet:
    """Group-by-class mean of span representations, in the dtype of ``reps``.

    Rows are summed in order from +0.0 and divided in float64: bit for bit
    what ``reps[classes == c].mean(axis=0)`` gives once ``dim >= 2``.
    """
    reps = np.asarray(reps)
    classes = np.asarray(classes)
    if reps.ndim != 2:
        raise ValueError(f"reps must be (n, dim), got shape {reps.shape}")
    if reps.shape[0] != classes.shape[0]:
        raise ValueError(f"{reps.shape[0]} reps but {classes.shape[0]} class labels")
    if len(classes) and (classes.min() < 0 or classes.max() >= NUM_CLASSES):
        raise ValueError("class index out of range")
    return PrototypeSet.from_arrays(*_group_means(reps, classes, NUM_CLASSES))


def momentum_update(previous: PrototypeSet, batch: PrototypeSet, momentum: float) -> PrototypeSet:
    """Blend ``momentum * previous + (1 - momentum) * batch`` per class.

    Classes only in the batch are adopted as-is; classes only in the previous
    set are carried forward unchanged. The result has the dtype both sets
    share, so the empty starting set must already have the model's dtype.
    """
    if previous.dim != batch.dim:
        raise ValueError(f"dimension mismatch: {previous.dim} vs {batch.dim}")
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    adopted = np.where(batch.present[:, None], batch.matrix, previous.matrix)
    both = (previous.present & batch.present)[:, None]
    matrix = np.where(both, momentum * previous.matrix + (1.0 - momentum) * batch.matrix, adopted)
    return PrototypeSet.from_arrays(matrix, previous.present | batch.present)


def smooth_prototypes(
    previous: PrototypeSet, reps: Sequence[np.ndarray], classes: Sequence[np.ndarray], momentum: float
) -> PrototypeSet:
    """``previous`` after ``momentum_update`` with ``build_local_prototypes``
    of each batch's ``reps`` and ``classes`` in turn, skipping batches with
    no rows: the same bits, with every batch's class means taken in one
    scatter over (batch, class) keys. ``previous``' arrays are not written.
    """
    sizes = [len(r) for r in reps]
    keys = np.repeat(np.arange(len(sizes)) * NUM_CLASSES, sizes) + np.concatenate(classes)
    means, present = _group_means(np.concatenate(reps), keys, len(sizes) * NUM_CLASSES)
    for b in np.flatnonzero(sizes):
        rows = slice(b * NUM_CLASSES, (b + 1) * NUM_CLASSES)
        previous = momentum_update(previous, PrototypeSet.from_arrays(means[rows], present[rows]), momentum)
    return previous


@dataclass(frozen=True, eq=False)
class PrototypePayload:
    """The only object crossing the client/server boundary, checked when built."""

    client_id: int
    round_index: int
    val_f1: float
    prototypes: PrototypeSet

    def __post_init__(self) -> None:
        if not 0.0 <= self.val_f1 <= 1.0:  # NaN fails too
            raise PayloadError(f"validation F1 out of range: {self.val_f1}")

    def float_count(self) -> int:
        return self.prototypes.float_count()


def make_payload(
    client_id: int, round_index: int, val_f1: float, prototypes: PrototypeSet
) -> PrototypePayload:
    """Build a payload at wire precision (float32) so codec round-trips exactly."""
    if not 0.0 <= val_f1 <= 1.0:  # as given: float32 rounding can bring it into range
        raise PayloadError(f"validation F1 out of range: {val_f1}")
    snapped = PrototypeSet.from_arrays(
        prototypes.matrix.astype(np.float32), prototypes.present.copy()
    )
    return PrototypePayload(client_id, round_index, float(np.float32(val_f1)), snapped)


PAYLOAD_MAGIC = b"PROT"
PAYLOAD_VERSION = 1
_HEADER = struct.Struct("<4sHIIfHH")  # magic, version, client, round, f1, classes, dim


def _entry_dtype(dim: int) -> np.dtype:
    """One wire entry per present class: its index, then its little-endian float32 row."""
    return np.dtype([("cls", "u1"), ("vec", "<f4", (dim,))])


def _first_non_finite(classes: np.ndarray, rows: np.ndarray) -> None:
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise PayloadError(f"class {classes[bad][0]} vector contains non-finite values")


def encode_payload(payload: PrototypePayload) -> bytes:
    protos = payload.prototypes
    classes = np.flatnonzero(protos.present)
    entries = np.empty(len(classes), dtype=_entry_dtype(protos.dim))
    entries["cls"] = classes
    entries["vec"] = protos.matrix[classes]
    _first_non_finite(classes, entries["vec"])
    header = _HEADER.pack(
        PAYLOAD_MAGIC,
        PAYLOAD_VERSION,
        payload.client_id,
        payload.round_index,
        payload.val_f1,
        len(classes),
        protos.dim,
    )
    return header + entries.tobytes()


def decode_payload(blob: bytes) -> PrototypePayload:
    if len(blob) < _HEADER.size:
        raise PayloadError("payload truncated before header")
    magic, version, client_id, round_index, val_f1, n_classes, dim = _HEADER.unpack_from(blob)
    if magic != PAYLOAD_MAGIC:
        raise PayloadError("bad payload magic")
    if version != PAYLOAD_VERSION:
        raise PayloadError(f"unsupported payload version {version}")
    entry = _entry_dtype(dim)
    expected = _HEADER.size + n_classes * entry.itemsize
    if len(blob) != expected:
        raise PayloadError(f"payload has {len(blob)} bytes, expected {expected}")
    entries = np.frombuffer(blob, dtype=entry, count=n_classes, offset=_HEADER.size)
    classes = entries["cls"]
    if n_classes and classes.max() >= NUM_CLASSES:
        raise PayloadError(f"class index {classes.max()} out of range")
    counts = np.bincount(classes, minlength=NUM_CLASSES)
    if counts.max() > 1:
        raise PayloadError(f"duplicate class {counts.argmax()} in payload")
    _first_non_finite(classes, entries["vec"])
    matrix = np.zeros((NUM_CLASSES, dim), dtype=np.float32)
    matrix[classes] = entries["vec"]
    protos = PrototypeSet.from_arrays(matrix, counts > 0)
    return PrototypePayload(client_id, round_index, val_f1, protos)
