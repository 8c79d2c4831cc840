"""Small trainable span encoder with hand-derived analytic gradients.

The network stands in for a pretrained transformer at desk scale:

* words split into fixed-size character chunks, hashed into an embedding table
* a window-3 linear layer contextualizes the chunk sequence
* each word vector is the mean of its contextualized chunk vectors
* span vectors are attention-weighted sums of their word vectors, projected
  to a low-dimensional representation used both for the 16-way span-tag
  softmax and for prototype construction/regularization

The word vectors of a batch of sentences are computed packed end to end
(``encode_words``), all but the window layer's product, which runs one
sentence at a time (``forward_sentence``); the spans are scored in one
packed pass (``score_spans``). ``batch_gradients`` reads what does not
depend on the weights (layouts, targets, the embedding scatter index, the
prototype term's constants) from a ``BatchPlan``, and the optimizer steps
update the parameters in place.

``EncoderParams`` owns the parameter layout, for parameters, gradients and
Adam moments alike: ``embed`` and ``dense``, one flat array of the other
blocks in ``DENSE`` order, whose blocks its constructor makes views of.
The optimizer steps, the finite check and the checkpoint work on ``dense``
whole. A ``GradientBundle`` holds only the embedding rows its batch touched.

Everything is plain numpy. The backward pass is exact and is checked against
central finite differences in the test suite; training runs in float32,
gradient checks in float64.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
import types
import typing
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Annotated, Literal, Sequence

import numpy as np

from .prototypes import PrototypeSet
from .tagging import NUM_CLASSES, span_layout

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """A loss or gradient went non-finite."""


class CheckpointError(ValueError):
    pass


class ConfigError(ValueError):
    """A hyperparameter of the wrong type or out of range."""


def _has_type(value, kind) -> bool:
    """``isinstance`` against a field annotation; an int is a valid float,
    a bool is not an int."""
    if isinstance(kind, types.UnionType):
        return any(_has_type(value, k) for k in typing.get_args(kind))
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (
            isinstance(value, tuple) and len(value) == len(args) and all(map(_has_type, value, args))
        )
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class Range:
    """A numeric field's allowed values, as in ``Annotated[int, Range(1)]``:
    finite and in ``[low, high]``, or in ``(low, high]`` when ``open_low``."""

    low: float
    high: float = math.inf
    open_low: bool = False

    def __contains__(self, value: float) -> bool:
        above = self.low < value if self.open_low else self.low <= value
        return above and value <= self.high and value != math.inf  # NaN fails every comparison

    def __str__(self) -> str:
        right = "]" if self.high < math.inf else ")"
        return f"{'(' if self.open_low else '['}{self.low}, {self.high}{right}"


def check_fields(obj, error: type[Exception]) -> None:
    """Check every field of the dataclass ``obj`` against its annotation:
    its type, a ``Literal``'s choices, a ``Range``. The first that fails
    raises ``error`` naming the field."""
    for name, hint in typing.get_type_hints(type(obj), include_extras=True).items():
        value = getattr(obj, name)
        kind, *marks = typing.get_args(hint) if typing.get_origin(hint) is Annotated else [hint]
        choices = typing.get_args(kind) if typing.get_origin(kind) is Literal else ()
        kind = type(choices[0]) if choices else kind
        if not _has_type(value, kind):
            kind_name = getattr(kind, "__name__", kind)
            raise error(f"{name} must be of type {kind_name}, got {value!r}")
        if choices and value not in choices:
            raise error(f"{name} must be one of {choices}, got {value!r}")
        for mark in marks:  # None and seed tuples are the type check's
            if isinstance(value, (int, float)) and value not in mark:
                raise error(f"{name} must be in {mark}, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    # Checkpoint headers store vocab_size and hash_seed as uint32, the rest as uint16.
    vocab_size: Annotated[int, Range(1, 2**32 - 1)] = 2048
    embed_dim: Annotated[int, Range(1, 2**16 - 1)] = 32
    hidden_dim: Annotated[int, Range(1, 2**16 - 1)] = 32
    rep_dim: Annotated[int, Range(1, 2**16 - 1)] = 16
    chunk_size: Annotated[int, Range(1, 2**16 - 1)] = 4
    hash_seed: Annotated[int, Range(0, 2**32 - 1)] = 0
    l_max: Annotated[int, Range(1, 2**16 - 1)] = 10
    precision: Literal["float32", "float64"] = "float32"

    def validate(self) -> None:
        """Check every field, subclass fields included, with
        ``check_fields``."""
        check_fields(self, ConfigError)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.precision)

    def block_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of each parameter block, in ``EncoderParams.BLOCKS``
        order."""
        d_e, d_h, d_z = self.embed_dim, self.hidden_dim, self.rep_dim
        return {
            "embed": (self.vocab_size, d_e),
            "w_ctx": (d_h, 3 * d_e),
            "b_ctx": (d_h,),
            "w_attn": (d_h,),
            "w_proj": (d_z, d_h),
            "b_proj": (d_z,),
            "w_cls": (NUM_CLASSES, d_z),
            "b_cls": (NUM_CLASSES,),
        }

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.block_shapes().values())


def split_subwords(word: str, chunk_size: int) -> list[str]:
    """Split a word into fixed-size character chunks (last may be shorter)."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [word[i : i + chunk_size] for i in range(0, len(word), chunk_size)]


@dataclass(eq=False, slots=True)
class Tokenization:
    """Hashed chunk ids plus word boundaries for one sentence. Its arrays
    are read-only: ``Tokenizer`` hands the same object to every caller."""

    n_words: int
    subword_ids: np.ndarray  # (m,) int64
    word_offsets: np.ndarray  # (n_words + 1,) int64, word i owns [off[i], off[i+1])
    word_sizes: np.ndarray = field(init=False)  # (n_words,) chunks per word

    def __post_init__(self) -> None:
        self.word_sizes = self.word_offsets[1:] - self.word_offsets[:-1]
        for arr in (self.subword_ids, self.word_offsets, self.word_sizes):
            arr.setflags(write=False)


class _TokenCache:
    """Word ids and sentence tokenizations of one tokenizer setting."""

    __slots__ = ("words", "sentences", "__weakref__")

    def __init__(self) -> None:
        self.words: dict[str, tuple[int, ...]] = {}
        self.sentences: dict[tuple[str, ...], Tokenization] = {}


# One cache per (vocab_size, chunk_size, hash_seed), shared by the tokenizers
# alive with that setting: every entry is a pure function of the setting, and
# federated clients share it, so they score the same sentences from one copy.
_TOKEN_CACHES: weakref.WeakValueDictionary[tuple[int, int, int], _TokenCache] = (
    weakref.WeakValueDictionary()
)


class Tokenizer:
    """Deterministic chunking + keyed-hash vocabulary lookup, cached per
    word and per sentence."""

    def __init__(self, vocab_size: int, chunk_size: int, hash_seed: int = 0):
        self.vocab_size = vocab_size
        self.chunk_size = chunk_size
        self.hash_seed = hash_seed
        self._key = hash_seed.to_bytes(8, "little", signed=False)
        self._cache = _TOKEN_CACHES.setdefault((vocab_size, chunk_size, hash_seed), _TokenCache())

    def subword_id(self, subword: str) -> int:
        digest = hashlib.blake2b(subword.encode("utf-8"), digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "little") % self.vocab_size

    def _hash_word(self, word: str) -> tuple[int, ...]:
        if not word:
            raise ValueError("cannot tokenize an empty token")
        ids = tuple(self.subword_id(sub) for sub in split_subwords(word, self.chunk_size))
        self._cache.words[word] = ids
        return ids

    def tokenize(self, tokens: Sequence[str]) -> Tokenization:
        """The sentence's ``Tokenization``, built once per distinct token
        sequence; list and tuple input share it."""
        if not tokens:
            raise ValueError("cannot tokenize an empty sentence")
        key = tuple(tokens)
        tok = self._cache.sentences.get(key)
        if tok is not None:
            return tok
        words = self._cache.words
        ids: list[int] = []
        offsets = [0]
        for word in key:
            word_ids = words.get(word)
            ids.extend(self._hash_word(word) if word_ids is None else word_ids)
            offsets.append(len(ids))
        tok = Tokenization(
            len(key),
            np.asarray(ids, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
        )
        self._cache.sentences[key] = tok
        return tok


class EncoderParams:
    """All trainable arrays, in ``EncoderConfig.block_shapes``; also the
    container for Adam moments and, with a compact ``embed``, gradients.

    ``dense`` holds every block but the embedding table end to end, in
    ``DENSE`` order and ``dense_shapes``, and the seven dense block
    attributes are views of it: the constructor makes them, so every
    instance has them, and a flat operation on ``dense`` updates all seven
    at once. Write the blocks in place; rebinding one would detach it from
    ``dense``.
    """

    BLOCKS = ("embed", "w_ctx", "b_ctx", "w_attn", "w_proj", "b_proj", "w_cls", "b_cls")
    DENSE = BLOCKS[1:]  # every block but the embedding table
    KIND = "parameter"  # what ``check_finite`` calls a value

    def __init__(self, embed: np.ndarray, dense: np.ndarray, dense_shapes: tuple):
        self.embed = embed
        self.dense = dense
        self.dense_shapes = dense_shapes
        pos = 0
        for name, shape in zip(self.DENSE, dense_shapes, strict=True):
            size = math.prod(shape)
            setattr(self, name, dense[pos : pos + size].reshape(shape))
            pos += size
        if pos != dense.size:
            raise ValueError(f"dense buffer has {dense.size} values, the blocks take {pos}")

    def blocks(self):
        for name in self.BLOCKS:
            yield name, getattr(self, name)

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int) -> "EncoderParams":
        """Unit-normal embeddings, matrices normal with variance 1/fan-in, and
        zero vectors. Attention starts at zero (uniform pooling): concentrated
        attention early on makes wide spans collapse onto their argmax word
        and the softmax corner is hard to leave once entered."""
        rng = np.random.default_rng(seed)
        shapes = config.block_shapes()
        embed = rng.normal(0.0, 1.0, shapes.pop("embed")).astype(config.dtype)
        dense = np.zeros(config.param_count() - embed.size, dtype=config.dtype)
        params = cls(embed, dense, tuple(shapes.values()))
        for name, shape in shapes.items():
            if len(shape) == 2:
                getattr(params, name)[:] = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), shape)
        return params

    @classmethod
    def zeros_like(cls, other: "EncoderParams") -> "EncoderParams":
        return cls(np.zeros_like(other.embed), np.zeros_like(other.dense), other.dense_shapes)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embed.copy(), self.dense.copy(), self.dense_shapes)

    def astype(self, dtype) -> "EncoderParams":
        return EncoderParams(self.embed.astype(dtype), self.dense.astype(dtype), self.dense_shapes)

    def param_count(self) -> int:
        return self.embed.size + self.dense.size

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.embed.ravel(), self.dense])

    def check_finite(self, what: str | None = None) -> None:
        """Raise ``TrainingDivergedError`` naming the block of a non-finite
        value; the blocks are looked at one by one only on failure."""
        if not (np.isfinite(self.embed).all() and np.isfinite(self.dense).all()):
            name = next(n for n, arr in self.blocks() if not np.isfinite(arr).all())
            raise TrainingDivergedError(f"non-finite {what or self.KIND} in block {name!r}")


class GradientBundle(EncoderParams):
    """Gradients; ``embed`` holds only the rows the batch touched, row i for
    embedding row ``embed_rows[i]`` (the batch's sorted unique chunk ids)."""

    KIND = "gradient"

    def __init__(self, embed, dense, dense_shapes, embed_rows: np.ndarray):
        super().__init__(embed, dense, dense_shapes)
        self.embed_rows = embed_rows


@dataclass(eq=False)
class ChunkLayout:
    """Where the chunks of a batch of sentences sit, packed end to end:
    sentence i owns chunk rows ``bounds[i]:bounds[i + 1]``."""

    ids: np.ndarray  # (M,) chunk ids
    bounds: np.ndarray  # (n_b + 1,) first chunk of each sentence, then M
    word_starts: np.ndarray  # (N,) first chunk of each word
    word_sizes: np.ndarray  # (N,) chunks per word
    word_size_col: np.ndarray  # (N, 1) ``word_sizes`` in the model's dtype

    @classmethod
    def build(cls, toks: Sequence[Tokenization], dtype) -> "ChunkLayout":
        ids = np.concatenate([tok.subword_ids for tok in toks])
        bounds = np.cumsum([0, *(len(tok.subword_ids) for tok in toks)])
        word_sizes = np.concatenate([tok.word_sizes for tok in toks])
        word_starts = np.cumsum(word_sizes)
        word_starts -= word_sizes
        return cls(ids, bounds, word_starts, word_sizes, word_sizes[:, None].astype(dtype))


@lru_cache(maxsize=1024)
def _gather_layout(n: int, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, l_max) word index of each span's slots, clipped to the sentence,
    and the mask of the slots inside the span. Slots past the sentence pad
    every row to ``l_max``. Cached and read-only."""
    starts, ends, _ = span_layout(n, l_max)
    pos = starts[:, None] + np.arange(l_max)
    mask = pos <= ends[:, None]
    np.minimum(pos, n - 1, out=pos)
    pos.setflags(write=False)
    mask.setflags(write=False)
    return pos, mask


@lru_cache(maxsize=1024)
def _window_layout(n: int, l_max: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the spans go in an (n * width, width) grid of attention rows,
    one (width, width) block per start word, row k for its span of k + 1
    words. Returns the span row that fills each grid row, the word's widest
    span for rows past it, and the grid row of each span. Cached and
    read-only."""
    starts, ends, offsets = span_layout(n, l_max)
    last = np.minimum(np.arange(width), (offsets[1:] - offsets[:-1] - 1)[:, None])
    rows = (offsets[:-1, None] + last).ravel()
    slots = starts * width + (ends - starts)
    rows.setflags(write=False)
    slots.setflags(write=False)
    return rows, slots


def _row_max(a: np.ndarray) -> np.ndarray:
    """(rows, 1) maxima of a 2-D array.

    numpy reduces along a short contiguous axis one row at a time; over the
    first axis of a transposed copy it compares whole rows at once. The
    maximum is exact, so the order of comparisons does not matter.
    """
    return np.ascontiguousarray(a.T).max(axis=0)[:, None]


def forward_sentence(params: EncoderParams, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The window-3 layer's product for one sentence, ``x @ w_ctx.T`` into
    ``out``: ``x`` and ``out`` are the sentence's rows of the packed window
    input and output.

    Everything around this product runs packed (``encode_words``); the
    product stays per sentence for two reasons. BLAS picks its kernel by
    row count, so one product over the packed batch sums in another order
    and changes the bits of every record. And the benchmark (``perfbench``)
    traces this function once per sentence.
    """
    return np.matmul(x, params.w_ctx.T, out=out)


def encode_words(params: EncoderParams, chunks: ChunkLayout) -> tuple[np.ndarray, np.ndarray]:
    """Window input and word vectors of a batch of sentences, packed end to
    end: the chunk embeddings through the window-3 layer, with zero padding
    at each sentence's boundaries, then the mean over each word's chunks.

    Returns the (M, 3 * embed_dim) window input, which the backward pass
    reads, and the (N, hidden_dim) word vectors. Only the product runs per
    sentence (``forward_sentence``); the gather, the window, the bias and
    the mean are elementwise or sum over each word's own chunks, so every
    sentence gets the bytes it gets alone.
    """
    d_e = params.embed.shape[1]
    sub = params.embed.take(chunks.ids, axis=0)
    x = np.empty((len(sub), 3 * d_e), dtype=sub.dtype)
    x[:, d_e : 2 * d_e] = sub
    x[1:, :d_e] = sub[:-1]
    x[:-1, 2 * d_e :] = sub[1:]
    x[chunks.bounds[:-1], :d_e] = 0.0
    x[chunks.bounds[1:] - 1, 2 * d_e :] = 0.0
    h_sub = np.empty((len(x), params.w_ctx.shape[0]), dtype=x.dtype)
    bounds = chunks.bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        forward_sentence(params, x[lo:hi], h_sub[lo:hi])
    h_sub += params.b_ctx
    word_vecs = np.add.reduceat(h_sub, chunks.word_starts, axis=0)
    word_vecs /= chunks.word_size_col
    return x, word_vecs


@dataclass(eq=False)
class SpanScores:
    """Span-level activations of a batch of sentences, packed end to end.

    Spans follow each other in sentence order, each sentence in
    ``enumerate_spans`` order. Every span has ``width`` attention slots: the
    longest span of the batch, the rest masked out.
    """

    span_counts: list[int]  # spans per sentence
    word_vecs: np.ndarray  # (N, hidden_dim) the sentences' word vectors
    word_reps: np.ndarray  # (N, rep_dim) word_vecs @ w_proj.T
    pos: np.ndarray  # (S, width) batch word index of each slot, clipped to its sentence
    mask: np.ndarray  # (S, width)
    alpha: np.ndarray  # (S, width) attention, zero outside mask
    reps: np.ndarray  # (S, rep_dim)
    logits: np.ndarray  # (S, NUM_CLASSES)

    @property
    def width(self) -> int:
        return self.pos.shape[1]


def _gather_batch(word_counts: Sequence[int], l_max: int, windows: bool = False) -> tuple:
    """Span counts, ``SpanScores.pos`` and ``mask`` of sentences of these
    sizes. With ``windows``, also what ``score_spans`` pools each start
    word's spans with: the word's window (the ``pos`` row its spans share),
    and the grid rows and slots of ``_window_layout``, offset to the batch."""
    width = min(l_max, max(word_counts))
    layouts = [_gather_layout(n, l_max) for n in word_counts]
    span_counts = [len(pos) for pos, _ in layouts]
    span_word_offsets = np.repeat(_offsets(word_counts), span_counts)
    pos = np.concatenate([pos[:, :width] for pos, _ in layouts])
    pos += span_word_offsets[:, None]
    mask = np.concatenate([mask[:, :width] for _, mask in layouts])
    if not windows:
        return span_counts, pos, mask
    grids = [_window_layout(n, l_max, width) for n in word_counts]
    rows = np.concatenate([grid_rows for grid_rows, _ in grids])
    rows += np.repeat(_offsets(span_counts), [n * width for n in word_counts])
    slots = np.concatenate([grid_slots for _, grid_slots in grids])
    slots += span_word_offsets * width
    return span_counts, pos, mask, pos.take(rows[::width], axis=0), rows, slots


def score_spans(params: EncoderParams, word_vecs: np.ndarray, layout: tuple) -> SpanScores:
    """Attention pooling, projection and classifier logits for every span of
    a batch of sentences, in one pass, from their packed word vectors
    (``encode_words``); ``layout`` is their ``_gather_batch``.

    Pooling runs in projected space, on ``word_vecs @ w_proj.T``: it is the
    same linear map applied before the attention-weighted sum instead of
    after it, and the rows it gathers are rep_dim wide instead of hidden_dim.
    A layout without windows pools each span over its own gathered copy of
    its window. A layout with windows gathers each start word's window once
    and pools all of that word's spans in one (width, width) @ (width,
    rep_dim) product, their attention rows set in a grid of per-word
    blocks. Whether the reps keep their bytes is up to the BLAS kernels: in
    float32 at the default rep_dim they do, at rep_dim 1 they do not.
    """
    span_counts, pos, mask, *window = layout
    width = pos.shape[1]
    scores = word_vecs @ params.w_attn  # (N,)
    alpha = np.where(mask, scores.take(pos), -np.inf)
    alpha -= _row_max(alpha)
    np.exp(alpha, out=alpha)
    # A matrix-vector product sums the short rows faster than sum(axis=1).
    alpha /= (alpha @ np.ones(width, dtype=alpha.dtype))[:, None]

    # alpha is exactly 0 outside the mask, so the clipped slots add nothing.
    word_reps = word_vecs @ params.w_proj.T
    if window:
        windows, rows, slots = window
        # Rows past a word's widest span repeat it; their products are not read.
        grid = alpha.take(rows, axis=0).reshape(len(windows), width, width)
        pooled = grid @ word_reps.take(windows, axis=0)
        reps = pooled.reshape(-1, pooled.shape[2]).take(slots, axis=0)
    else:
        reps = np.matmul(alpha[:, None, :], word_reps.take(pos, axis=0))[:, 0]
    reps += params.b_proj
    logits = reps @ params.w_cls.T
    logits += params.b_cls
    return SpanScores(span_counts, word_vecs, word_reps, pos, mask, alpha, reps, logits)


def log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-probabilities and probabilities; overwrites ``logits``."""
    logits_max = _row_max(logits)
    log_norm = np.exp(logits - logits_max).sum(axis=1, keepdims=True)
    np.log(log_norm, out=log_norm)
    log_norm += logits_max
    log_probs = np.subtract(logits, log_norm, out=logits)
    return log_probs, np.exp(log_probs)


@dataclass(frozen=True)
class LossWeights:
    """Scaling of the prototype regularizer inside the total training loss;
    ``TaggerConfig`` holds the defaults."""

    proto_weight: float  # multiplies the whole prototype term
    align_weight: float  # pull toward the gold-class prototype
    sep_weight: float  # push away from other class prototypes


@dataclass(eq=False)
class LossBreakdown:
    total: float
    tag: float
    proto: float


@dataclass(eq=False)
class BatchReps:
    """Selected-span representations, for prototype construction."""

    reps: np.ndarray  # (N_sel, rep_dim)
    pred_classes: np.ndarray  # (N_sel,)
    gold_classes: np.ndarray  # (N_sel,)


def unit_prototypes(prototypes: PrototypeSet | None, dtype) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The global prototypes as the prototype term reads them: the rows
    cast to ``dtype`` and scaled to unit norm, zero for absent or zero rows,
    and the presence mask. The term is active only with a set that has a
    class present; otherwise both are None."""
    if prototypes is None or not prototypes.present.any():
        return None, None
    present = prototypes.present
    matrix = prototypes.matrix.astype(dtype)
    norms = np.linalg.norm(matrix, axis=1)
    unit = matrix / np.where(norms > 0, norms, 1.0)[:, None]
    unit[(norms == 0) | ~present] = 0.0
    return unit, present


@lru_cache(maxsize=1024)
def _pair_layout(n: int, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The (span, word) pairs of attention pooling in one sentence, by word.

    Returns a (3, P) array whose rows hold each pair's attention slot, its
    span and its word, and the index of each word's first pair. Every word
    is in at least one span, so the words split the pairs into non-empty
    runs.
    """
    pos, mask = _gather_layout(n, l_max)
    spans, slots = np.nonzero(mask)
    words = pos[spans, slots]
    order = np.argsort(words, kind="stable")
    pairs = np.stack([slots[order], spans[order], words[order]])
    word_starts = np.searchsorted(pairs[2], np.arange(n))
    pairs.setflags(write=False)
    word_starts.setflags(write=False)
    return pairs, word_starts


def _element_index(ids: np.ndarray, width: int) -> np.ndarray:
    """Flat index, in a C-contiguous table ``width`` wide, of each element
    of the rows ``ids``, row by row."""
    return (ids[:, None] * width + np.arange(width)).ravel()


def _scatter_rows(table: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, ids, rows)`` for a C-contiguous 2-D ``table``, as
    one scatter over elements; ``index`` is ``_element_index(ids, width)``.
    Each element takes the same additions in the same order, so the bytes
    are the same, at about half the cost."""
    np.add.at(table.reshape(-1), index, rows.ravel())


def _offsets(sizes: Sequence[int]) -> list[int]:
    """Start of each part in a concatenation of parts with these sizes."""
    return list(accumulate(sizes[:-1], initial=0))


@dataclass(eq=False)
class BatchPlan:
    """The part of a batch's gradient pass that does not depend on the
    weights. Spans, words and chunks are packed end to end; the ``_col``
    arrays are (rows, 1) columns in the model's dtype."""

    toks: Sequence[Tokenization]
    layout: tuple  # ``_gather_batch`` of the word counts
    gold_at: np.ndarray  # (S,) flat index of each span's gold class in an (S, C) array
    sel: np.ndarray  # (k,) spans of the prototype term, ascending
    sel_gold: np.ndarray  # (k,) gold class of each selected span
    span_weight: np.ndarray  # (S,) float64 tag-loss weight, 1 / (S_i * n_b)
    span_weight_col: np.ndarray  # (S, 1) ``span_weight``
    pairs: np.ndarray  # (3, P) alpha flat index, span and word of each (span, word) pair, by word
    word_starts: np.ndarray  # (N,) first pair of each word
    chunks: ChunkLayout  # the chunks of the batch's sentences
    scatter_index: np.ndarray  # (M * embed_dim,) ``_element_index`` of the chunks in ``embed_rows``
    embed_rows: np.ndarray  # sorted unique chunk ids
    # The global prototypes as ``unit_prototypes`` gives them, and what the
    # prototype term reads of them per selected span; all None without them.
    unit_protos: np.ndarray | None  # (C, rep_dim) unit global prototypes, zero if absent
    rivals: np.ndarray | None  # (k, C) bool, the present classes but the span's gold
    gold_protos: np.ndarray | None  # (k, rep_dim) unit prototype of the span's gold class
    sel_gold_at: np.ndarray | None  # (k,) flat index of the gold class in a (k, C) array

    @classmethod
    def build(cls, toks, gold, sel, config: EncoderConfig, unit_protos, proto_present):
        """The plan of packed inputs: ``gold`` and ``sel`` over the batch's
        spans, and the global prototypes as ``unit_prototypes`` gives them.
        ``config`` supplies ``l_max``, ``embed_dim`` and the dtype."""
        l_max, dtype = config.l_max, config.dtype
        word_counts = [tok.n_words for tok in toks]
        layout = span_counts, pos, _ = _gather_batch(word_counts, l_max)
        layouts = [_pair_layout(n, l_max) for n in word_counts]
        pair_counts = [pairs.shape[1] for pairs, _ in layouts]
        pairs = np.concatenate([pairs for pairs, _ in layouts], axis=1)
        pairs[1:] += np.repeat([_offsets(span_counts), _offsets(word_counts)], pair_counts, axis=1)
        pairs[0] += pairs[1] * pos.shape[1]
        word_starts = np.concatenate([starts for _, starts in layouts])
        word_starts += np.repeat(_offsets(pair_counts), word_counts)
        chunks = ChunkLayout.build(toks, dtype)
        embed_rows = np.sort(chunks.ids)  # np.unique took 3x as long in training
        embed_rows = embed_rows[np.concatenate(([True], embed_rows[1:] != embed_rows[:-1]))]
        gold = gold.astype(np.int64)
        sel_gold = gold[sel]
        span_weight = np.repeat(1.0 / (np.array(span_counts) * len(toks)), span_counts)
        rivals = gold_protos = sel_gold_at = None
        if unit_protos is not None:
            n_classes = len(unit_protos)
            rivals = proto_present & (np.arange(n_classes) != sel_gold[:, None])
            gold_protos = unit_protos.take(sel_gold, axis=0)
            sel_gold_at = np.arange(len(sel)) * n_classes + sel_gold
        return cls(
            toks, layout, np.arange(len(gold)) * NUM_CLASSES + gold, sel, sel_gold,
            span_weight, span_weight[:, None].astype(dtype),
            pairs, word_starts, chunks,
            _element_index(np.searchsorted(embed_rows, chunks.ids), config.embed_dim), embed_rows,
            unit_protos, rivals, gold_protos, sel_gold_at,
        )

    @classmethod
    def from_sentences(cls, toks, golds, selections, config: EncoderConfig, prototypes):
        """The plan of a batch given per sentence: one gold class array per
        sentence (``enumerate_spans`` order) and the indices of its spans in
        the prototype term. ``prototypes`` is the global ``PrototypeSet`` or
        None, read as ``unit_prototypes`` in the model's dtype."""
        if not (len(toks) == len(golds) == len(selections)):
            raise ValueError("toks, golds and selections must be aligned")
        if len(toks) == 0:
            raise ValueError("empty batch")
        sel = np.concatenate(selections).astype(np.int64, copy=False)
        sel += np.repeat(_offsets([len(gold) for gold in golds]), [len(s) for s in selections])
        plan = cls.build(
            toks, np.concatenate(golds), sel, config, *unit_prototypes(prototypes, config.dtype)
        )
        if misaligned := [(len(g), n) for g, n in zip(golds, plan.layout[0]) if len(g) != n]:
            raise ValueError("gold classes misaligned: %d vs %d spans" % misaligned[0])
        return plan


def batch_gradients(
    params: EncoderParams, plan: BatchPlan, weights: LossWeights
) -> tuple[LossBreakdown, GradientBundle, BatchReps]:
    """Loss and exact gradients for the batch of sentences ``plan`` describes.

    The tag loss is the mean over sentences of the per-sentence mean span
    cross-entropy; the prototype term averages over all selected spans of
    the batch and is active only when the plan holds global prototypes.

    The word encoder (``encode_words``) and the span scoring each run once
    over the batch, and so does the backward pass, with spans, words and
    chunks packed end to end and per-sentence sums done as segment
    reductions.
    """
    d_e = params.embed.shape[1]
    dtype = params.w_proj.dtype
    chunks = plan.chunks
    x, word_vecs = encode_words(params, chunks)
    spans = score_spans(params, word_vecs, plan.layout)
    reps = spans.reps
    log_probs, probs = log_softmax(spans.logits)
    sel = plan.sel
    n_selected = len(sel)
    grads = GradientBundle(
        np.zeros((len(plan.embed_rows), d_e), params.embed.dtype), np.empty_like(params.dense),
        params.dense_shapes, plan.embed_rows,
    )

    # Span-tag cross-entropy, normalized per sentence then per batch.
    tag_mean = float(plan.span_weight @ -log_probs.take(plan.gold_at))
    sel_probs = probs.take(sel, axis=0)
    batch_reps = BatchReps(reps.take(sel, axis=0), sel_probs.argmax(axis=1), plan.sel_gold)
    dlogits = probs
    dlogits.reshape(-1)[plan.gold_at] -= 1.0
    dlogits *= plan.span_weight_col
    del log_probs

    # Classifier block.
    np.matmul(dlogits.T, reps, out=grads.w_cls)
    dlogits.sum(axis=0, out=grads.b_cls)
    dreps = dlogits @ params.w_cls

    proto_total = 0.0
    proto_active = plan.unit_protos is not None and weights.proto_weight != 0.0
    if proto_active and n_selected:
        unit_prot = plan.unit_protos
        z = batch_reps.reps
        # A zero-norm span has no direction: it goes through the term with
        # norm 1, and its rows of the term's outputs are zeroed at the end.
        norm = np.linalg.norm(z, axis=1)
        zero = norm == 0
        if zero.any():
            logger.debug("%d zero-norm span representations skipped", int(zero.sum()))
        norm[zero] = 1.0
        zhat = z / norm[:, None]
        cos = zhat @ unit_prot.T  # (k, C); absent/zero prototypes give 0

        # Alignment: -cos(z, prototype of the gold class).
        cos_y = cos.take(plan.sel_gold_at)
        d_align = (cos_y[:, None] * zhat - plan.gold_protos) / norm[:, None]

        # Separation: log-sum-exp of cosines to the other present classes.
        # A span with no rival has a zero sum; the guard gives it log 1 = 0
        # and zero weights, so a zero gradient.
        exp_cos = np.exp(cos)
        exp_cos *= plan.rivals
        row_sum = exp_cos.sum(axis=1)
        row_sum = np.where(row_sum > 0, row_sum, 1.0)
        w = exp_cos / row_sum[:, None]
        w_dot_cos = (w * cos).sum(axis=1)
        d_sep = (w @ unit_prot - w_dot_cos[:, None] * zhat) / norm[:, None]

        vals = np.concatenate([-cos_y, np.log(row_sum)]).reshape(2, -1)  # alignment, separation
        d_proto = weights.align_weight * d_align + weights.sep_weight * d_sep
        vals[:, zero] = 0.0
        d_proto[zero] = 0.0
        proto_total = float(
            weights.align_weight * vals[0].sum() + weights.sep_weight * vals[1].sum()
        )
        d_proto *= weights.proto_weight / n_selected
        dreps[sel] += d_proto

    # Projection and attention pooling. Pooling ran in projected space, over
    # (span, word) pairs; ordered by word, the per-word gradients are segment
    # sums. grads.w_proj is the alpha-weighted dreps summed per word, against
    # the word vectors.
    dreps.sum(axis=0, out=grads.b_proj)
    del reps, probs, dlogits  # lowers the peak on long sentences
    alpha_idx, span_idx, word_idx = plan.pairs
    alpha = spans.alpha.take(alpha_idx)
    dreps_pairs = dreps.take(span_idx, axis=0)
    dalpha = np.einsum("pz,pz->p", dreps_pairs, spans.word_reps.take(word_idx, axis=0))
    inner = np.bincount(span_idx, weights=alpha * dalpha, minlength=len(plan.span_weight))
    dscore = alpha * (dalpha - inner.astype(dtype).take(span_idx))
    dscore_words = np.add.reduceat(dscore, plan.word_starts)
    del spans
    np.matmul(dscore_words, word_vecs, out=grads.w_attn)
    dreps_pairs *= alpha[:, None]
    dword_reps = np.add.reduceat(dreps_pairs, plan.word_starts, axis=0)
    np.matmul(dword_reps.T, word_vecs, out=grads.w_proj)
    dword = dword_reps @ params.w_proj
    dword += dscore_words[:, None] * params.w_attn

    # Word mean over chunks, then the window-3 context layer. The window's
    # zero padding at each sentence boundary takes no gradient.
    dh_sub = np.repeat(dword / chunks.word_size_col, chunks.word_sizes, axis=0)
    np.matmul(dh_sub.T, x, out=grads.w_ctx)
    dh_sub.sum(axis=0, out=grads.b_ctx)
    dx = dh_sub @ params.w_ctx
    dx[chunks.bounds[:-1], :d_e] = 0.0
    dx[chunks.bounds[1:] - 1, 2 * d_e :] = 0.0
    d_sub = dx[:, d_e : 2 * d_e].copy()
    d_sub[:-1] += dx[1:, :d_e]
    d_sub[1:] += dx[:-1, 2 * d_e :]
    _scatter_rows(grads.embed, plan.scatter_index, d_sub)

    proto_mean = proto_total / n_selected if (proto_active and n_selected) else 0.0
    total = tag_mean + weights.proto_weight * proto_mean
    if not np.isfinite(total):
        raise TrainingDivergedError("non-finite training loss")
    grads.check_finite()

    return LossBreakdown(float(total), float(tag_mean), float(proto_mean)), grads, batch_reps


def sgd_step(params: EncoderParams, grads: GradientBundle, lr: float) -> EncoderParams:
    """One gradient step on ``params``' arrays, in place; returns ``params``."""
    params.embed[grads.embed_rows] -= lr * grads.embed
    params.dense -= lr * grads.dense
    return params


@dataclass(eq=False)
class AdamState:
    """Adam moments, step count and the embedding rows seen so far.

    ``m`` and ``v`` are laid out as the parameters, so one pass over
    ``m.dense``/``v.dense`` updates every dense block. ``seen_rows`` marks
    the embedding rows that have ever had a gradient.
    """

    step: int
    m: EncoderParams
    v: EncoderParams
    seen_rows: np.ndarray  # (V,) bool

    @classmethod
    def zeros(cls, params: EncoderParams) -> "AdamState":
        m, v = EncoderParams.zeros_like(params), EncoderParams.zeros_like(params)
        return cls(0, m, v, np.zeros(len(params.embed), dtype=bool))


def adam_step(
    params: EncoderParams,
    grads: GradientBundle,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[EncoderParams, AdamState]:
    """One Adam update, in place: ``params``' arrays and ``state``'s moments
    are updated, its step advanced, and the same two objects returned.

    The dense blocks take one update over their flat moments. The embedding
    takes the same update only on the rows that have ever had a gradient,
    +0 on those the batch did not touch: on any other row m = v = +0, so its
    step is +0 and the row keeps its bits. A seen row stays seen, since its
    v keeps decaying after m underflows.
    """
    t = state.step + 1
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t

    def update(p, g, m, v):
        m *= beta1
        m += (1.0 - beta1) * g
        g2 = (1.0 - beta2) * g
        g2 *= g
        v *= beta2
        v += g2
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += eps
        step = m / bias1
        step *= lr
        step /= denom
        p -= step

    state.seen_rows[grads.embed_rows] = True
    rows = np.flatnonzero(state.seen_rows)
    p_rows = params.embed.take(rows, axis=0)
    m_rows = state.m.embed.take(rows, axis=0)
    v_rows = state.v.embed.take(rows, axis=0)
    g_rows = np.zeros(p_rows.shape, p_rows.dtype)
    g_rows[np.searchsorted(rows, grads.embed_rows)] = grads.embed
    update(p_rows, g_rows, m_rows, v_rows)
    params.embed[rows], state.m.embed[rows], state.v.embed[rows] = p_rows, m_rows, v_rows
    update(params.dense, grads.dense, state.m.dense, state.v.dense)
    state.step = t
    return params, state


_CKPT_MAGIC = b"SPTG"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sHIHHHHHHI")
# The header after magic and version: EncoderConfig fields, and NUM_CLASSES.
_CKPT_FIELDS = (
    "vocab_size", "embed_dim", "hidden_dim", "rep_dim",
    "num_classes", "chunk_size", "l_max", "hash_seed",
)


def save_params(path: str | Path, params: EncoderParams, config: EncoderConfig) -> None:
    """Checkpoint: fixed header then the float32 little-endian blocks in
    ``BLOCKS`` order, which is ``embed`` followed by ``dense``. Raises
    ``ValueError``, writing nothing, if a block's shape is not
    ``config``'s."""
    want = list(config.block_shapes().values())
    if (got := [arr.shape for _, arr in params.blocks()]) != want:
        raise ValueError(f"parameter blocks have shapes {got}, the config gives {want}")
    fields = (NUM_CLASSES if f == "num_classes" else getattr(config, f) for f in _CKPT_FIELDS)
    header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, *fields)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (params.embed, params.dense):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_params(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    blob = Path(path).read_bytes()
    if len(blob) < _CKPT_HEADER.size:
        raise CheckpointError("checkpoint truncated before header")
    magic, version, *header = _CKPT_HEADER.unpack_from(blob)
    if magic != _CKPT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    fields = dict(zip(_CKPT_FIELDS, header))
    if (n_cls := fields.pop("num_classes")) != NUM_CLASSES:
        raise CheckpointError(f"checkpoint has {n_cls} classes, expected {NUM_CLASSES}")
    config = EncoderConfig(**fields, precision="float32")
    shapes = config.block_shapes()
    embed_shape = shapes.pop("embed")
    size = _CKPT_HEADER.size + 4 * config.param_count()
    if len(blob) < size:
        raise CheckpointError("checkpoint truncated inside parameter blocks")
    if len(blob) > size:
        raise CheckpointError("trailing bytes after parameter blocks")
    values = np.frombuffer(blob, dtype="<f4", offset=_CKPT_HEADER.size)
    n_embed = math.prod(embed_shape)
    params = EncoderParams(
        values[:n_embed].reshape(embed_shape).astype(np.float32),
        values[n_embed:].astype(np.float32),
        tuple(shapes.values()),
    )
    params.check_finite()
    return params, config
