"""Small trainable span encoder with hand-derived analytic gradients.

The network stands in for a pretrained transformer at desk scale:

* words split into fixed-size character chunks, hashed into an embedding table
* a window-3 linear layer contextualizes the chunk sequence
* each word vector is the mean of its contextualized chunk vectors
* span vectors are attention-weighted sums of their word vectors, projected
  to a low-dimensional representation used both for the 16-way span-tag
  softmax and for prototype construction/regularization

A ``SpanBatch`` lays out a batch of sentences end to end. Its word vectors
are computed packed (``encode_words``), all but the window layer's product,
which runs one sentence at a time (``forward_sentence``); its spans are
scored in one packed pass (``score_spans``). ``batch_gradients`` reads what
does not depend on the weights (the batch, targets, the embedding scatter
index, the prototype term's constants) from a ``BatchPlan``, and the
optimizer steps update the parameters in place. Training batches and
scoring groups alike are packed a few at a time (``packed_passes``); a
scoring call that fits one pass is packed once per tokenizer setting and
kept (``Tokenizer.packed_call``).

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
from typing import Annotated, Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from .prototypes import PrototypeSet
from .tagging import NUM_CLASSES, span_count, span_counts, span_layout

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """A loss or gradient went non-finite."""


class CheckpointError(ValueError):
    """A checkpoint file that cannot be loaded; the message names the file."""


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


def check_fields(obj, error: Callable[[str], Exception]) -> None:
    """Check every field of the dataclass ``obj`` against its annotation:
    its type, a ``Literal``'s choices, a ``Range``. The first that fails
    raises ``error(message)``, the message naming the field."""
    for name, hint in typing.get_type_hints(type(obj), include_extras=True).items():
        value = getattr(obj, name)
        kind, *marks = typing.get_args(hint) if typing.get_origin(hint) is Annotated else [hint]
        choices = typing.get_args(kind) if typing.get_origin(kind) is Literal else ()
        kind = type(choices[0]) if choices else kind
        if not _has_type(value, kind):
            kind_name = kind.__name__ if isinstance(kind, type) else kind
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
    """Word ids, sentence tokenizations and kept scoring calls of one
    tokenizer setting. A kept call (``Tokenizer.packed_call``) is keyed by
    its tokenizations, which hash by identity, and goes with them: it holds
    no sentence and no model."""

    __slots__ = ("words", "sentences", "calls", "__weakref__")

    def __init__(self) -> None:
        self.words: dict[str, tuple[int, ...]] = {}
        self.sentences: dict[tuple[str, ...], Tokenization] = {}
        self.calls: dict[tuple, tuple[np.ndarray, int, tuple[_Packing]]] = {}


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

    def packed_call(
        self, toks: tuple[Tokenization, ...], group_size: int, l_max: int, dtype
    ) -> tuple[np.ndarray, int, Iterable[_Packing]]:
        """The word count of each of ``toks``, their span total and their
        passes (``packed_passes``). None of it depends on a weight, so a call
        of at most ``PASS_SPANS`` spans, which is one pass, is kept read-only
        in the setting's cache and reused by every later call over the same
        tokenizations, ``group_size``, ``l_max``, dtype and bound; a larger
        call is packed pass by pass each time."""
        key = (toks, group_size, l_max, dtype, PASS_SPANS)
        call = self._cache.calls.get(key)
        if call is not None:
            return call
        lengths = np.array([tok.n_words for tok in toks], dtype=np.int64)
        total = int(span_counts(lengths, l_max).sum())
        passes = packed_passes(toks, group_size, l_max, dtype)
        if total > PASS_SPANS:
            return lengths, total, passes
        (packing,) = passes
        for arr in (lengths, packing.chunks, packing.ids, packing.word_starts, packing.word_sizes,
                    packing.word_size_col, packing.first_words):
            arr.setflags(write=False)
        call = self._cache.calls[key] = lengths, total, (packing,)
        return call


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


@lru_cache(maxsize=1024)
def _sentence_layout(n: int, l_max: int, width: int) -> tuple[np.ndarray, ...]:
    """One sentence's layout in a batch whose spans have ``width`` slots, at
    least its longest span's: the (S, width) word index of each span slot,
    clipped to the sentence, and mask of the slots inside the span; then
    attention pooling's (span, word) pairs by word, a (3, P) array of each
    pair's flat index in the sentence's (S, width) attention rows, its span
    and its word, and each word's first pair (every word is in a span, so no
    run is empty). Cached and read-only."""
    starts, ends, _ = span_layout(n, l_max)
    pos = starts[:, None] + np.arange(width)
    mask = pos <= ends[:, None]
    np.minimum(pos, n - 1, out=pos)
    spans, slots = np.nonzero(mask)
    words = pos[spans, slots]
    order = np.argsort(words, kind="stable")
    pairs = np.stack([(spans * width + slots)[order], spans[order], words[order]])
    pair_starts = np.searchsorted(pairs[2], np.arange(n))
    for arr in (pos, mask, pairs, pair_starts):
        arr.setflags(write=False)
    return pos, mask, pairs, pair_starts


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


# A batch with at least this many spans per word, when window pooling is
# allowed, pools each start word's spans with one window product. That is
# faster from about 5 spans per word; at 7 (15-word sentences at the default
# l_max) it takes 0.8x the time. The shipped corpora's scoring groups reach
# at most 6.2, so they keep the per-span products.
WINDOW_SPANS_PER_WORD = 7


@dataclass(eq=False)
class SpanBatch:
    """The chunks, words and spans of a batch of sentences, packed end to
    end, as training and scoring read them. Sentence i owns chunk rows
    ``bounds[i]:bounds[i + 1]``; its spans follow the previous sentence's,
    in ``enumerate_spans`` order, each with ``width`` attention slots (the
    batch's longest span, the rest masked out). The window arrays are set
    only when the batch pools by window (``score_spans``)."""

    ids: np.ndarray  # (M,) chunk ids
    bounds: np.ndarray  # (n_b + 1,) first chunk of each sentence, then M
    word_starts: np.ndarray  # (N,) first chunk of each word
    word_sizes: np.ndarray  # (N,) chunks per word
    word_size_col: np.ndarray  # (N, 1) ``word_sizes`` in the model's dtype
    span_counts: list[int]  # spans per sentence
    pos: np.ndarray  # (S, width) batch word index of each slot, clipped to its sentence
    mask: np.ndarray  # (S, width)
    windows: np.ndarray | None = None  # (N, width) ``pos`` row of each start word's spans
    grid_rows: np.ndarray | None = None  # (N * width,) ``_window_layout`` rows, offset to the batch
    grid_slots: np.ndarray | None = None  # (S,) ``_window_layout`` slots, offset to the batch

    @property
    def width(self) -> int:
        return self.pos.shape[1]


def _spread(values, edges: Sequence[int]) -> np.ndarray:
    """``values[..., g]`` for each element of group g, which holds elements
    ``edges[g]:edges[g + 1]``, along the last axis."""
    return np.asarray(values).repeat([hi - lo for lo, hi in zip(edges, edges[1:])], axis=-1)


@dataclass(eq=False, slots=True)
class _Packing:
    """Consecutive groups of sentences packed end to end: a pass of
    ``packed_passes``. Group g holds sentences ``groups[g]:groups[g + 1]``.
    The arrays of chunks and words are packed once for the whole pass, and a
    group's are views of them; ``batch(g)`` packs the group's span slots, at
    its width. The running totals ``words``, ``spans`` and ``chunks`` hold
    each sentence's first word, span and chunk in the pass, then the pass's
    total: group g's start in the pass is ``x[groups[g]]``, and sentence i's
    start in its group is ``x[i] - x[groups[g]]``."""

    l_max: int
    groups: list[int]
    widths: list[int]  # each group's span width
    layouts: list[tuple]  # ``_sentence_layout`` of each sentence, at its group's width
    word_counts: list[int]
    span_counts: list[int]
    words: list[int]
    spans: list[int]
    chunks: np.ndarray  # int64, so that a group's chunk bounds are one array subtraction
    ids: np.ndarray  # (M,) chunk ids
    word_starts: np.ndarray  # (N,) first chunk of each word in its group
    word_sizes: np.ndarray  # (N,)
    word_size_col: np.ndarray  # (N, 1)
    first_words: np.ndarray  # each sentence's first word in its group

    @classmethod
    def of(cls, toks: Sequence[Tokenization], group_size: int, l_max: int, dtype) -> "_Packing":
        """The packing of ``toks`` in consecutive groups of ``group_size``
        sentences, the last maybe shorter."""
        groups = [*range(0, len(toks), group_size), len(toks)]
        word_counts = [tok.n_words for tok in toks]
        widths = [min(l_max, max(word_counts[lo:hi])) for lo, hi in zip(groups, groups[1:])]
        layouts = [_sentence_layout(n, l_max, w) for lo, hi, w in zip(groups, groups[1:], widths)
                   for n in word_counts[lo:hi]]
        span_counts = [len(layout[0]) for layout in layouts]
        words = [*accumulate(word_counts, initial=0)]
        chunks = np.cumsum([0, *(len(tok.subword_ids) for tok in toks)])
        group_words = [words[i] for i in groups]
        word_sizes = np.concatenate([tok.word_sizes for tok in toks])
        word_starts = word_sizes.cumsum()
        word_starts -= word_sizes
        word_starts -= _spread(chunks[groups[:-1]], group_words)
        return cls(
            l_max, groups, widths, layouts, word_counts, span_counts, words, [*accumulate(span_counts, initial=0)],
            chunks, np.concatenate([tok.subword_ids for tok in toks]), word_starts, word_sizes,
            word_sizes[:, None].astype(dtype),
            np.subtract(words[:-1], _spread(group_words[:-1], groups)),
        )

    def batch(self, g: int, windows: bool = False) -> SpanBatch:
        """Group g's ``SpanBatch``. With ``windows``, a group of at least
        ``WINDOW_SPANS_PER_WORD`` spans per word is pooled by window."""
        lo, hi = self.groups[g], self.groups[g + 1]
        layouts, span_counts = self.layouts[lo:hi], self.span_counts[lo:hi]
        bounds = self.chunks[lo : hi + 1] - self.chunks[lo]
        words = slice(self.words[lo], self.words[hi])
        span_words = self.first_words[lo:hi].repeat(span_counts)
        pos = np.concatenate([layout[0] for layout in layouts])
        pos += span_words[:, None]
        batch = SpanBatch(
            self.ids[self.chunks[lo] : self.chunks[hi]], bounds, self.word_starts[words],
            self.word_sizes[words], self.word_size_col[words], span_counts, pos,
            np.concatenate([layout[1] for layout in layouts]),
        )
        if windows and len(pos) >= WINDOW_SPANS_PER_WORD * len(batch.word_sizes):
            width, word_counts = batch.width, self.word_counts[lo:hi]
            grids = [_window_layout(n, self.l_max, width) for n in word_counts]
            rows = np.concatenate([grid[0] for grid in grids])
            rows += np.repeat(np.subtract(self.spans[lo:hi], self.spans[lo]), [n * width for n in word_counts])
            slots = np.concatenate([grid[1] for grid in grids])
            slots += span_words * width
            batch.windows, batch.grid_rows, batch.grid_slots = pos.take(rows[::width], axis=0), rows, slots
        return batch


# Training batches and scoring groups are packed in passes of at most this
# many spans (``packed_passes``); a group with more is a pass of its own.
# What a pass packs up front, about 55 bytes per span, lives until its last
# group is drawn, so this bounds it. A shipped client's epoch (about 7,000
# spans) is one pass; a group of 8 long sentences (25-35 words, about 2,100
# spans) shares one with two others.
PASS_SPANS = 8192


def packed_passes(toks: Sequence[Tokenization], group_size: int, l_max: int, dtype) -> Iterator[_Packing]:
    """``toks`` in consecutive groups of ``group_size`` sentences, the last
    maybe shorter, packed a pass at a time (``_Packing.of``): consecutive
    groups go in one pass while it holds at most ``PASS_SPANS`` spans, and a
    group over it is a pass of its own."""
    lo = total = 0
    for first in range(0, len(toks), group_size):
        spans = sum(span_count(tok.n_words, l_max) for tok in toks[first : first + group_size])
        if total and total + spans > PASS_SPANS:
            yield _Packing.of(toks[lo:first], group_size, l_max, dtype)
            lo, total = first, 0
        total += spans
    yield _Packing.of(toks[lo:], group_size, l_max, dtype)


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


def encode_words(params: EncoderParams, batch: SpanBatch) -> tuple[np.ndarray, np.ndarray]:
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
    sub = params.embed.take(batch.ids, axis=0)
    x = np.empty((len(sub), 3 * d_e), dtype=sub.dtype)
    x[:, d_e : 2 * d_e] = sub
    x[1:, :d_e] = sub[:-1]
    x[:-1, 2 * d_e :] = sub[1:]
    x[batch.bounds[:-1], :d_e] = 0.0
    x[batch.bounds[1:] - 1, 2 * d_e :] = 0.0
    h_sub = np.empty((len(x), params.w_ctx.shape[0]), dtype=x.dtype)
    bounds = batch.bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        forward_sentence(params, x[lo:hi], h_sub[lo:hi])
    h_sub += params.b_ctx
    word_vecs = np.add.reduceat(h_sub, batch.word_starts, axis=0)
    word_vecs /= batch.word_size_col
    return x, word_vecs


@dataclass(eq=False)
class SpanScores:
    """Span-level activations of a ``SpanBatch``, its spans in its order."""

    word_reps: np.ndarray  # (N, rep_dim) word_vecs @ w_proj.T
    alpha: np.ndarray  # (S, width) attention, zero outside mask
    reps: np.ndarray  # (S, rep_dim)
    logits: np.ndarray  # (S, NUM_CLASSES)


def score_spans(params: EncoderParams, word_vecs: np.ndarray, batch: SpanBatch) -> SpanScores:
    """Attention pooling, projection and classifier logits for every span of
    a batch of sentences, in one pass, from their packed word vectors
    (``encode_words``).

    Pooling runs in projected space, on ``word_vecs @ w_proj.T``: it is the
    same linear map applied before the attention-weighted sum instead of
    after it, and the rows it gathers are rep_dim wide instead of hidden_dim.
    A batch without windows pools each span over its own gathered copy of
    its window. A batch with windows gathers each start word's window once
    and pools all of that word's spans in one (width, width) @ (width,
    rep_dim) product, their attention rows set in a grid of per-word
    blocks. Whether the reps keep their bytes is up to the BLAS kernels: in
    float32 at the default rep_dim they do, at rep_dim 1 they do not.
    """
    pos, width = batch.pos, batch.width
    scores = word_vecs @ params.w_attn  # (N,)
    alpha = np.where(batch.mask, scores.take(pos), -np.inf)
    alpha -= _row_max(alpha)
    np.exp(alpha, out=alpha)
    # A matrix-vector product sums the short rows faster than sum(axis=1).
    alpha /= (alpha @ np.ones(width, dtype=alpha.dtype))[:, None]

    # alpha is exactly 0 outside the mask, so the clipped slots add nothing.
    word_reps = word_vecs @ params.w_proj.T
    if batch.windows is not None:
        # Rows past a word's widest span repeat it; their products are not read.
        grid = alpha.take(batch.grid_rows, axis=0).reshape(len(batch.windows), width, width)
        pooled = grid @ word_reps.take(batch.windows, axis=0)
        reps = pooled.reshape(-1, pooled.shape[2]).take(batch.grid_slots, axis=0)
    else:
        reps = np.matmul(alpha[:, None, :], word_reps.take(pos, axis=0))[:, 0]
    reps += params.b_proj
    logits = reps @ params.w_cls.T
    logits += params.b_cls
    return SpanScores(word_reps, alpha, reps, logits)


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


@dataclass(eq=False)
class BatchPlan:
    """The part of a batch's gradient pass that does not depend on the
    weights. Spans, words and chunks are packed end to end; the ``_col``
    arrays are (rows, 1) columns in the model's dtype."""

    batch: SpanBatch  # the batch's chunks, words and spans, pooled per span
    gold_at: np.ndarray  # (S,) flat index of each span's gold class in an (S, C) array
    sel: np.ndarray  # (k,) spans of the prototype term, ascending
    sel_gold: np.ndarray  # (k,) gold class of each selected span
    span_weight: np.ndarray  # (S,) float64 tag-loss weight, 1 / (S_i * n_b)
    span_weight_col: np.ndarray  # (S, 1) ``span_weight``
    pairs: np.ndarray  # (3, P) alpha flat index, span and word of each (span, word) pair, by word
    word_starts: np.ndarray  # (N,) first pair of each word
    scatter_index: np.ndarray  # (M * embed_dim,) ``_element_index`` of the chunks in ``embed_rows``
    embed_rows: np.ndarray  # sorted unique chunk ids
    # The global prototypes as ``unit_prototypes`` gives them, and what the
    # prototype term reads of them per selected span; all None without them.
    unit_protos: np.ndarray | None  # (C, rep_dim) unit global prototypes, zero if absent
    rivals: np.ndarray | None  # (k, C) bool, the present classes but the span's gold
    gold_protos: np.ndarray | None  # (k, rep_dim) unit prototype of the span's gold class
    sel_gold_at: np.ndarray | None  # (k,) flat index of the gold class in a (k, C) array

    @classmethod
    def of_packing(cls, packing: _Packing, gold, sel, config: EncoderConfig, unit_protos, proto_present):
        """The plans of a pass's batches, its groups: ``gold`` gives the
        classes of the pass's spans and ``sel`` its selected spans,
        ascending. What is per span, per word or per chunk is packed for the
        whole pass up front, and a plan's are views of it; a batch's span
        slots, attention pairs and touched rows are packed as its plan is
        drawn."""
        groups, layouts, span_counts = packing.groups, packing.layouts, packing.span_counts
        sel = np.asarray(sel, dtype=np.int64)
        group_spans = [packing.spans[i] for i in groups]
        sel_edges = sel.searchsorted(group_spans).tolist()
        span_index = np.arange(len(gold)) - _spread(group_spans[:-1], group_spans)
        gold_at = span_index * NUM_CLASSES
        gold_at += gold
        local_sel, sel_gold = span_index[sel], gold[sel].astype(np.int64)
        span_weight = 1.0 / np.multiply(span_counts, _spread(np.diff(groups), groups))
        span_weight = span_weight.repeat(span_counts)
        span_weight_col = span_weight[:, None].astype(config.dtype)
        proto_terms = []  # rivals, gold_protos and sel_gold_at, when the term is on
        if unit_protos is not None:
            n_classes = len(unit_protos)
            sel_gold_at = (np.arange(len(sel)) - _spread(sel_edges[:-1], sel_edges)) * n_classes
            sel_gold_at += sel_gold
            rivals = proto_present & (np.arange(n_classes) != sel_gold[:, None])
            proto_terms = [rivals, unit_protos.take(sel_gold, axis=0), sel_gold_at]

        # Each pair's shift from its sentence's layout to its batch's: the
        # sentence's first span, times the batch's width for the flat index,
        # and its first word. Each word's first pair is shifted by the
        # sentence's first pair. All four are running totals less their
        # value at the sentence's group start.
        pair_counts = [layout[2].shape[1] for layout in layouts]
        totals = np.array([packing.spans, packing.spans, packing.words, [*accumulate(pair_counts, initial=0)]])
        shifts = totals[:, :-1] - _spread(totals[:, groups[:-1]], groups)
        shifts[0] *= _spread(packing.widths, groups)
        pair_starts = np.concatenate([layout[3] for layout in layouts])
        pair_starts += shifts[3].repeat(packing.word_counts)

        for g, (lo, hi) in enumerate(zip(groups, groups[1:])):
            batch = packing.batch(g)
            spans, picked = slice(packing.spans[lo], packing.spans[hi]), slice(sel_edges[g], sel_edges[g + 1])
            pairs = np.concatenate([layout[2] for layout in layouts[lo:hi]], axis=1)
            pairs += shifts[:3, lo:hi].repeat(pair_counts[lo:hi], axis=1)
            # The touched rows, sorted and unique; np.unique took 3x as long.
            rows = np.sort(batch.ids)
            rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
            yield cls(
                batch, gold_at[spans], local_sel[picked], sel_gold[picked], span_weight[spans],
                span_weight_col[spans], pairs, pair_starts[packing.words[lo] : packing.words[hi]],
                _element_index(rows.searchsorted(batch.ids), config.embed_dim), rows, unit_protos,
                *([a[picked] for a in proto_terms] or (None, None, None)),
            )

    @classmethod
    def build_epoch(cls, toks, gold, selected, batch_size: int, config: EncoderConfig, unit_protos, proto_present):
        """The plans of an epoch's batches, in order. ``toks`` are the
        epoch's sentences in order, and ``gold`` and ``selected`` the gold
        classes and selection mask of their spans, sentence after sentence;
        batch j holds sentences ``j * batch_size`` onward. ``config``
        supplies ``l_max``, ``embed_dim`` and the dtype, and the global
        prototypes are as ``unit_prototypes`` gives them."""
        lo = 0
        for packing in packed_passes(toks, batch_size, config.l_max, config.dtype):
            spans = slice(lo, lo + packing.spans[-1])
            yield from cls.of_packing(
                packing, gold[spans], np.flatnonzero(selected[spans]), config, unit_protos, proto_present
            )
            lo = spans.stop


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
    batch = plan.batch
    x, word_vecs = encode_words(params, batch)
    spans = score_spans(params, word_vecs, batch)
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
        # The norm is np.linalg.norm's for real rows, without its wrapper.
        norm = np.sqrt(np.add.reduce(z * z, axis=1))
        zero = np.flatnonzero(norm == 0)
        if len(zero):
            logger.debug("%d zero-norm span representations skipped", len(zero))
            norm[zero] = 1.0
        norm = norm[:, None]
        zhat = z / norm
        cos = zhat @ unit_prot.T  # (k, C); absent/zero prototypes give 0

        # Alignment: -cos(z, prototype of the gold class).
        align = cos.take(plan.sel_gold_at)
        d_proto = align[:, None] * zhat
        d_proto -= plan.gold_protos
        d_proto /= norm
        d_proto *= weights.align_weight
        np.negative(align, out=align)

        # Separation: log-sum-exp of cosines to the other present classes.
        # A span with no rival has a zero sum; the guard gives it log 1 = 0
        # and zero weights, so a zero gradient.
        w = np.exp(cos)
        w *= plan.rivals
        row_sum = w.sum(axis=1)
        row_sum = np.where(row_sum > 0, row_sum, 1.0)
        w /= row_sum[:, None]
        cos *= w
        zhat *= cos.sum(axis=1)[:, None]
        d_sep = w @ unit_prot
        d_sep -= zhat
        d_sep /= norm
        d_sep *= weights.sep_weight
        d_proto += d_sep
        sep = np.log(row_sum)

        if len(zero):
            align[zero] = sep[zero] = d_proto[zero] = 0.0
        proto_total = float(weights.align_weight * align.sum() + weights.sep_weight * sep.sum())
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
    dh_sub = np.repeat(dword / batch.word_size_col, batch.word_sizes, axis=0)
    np.matmul(dh_sub.T, x, out=grads.w_ctx)
    dh_sub.sum(axis=0, out=grads.b_ctx)
    dx = dh_sub @ params.w_ctx
    dx[batch.bounds[:-1], :d_e] = 0.0
    dx[batch.bounds[1:] - 1, 2 * d_e :] = 0.0
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
        raise CheckpointError(f"{path}: checkpoint truncated before header")
    magic, version, *header = _CKPT_HEADER.unpack_from(blob)
    if magic != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    fields = dict(zip(_CKPT_FIELDS, header))
    if (n_cls := fields.pop("num_classes")) != NUM_CLASSES:
        raise CheckpointError(f"{path}: checkpoint has {n_cls} classes, expected {NUM_CLASSES}")
    config = EncoderConfig(**fields, precision="float32")
    shapes = config.block_shapes()
    embed_shape = shapes.pop("embed")
    size = _CKPT_HEADER.size + 4 * config.param_count()
    if len(blob) < size:
        raise CheckpointError(f"{path}: checkpoint truncated inside parameter blocks")
    if len(blob) > size:
        raise CheckpointError(f"{path}: trailing bytes after parameter blocks")
    values = np.frombuffer(blob, dtype="<f4", offset=_CKPT_HEADER.size)
    n_embed = math.prod(embed_shape)
    params = EncoderParams(
        values[:n_embed].reshape(embed_shape).astype(np.float32),
        values[n_embed:].astype(np.float32),
        tuple(shapes.values()),
    )
    try:
        config.validate()
        params.check_finite()
    except (ConfigError, TrainingDivergedError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params, config
