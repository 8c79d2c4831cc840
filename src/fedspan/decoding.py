"""Reconstruct sentiment triplets from predicted span-tag matrices.

Every span tagged with a sentiment hosts at most one aspect-opinion pair,
chosen among the aspect/opinion spans that fall inside it. Orientation is
decided by which role starts first; boundary ties prefer the shorter span.
The test suite checks the decoder against an exhaustive pairwise oracle.

``decode_batch`` decodes a packed ``TagBatch`` in place, a fixed number of
sentences at a time; ``decode_triplets`` is that pass on one tag matrix.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .corpus import Polarity, Span, Triplet
from .tagging import ASPECT_BIT, OPINION_BIT, SENTIMENT_INDEX, TagBatch, TagMatrix

logger = logging.getLogger(__name__)

# Sentences per packed pass, and spans-inside-a-sentiment-span rows reduced
# at once within a pass (more when one sentiment span alone has more). Both
# bound the temporaries whatever the size of a call.
DECODE_CHUNK = 128
ROW_BLOCK = 2**15

# Polarities in the order of their values, the tie-break of the output sort.
_POLARITIES = sorted(Polarity, key=lambda p: p.value)
_POLARITY_RANK = np.zeros(4, dtype=np.int64)
for _rank, _polarity in enumerate(_POLARITIES):
    _POLARITY_RANK[SENTIMENT_INDEX[_polarity]] = _rank


@lru_cache(maxsize=64)
def _contained_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) of every span inside a cover up to ``width`` words wide,
    relative to the cover's start, ordered by end and then start: the spans
    inside a cover of width ``w`` are the first ``w * (w + 1) // 2`` rows.
    Cached and read-only."""
    ends = np.arange(width).repeat(np.arange(1, width + 1))
    starts = np.arange(len(ends)) - ends * (ends + 1) // 2
    for arr in (starts, ends):
        arr.setflags(write=False)
    return starts, ends


@lru_cache(maxsize=4096)
def _span(start: int, end: int) -> Span:
    """Span objects shared between triplets: a call's output holds two per
    triplet."""
    return Span(start, end)


class _Covers(NamedTuple):
    """The sentiment spans (covers) of a chunk of sentences, in span order,
    and the packed layout their contained spans are read from."""

    sentence: np.ndarray  # (C,) sentence of each cover, within the chunk
    start: np.ndarray  # (C,) first word of each cover, within its sentence
    sentiment: np.ndarray  # (C,) sentiment index
    word: np.ndarray  # (C,) packed word index of each cover's first word
    segments: np.ndarray  # (C + 1,) cover k owns rows segments[k]:segments[k + 1]
    row_offsets: np.ndarray  # (W,) packed index of the first span of each word's row
    classes: np.ndarray  # (S,) the chunk's classes, end to end


def _covers(lengths: np.ndarray, classes: np.ndarray, l_max: int) -> _Covers:
    """The first candidate step: find the covers of sentences of ``lengths``
    words sharing ``l_max``, their ``classes`` end to end."""
    # Spans are packed sentence after sentence, each row-major (span_layout):
    # word i's row holds min(l_max, n - i) spans.
    word_sentence = np.arange(len(lengths)).repeat(lengths)
    first_word = lengths.cumsum() - lengths
    local_word = np.arange(len(word_sentence)) - first_word[word_sentence]
    row_counts = np.minimum(l_max, lengths[word_sentence] - local_word)
    row_offsets = row_counts.cumsum() - row_counts

    covers = np.flatnonzero(classes & 3)
    word = row_offsets.searchsorted(covers, side="right") - 1
    widths = covers - row_offsets[word] + 1
    segments = np.zeros(len(covers) + 1, dtype=np.int64)
    np.cumsum(widths * (widths + 1) // 2, out=segments[1:])
    return _Covers(
        word_sentence[word],
        local_word[word],
        classes[covers] & 3,
        word,
        segments,
        row_offsets,
        classes,
    )


def _contained(covers: _Covers, lo: int, hi: int, width: int):
    """The second candidate step: one row per span inside covers
    ``lo:hi``, in segment order: its start and end relative to its cover's
    start, and its class. ``width`` is the widest cover's width or more."""
    heads = covers.segments[lo : hi + 1] - covers.segments[lo]
    owner = np.arange(hi - lo).repeat(heads[1:] - heads[:-1])
    table_starts, table_ends = _contained_table(width)
    row = np.arange(heads[-1]) - heads[owner]
    rel_start = table_starts[row]
    rel_end = table_ends[row]
    inside = covers.row_offsets[covers.word[lo:hi][owner] + rel_start] + (rel_end - rel_start)
    return rel_start, rel_end, covers.classes[inside]


def _keys_fit(sentences: int, radix: int) -> bool:
    """Whether the output sort keys of ``sentences`` sentences, spans of
    radix ``radix``, fit in int64."""
    return sentences * radix * radix * len(_POLARITIES) < 2**63


def _decode_chunk(batch: TagBatch, start: int, stop: int, diagnostics: np.ndarray) -> list[list[Triplet]]:
    """Decode sentences ``start:stop`` of ``batch``; adds the interleaved
    and the coinciding cover counts to ``diagnostics``."""
    lengths, l_max = batch.lengths[start:stop], batch.l_max
    classes = batch.classes[batch.offsets[start] : batch.offsets[stop]]
    n_max = int(lengths.max())
    w = min(l_max, n_max)
    # A span is (start, width) in the output sort key below, radix n_max * w;
    # a chunk whose keys could pass int64 is decoded one sentence at a time.
    radix = n_max * w
    if stop - start > 1 and not _keys_fit(stop - start, radix):
        return [decoded for i in range(start, stop) for decoded in _decode_chunk(batch, i, i + 1, diagnostics)]
    covers = _covers(lengths, classes, l_max)
    out: list[list[Triplet]] = [[] for _ in lengths]
    n_covers = len(covers.start)
    if not n_covers:
        return out
    # Per role (aspect, opinion) and cover: the earliest span, by its
    # (start, end) key, and the widest reaching, by its (end, start) key,
    # negated so that one minimum finds both; 'none' marks no such span.
    none = w * w
    best = np.empty((2, 2, n_covers), dtype=np.int64)
    lo = 0
    while lo < n_covers:
        end = covers.segments.searchsorted(covers.segments[lo] + ROW_BLOCK, side="right") - 1
        hi = max(lo + 1, int(end))
        rel_start, rel_end, classes = _contained(covers, lo, hi, w)
        keys = np.array([rel_start * w + rel_end, -(rel_end * w + rel_start)])
        roles = np.array([classes & ASPECT_BIT, classes & OPINION_BIT], dtype=bool)
        heads = covers.segments[lo:hi] - covers.segments[lo]
        best[:, :, lo:hi] = np.minimum.reduceat(np.where(roles[:, None], keys, none), heads, axis=2)
        lo = hi
    first, last = best[:, 0], -best[:, 1]
    found = (first[0] < none) & (first[1] < none)
    starts, reach = first // w, last // w
    interleaved = found & (reach[0] >= starts[1]) & (reach[1] >= starts[0])
    # Aspect side first: widest reach for the aspect, earliest start for the
    # opinion; otherwise the roles exchange. Both as (start, end) keys.
    last = (last % w) * w + reach
    chosen = np.where(starts[0] <= starts[1], [last[0], first[1]], [first[0], last[1]])
    coincide = found & (chosen[0] == chosen[1])
    diagnostics += (np.count_nonzero(interleaved), np.count_nonzero(coincide))
    keep = np.flatnonzero(found & ~coincide)
    if not len(keep):
        return out

    # One int64 key per triplet that orders like (sentence, aspect start,
    # aspect end, opinion start, opinion end, polarity value).
    chosen = chosen[:, keep]
    spans = (covers.start[keep] + chosen // w) * w + (chosen % w - chosen // w)
    key = (covers.sentence[keep] * radix + spans[0]) * radix + spans[1]
    key = key * len(_POLARITIES) + _POLARITY_RANK[covers.sentiment[keep]]
    rest, rank = np.divmod(np.unique(key), len(_POLARITIES))
    rest, opinion = np.divmod(rest, radix)
    rest, aspect = np.divmod(rest, radix)
    fields = [rest, aspect // w, aspect % w, opinion // w, opinion % w, rank]
    for s, a0, aw, o0, ow, p in zip(*(f.tolist() for f in fields)):
        out[s].append(Triplet(_span(a0, a0 + aw), _span(o0, o0 + ow), _POLARITIES[p]))
    return out


def decode_batch(batch: TagBatch) -> list[list[Triplet]]:
    """Decode one triplet per sentiment span of each sentence; each list
    sorted and deduplicated. The batch is decoded as it is packed,
    ``DECODE_CHUNK`` sentences at a time."""
    out: list[list[Triplet]] = []
    diagnostics = np.zeros(2, dtype=np.int64)
    for start in range(0, len(batch), DECODE_CHUNK):
        out += _decode_chunk(batch, start, min(start + DECODE_CHUNK, len(batch)), diagnostics)
    interleaved, coincide = diagnostics.tolist()
    if interleaved:
        logger.debug("%d sentiment spans hold interleaved aspect/opinion candidates", interleaved)
    if coincide:
        logger.debug("%d sentiment spans skipped: selected aspect and opinion coincide", coincide)
    return out


def decode_triplets(tags: TagMatrix) -> list[Triplet]:
    """Decode one triplet per sentiment span; output sorted and deduplicated."""
    return decode_batch(TagBatch.of([tags]))[0]
