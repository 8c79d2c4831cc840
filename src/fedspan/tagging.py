"""Candidate span enumeration and the composite span-tag vocabulary.

A span carries a three-part tag: aspect flag (A/N), opinion flag (O/N) and
sentiment (POS/NEG/NEU/N), giving a 16-class product space. Class indices
pack the three parts as ``8*aspect + 4*opinion + sentiment_index``.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import Polarity, Sentence, Span

logger = logging.getLogger(__name__)

NUM_CLASSES = 16
ASPECT_BIT = 8
OPINION_BIT = 4

SENTIMENT_INDEX: dict[Polarity | None, int] = {
    None: 0,
    Polarity.POS: 1,
    Polarity.NEG: 2,
    Polarity.NEU: 3,
}
INDEX_SENTIMENT: dict[int, Polarity | None] = {v: k for k, v in SENTIMENT_INDEX.items()}


def tag_index(is_aspect: bool, is_opinion: bool, sentiment: Polarity | None) -> int:
    return ASPECT_BIT * bool(is_aspect) + OPINION_BIT * bool(is_opinion) + SENTIMENT_INDEX[sentiment]


def tag_components(index: int) -> tuple[bool, bool, Polarity | None]:
    if not 0 <= index < NUM_CLASSES:
        raise ValueError(f"tag class index out of range: {index}")
    return bool(index & ASPECT_BIT), bool(index & OPINION_BIT), INDEX_SENTIMENT[index & 3]


def tag_label(index: int) -> str:
    """Human-readable form, e.g. ``A-N-POS`` for class 9."""
    is_aspect, is_opinion, sentiment = tag_components(index)
    return "-".join(
        [
            "A" if is_aspect else "N",
            "O" if is_opinion else "N",
            sentiment.value if sentiment is not None else "N",
        ]
    )


def enumerate_spans(n: int, l_max: int) -> list[Span]:
    """All (i, j) with i <= j and width <= l_max, row-major (i asc, then j)."""
    if n < 1 or l_max < 1:
        raise ValueError("need n >= 1 and l_max >= 1")
    return [Span(i, j) for i in range(n) for j in range(i, min(i + l_max, n))]


@lru_cache(maxsize=1024)
def span_layout(n: int, l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, row_offsets) arrays for enumerate_spans(n, l_max), cached."""
    spans = enumerate_spans(n, l_max)
    starts = np.array([s.start for s in spans], dtype=np.int64)
    ends = np.array([s.end for s in spans], dtype=np.int64)
    counts = np.array([min(l_max, n - i) for i in range(n)], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for arr in (starts, ends, offsets):
        arr.setflags(write=False)
    return starts, ends, offsets


def span_count(n: int, l_max: int) -> int:
    return int(span_layout(n, l_max)[2][-1])


def span_counts(lengths: np.ndarray, l_max: int) -> np.ndarray:
    """``span_count`` of each length, in one array operation: word i starts
    ``min(l_max, n - i)`` spans."""
    widths = np.minimum(lengths, l_max)
    return widths * lengths - widths * (widths - 1) // 2


def span_position(n: int, l_max: int, span: Span) -> int:
    """Row-major index of a span within enumerate_spans(n, l_max)."""
    if not (0 <= span.start <= span.end < n):
        raise ValueError(f"span {span} out of range for length {n}")
    if span.width > l_max:
        raise ValueError(f"span {span} wider than l_max={l_max}")
    offsets = span_layout(n, l_max)[2]
    return int(offsets[span.start]) + (span.end - span.start)


@dataclass(frozen=True, eq=False)
class TagMatrix:
    """One class index per candidate span, in enumerate_spans order; checked when built."""

    n: int
    l_max: int
    classes: np.ndarray
    warnings: tuple[str, ...] = ()
    conflicts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        TagBatch(self.l_max, np.array([self.n]), self.classes)

    def tag_of(self, span: Span) -> int:
        return int(self.classes[span_position(self.n, self.l_max, span)])

    def to_json(self) -> str:
        spans = enumerate_spans(self.n, self.l_max)
        tags = {f"{s.start}:{s.end}": int(c) for s, c in zip(spans, self.classes)}
        return json.dumps({"n": self.n, "l_max": self.l_max, "tags": tags})


@dataclass(frozen=True, eq=False)
class TagBatch(Sequence[TagMatrix]):
    """The tag matrices of many sentences sharing one ``l_max``, packed:
    sentence i has ``lengths[i]`` words and its classes are
    ``classes[offsets[i]:offsets[i + 1]]``. Checked once, when built: a
    ``TagMatrix`` is checked as a one-sentence batch. Indexing, slicing and
    iteration build ``TagMatrix`` views on demand."""

    l_max: int
    lengths: np.ndarray  # (B,) int64
    classes: np.ndarray  # (S,) every sentence's classes, end to end
    offsets: np.ndarray = field(init=False, repr=False)  # (B + 1,) int64

    def __post_init__(self) -> None:
        if self.l_max < 1 or (self.lengths < 1).any():
            raise ValueError("need n >= 1 and l_max >= 1")
        offsets = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(span_counts(self.lengths, self.l_max), out=offsets[1:])
        total = int(offsets[-1])
        if np.shape(self.classes) != (total,):
            raise ValueError(f"need one class per span: {np.shape(self.classes)} vs {total} spans")
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def of(cls, matrices: Sequence[TagMatrix]) -> "TagBatch":
        """``matrices``, which share one ``l_max``, packed."""
        l_maxes = {tags.l_max for tags in matrices}
        if len(l_maxes) != 1:
            raise ValueError(f"need tag matrices of one l_max, got {sorted(l_maxes)}")
        lengths = np.array([tags.n for tags in matrices], dtype=np.int64)
        return cls(l_maxes.pop(), lengths, np.concatenate([tags.classes for tags in matrices]))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return TagMatrix(int(self.lengths[i]), self.l_max, self.classes[self.offsets[i] : self.offsets[i + 1]])


def derive_gold_tags(sentence: Sentence, l_max: int) -> TagMatrix:
    """Project gold triplets onto the candidate-span tag matrix.

    Each triplet marks its aspect span A, its opinion span O, and the minimal
    cover of the pair with the triplet's polarity. Roles landing on the same
    span combine per dimension. Gold spans wider than l_max are dropped with a
    warning; polarity clashes on one cover keep the earlier triplet.
    """
    n = len(sentence.tokens)
    total = span_count(n, l_max)
    aspect = np.zeros(total, dtype=bool)
    opinion = np.zeros(total, dtype=bool)
    sentiment = np.zeros(total, dtype=np.int16)
    warnings: list[str] = []
    conflicts: list[str] = []
    for t_idx, triplet in enumerate(sentence.triplets):
        for role, span, flags in (("aspect", triplet.aspect, aspect), ("opinion", triplet.opinion, opinion)):
            if span.width > l_max:
                warnings.append(
                    f"triplet {t_idx}: {role} span {span.start}-{span.end} wider than {l_max}, dropped"
                )
                continue
            flags[span_position(n, l_max, span)] = True
        cover = Span(
            min(triplet.aspect.start, triplet.opinion.start),
            max(triplet.aspect.end, triplet.opinion.end),
        )
        if cover.width > l_max:
            warnings.append(
                f"triplet {t_idx}: cover span {cover.start}-{cover.end} wider than {l_max}, dropped"
            )
            continue
        pos = span_position(n, l_max, cover)
        s_idx = SENTIMENT_INDEX[triplet.polarity]
        if sentiment[pos] == 0:
            sentiment[pos] = s_idx
        elif sentiment[pos] != s_idx:
            kept = INDEX_SENTIMENT[int(sentiment[pos])].value
            conflicts.append(
                f"triplet {t_idx}: cover {cover.start}-{cover.end} already "
                f"{kept}, ignoring {triplet.polarity.value}"
            )
            logger.warning("polarity conflict in %r: %s", sentence.text, conflicts[-1])
    classes = (ASPECT_BIT * aspect + OPINION_BIT * opinion + sentiment).astype(np.int16)
    return TagMatrix(n, l_max, classes, tuple(warnings), tuple(conflicts))
