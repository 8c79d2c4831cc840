"""Reconstruct sentiment triplets from a predicted span-tag matrix.

Every span tagged with a sentiment hosts at most one aspect-opinion pair,
chosen among the aspect/opinion spans that fall inside it. Orientation is
decided by which role starts first; boundary ties prefer the shorter span.
The test suite checks the decoder against an exhaustive pairwise oracle.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .corpus import Polarity, Span, Triplet
from .tagging import ASPECT_BIT, INDEX_SENTIMENT, OPINION_BIT, TagMatrix, enumerate_spans

logger = logging.getLogger(__name__)


def _sort_key(triplet: Triplet) -> tuple:
    return (
        triplet.aspect.start,
        triplet.aspect.end,
        triplet.opinion.start,
        triplet.opinion.end,
        triplet.polarity.value,
    )


@lru_cache(maxsize=1024)
def _spans(n: int, l_max: int) -> tuple[Span, ...]:
    return tuple(enumerate_spans(n, l_max))


def _candidate_sets(tags: TagMatrix) -> tuple[list[Span], list[Span], list[tuple[Span, Polarity]]]:
    """Aspect, opinion and (sentiment span, polarity) candidates, in span order."""
    spans = _spans(tags.n, tags.l_max)
    classes = np.asarray(tags.classes)
    if classes.shape != (len(spans),):
        raise ValueError(f"need one class per span: {classes.shape} vs {len(spans)} spans")
    aspects = [spans[i] for i in np.flatnonzero(classes & ASPECT_BIT).tolist()]
    opinions = [spans[i] for i in np.flatnonzero(classes & OPINION_BIT).tolist()]
    sentiment = classes & 3
    tagged = np.flatnonzero(sentiment).tolist()
    sentiments = [
        (spans[i], INDEX_SENTIMENT[s]) for i, s in zip(tagged, sentiment[tagged].tolist())
    ]
    return aspects, opinions, sentiments


def decode_triplets(tags: TagMatrix) -> list[Triplet]:
    """Decode one triplet per sentiment span; output sorted and deduplicated."""
    aspects, opinions, sentiments = _candidate_sets(tags)
    out: set[Triplet] = set()
    for cover, polarity in sentiments:
        cand_a = [a for a in aspects if cover.contains(a)]
        cand_o = [o for o in opinions if cover.contains(o)]
        if not cand_a or not cand_o:
            continue
        min_a = min(a.start for a in cand_a)
        min_o = min(o.start for o in cand_o)
        if not (max(a.end for a in cand_a) < min_o or max(o.end for o in cand_o) < min_a):
            logger.debug(
                "interleaved aspect/opinion candidates inside sentiment span %s-%s",
                cover.start,
                cover.end,
            )
        if min_a <= min_o:
            # Aspect side comes first: widest reach for the aspect, earliest
            # start for the opinion; ties go to the shorter span.
            aspect = max(cand_a, key=lambda s: (s.end, s.start))
            opinion = min(cand_o, key=lambda s: (s.start, s.end))
        else:
            opinion = max(cand_o, key=lambda s: (s.end, s.start))
            aspect = min(cand_a, key=lambda s: (s.start, s.end))
        if aspect == opinion:
            logger.debug("selected aspect and opinion coincide in %s-%s, skipped", cover.start, cover.end)
            continue
        out.add(Triplet(aspect, opinion, polarity))
    return sorted(out, key=_sort_key)
