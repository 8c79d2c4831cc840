"""Scalar references for ``fedspan.decoding``.

The package selects candidate spans with array operations on the class
bits. This module keeps the straightforward forms as independent oracles:
a Python loop over every enumerated span, and a decoder that compares every
aspect-opinion pair inside each sentiment span.
"""

from fedspan.corpus import Triplet
from fedspan.tagging import ASPECT_BIT, INDEX_SENTIMENT, OPINION_BIT, enumerate_spans

MAX_BRUTE_FORCE_LENGTH = 10


def reference_candidate_sets(tags):
    """(aspects, opinions, [(sentiment span, polarity)]), one span at a time."""
    spans = enumerate_spans(tags.n, tags.l_max)
    aspects = []
    opinions = []
    sentiments = []
    for span, cls in zip(spans, tags.classes):
        cls = int(cls)
        if cls & ASPECT_BIT:
            aspects.append(span)
        if cls & OPINION_BIT:
            opinions.append(span)
        polarity = INDEX_SENTIMENT[cls & 3]
        if polarity is not None:
            sentiments.append((span, polarity))
    return aspects, opinions, sentiments


def _pair_better(new, best, aspect_first):
    # Lexicographic preference matching the selection rule: primary role by
    # largest right boundary (shorter on ties), secondary role by smallest
    # left boundary (shorter on ties).
    if aspect_first:
        primary_new, secondary_new = new
        primary_best, secondary_best = best
    else:
        secondary_new, primary_new = new
        secondary_best, primary_best = best
    key_new = (-primary_new.end, -primary_new.start, secondary_new.start, secondary_new.end)
    key_best = (-primary_best.end, -primary_best.start, secondary_best.start, secondary_best.end)
    return key_new < key_best


def brute_force_decode(tags):
    """Naive reference decoder, for short sentences only."""
    if tags.n > MAX_BRUTE_FORCE_LENGTH:
        raise ValueError(f"brute force decoder limited to n <= {MAX_BRUTE_FORCE_LENGTH}")
    return pairwise_decode(tags)


def pairwise_decode(tags):
    """Enumerate every aspect-opinion pair inside each sentiment span."""
    aspects, opinions, sentiments = reference_candidate_sets(tags)
    out = set()
    for cover, polarity in sentiments:
        cand_a = []
        for a in aspects:
            if cover.start <= a.start and a.end <= cover.end:
                cand_a.append(a)
        cand_o = []
        for o in opinions:
            if cover.start <= o.start and o.end <= cover.end:
                cand_o.append(o)
        if not cand_a or not cand_o:
            continue
        min_a = cover.end + 1
        for a in cand_a:
            min_a = min(min_a, a.start)
        min_o = cover.end + 1
        for o in cand_o:
            min_o = min(min_o, o.start)
        aspect_first = min_a <= min_o
        best = None
        for a in cand_a:
            for o in cand_o:
                if best is None or _pair_better((a, o), best, aspect_first):
                    best = (a, o)
        if best is not None and best[0] != best[1]:
            out.add(Triplet(best[0], best[1], polarity))
    return sorted(out, key=lambda t: (*t.aspect, *t.opinion, t.polarity.value))
