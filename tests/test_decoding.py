"""Triplet decoding and its brute-force equivalence oracle."""

import numpy as np
import pytest

from fedspan.corpus import Polarity, Span, Triplet, parse_corpus
from fedspan.decoding import _candidate_sets, decode_triplets
from fedspan.tagging import (
    TagMatrix,
    derive_gold_tags,
    span_count,
    span_position,
    tag_index,
)

from reference_decoding import brute_force_decode, pairwise_decode, reference_candidate_sets

WORKED_LINE = "I especially like the backlit keyboard .####[([4, 5], [2], 'POS')]"


def tags_from(n, l_max, assignments):
    classes = np.zeros(span_count(n, l_max), dtype=np.int16)
    for span, cls in assignments.items():
        classes[span_position(n, l_max, span)] = cls
    return TagMatrix(n, l_max, classes)


A = tag_index(True, False, None)
O = tag_index(False, True, None)


def sentiment(pol):
    return tag_index(False, False, pol)


class TestDecode:
    def test_worked_example(self):
        tags = tags_from(
            7,
            10,
            {
                Span(4, 5): A,
                Span(2, 2): O,
                Span(2, 5): sentiment(Polarity.POS),
            },
        )
        assert decode_triplets(tags) == [Triplet(Span(4, 5), Span(2, 2), Polarity.POS)]

    def test_no_sentiment_spans(self):
        tags = tags_from(4, 4, {Span(0, 0): A, Span(1, 1): O})
        assert decode_triplets(tags) == []

    def test_missing_candidates_yield_nothing(self):
        tags = tags_from(4, 4, {Span(0, 3): sentiment(Polarity.NEG), Span(1, 1): A})
        assert decode_triplets(tags) == []

    def test_two_aspects_one_opinion(self):
        # Value frozen from brute_force_decode on this fixture: the opinion
        # side starts first, so roles exchange and the earliest aspect wins.
        tags = tags_from(
            4,
            4,
            {
                Span(1, 1): A,
                Span(3, 3): A,
                Span(0, 0): O,
                Span(0, 3): sentiment(Polarity.NEG),
            },
        )
        expected = [Triplet(Span(1, 1), Span(0, 0), Polarity.NEG)]
        assert brute_force_decode(tags) == expected
        assert decode_triplets(tags) == expected

    def test_aspect_first_picks_largest_right_boundary(self):
        tags = tags_from(
            5,
            5,
            {
                Span(0, 0): A,
                Span(2, 2): A,
                Span(4, 4): O,
                Span(0, 4): sentiment(Polarity.POS),
            },
        )
        assert decode_triplets(tags) == [Triplet(Span(2, 2), Span(4, 4), Polarity.POS)]

    def test_boundary_tie_prefers_shorter_span(self):
        tags = tags_from(
            5,
            5,
            {
                Span(0, 2): A,
                Span(1, 2): A,  # same right boundary, shorter
                Span(4, 4): O,
                Span(0, 4): sentiment(Polarity.NEU),
            },
        )
        assert decode_triplets(tags) == [Triplet(Span(1, 2), Span(4, 4), Polarity.NEU)]

    def test_coinciding_aspect_opinion_dropped(self):
        tags = tags_from(
            3,
            3,
            {
                Span(1, 1): tag_index(True, True, None),
                Span(0, 2): sentiment(Polarity.POS),
            },
        )
        assert decode_triplets(tags) == []
        assert brute_force_decode(tags) == []

    def test_duplicate_triplets_deduplicated(self):
        tags = tags_from(
            4,
            4,
            {
                Span(0, 0): A,
                Span(1, 1): O,
                Span(0, 1): sentiment(Polarity.POS),
                Span(0, 2): sentiment(Polarity.POS),
            },
        )
        assert decode_triplets(tags) == [Triplet(Span(0, 0), Span(1, 1), Polarity.POS)]

    def test_one_triplet_per_sentiment_span(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tags = random_tags(rng)
            decoded = decode_triplets(tags)
            n_sentiment = sum(1 for c in tags.classes if c & 3)
            assert len(decoded) <= n_sentiment


def random_tags(rng, max_n=7, min_n=1):
    n = int(rng.integers(min_n, max_n + 1))
    l_max = int(rng.integers(1, max_n + 1))
    total = span_count(n, l_max)
    classes = np.where(
        rng.random(total) < 0.7, 0, rng.integers(1, 16, total)
    ).astype(np.int16)
    return TagMatrix(n, l_max, classes)


class TestBruteForceEquivalence:
    def test_guard_on_long_sentences(self):
        with pytest.raises(ValueError):
            brute_force_decode(TagMatrix(11, 3, np.zeros(span_count(11, 3), dtype=np.int16)))

    def test_empty_tags(self):
        tags = TagMatrix(5, 3, np.zeros(span_count(5, 3), dtype=np.int16))
        assert brute_force_decode(tags) == []

    def test_worked_example_agreement(self):
        (sentence,) = parse_corpus(WORKED_LINE)
        tags = derive_gold_tags(sentence, 10)
        assert brute_force_decode(tags) == decode_triplets(tags)

    def test_random_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            tags = random_tags(rng)
            assert decode_triplets(tags) == brute_force_decode(tags)


class TestScalarReferenceOnLongSentences:
    """Sentences of predict-time length, beyond the brute-force guard."""

    def test_candidate_sets_match_scalar_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            tags = random_tags(rng, max_n=35, min_n=25)
            assert _candidate_sets(tags) == reference_candidate_sets(tags)

    def test_decode_matches_pairwise_reference(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            tags = random_tags(rng, max_n=35, min_n=25)
            assert decode_triplets(tags) == pairwise_decode(tags)

    def test_shipped_l_max_and_int64_classes(self):
        rng = np.random.default_rng(33)
        for n in range(25, 36):
            total = span_count(n, 10)
            classes = np.where(rng.random(total) < 0.9, 0, rng.integers(1, 16, total))
            tags = TagMatrix(n, 10, classes.astype(np.int64))
            assert _candidate_sets(tags) == reference_candidate_sets(tags)
            assert decode_triplets(tags) == pairwise_decode(tags)

    def test_misaligned_classes_rejected(self):
        with pytest.raises(ValueError):
            decode_triplets(TagMatrix(4, 4, np.zeros(span_count(4, 4) - 1, dtype=np.int16)))


class TestGoldRoundTrip:
    def test_worked_example(self):
        (sentence,) = parse_corpus(WORKED_LINE)
        tags = derive_gold_tags(sentence, 10)
        assert decode_triplets(tags) == sorted(
            sentence.triplets, key=lambda t: (t.aspect, t.opinion)
        )

    def test_decoded_triplets_export_in_line_format(self):
        from fedspan.corpus import Sentence, serialize_sentence

        (sentence,) = parse_corpus(WORKED_LINE)
        decoded = decode_triplets(derive_gold_tags(sentence, 10))
        exported = serialize_sentence(Sentence(sentence.tokens, tuple(decoded)))
        assert parse_corpus(exported)[0].triplets == sentence.triplets

    def test_disjoint_cover_sentences_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(4, 10))
            # Two non-overlapping aspect/opinion pairs with disjoint covers.
            cut = int(rng.integers(2, n - 1))
            triplets = []
            for lo, hi in ((0, cut), (cut, n)):
                if hi - lo < 2:
                    continue
                a = int(rng.integers(lo, hi))
                o = int(rng.integers(lo, hi))
                if a == o:
                    continue
                pol = [Polarity.POS, Polarity.NEG, Polarity.NEU][int(rng.integers(3))]
                triplets.append(Triplet(Span(a, a), Span(o, o), pol))
            from fedspan.corpus import Sentence

            sentence = Sentence(tuple(f"w{i}" for i in range(n)), tuple(triplets))
            tags = derive_gold_tags(sentence, 10)
            assert set(decode_triplets(tags)) == set(triplets)
