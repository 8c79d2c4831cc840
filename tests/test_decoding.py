"""Triplet decoding and its brute-force equivalence oracle."""

import logging
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspan import decoding
from fedspan.corpus import Polarity, Span, Triplet, parse_corpus
from fedspan.decoding import DECODE_CHUNK, _contained, _covers, decode_batch, decode_triplets
from fedspan.tagging import (
    TagBatch,
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


def packed_candidates(tags):
    """The packed candidate steps on one sentence, as (sentiment spans with
    their polarity, then each one's aspects and opinions inside it)."""
    covers = _covers(np.array([tags.n]), tags.classes, tags.l_max)
    rel_start, rel_end, classes = _contained(covers, 0, len(covers.start), min(tags.l_max, tags.n))
    assert not covers.sentence.any()
    sentiments, inside = [], []
    for k, s0 in enumerate(covers.start.tolist()):
        rows = slice(covers.segments[k], covers.segments[k + 1])
        ends = zip(rel_start[rows].tolist(), rel_end[rows].tolist())
        spans = [Span(s0 + a, s0 + b) for a, b in ends]
        cover = Span(s0, max(span.end for span in spans))
        # Every span inside the cover, once.
        assert sorted(spans) == [
            Span(i, j) for i in range(cover.start, cover.end + 1) for j in range(i, cover.end + 1)
        ]
        polarity = {1: Polarity.POS, 2: Polarity.NEG, 3: Polarity.NEU}[int(covers.sentiment[k])]
        sentiments.append((cover, polarity))
        cls = dict(zip(spans, classes[rows].tolist()))
        inside.append(
            (sorted(a for a in spans if cls[a] & A), sorted(o for o in spans if cls[o] & O))
        )
    return sentiments, inside


def reference_candidates(tags):
    """The same, from the scalar loop over every enumerated span."""
    aspects, opinions, sentiments = reference_candidate_sets(tags)
    inside = [
        ([a for a in aspects if cover.contains(a)], [o for o in opinions if cover.contains(o)])
        for cover, _ in sentiments
    ]
    return sentiments, inside


def random_tags(rng, max_n=7, min_n=1, l_max=None):
    n = int(rng.integers(min_n, max_n + 1))
    l_max = l_max or int(rng.integers(1, max_n + 1))
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
            assert packed_candidates(tags) == reference_candidates(tags)

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
            assert packed_candidates(tags) == reference_candidates(tags)
            assert decode_triplets(tags) == pairwise_decode(tags)

    def test_misaligned_classes_rejected(self):
        with pytest.raises(ValueError):
            decode_triplets(TagMatrix(4, 4, np.zeros(span_count(4, 4) - 1, dtype=np.int16)))


@st.composite
def tag_batches(draw):
    """1-8 tag matrices of mixed length, packed: one l_max and one class
    dtype per batch. The batch tags no span, every span, or a random share
    of them."""
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    l_max = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    batch = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 40))
        total = span_count(n, l_max)
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        tagged = rng.random(total) < density
        classes = np.where(tagged, rng.integers(1, 16, total), 0)
        batch.append(TagMatrix(n, l_max, classes.astype(dtype)))
    return TagBatch.of(batch)


class TestPackedDecoder:
    """``decode_batch`` over batches of mixed lengths against the per-sentence oracles."""

    @settings(max_examples=150, deadline=None)
    @given(tag_batches())
    def test_matches_oracles_per_sentence(self, batch):
        decoded = decode_batch(batch)
        assert len(decoded) == len(batch)
        for tags, triplets in zip(batch, decoded):
            assert triplets == pairwise_decode(tags)
            if tags.n <= 10:
                assert triplets == brute_force_decode(tags)
            assert decode_triplets(tags) == triplets

    @settings(max_examples=50, deadline=None)
    @given(tag_batches())
    def test_one_matrix_is_a_one_sentence_batch(self, batch):
        for tags in batch:
            assert decode_triplets(tags) == decode_batch(TagBatch.of([tags]))[0]

    def test_empty_batch(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="fedspan.decoding"):
            assert decode_batch(TagBatch(5, np.zeros(0, np.int64), np.zeros(0, np.int16))) == []
        assert caplog.records == []

    @settings(max_examples=50, deadline=None)
    @given(tag_batches())
    def test_candidates_match_scalar_loop(self, batch):
        for tags in batch:
            assert packed_candidates(tags) == reference_candidates(tags)

    @settings(max_examples=50, deadline=None)
    @given(tag_batches(), st.integers(1, 60))
    def test_row_blocks(self, batch, block):
        """Reducing the spans inside sentiment spans a few rows at a time
        gives the same triplets."""
        whole = decode_batch(batch)
        saved = decoding.ROW_BLOCK
        decoding.ROW_BLOCK = block
        try:
            assert decode_batch(batch) == whole
        finally:
            decoding.ROW_BLOCK = saved

    def test_wide_spans(self):
        """Sentiment spans up to 200 words wide: several row blocks, with
        thousands of spans inside one sentiment span."""
        rng = np.random.default_rng(9)
        for l_max in (182, 200, 260):
            n = 200
            total = span_count(n, l_max)
            classes = np.zeros(total, dtype=np.int16)
            classes[rng.choice(total, 60, replace=False)] = rng.integers(1, 16, 60)
            tags = TagMatrix(n, l_max, classes)
            assert decode_triplets(tags) == pairwise_decode(tags)

    def test_calls_longer_than_a_chunk(self):
        rng = np.random.default_rng(5)
        for l_max in (3, 12):
            batch = [random_tags(rng, max_n=12, l_max=l_max) for _ in range(2 * DECODE_CHUNK + 3)]
            assert decode_batch(TagBatch.of(batch)) == [pairwise_decode(tags) for tags in batch]

    def test_chunk_decoded_one_sentence_at_a_time(self, monkeypatch):
        """A chunk whose sort keys could pass int64 is decoded one sentence
        at a time, each sliced by the batch's offsets: the same triplets."""
        rng = np.random.default_rng(11)
        batch = TagBatch.of([random_tags(rng, max_n=12, l_max=4) for _ in range(20)])
        expected = [pairwise_decode(tags) for tags in batch]
        assert any(expected)
        monkeypatch.setattr(decoding, "_keys_fit", lambda sentences, radix: sentences == 1)
        assert decode_batch(batch) == expected

    def test_temporaries_bounded_by_the_chunk(self):
        """With every span tagged, a call of eight chunks needs no more
        memory beyond the triplets it returns than a call of one."""
        rng = np.random.default_rng(3)

        def beyond_output(count):
            batch = TagBatch.of([
                TagMatrix(12, 10, rng.integers(1, 16, span_count(12, 10)).astype(np.int16))
                for _ in range(count)
            ])
            decode_batch(TagBatch.of(batch[:1]))
            tracemalloc.start()
            try:
                triplets = decode_batch(batch)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(triplets) == count
            return peak - held

        one, eight = beyond_output(DECODE_CHUNK), beyond_output(8 * DECODE_CHUNK)
        assert 0 < eight < 1.25 * one

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_misaligned_classes_rejected(self, dtype):
        """A batch of two 4-word sentences (20 spans) is refused when its
        classes are not one per span, so none reaches the decoder."""
        lengths = np.array([4, 4], dtype=np.int64)
        assert decode_batch(TagBatch(4, lengths, np.zeros(20, dtype=dtype))) == [[], []]
        for shape in ((19,), (21,), (20, 1)):
            with pytest.raises(ValueError, match=re.escape(f"need one class per span: {shape} vs 20 spans")):
                TagBatch(4, lengths, np.zeros(shape, dtype=dtype))

    def test_diagnostics_logged_once_per_call(self, caplog):
        interleaved = tags_from(
            5, 5, {Span(0, 0): A, Span(1, 1): O, Span(2, 2): A, Span(0, 4): sentiment(Polarity.POS)}
        )
        coinciding = tags_from(
            3, 5, {Span(1, 1): tag_index(True, True, None), Span(0, 2): sentiment(Polarity.POS)}
        )
        with caplog.at_level(logging.DEBUG, logger="fedspan.decoding"):
            decode_batch(TagBatch.of([interleaved, coinciding, interleaved, coinciding]))
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        # A span that is both aspect and opinion also counts as interleaved.
        assert messages[0].startswith("4 ") and "interleaved" in messages[0]
        assert messages[1].startswith("2 ") and "coincide" in messages[1]


def random_batch(seed, count, l_max, density, max_n=12):
    """A ``TagBatch`` of ``count`` sentences of 1 to ``max_n`` words,
    tagging about ``density`` of their spans."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_n + 1, count)
    total = sum(span_count(int(n), l_max) for n in lengths)
    classes = np.where(rng.random(total) < density, rng.integers(1, 16, total), 0)
    return TagBatch(l_max, lengths, classes.astype(np.int16))


class TestTagBatch:
    """The packed tag matrices of one ``predict_tags`` call."""

    def test_refuses_what_a_tag_matrix_refuses(self):
        """Misaligned classes, 2-D classes, a length of 0 and an ``l_max``
        of 0 are refused when the batch is built; a ``TagMatrix`` is checked
        as a one-sentence batch, so it gives the batch's message."""
        unsized = "need n >= 1 and l_max >= 1"
        misaligned = "need one class per span: {} vs 10 spans"
        cases = [
            ((4, 4, np.zeros(9, np.int16)), (4, [4], np.zeros(9, np.int16)), misaligned.format("(9,)")),
            ((4, 4, np.zeros(11, np.int16)), (4, [4], np.zeros(11, np.int16)), misaligned.format("(11,)")),
            ((4, 4, np.zeros((10, 1), np.int16)), (4, [4], np.zeros((10, 1), np.int16)), misaligned.format("(10, 1)")),
            ((4, 4, np.zeros((2, 5), np.int16)), (4, [4], np.zeros((2, 5), np.int16)), misaligned.format("(2, 5)")),
            ((0, 4, np.zeros(0, np.int16)), (4, [3, 0], np.zeros(6, np.int16)), unsized),
            ((4, 0, np.zeros(0, np.int16)), (0, [4], np.zeros(0, np.int16)), unsized),
        ]
        for matrix_args, (l_max, lengths, classes), message in cases:
            for build in (lambda: TagBatch(l_max, np.array(lengths, dtype=np.int64), classes),
                          lambda: TagMatrix(*matrix_args)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build()
        with pytest.raises(ValueError, match=re.escape("need one class per span: (15,) vs 16 spans")):
            TagBatch(4, np.array([4, 3], dtype=np.int64), np.zeros(15, np.int16))

    def test_views_and_packing(self):
        rng = np.random.default_rng(4)
        matrices = [
            TagMatrix(n, 9, rng.integers(0, 16, span_count(n, 9)).astype(np.int16)) for n in (3, 12, 1, 9, 10, 5)
        ]
        batch = TagBatch.of(matrices)
        assert batch.classes.dtype == np.int16 and batch.lengths.dtype == np.int64
        assert len(batch) == 6 and batch.offsets.tolist()[-1] == len(batch.classes)
        for got in (list(batch), batch[:], [batch[i] for i in range(-6, 0)]):
            assert [(t.n, t.l_max, t.classes.tobytes()) for t in got] == [
                (m.n, m.l_max, m.classes.tobytes()) for m in matrices
            ]
        assert [t.n for t in batch[4:1:-2]] == [matrices[4].n, matrices[2].n]
        with pytest.raises(IndexError):
            batch[6]
        with pytest.raises(ValueError, match=re.escape("need tag matrices of one l_max, got [3, 9]")):
            TagBatch.of([*matrices, TagMatrix(2, 3, np.zeros(3, np.int16))])
        assert len(TagBatch(5, np.zeros(0, np.int64), np.zeros(0, np.int16))) == 0

    @pytest.mark.parametrize("fallback", [False, True], ids=["packed", "int64_fallback"])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 3 * DECODE_CHUNK),
        l_max=st.integers(1, 12),
        density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    @example(seed=0, count=2 * DECODE_CHUNK + 3, l_max=10, density=0.3)
    def test_decodes_as_the_oracle_per_sentence(self, fallback, seed, count, l_max, density):
        """``decode_batch`` decodes a ``TagBatch`` in place, as
        ``pairwise_decode`` decodes each of its sentences, over several
        chunks; also when every chunk's sort keys are taken not to fit in
        int64, so that it decodes one sentence at a time."""
        batch = random_batch(seed, count, l_max, density)
        with mock.patch.object(decoding, "_keys_fit", side_effect=lambda *_: not fallback) as fits:
            decoded = decode_batch(batch)
        assert fits.called == (count > 1)
        assert decoded == [pairwise_decode(tags) for tags in batch]

    def test_sort_keys_fit_below_two_to_the_63(self):
        """A chunk's largest sort key is sentences * radix**2 * 3 - 1 (three
        polarities): two sentences at radix 2**30 fit int64, three do not."""
        assert decoding._keys_fit(2, 2**30) and not decoding._keys_fit(3, 2**30)


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
