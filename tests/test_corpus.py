"""Corpus parsing, serialization, deduplication and metrics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspan.corpus import (
    CorpusFormatError,
    Corpus,
    Polarity,
    Sentence,
    Span,
    Triplet,
    TripletMetrics,
    deduplicate,
    dedup_report_json,
    evaluate_triplets,
    parse_corpus,
    read_corpus_dir,
    serialize_corpus,
    serialize_sentence,
    write_corpus_dir,
)
from fedspan.tagging import TagMatrix, derive_gold_tags

WORKED_LINE = "I especially like the backlit keyboard .####[([4, 5], [2], 'POS')]"


def make_sentence(text, triplets=()):
    return Sentence(tuple(text.split()), tuple(triplets))


class TestParse:
    def test_worked_example(self):
        (sentence,) = parse_corpus(WORKED_LINE)
        assert sentence.tokens == ("I", "especially", "like", "the", "backlit", "keyboard", ".")
        assert sentence.triplets == (
            Triplet(Span(4, 5), Span(2, 2), Polarity.POS),
        )
        assert sentence.tokens[4:6] == ("backlit", "keyboard")
        assert sentence.tokens[2] == "like"

    def test_empty_triplet_list(self):
        (sentence,) = parse_corpus("ok .####[]")
        assert sentence.tokens == ("ok", ".")
        assert sentence.triplets == ()

    def test_unknown_polarity_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("good stuff####[([0], [1], 'POSITIVE')]")

    def test_error_carries_line_number(self):
        text = "fine .####[]\nbroken line without separator\n"
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        assert err.value.line_no == 2

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("a b c d####[([0, 2], [3], 'POS')]")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("a b####[([0], [5], 'NEG')]")

    def test_aspect_equal_opinion_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("a b####[([0], [0], 'NEG')]")

    def test_blank_lines_skipped(self):
        assert len(parse_corpus("\n\nok .####[]\n\n")) == 1

    def test_multi_index_lists_become_intervals(self):
        (sentence,) = parse_corpus("a b c d e####[([1, 2, 3], [0], 'NEU')]")
        assert sentence.triplets[0].aspect == Span(1, 3)


class TestRoundTrip:
    def test_serialize_matches_original(self):
        (sentence,) = parse_corpus(WORKED_LINE)
        assert serialize_sentence(sentence) == WORKED_LINE

    def test_random_sentences_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            tokens = tuple(f"w{rng.integers(0, 50)}" for _ in range(n))
            triplets = []
            for _ in range(int(rng.integers(0, 3))):
                a0 = int(rng.integers(0, n))
                a1 = int(rng.integers(a0, min(n, a0 + 3)))
                o0 = int(rng.integers(0, n))
                o1 = int(rng.integers(o0, min(n, o0 + 3)))
                if (a0, a1) == (o0, o1):
                    continue
                pol = [Polarity.POS, Polarity.NEG, Polarity.NEU][int(rng.integers(3))]
                triplets.append(Triplet(Span(a0, a1), Span(o0, o1), pol))
            sentence = Sentence(tokens, tuple(triplets))
            assert parse_corpus(serialize_sentence(sentence)) == [sentence]

    def test_serialize_corpus_round_trips(self):
        sentences = parse_corpus(WORKED_LINE + "\nok .####[]")
        assert parse_corpus(serialize_corpus(sentences)) == sentences

    def test_multi_word_term_round_trips_as_one_token_per_word(self, tmp_path):
        """A two-word aspect is two tokens, and the written corpus reads back
        with the same tokens and spans, from a string and from a directory."""
        sentence = Sentence(
            ("the", "cooling", "fan", "is", "great", "C#"),
            (Triplet(Span(1, 2), Span(4, 4), Polarity.POS),),
        )
        assert serialize_sentence(sentence) == "the cooling fan is great C#####[([1, 2], [4], 'POS')]"
        assert parse_corpus(serialize_corpus([sentence])) == [sentence]
        write_corpus_dir(Corpus("c", [sentence], [sentence], [sentence]), tmp_path)
        assert read_corpus_dir(tmp_path, "c").train == [sentence]

    @pytest.mark.parametrize("token", ["cooling fan", "fan\t", "\nfan", "fan\u2028"])
    def test_token_with_whitespace_not_written(self, token, tmp_path):
        """Tokens are written space-separated, so a token with whitespace
        in it would read back as several and shift every span after it."""
        # A sentence's own check does not look at whitespace: only the writer refuses it.
        sentence = Sentence(("the", token, "is", "great"), (Triplet(Span(1, 1), Span(3, 3), Polarity.POS),))
        for write in (
            lambda: serialize_sentence(sentence),
            lambda: serialize_corpus([sentence]),
            lambda: write_corpus_dir(Corpus("c", [sentence], [], []), tmp_path),
        ):
            with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} contains whitespace"):
                write()


class TestDeduplicate:
    def test_train_sentence_equal_to_own_test_removed(self):
        dup = make_sentence("the food was great")
        keep = make_sentence("the staff was rude")
        corpus = Corpus("a", train=[dup, keep], val=[], test=[dup])
        # Hand check: only the exact duplicate leaves train, test is untouched.
        (cleaned,), report = deduplicate([corpus])
        assert cleaned.train == [keep]
        assert cleaned.test == [dup]
        rows = {(e.split): (e.before, e.after) for e in report}
        assert rows["train"] == (2, 1)
        assert rows["test"] == (1, 1)

    def test_cross_corpus_removal(self):
        shared = make_sentence("common sentence here")
        a = Corpus("a", train=[shared], val=[shared], test=[])
        b = Corpus("b", train=[], val=[], test=[shared])
        (ca, cb), _ = deduplicate([a, b])
        assert ca.train == [] and ca.val == []
        assert cb.test == [shared]

    def test_disjoint_corpora_unchanged(self):
        a = Corpus("a", [make_sentence("x y")], [make_sentence("y z")], [make_sentence("z w")])
        (cleaned,), report = deduplicate([a])
        assert (len(cleaned.train), len(cleaned.val), len(cleaned.test)) == (1, 1, 1)
        assert all(e.before == e.after for e in report)

    def test_case_sensitivity_flag(self):
        upper = make_sentence("Great Phone")
        lower = make_sentence("great phone")
        corpus = Corpus("a", train=[upper], val=[], test=[lower])
        (strict,), _ = deduplicate([corpus])
        assert strict.train == [upper]
        (folded,), _ = deduplicate([corpus], case_sensitive=False)
        assert folded.train == []

    def test_dedup_property_no_overlap_remains(self):
        rng = np.random.default_rng(9)
        corpora = []
        pool = [make_sentence(f"tok{i} tok{j}") for i in range(6) for j in range(6)]
        for name in ("a", "b"):
            picks = rng.choice(len(pool), size=12, replace=False)
            corpora.append(
                Corpus(
                    name,
                    [pool[i] for i in picks[:6]],
                    [pool[i] for i in picks[6:9]],
                    [pool[i] for i in picks[9:]],
                )
            )
        cleaned, _ = deduplicate(corpora)
        test_keys = {s.tokens for c in cleaned for s in c.test}
        trainval_keys = {s.tokens for c in cleaned for s in c.train + c.val}
        assert not (test_keys & trainval_keys)

    def test_report_json_shape(self):
        corpus = Corpus("a", [make_sentence("x")], [], [])
        _, report = deduplicate([corpus])
        rows = __import__("json").loads(dedup_report_json(report))
        assert {"corpus", "split", "before", "after"} == set(rows[0])


class TestEvaluate:
    def t(self, a0, a1, o0, o1, pol=Polarity.POS):
        return Triplet(Span(a0, a1), Span(o0, o1), pol)

    def test_exact_match_is_perfect(self):
        gold = [[self.t(0, 0, 1, 1)], [self.t(2, 3, 0, 0, Polarity.NEG)]]
        metrics = evaluate_triplets(gold, gold)
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0

    def test_empty_predictions(self):
        gold = [[self.t(0, 0, 1, 1)]]
        metrics = evaluate_triplets([[]], gold)
        assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)

    def test_half_overlap(self):
        t1, t2, t3 = self.t(0, 0, 1, 1), self.t(2, 2, 3, 3), self.t(4, 4, 5, 5)
        # Hand count: tp=1 (t1), fp=1 (t3), fn=1 (t2).
        metrics = evaluate_triplets([[t1, t3]], [[t1, t2]])
        assert metrics.tp == 1 and metrics.fp == 1 and metrics.fn == 1
        assert metrics.precision == pytest.approx(0.5)
        assert metrics.recall == pytest.approx(0.5)
        assert metrics.f1 == pytest.approx(0.5)

    def test_duplicates_counted_once(self):
        t1 = self.t(0, 0, 1, 1)
        metrics = evaluate_triplets([[t1, t1]], [[t1]])
        assert metrics.tp == 1 and metrics.fp == 0

    def test_misaligned_lengths_error(self):
        with pytest.raises(ValueError):
            evaluate_triplets([[]], [[], []])

    def test_symmetry_of_f1(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            def batch():
                return [
                    [self.t(int(a), int(a), int(a) + 1, int(a) + 1) for a in rng.integers(0, 4, rng.integers(0, 3))]
                    for _ in range(3)
                ]
            x, y = batch(), batch()
            assert evaluate_triplets(x, y).f1 == pytest.approx(evaluate_triplets(y, x).f1)

    def test_from_counts_zero_guard(self):
        metrics = TripletMetrics.from_counts(0, 0, 0)
        assert metrics.f1 == 0.0


def test_sentence_rejects_bad_spans():
    with pytest.raises(ValueError, match="aspect span 0-2 out of range for length 2"):
        make_sentence("a b", [Triplet(Span(0, 2), Span(1, 1), Polarity.POS)])
    with pytest.raises(ValueError, match="sentence has no tokens"):
        Sentence(())


def broken_rule(tokens, triplets):
    """The message of the first sentence rule ``tokens`` and ``triplets``
    break, or None: tokens present and none empty, spans in range, aspect
    and opinion apart."""
    if not tokens:
        return "sentence has no tokens"
    if "" in tokens:
        return "sentence contains an empty token"
    n = len(tokens)
    for t in triplets:
        for role, span in (("aspect", t.aspect), ("opinion", t.opinion)):
            if not 0 <= span.start <= span.end < n:
                return f"{role} span {span.start}-{span.end} out of range for length {n}"
        if t.aspect == t.opinion:
            return f"aspect and opinion intervals coincide: {t.aspect}"
    return None


@st.composite
def sentence_parts(draw):
    """Tokens (some empty, or none at all) and 0-3 triplets whose span ends
    lie in [-1, n + 1]."""
    tokens = tuple(draw(st.lists(st.sampled_from(["a", "bb", "c.", ""]), max_size=6)))
    end = st.integers(-1, len(tokens) + 1)
    span = st.builds(Span, end, end)
    triplets = draw(st.lists(st.builds(Triplet, span, span, st.sampled_from(list(Polarity))), max_size=3))
    return tokens, tuple(triplets)


@settings(max_examples=300, deadline=None)
@given(sentence_parts(), st.integers(1, 4))
def test_sentence_checks_itself(parts, l_max):
    """A sentence is refused when it is built exactly when it breaks a
    rule, and a corpus line holding it is refused with its line number."""
    tokens, triplets = parts
    if message := broken_rule(tokens, triplets):
        with pytest.raises(ValueError) as err:
            Sentence(tokens, triplets)
        assert str(err.value) == message
    else:
        sentence = Sentence(tokens, triplets)
        # Its tag matrix is refused with one class too few, one too many, or a column of classes.
        classes = derive_gold_tags(sentence, l_max).classes
        assert len(TagMatrix(len(tokens), l_max, classes).classes) == len(classes)
        for bad in (classes[:-1], np.append(classes, 0), classes[:, None]):
            with pytest.raises(ValueError, match="need one class per span"):
                TagMatrix(len(tokens), l_max, bad)

    # Written out, empty tokens vanish between the spaces.
    def indices(span):
        return list(range(span.start, span.end + 1))

    entries = [(indices(t.aspect), indices(t.opinion), t.polarity.value) for t in triplets]
    text = f"fine .####[]\n{' '.join(tokens)}####{entries!r}\n"
    written = tuple(tok for tok in tokens if tok)
    if message := broken_rule(written, triplets):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        assert err.value.line_no == 2
        if all(t.aspect.start <= t.aspect.end and t.opinion.start <= t.opinion.end for t in triplets):
            assert str(err.value) == f"line 2: {message}"  # else the index list is empty
    else:
        assert parse_corpus(text)[1] == Sentence(written, triplets)


def test_read_corpus_dir_accepts_benchmark_file_names(tmp_path):
    from fedspan.corpus import read_corpus_dir

    (tmp_path / "train_triplets.txt").write_text(WORKED_LINE + "\n")
    (tmp_path / "dev_triplets.txt").write_text("ok .####[]\n")
    (tmp_path / "test_triplets.txt").write_text("fine .####[]\n")
    corpus = read_corpus_dir(tmp_path, "14lap")
    assert corpus.name == "14lap"
    assert len(corpus.train) == 1 and len(corpus.val) == 1 and len(corpus.test) == 1


def test_read_corpus_dir_missing_split(tmp_path):
    from fedspan.corpus import read_corpus_dir

    (tmp_path / "train.txt").write_text("ok .####[]\n")
    with pytest.raises(FileNotFoundError):
        read_corpus_dir(tmp_path)


@pytest.mark.parametrize(
    "content, message, line_no",
    [
        (b"fine .####[([0], [1], 'BAD')]\n", "{path} line 1: unknown polarity 'BAD'", 1),
        (b"\xff\n", "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", None),
    ],
    ids=["bad_polarity", "not_utf8"],
)
def test_read_corpus_dir_errors_name_the_file(tmp_path, content, message, line_no):
    """A split file that does not parse is named in the error; a format
    error keeps its line number."""
    from fedspan.corpus import read_corpus_dir

    (tmp_path / "train.txt").write_text("ok .####[]\n")
    (tmp_path / "val.txt").write_text("ok .####[]\n")
    (tmp_path / "test.txt").write_bytes(content)
    with pytest.raises(ValueError) as err:
        read_corpus_dir(tmp_path)
    assert str(err.value) == message.format(path=tmp_path / "test.txt")
    assert getattr(err.value, "line_no", None) == line_no
