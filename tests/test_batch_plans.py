"""Training batches and scoring groups, packed in passes, against the
per-batch oracle (``reference_plans``): every field, values and dtype, and
the classes scoring gives."""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedspan.encoder as encoder_module
from fedspan.corpus import Sentence
from fedspan.encoder import (
    BatchPlan,
    EncoderConfig,
    SpanBatch,
    Tokenizer,
    _Packing,
    encode_words,
    score_spans,
    unit_prototypes,
)
from fedspan.model import SCORE_GROUP, SpanTagger, select_spans
from fedspan.prototypes import PrototypeSet
from fedspan.tagging import span_count

from reference_plans import one_group, reference_plan, reference_span_batch


def random_words(rng, n):
    letters = list("abcdefgh")
    return ["".join(rng.choice(letters, int(rng.integers(1, 8)))) for _ in range(n)]


def assert_same_fields(got, want):
    """Two ``BatchPlan``s or ``SpanBatch``es with equal fields: arrays of
    one dtype and shape and equal values, the rest equal."""
    assert type(got) is type(want)
    for name in (f.name for f in dataclasses.fields(want)):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, (BatchPlan, SpanBatch)):
            assert_same_fields(a, b)
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


def epoch_case(seed, lengths, l_max=4, precision="float32", prototypes=False):
    """A config, the tokenized sentences of these lengths, their spans'
    starts, random gold classes (mostly background), the selection
    ``select_spans`` draws, and the unit prototypes or (None, None)."""
    rng = np.random.default_rng(seed)
    config = EncoderConfig(
        vocab_size=97, embed_dim=3, hidden_dim=4, rep_dim=3, chunk_size=2, l_max=l_max, precision=precision
    )
    tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
    toks = [tokenizer.tokenize(random_words(rng, n)) for n in lengths]
    starts = np.cumsum([0, *(span_count(n, l_max) for n in lengths)])
    gold = np.where(rng.random(starts[-1]) < 0.7, 0, rng.integers(1, 16, starts[-1])).astype(np.int16)
    selected = select_spans(rng, gold, starts, 1.0)
    protos = (None, None)
    if prototypes:
        present = rng.random(16) < 0.6
        matrix = np.where(present[:, None], rng.normal(size=(16, config.rep_dim)), 0.0)
        protos = unit_prototypes(PrototypeSet.from_arrays(matrix, present), config.dtype)
    return config, toks, starts, gold, selected, protos


def oracle_epoch(toks, starts, gold, selected, batch_size, config, protos):
    """The plans of the epoch's batches, each packed on its own."""
    for lo in range(0, len(toks), batch_size):
        hi = min(lo + batch_size, len(toks))
        spans = slice(starts[lo], starts[hi])
        yield reference_plan(toks[lo:hi], gold[spans], np.flatnonzero(selected[spans]), config, *protos)


def build_epoch(case, batch_size):
    config, toks, _, gold, selected, protos = case
    return list(BatchPlan.build_epoch(toks, gold, selected, batch_size, config, *protos))


def assert_matches_oracle(case, batch_size):
    config, toks, starts, gold, selected, protos = case
    got = build_epoch(case, batch_size)
    want = list(oracle_epoch(toks, starts, gold, selected, batch_size, config, protos))
    assert len(got) == len(want)
    for plan, oracle in zip(got, want):
        assert_same_fields(plan, oracle)


@contextlib.contextmanager
def recording_passes():
    """The span total and the group count of each pass packed inside."""
    totals = []
    of = _Packing.of.__func__

    def recording(cls, *args):
        packing = of(cls, *args)
        totals.append((packing.spans[-1], len(packing.groups) - 1))
        return packing

    with mock.patch.object(_Packing, "of", classmethod(recording)):
        yield totals


@pytest.fixture
def passes():
    with recording_passes() as totals:
        yield totals


# Sentence lengths of 1 to 9 words at l_max 4, so some are longer than l_max.
LENGTHS = [3, 9, 1, 5, 4, 2, 7, 6, 1, 8, 3, 5, 9, 2, 4, 6, 1, 7, 5, 3, 8]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("prototypes", [False, True])
class TestEpochPasses:
    def test_partial_last_batch(self, precision, prototypes, passes):
        case = epoch_case(0, LENGTHS, precision=precision, prototypes=prototypes)
        assert len(LENGTHS) % 8
        assert_matches_oracle(case, 8)
        assert passes == [(case[2][-1], 3)]  # one pass, all three batches

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
    def test_batch_sizes(self, precision, prototypes, batch_size):
        """One sentence per batch, then sizes that leave a partial batch,
        then one batch larger than the epoch."""
        assert_matches_oracle(epoch_case(1, LENGTHS, precision=precision, prototypes=prototypes), batch_size)

    def test_one_word_sentences(self, precision, prototypes):
        assert_matches_oracle(epoch_case(2, [1] * 11, precision=precision, prototypes=prototypes), 4)
        mixed = [1, 6, 1, 1, 2, 1, 9]
        assert_matches_oracle(epoch_case(3, mixed, precision=precision, prototypes=prototypes), 2)

    def test_sentences_longer_than_l_max(self, precision, prototypes):
        """Batches of sentences all longer than l_max next to a batch of
        shorter ones, which is narrower than the pass."""
        lengths = [12, 15, 5, 9, 2, 3, 1, 3]
        case = epoch_case(4, lengths, l_max=4, precision=precision, prototypes=prototypes)
        plans = build_epoch(case, 4)
        assert [plan.batch.width for plan in plans] == [4, 3]
        assert_matches_oracle(case, 4)

    def test_epoch_split_over_several_passes(self, precision, prototypes, passes, monkeypatch):
        monkeypatch.setattr(encoder_module, "PASS_SPANS", 60)
        case = epoch_case(5, LENGTHS * 2, precision=precision, prototypes=prototypes)
        assert_matches_oracle(case, 3)
        assert len(passes) > 2
        assert all(spans <= 60 for spans, batches in passes if batches > 1)
        assert sum(spans for spans, _ in passes) == case[2][-1]

    def test_batch_over_the_bound_gets_its_own_pass(self, precision, prototypes, passes, monkeypatch):
        monkeypatch.setattr(encoder_module, "PASS_SPANS", 40)
        case = epoch_case(6, [9, 9, 9, 9, 2, 1, 1, 2], precision=precision, prototypes=prototypes)
        assert_matches_oracle(case, 2)
        # The first two batches have 60 spans each, the last two 4 each.
        assert passes == [(60, 1), (60, 1), (8, 2)]


def assert_passes_cover(passes, group_spans, bound):
    """Passes, as (span total, group count), cover the groups of
    ``group_spans`` spans in order; each holds at most ``bound`` spans or is
    a single group, and takes groups while the next fits."""
    edges = np.cumsum([0, *(groups for _, groups in passes)]).tolist()
    assert edges[-1] == len(group_spans)
    for (total, _), lo, hi in zip(passes, edges, edges[1:]):
        assert lo < hi
        assert total == sum(group_spans[lo:hi])
        assert total <= bound or hi - lo == 1
        if hi < len(group_spans):
            assert total + group_spans[hi] > bound


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=40), st.integers(1, 10), st.integers(1, 3000))
def test_no_pass_over_the_bound_unless_one_batch(lengths, batch_size, bound):
    """Both callers of ``packed_passes`` keep the bound: training, in
    batches of ``batch_size``, and scoring, in groups of ``SCORE_GROUP``."""
    tagger = SpanTagger(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3)
    tagger._initialize()
    rng = np.random.default_rng(len(lengths))
    sentences = [Sentence(tuple(random_words(rng, n))) for n in lengths]
    toks = [tagger._tokenizer.tokenize(s.tokens) for s in sentences]
    spans = [span_count(n, tagger.config.l_max) for n in lengths]
    gold = np.zeros(sum(spans), np.int16)
    with mock.patch.object(encoder_module, "PASS_SPANS", bound), recording_passes() as passes:
        for _ in BatchPlan.build_epoch(toks, gold, gold != 0, batch_size, tagger.config, None, None):
            pass
        training = passes[:]
        passes.clear()
        tagger.predict_tags(sentences)
    for group_size, recorded in ((batch_size, training), (SCORE_GROUP, passes)):
        group_spans = [sum(spans[lo : lo + group_size]) for lo in range(0, len(spans), group_size)]
        assert_passes_cover(recorded, group_spans, bound)


def test_training_plans_passes_within_the_bound(passes, monkeypatch):
    """``partial_fit`` plans every epoch through ``build_epoch``: at the
    default bound a small client's epoch is one pass, and with a small bound
    no pass of several batches holds more spans than it."""
    rng = np.random.default_rng(7)
    sentences = [Sentence(tuple(random_words(rng, int(n)))) for n in rng.integers(1, 16, 40)]
    SpanTagger(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3).fit(sentences, epochs=2)
    assert [batches for _, batches in passes] == [5, 5]
    passes.clear()
    monkeypatch.setattr(encoder_module, "PASS_SPANS", 200)
    SpanTagger(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3).fit(sentences, epochs=2)
    assert len(passes) > 2
    assert all(spans <= 200 for spans, batches in passes if batches > 1)


@pytest.mark.parametrize("seed", range(10))
def test_scoring_groups_match_the_oracle(seed, monkeypatch):
    """A group packed on its own, pooled per span and, with no spans-per-word
    threshold, by window, against the per-batch oracle."""
    rng = np.random.default_rng(seed)
    tokenizer = Tokenizer(97, 2)
    lengths = rng.integers(1, 14, int(rng.integers(1, 9)))
    toks = [tokenizer.tokenize(random_words(rng, int(n))) for n in lengths]
    for precision in ("float32", "float64"):
        want = reference_span_batch(toks, 5, precision)
        assert_same_fields(one_group(toks, 5, np.dtype(precision)), want)
    monkeypatch.setattr(encoder_module, "WINDOW_SPANS_PER_WORD", 0)
    want = reference_span_batch(toks, 5, "float32", windows=True)
    assert want.windows is not None
    assert_same_fields(one_group(toks, 5, np.dtype("float32"), windows=True), want)


@pytest.mark.parametrize("rep_dim", [1, 4], ids=["per_span", "by_window"])
@pytest.mark.parametrize("n_sentences", [1, 8, 9, 40])
def test_scoring_passes_match_the_per_group_oracle(n_sentences, rep_dim, passes, monkeypatch):
    """``predict_tags`` scores its groups of ``SCORE_GROUP`` sentences in
    passes, and each sentence's classes are those its group's oracle batch
    (``reference_span_batch``) scores, byte for byte. At rep_dim 1 no group
    pools by window; at rep_dim 4, with no spans-per-word threshold, every
    group does. 40 sentences take several passes, some of several groups."""
    monkeypatch.setattr(encoder_module, "PASS_SPANS", 500)
    monkeypatch.setattr(encoder_module, "WINDOW_SPANS_PER_WORD", 0)
    rng = np.random.default_rng(n_sentences)
    sentences = [Sentence(tuple(random_words(rng, int(n)))) for n in rng.integers(1, 13, n_sentences)]
    tagger = SpanTagger(vocab_size=97, embed_dim=6, hidden_dim=6, rep_dim=rep_dim)
    tagger._initialize()
    tagger.params_.w_attn[:] = rng.normal(0.0, 1.0, tagger.params_.w_attn.shape)
    tags = tagger.predict_tags(sentences)
    if n_sentences < 40:
        assert len(passes) == 1
    else:
        assert len(passes) > 2 and any(groups > 1 for _, groups in passes)

    want = []
    for lo in range(0, n_sentences, SCORE_GROUP):
        toks = [tagger._tokenizer.tokenize(s.tokens) for s in sentences[lo : lo + SCORE_GROUP]]
        batch = reference_span_batch(toks, tagger.config.l_max, np.float32, windows=rep_dim > 1)
        assert (batch.windows is not None) == (rep_dim > 1)
        _, word_vecs = encode_words(tagger.params_, batch)
        classes = score_spans(tagger.params_, word_vecs, batch).logits.argmax(axis=1).astype(np.int16)
        parts = np.split(classes, np.cumsum(batch.span_counts[:-1]))
        want += [(tok.n_words, part.dtype, part.tobytes()) for tok, part in zip(toks, parts)]
    assert [(tag.n, tag.classes.dtype, tag.classes.tobytes()) for tag in tags] == want
    assert len(np.unique(np.concatenate([tag.classes for tag in tags]))) > 1
