"""SpanTagger estimator surface: fit/predict/score, params protocol, persistence."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedspan.encoder as encoder_module
import fedspan.model as model_module
from fedspan.config import ConfigError
from fedspan.corpus import Polarity, Sentence, Span, Triplet
from fedspan.encoder import EncoderParams
from fedspan.model import NotFittedError, SpanTagger, select_spans, validate_sentences
from fedspan.prototypes import PrototypeSet
from fedspan.synth import default_synth_config, generate_synthetic
from fedspan.tagging import span_count

from reference_training import reference_partial_fit, select_proto_spans, split_spans


@pytest.fixture(scope="module")
def tiny_corpus():
    corpora = generate_synthetic(default_synth_config(), 19)
    return corpora[0]


def small_tagger(**kw):
    defaults = dict(embed_dim=12, hidden_dim=12, rep_dim=8, vocab_size=256, seed=0)
    defaults.update(kw)
    return SpanTagger(**defaults)


class TestParamsProtocol:
    def test_get_params_round_trips_through_constructor(self):
        tagger = SpanTagger(rep_dim=12, learning_rate=0.5, seed=3)
        clone = SpanTagger(**tagger.get_params())
        assert clone.get_params() == tagger.get_params()

    def test_set_params_returns_self_and_resets(self):
        tagger = small_tagger()
        tagger.partial_fit([Sentence(("nice", "view"))], epochs=1)
        assert tagger.is_fitted
        out = tagger.set_params(rep_dim=4)
        assert out is tagger
        assert tagger.config.rep_dim == 4
        assert not tagger.is_fitted

    def test_set_params_unknown_key(self):
        with pytest.raises(ValueError):
            SpanTagger().set_params(bogus=1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"prototype_assignment": "bogus"},
            {"lr_decay_steps": 0},
            {"null_span_ratio": -1.0},
            {"rep_dim": 0},
            {"precision": "float16"},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_invalid_hyperparameters_rejected_before_training(self, tiny_corpus, bad):
        tagger = SpanTagger(seed=0, **bad)
        with pytest.raises(ConfigError):
            tagger.fit(tiny_corpus.train[:20], epochs=1)
        assert tagger.params_ is None and tagger.opt_state_ is None

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SpanTagger().predict([Sentence(("hello",))])


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            validate_sentences([])

    def test_bad_triplet_named_with_index(self):
        bad = Sentence(("a", "b"), (Triplet(Span(0, 5), Span(1, 1), Polarity.POS),))
        with pytest.raises(ValueError, match="sentence 1"):
            validate_sentences([Sentence(("ok",)), bad])

    def test_fit_validates(self):
        with pytest.raises(ValueError):
            small_tagger().fit([Sentence(())], epochs=1)


def epoch_selections(rng, golds, null_ratio):
    """Each sentence's selected spans, from one ``select_spans`` call over
    ``golds`` packed end to end."""
    starts = np.cumsum([0] + [len(gold) for gold in golds])
    selected = select_spans(rng, np.concatenate(golds), starts, null_ratio)
    return [np.flatnonzero(selected[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:])]


def random_golds(rng, count, max_spans=60):
    """Gold class arrays with a random share of labeled spans, some all
    background."""
    golds = []
    for _ in range(count):
        gold = rng.integers(0, 16, int(rng.integers(1, max_spans))) * (rng.random() < 0.8)
        gold[rng.random(len(gold)) < rng.random()] = 0
        golds.append(gold)
    return golds


class TestProtoSpanSelection:
    """``select_spans`` against the per-sentence ``select_proto_spans``
    oracle (``tests/reference_training.py``)."""

    def test_all_labeled_plus_capped_nulls(self):
        gold = np.array([0, 3, 0, 0, 9, 0, 0, 0])
        rng = np.random.default_rng(0)
        [sel] = epoch_selections(rng, [gold], null_ratio=1.0)
        labels = gold[sel]
        assert {1, 4} <= set(sel)  # labeled spans always kept
        assert (labels != 0).sum() == 2
        assert (labels == 0).sum() == 2  # capped at the labeled count

    def test_no_labeled_spans_selects_nothing(self):
        [sel] = epoch_selections(np.random.default_rng(0), [np.zeros(6, dtype=int)], 1.0)
        assert len(sel) == 0

    def test_zero_ratio_keeps_only_labeled(self):
        gold = np.array([0, 3, 0, 9])
        [sel] = epoch_selections(np.random.default_rng(0), [gold], 0.0)
        assert list(sel) == [1, 3]

    def test_selection_sorted_and_unique(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gold = rng.integers(0, 3, 30)
            [sel] = epoch_selections(rng, [gold], 1.0)
            assert list(sel) == sorted(set(int(i) for i in sel))

    @pytest.mark.parametrize("null_ratio", [0.0, 0.5, 1.0, 3.0])
    def test_cached_split_matches_uncached(self, null_ratio):
        """One epoch-wide draw gives each sentence the selection, and the
        generator the state, of choosing sentence by sentence from gold
        classes split on every call."""
        rng = np.random.default_rng(11)
        oracle, sampler = np.random.default_rng(4), np.random.default_rng(4)
        golds = random_golds(rng, 10)
        for _ in range(4):
            got = epoch_selections(sampler, golds, null_ratio)
            for gold, sel in zip(golds, got):
                want = select_proto_spans(split_spans(gold), oracle, null_ratio)
                assert np.array_equal(sel, want)
            assert sampler.bit_generator.state == oracle.bit_generator.state

    def test_split_indices_are_int32(self, tiny_corpus):
        """Training caches 2 bytes of int16 gold class per span and no span
        indices; the labeled and background spans are read off the classes."""
        gold = np.array([0, 3, 0, 0, 9, 0])
        [labeled] = epoch_selections(np.random.default_rng(0), [gold], 0.0)
        [every] = epoch_selections(np.random.default_rng(0), [gold], 2.0)
        assert labeled.tolist() == [1, 4]
        assert sorted(set(every.tolist()) - set(labeled.tolist())) == [0, 2, 3, 5]
        tagger = small_tagger().fit(tiny_corpus.train[:1], epochs=1)
        [(tok, cached)] = tagger._train_inputs.values()
        assert cached.dtype == np.int16 and not cached.flags.writeable

    @pytest.mark.parametrize("null_ratio", [0.0, 0.5, 1.0, 3.0])
    def test_int32_split_matches_int64(self, null_ratio):
        """int16 gold classes, as training caches them, give the selections
        and the generator state of int64 classes, and of the oracle on an
        int32 split."""
        rng = np.random.default_rng(12)
        narrow, wide, oracle = (np.random.default_rng(6) for _ in range(3))
        golds = random_golds(rng, 10)
        for _ in range(4):
            got = epoch_selections(narrow, [gold.astype(np.int16) for gold in golds], null_ratio)
            want = epoch_selections(wide, [gold.astype(np.int64) for gold in golds], null_ratio)
            for gold, a, b in zip(golds, got, want):
                assert np.array_equal(a, b)
                assert np.array_equal(a, select_proto_spans(split_spans(gold), oracle, null_ratio))
            assert narrow.bit_generator.state == wide.bit_generator.state
            assert narrow.bit_generator.state == oracle.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        null_ratio=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        labeled_share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        batch_size=st.integers(1, 5),
        epochs=st.integers(1, 3),
    )
    # Every background span taken (k == n), no background spans, no labeled
    # spans, a sentence sampling over 10,000 background spans, and one with
    # over 10,000 background spans sampling more than a fiftieth of them.
    @example(seed=1, null_ratio=3.0, sizes=[6, 9, 4], labeled_share=0.5, batch_size=2, epochs=2)
    @example(seed=2, null_ratio=1.0, sizes=[5, 8, 3], labeled_share=1.0, batch_size=2, epochs=1)
    @example(seed=3, null_ratio=1.0, sizes=[5, 8, 3], labeled_share=0.0, batch_size=2, epochs=1)
    @example(seed=4, null_ratio=1.0, sizes=[7, 21_000, 5], labeled_share=0.5, batch_size=2, epochs=1)
    @example(seed=5, null_ratio=1.0, sizes=[7, 12_000, 5], labeled_share=0.1, batch_size=2, epochs=1)
    def test_epochs_match_per_batch_oracle(
        self, seed, null_ratio, sizes, labeled_share, batch_size, epochs
    ):
        """Over several epochs, every batch gets the oracle's selections, and
        after each epoch the generator is where the oracle left it. A labeled
        share of 0 or 1 gives sentences without labeled spans or without
        background spans; a ratio of 3 often takes every background span."""
        data = np.random.default_rng(seed)
        golds = [data.integers(1, 16, n) * (data.random(n) < labeled_share) for n in sizes]
        oracle, sampler = np.random.default_rng(seed), np.random.default_rng(seed)
        indices = np.arange(len(golds))
        for _ in range(epochs):
            order = oracle.permutation(indices)
            assert np.array_equal(sampler.permutation(indices), order)
            got = epoch_selections(sampler, [golds[i] for i in order], null_ratio)
            for lo in range(0, len(order), batch_size):
                batch = order[lo : lo + batch_size]
                want = [select_proto_spans(split_spans(golds[i]), oracle, null_ratio) for i in batch]
                assert all(np.array_equal(a, b) for a, b in zip(got[lo : lo + batch_size], want))
            assert sampler.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("null_ratio", [1.0, 3.0])
    def test_every_null_taken(self, null_ratio):
        """k == n: a sentence with no more background spans than the cap
        selects all of them."""
        golds = [np.array([0, 5, 0, 7, 2]), np.array([4, 0, 0, 0, 1, 1])]
        oracle, sampler = np.random.default_rng(8), np.random.default_rng(8)
        got = epoch_selections(sampler, golds, null_ratio)
        assert [sel.tolist() for sel in got] == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]]
        for gold, sel in zip(golds, got):
            assert np.array_equal(sel, select_proto_spans(split_spans(gold), oracle, null_ratio))
        assert sampler.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("n_nulls", [10_001, 12_000])
    def test_more_than_ten_thousand_nulls_use_choice(self, n_nulls):
        """A sentence sampling 10,001 background spans takes numpy's other
        choice branch; between short sentences it still gets the oracle's
        selection and stream."""
        long = np.zeros(10_001 + n_nulls, dtype=np.int16)
        long[np.random.default_rng(1).permutation(len(long))[:10_001]] = 1
        data = np.random.default_rng(2)
        golds = [*random_golds(data, 3), long, *random_golds(data, 3)]
        oracle, sampler = np.random.default_rng(9), np.random.default_rng(9)
        got = epoch_selections(sampler, golds, 1.0)
        assert len(got[3]) == 20_002
        for gold, sel in zip(golds, got):
            assert np.array_equal(sel, select_proto_spans(split_spans(gold), oracle, 1.0))
        assert sampler.bit_generator.state == oracle.bit_generator.state


class TestTraining:
    def test_fit_resets_partial_fit_continues(self, tiny_corpus):
        sentences = tiny_corpus.train[:10]
        a = small_tagger().fit(sentences, epochs=2)
        steps_after_fit = a.n_steps_
        a.partial_fit(sentences, epochs=1)
        assert a.n_steps_ > steps_after_fit
        a.fit(sentences, epochs=2)
        assert a.n_steps_ == steps_after_fit

    def test_same_seed_reproducible(self, tiny_corpus):
        sentences = tiny_corpus.train[:12]
        a = small_tagger().fit(sentences, epochs=2)
        b = small_tagger().fit(sentences, epochs=2)
        for (_, x), (_, y) in zip(a.params_.blocks(), b.params_.blocks()):
            assert np.array_equal(x, y)
        assert a.last_fit_metrics_ == b.last_fit_metrics_

    def test_different_seed_differs(self, tiny_corpus):
        sentences = tiny_corpus.train[:12]
        a = small_tagger(seed=0).fit(sentences, epochs=1)
        b = small_tagger(seed=1).fit(sentences, epochs=1)
        assert not np.array_equal(a.params_.w_cls, b.params_.w_cls)

    def test_prototypes_tracked_during_fit(self, tiny_corpus):
        tagger = small_tagger().fit(tiny_corpus.train[:10], epochs=1)
        assert isinstance(tagger.prototypes_, PrototypeSet)
        assert tagger.prototypes_.dim == tagger.config.rep_dim
        assert int(tagger.prototypes_.present.sum()) > 0

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_prototypes_keep_model_precision(self, tiny_corpus, precision):
        # The empty starting set has the model's dtype, so momentum never
        # promotes float32 prototypes to float64.
        tagger = small_tagger(precision=precision)
        tagger.partial_fit(tiny_corpus.train[:10], epochs=1)
        assert tagger.prototypes_.matrix.dtype == np.dtype(precision)

    def test_gold_assignment_mode(self, tiny_corpus):
        tagger = small_tagger(prototype_assignment="gold").fit(tiny_corpus.train[:10], epochs=1)
        assert int(tagger.prototypes_.present.sum()) > 0

    def test_global_prototypes_change_training(self, tiny_corpus):
        sentences = tiny_corpus.train[:10]
        plain = small_tagger(align_weight=0.5, sep_weight=0.1).fit(sentences, epochs=2)
        protos = PrototypeSet(8, {c: np.ones(8) for c in range(4)})
        guided = small_tagger(align_weight=0.5, sep_weight=0.1).fit(
            sentences, epochs=2, global_prototypes=protos
        )
        assert not np.array_equal(plain.params_.w_proj, guided.params_.w_proj)
        assert guided.last_fit_metrics_["proto_loss"] != 0.0

    def test_round_one_equals_zero_proto_weight(self, tiny_corpus):
        # Without globals the prototype term is inert regardless of weight.
        sentences = tiny_corpus.train[:10]
        a = small_tagger(proto_weight=0.0).fit(sentences, epochs=1)
        b = small_tagger(proto_weight=1.0).fit(sentences, epochs=1)
        for (_, x), (_, y) in zip(a.params_.blocks(), b.params_.blocks()):
            assert np.array_equal(x, y)

    def test_dim_mismatch_rejected(self, tiny_corpus):
        protos = PrototypeSet(3, {0: np.ones(3)})
        with pytest.raises(ValueError):
            small_tagger().fit(tiny_corpus.train[:4], global_prototypes=protos)

    def test_fit_metrics_shape(self, tiny_corpus):
        tagger = small_tagger().fit(tiny_corpus.train[:8], epochs=1)
        metrics = tagger.last_fit_metrics_
        assert {"train_loss", "tag_loss", "proto_loss", "batches"} == set(metrics)
        assert metrics["proto_loss"] == 0.0

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_rejected_before_any_state(self, tiny_corpus, epochs):
        sentences = tiny_corpus.train[:4]
        tagger = small_tagger()
        with pytest.raises(ValueError, match="epochs"):
            tagger.partial_fit(sentences, epochs=epochs)
        assert not tagger.is_fitted and tagger.last_fit_metrics_ is None
        tagger.fit(sentences, epochs=1)
        params, metrics = tagger.params_, tagger.last_fit_metrics_
        for call in (tagger.fit, tagger.partial_fit):
            with pytest.raises(ValueError, match="epochs"):
                call(sentences, epochs=epochs)
            assert tagger.params_ is params and tagger.last_fit_metrics_ is metrics

    def test_training_inputs_derived_once_per_sentence(self, tiny_corpus, monkeypatch):
        calls = []
        derive = model_module.derive_gold_tags
        monkeypatch.setattr(
            model_module, "derive_gold_tags", lambda s, l_max: calls.append(s) or derive(s, l_max)
        )
        sentences = tiny_corpus.train[:6]
        tagger = small_tagger()
        tagger.partial_fit(sentences, epochs=2)
        tagger.partial_fit(sentences[:3], epochs=1)
        assert calls == list(sentences)
        tagger.fit(sentences[:2], epochs=1)  # fit starts over, cache included
        assert calls == list(sentences) + list(sentences[:2])

    def test_training_and_scoring_share_tokenizations(self, tiny_corpus, monkeypatch):
        """A training sentence is scored from the tokenization its training
        used, and a second model of the same tokenizer setting reads the same
        object."""
        sentences = tiny_corpus.train[:4]
        tagger = small_tagger().fit(sentences, epochs=1)
        other = small_tagger(seed=1).fit(sentences[2:], epochs=1)
        scored = []
        build = model_module.ChunkLayout.build
        monkeypatch.setattr(
            model_module,
            "ChunkLayout",
            types.SimpleNamespace(build=lambda toks, dtype: scored.extend(toks) or build(toks, dtype)),
        )
        tagger.predict_tags(sentences)
        other.predict_tags(sentences)
        trained = [tagger._train_inputs[s][0] for s in sentences]
        assert len(scored) == 2 * len(sentences)
        assert all(a is b for a, b in zip(scored, trained + trained))
        assert all(other._train_inputs[s][0] is tok for s, tok in zip(sentences[2:], trained[2:]))

    def test_forward_sentence_runs_once_per_sentence(self, tiny_corpus, monkeypatch):
        """Training and scoring run the window product (``forward_sentence``)
        once per sentence, on that sentence's chunk rows; perfbench's tracer
        counts and times the word encoder per sentence through it."""
        rows = []
        product = encoder_module.forward_sentence
        monkeypatch.setattr(
            encoder_module,
            "forward_sentence",
            lambda params, x, out: rows.append(len(x)) or product(params, x, out),
        )
        sentences = tiny_corpus.train[:10]
        tagger = small_tagger(batch_size=3).fit(sentences, epochs=2)
        tokenize = tagger._tokenizer.tokenize
        chunk_counts = [len(tokenize(s.tokens).subword_ids) for s in sentences]
        assert sorted(rows) == sorted(chunk_counts * 2)
        rows.clear()
        scored = tiny_corpus.val[:11]
        tagger.predict_tags(scored)
        assert rows == [len(tokenize(s.tokens).subword_ids) for s in scored]


def assert_same_training_state(got, want):
    """Bit-identical parameters, optimizer state, prototypes, step count,
    fit metrics and generator state."""
    for (name, a), (_, b) in zip(got.params_.blocks(), want.params_.blocks()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if want.opt_state_ is None:
        assert got.opt_state_ is None
    else:
        a, b = got.opt_state_, want.opt_state_
        assert a.step == b.step
        assert np.array_equal(a.seen_rows, b.seen_rows)
        for holder, ref_holder in ((a.m, b.m), (a.v, b.v)):
            assert holder.embed.tobytes() == ref_holder.embed.tobytes()
            assert holder.dense.tobytes() == ref_holder.dense.tobytes()
    assert got.prototypes_.matrix.dtype == want.prototypes_.matrix.dtype
    assert got.prototypes_.matrix.tobytes() == want.prototypes_.matrix.tobytes()
    assert np.array_equal(got.prototypes_.present, want.prototypes_.present)
    assert got.n_steps_ == want.n_steps_
    assert got.last_fit_metrics_ == want.last_fit_metrics_
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


class TestTrainingMatchesReferenceLoop:
    """``partial_fit`` plans each epoch up front; the per-batch loop it
    replaced (``tests/reference_training.py``) must leave the same bits."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("with_protos", [False, True], ids=["no_protos", "protos"])
    def test_bit_identical_to_reference_loop(self, tiny_corpus, precision, optimizer, with_protos):
        # 13 sentences in batches of 5 leave a short last batch.
        sentences = tiny_corpus.train[:13]
        kwargs = dict(
            precision=precision,
            optimizer=optimizer,
            batch_size=5,
            seed=4,
            align_weight=0.5,
            sep_weight=0.1,
            null_span_ratio=1.5,
            prototype_assignment="gold" if with_protos else "predicted",
        )
        protos = None
        if with_protos:
            rng = np.random.default_rng(3)
            protos = PrototypeSet(8, {c: rng.normal(size=8) for c in (0, 1, 3, 6, 9, 12)})
        fast, ref = small_tagger(**kwargs), small_tagger(**kwargs)
        for epochs in (2, 1):
            fast.partial_fit(sentences, epochs=epochs, global_prototypes=protos)
            reference_partial_fit(ref, sentences, epochs=epochs, global_prototypes=protos)
            assert_same_training_state(fast, ref)
        assert fast.n_steps_ == 9
        if with_protos:
            assert fast.last_fit_metrics_["proto_loss"] != 0.0


def long_sentences(corpus, count):
    """``count`` sentences of 25-35 tokens, each joining training sentences
    of ``corpus`` end to end with their triplets."""
    pool = iter(corpus.train * 20)
    out = []
    while len(out) < count:
        tokens, triplets = [], []
        while len(tokens) < 25:
            part = next(pool)
            shift = len(tokens)
            for t in part.triplets:
                aspect = Span(t.aspect.start + shift, t.aspect.end + shift)
                opinion = Span(t.opinion.start + shift, t.opinion.end + shift)
                triplets.append(Triplet(aspect, opinion, t.polarity))
            tokens += part.tokens
        if len(tokens) <= 35:
            out.append(Sentence(tuple(tokens), tuple(triplets)))
    return out


class TestTrainingMemory:
    def test_epoch_temporaries_do_not_grow_with_the_epoch(self, tiny_corpus):
        """One epoch on 25-35 token sentences peaks (tracemalloc, beyond what
        the call keeps) less than 1.5x higher for 128 sentences than for 16:
        the layouts are built per batch, not per epoch."""
        sentences = long_sentences(tiny_corpus, 128)

        def beyond_kept(count):
            tagger = SpanTagger(seed=0)
            tagger.partial_fit(sentences[:2], epochs=1)
            tracemalloc.start()
            try:
                tagger.partial_fit(sentences[:count], epochs=1)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - kept

        one, many = beyond_kept(16), beyond_kept(128)
        assert 0 < many < 1.5 * one


class TestInference:
    def test_predict_equals_per_sentence_predict(self, tiny_corpus):
        """In float64, one call decodes every sentence as a call of its own
        would, over more sentences than one decode chunk."""
        from fedspan.decoding import DECODE_CHUNK

        tagger = small_tagger(precision="float64").fit(tiny_corpus.train[:30], epochs=3)
        sentences = list(tiny_corpus.train[:DECODE_CHUNK + 20])
        batch = tagger.predict(sentences)
        assert batch == [tagger.predict([s])[0] for s in sentences]
        assert sum(map(len, batch)) > 0

    def test_predict_shapes(self, tiny_corpus):
        tagger = small_tagger().fit(tiny_corpus.train[:10], epochs=1)
        preds = tagger.predict(tiny_corpus.val[:5])
        assert len(preds) == 5
        for row in preds:
            for triplet in row:
                assert triplet.aspect != triplet.opinion

    def test_score_matches_evaluate(self, tiny_corpus):
        tagger = small_tagger().fit(tiny_corpus.train[:10], epochs=1)
        assert tagger.score(tiny_corpus.val[:5]) == tagger.evaluate(tiny_corpus.val[:5]).f1

    @pytest.mark.parametrize("batch_size", [8, 3])
    def test_spans_scored_batch_size_sentences_at_a_time(self, tiny_corpus, monkeypatch, batch_size):
        """Scoring groups 8 sentences whatever the training batch size, which
        a checkpoint does not store."""
        tagger = small_tagger(batch_size=batch_size).fit(tiny_corpus.train[:10], epochs=1)
        groups = []
        score = model_module.score_spans
        monkeypatch.setattr(
            model_module,
            "score_spans",
            lambda params, word_vecs, layout: groups.append((len(word_vecs), layout[0]))
            or score(params, word_vecs, layout),
        )
        sentences = tiny_corpus.train[:41]
        tags = tagger.predict_tags(sentences)
        assert [len(span_counts) for _, span_counts in groups] == [8, 8, 8, 8, 8, 1]
        n_words = [len(s.tokens) for s in sentences]
        assert [n for n, _ in groups] == [sum(n_words[lo : lo + 8]) for lo in range(0, 41, 8)]
        l_max = tagger.config.l_max
        assert sum((span_counts for _, span_counts in groups), []) == [
            span_count(n, l_max) for n in n_words
        ]
        assert [t.n for t in tags] == [len(s.tokens) for s in sentences]

    def test_classes_do_not_depend_on_batch_mates(self, tiny_corpus):
        """In float64, a sentence gets the same classes scored alone as among
        40 others of other lengths."""
        tagger = small_tagger(precision="float64").fit(tiny_corpus.train[:10], epochs=2)
        others = list(tiny_corpus.train[10:50])
        assert len(others) == 40 and len({len(s.tokens) for s in others}) > 3
        for i, sentence in enumerate(tiny_corpus.val[:6]):
            [alone] = tagger.predict_tags([sentence])
            mixed = tagger.predict_tags(others[: 7 * i] + [sentence] + others[7 * i :])
            assert mixed[7 * i].classes.dtype == alone.classes.dtype == np.int16
            assert np.array_equal(mixed[7 * i].classes, alone.classes)

    def test_overfit_small_fixture_reaches_perfect_f1(self):
        from fedspan.corpus import parse_corpus

        from conftest import OVERFIT_FIXTURE

        sentences = parse_corpus(OVERFIT_FIXTURE)
        tagger = SpanTagger(seed=0)
        tagger.fit(sentences, epochs=50)
        assert tagger.score(sentences) == 1.0


class TestPersistence:
    def test_save_load_identical_predictions(self, tiny_corpus, tmp_path):
        tagger = small_tagger().fit(tiny_corpus.train[:10], epochs=2)
        path = tmp_path / "tagger.ckpt"
        tagger.save(path)
        loaded = SpanTagger.load(path)
        val = tiny_corpus.val[:8]
        assert loaded.predict(val) == tagger.predict(val)
        assert loaded.get_params()["rep_dim"] == tagger.config.rep_dim

    def test_load_draws_no_initial_weights(self, tiny_corpus, tmp_path, monkeypatch):
        """``load`` builds its state around the loaded parameters without
        drawing fresh ones, and trains on as a model initialized, then given
        those parameters."""
        path = tmp_path / "tagger.ckpt"
        small_tagger().fit(tiny_corpus.train[:10], epochs=2).save(path)
        expected = SpanTagger.load(path)
        params = expected.params_
        expected._initialize()
        expected.params_ = params

        def no_draw(*args):
            raise AssertionError("load drew initial weights")

        monkeypatch.setattr(EncoderParams, "initialize", no_draw)
        loaded = SpanTagger.load(path)
        monkeypatch.undo()
        for tagger in (loaded, expected):
            tagger.partial_fit(tiny_corpus.train[10:20], epochs=2)
        assert loaded.n_steps_ == expected.n_steps_
        for (_, a), (_, b) in zip(loaded.params_.blocks(), expected.params_.blocks()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(loaded.prototypes_.matrix, expected.prototypes_.matrix)
        assert loaded._rng.bit_generator.state == expected._rng.bit_generator.state

    def test_loads_of_one_checkpoint_share_no_arrays(self, tiny_corpus, tmp_path):
        """Training steps update the parameters in place, so each load must
        own its arrays: training one leaves the other as loaded."""
        path = tmp_path / "tagger.ckpt"
        small_tagger().fit(tiny_corpus.train[:10], epochs=1).save(path)
        a, b = SpanTagger.load(path), SpanTagger.load(path)
        for (name, x), (_, y) in zip(a.params_.blocks(), b.params_.blocks()):
            assert not np.shares_memory(x, y), name
        loaded = b.params_.flatten()
        a.partial_fit(tiny_corpus.train[10:20], epochs=1)
        assert not np.array_equal(a.params_.flatten(), loaded)
        assert b.params_.flatten().tobytes() == loaded.tobytes()

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(NotFittedError):
            SpanTagger().save(tmp_path / "x.ckpt")
