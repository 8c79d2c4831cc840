"""SpanTagger estimator surface: fit/predict/score, params protocol, persistence."""

import numpy as np
import pytest

import fedspan.model as model_module
from fedspan.config import ConfigError
from fedspan.corpus import Polarity, Sentence, Span, Triplet
from fedspan.model import (
    NotFittedError,
    SpanTagger,
    select_proto_spans,
    split_spans,
    validate_sentences,
)
from fedspan.prototypes import PrototypeSet
from fedspan.synth import default_synth_config, generate_synthetic


@pytest.fixture(scope="module")
def tiny_corpus():
    corpora = generate_synthetic(default_synth_config(), 19)
    return corpora[0]


def uncached_select_proto_spans(gold_classes, rng, null_ratio):
    """The selection with the span split done on every call."""
    labeled = np.flatnonzero(gold_classes != 0)
    nulls = np.flatnonzero(gold_classes == 0)
    n_null = min(len(nulls), int(round(null_ratio * len(labeled))))
    if n_null > 0:
        sampled = rng.choice(nulls, size=n_null, replace=False)
        return np.sort(np.concatenate([labeled, sampled]))
    return labeled


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


class TestProtoSpanSelection:
    def test_all_labeled_plus_capped_nulls(self):
        gold = np.array([0, 3, 0, 0, 9, 0, 0, 0])
        rng = np.random.default_rng(0)
        sel = select_proto_spans(split_spans(gold), rng, null_ratio=1.0)
        labels = gold[sel]
        assert {1, 4} <= set(sel)  # labeled spans always kept
        assert (labels != 0).sum() == 2
        assert (labels == 0).sum() == 2  # capped at the labeled count

    def test_no_labeled_spans_selects_nothing(self):
        sel = select_proto_spans(split_spans(np.zeros(6, dtype=int)), np.random.default_rng(0), 1.0)
        assert len(sel) == 0

    def test_zero_ratio_keeps_only_labeled(self):
        gold = np.array([0, 3, 0, 9])
        sel = select_proto_spans(split_spans(gold), np.random.default_rng(0), 0.0)
        assert list(sel) == [1, 3]

    def test_selection_sorted_and_unique(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gold = rng.integers(0, 3, 30)
            sel = select_proto_spans(split_spans(gold), rng, 1.0)
            assert list(sel) == sorted(set(int(i) for i in sel))

    @pytest.mark.parametrize("null_ratio", [0.0, 0.5, 1.0, 3.0])
    def test_cached_split_matches_uncached(self, null_ratio):
        """A split computed once gives the selection and the RNG stream of
        splitting the gold classes on every call."""
        rng = np.random.default_rng(11)
        uncached, cached = np.random.default_rng(4), np.random.default_rng(4)
        golds = []
        for _ in range(10):
            gold = rng.integers(0, 16, int(rng.integers(1, 60))) * (rng.random() < 0.8)
            gold[rng.random(len(gold)) < rng.random()] = 0
            golds.append(gold)
        splits = [split_spans(gold) for gold in golds]
        for _ in range(4):
            for gold, split in zip(golds, splits):
                want = uncached_select_proto_spans(gold, uncached, null_ratio)
                got = select_proto_spans(split, cached, null_ratio)
                assert np.array_equal(got, want)
                assert cached.bit_generator.state == uncached.bit_generator.state

    def test_split_indices_are_int32(self):
        labeled, nulls = split_spans(np.array([0, 3, 0, 0, 9, 0]))
        assert labeled.dtype == nulls.dtype == np.int32
        assert labeled.tolist() == [1, 4] and nulls.tolist() == [0, 2, 3, 5]

    @pytest.mark.parametrize("null_ratio", [0.0, 0.5, 1.0, 3.0])
    def test_int32_split_matches_int64(self, null_ratio):
        """The int32 split gives the selections and the RNG stream of the
        same split in int64."""
        rng = np.random.default_rng(12)
        narrow, wide = np.random.default_rng(6), np.random.default_rng(6)
        golds = [rng.integers(0, 16, int(rng.integers(1, 60))) * (rng.random() < 0.8) for _ in range(10)]
        for gold in golds:
            gold[rng.random(len(gold)) < rng.random()] = 0
        splits = [split_spans(gold) for gold in golds]
        for _ in range(4):
            for split in splits:
                want = select_proto_spans(tuple(a.astype(np.int64) for a in split), wide, null_ratio)
                got = select_proto_spans(split, narrow, null_ratio)
                assert np.array_equal(got, want)
                assert narrow.bit_generator.state == wide.bit_generator.state


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
        forward = model_module.forward_sentence
        monkeypatch.setattr(
            model_module,
            "forward_sentence",
            lambda params, tok, l_max: scored.append(tok) or forward(params, tok, l_max),
        )
        tagger.predict_tags(sentences)
        other.predict_tags(sentences)
        trained = [tagger._train_inputs[s][0] for s in sentences]
        assert all(a is b for a, b in zip(scored, trained + trained))
        assert all(other._train_inputs[s][0] is tok for s, tok in zip(sentences[2:], trained[2:]))


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
            lambda params, fps, l_max: groups.append([fp.tok.n_words for fp in fps])
            or score(params, fps, l_max),
        )
        sentences = tiny_corpus.train[:41]
        tags = tagger.predict_tags(sentences)
        assert [len(g) for g in groups] == [8, 8, 8, 8, 8, 1]
        assert sum(groups, []) == [len(s.tokens) for s in sentences]
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

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(NotFittedError):
            SpanTagger().save(tmp_path / "x.ckpt")
