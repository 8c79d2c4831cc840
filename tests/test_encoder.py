"""Encoder forward pass, losses, optimizers and the checkpoint format."""

import gc
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedspan.encoder as encoder_module
import fedspan.model as model_module
from fedspan.corpus import Sentence, Span
from fedspan.encoder import (
    AdamState,
    CheckpointError,
    ConfigError,
    EncoderConfig,
    EncoderParams,
    GradientBundle,
    LossWeights,
    Tokenization,
    Tokenizer,
    TrainingDivergedError,
    _sentence_layout,
    adam_step,
    batch_gradients,
    encode_words,
    forward_sentence,
    load_params,
    log_softmax,
    save_params,
    score_spans,
    sgd_step,
    split_subwords,
)
from fedspan.model import SpanTagger
from fedspan.synth import default_synth_config, generate_synthetic
from fedspan.tagging import NUM_CLASSES, span_count

from reference_gradients import (
    attention_weights,
    classify_span,
    dense_gradients,
    packed,
    reference_adam_step,
    reference_forward,
    span_representation,
    tag_loss,
    with_flat,
    word_representations,
)
from reference_plans import one_group, plan_from_sentences


class TestSplitSubwords:
    def test_even_split(self):
        assert split_subwords("keyboard", 4) == ["keyb", "oard"]

    def test_short_word(self):
        assert split_subwords("a", 4) == ["a"]

    def test_remainder_chunk(self):
        assert split_subwords("backlit", 3) == ["bac", "kli", "t"]

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            split_subwords("x", 0)


class TestTokenizer:
    def test_deterministic_ids(self):
        a = Tokenizer(64, 4, hash_seed=1)
        b = Tokenizer(64, 4, hash_seed=1)
        assert a.subword_id("keyb") == b.subword_id("keyb")
        assert a.subword_id("keyb") < 64

    def test_seed_changes_mapping(self):
        ids_a = [Tokenizer(4096, 4, hash_seed=0).subword_id(w) for w in ("alpha", "beta", "gamma")]
        ids_b = [Tokenizer(4096, 4, hash_seed=9).subword_id(w) for w in ("alpha", "beta", "gamma")]
        assert ids_a != ids_b

    def test_word_offsets(self):
        tok = Tokenizer(64, 4).tokenize(["keyboard", "is", "gorgeous"])
        assert tok.n_words == 3
        assert list(tok.word_offsets) == [0, 2, 3, 5]
        assert list(tok.word_sizes) == [2, 1, 2]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer(64, 4).tokenize([])
        with pytest.raises(ValueError):
            Tokenizer(64, 4).tokenize(["ok", ""])

    @pytest.mark.parametrize("chunk_size,hash_seed", [(1, 0), (3, 5), (4, 0), (4, 11), (7, 2)])
    def test_word_cache_matches_chunk_hashing(self, chunk_size, hash_seed):
        vocab = 97
        key = hash_seed.to_bytes(8, "little")

        def chunk_id(chunk):
            digest = hashlib.blake2b(chunk.encode("utf-8"), digest_size=8, key=key).digest()
            return int.from_bytes(digest, "little") % vocab

        tokenizer = Tokenizer(vocab, chunk_size, hash_seed)
        sentences = [
            ["the", "keyboard", "is", "gorgeous", "."],
            ["gorgeous", "keyboard", ",", "the", "keyboard", "wins"],
            ["naïve", "café", "battery-life", "x"],
        ]
        for _ in range(2):  # the second pass reads every word from the cache
            for words in sentences:
                tok = tokenizer.tokenize(words)
                chunks = [split_subwords(w, chunk_size) for w in words]
                expected = [chunk_id(c) for word_chunks in chunks for c in word_chunks]
                assert tok.n_words == len(words)
                assert tok.subword_ids.dtype == np.int64
                assert tok.subword_ids.tolist() == expected
                assert tok.word_offsets.tolist() == [0, *np.cumsum([len(c) for c in chunks])]
                assert tok.word_sizes.tolist() == [len(c) for c in chunks]

    def test_empty_token_rejected_after_words_cached(self):
        tokenizer = Tokenizer(64, 4)
        first = tokenizer.tokenize(["ok", "fine"])
        for _ in range(2):  # a failed sentence is not cached
            for bad in (["ok", "", "fine"], ("ok", "", "fine"), [""]):
                with pytest.raises(ValueError):
                    tokenizer.tokenize(bad)
        again = tokenizer.tokenize(["ok", "fine"])
        assert again.subword_ids.tolist() == first.subword_ids.tolist()

    def test_sentence_cache_list_and_tuple_same_bits_as_fresh(self):
        """List and tuple input share one cached tokenization, with the bits
        a tokenizer built after every earlier one is gone computes anew. The
        kept scoring calls go with the cache."""
        words = ["gorgeous", "keyboard", ",", "the", "keyboard"]
        tokenizer = Tokenizer(97, 3, hash_seed=4242)
        cached = tokenizer.tokenize(words)
        assert tokenizer.tokenize(tuple(words)) is cached
        assert Tokenizer(97, 3, hash_seed=4242).tokenize(words) is cached
        call = tokenizer.packed_call((cached,), 8, 4, np.dtype(np.float32))
        assert Tokenizer(97, 3, hash_seed=4242).packed_call((cached,), 8, 4, np.dtype(np.float32)) is call
        bits = array_bits(cached)
        del tokenizer, cached, call
        gc.collect()
        fresh = Tokenizer(97, 3, hash_seed=4242)
        assert not fresh._cache.sentences
        assert not fresh._cache.calls
        for tokens in (words, tuple(words)):
            tok = fresh.tokenize(tokens)
            assert tok.n_words == len(words)
            assert array_bits(tok) == bits
        # Another setting keeps its own cache.
        assert Tokenizer(97, 3, hash_seed=4243).tokenize(words) is not fresh.tokenize(words)

    def test_cached_arrays_read_only(self):
        tok = Tokenizer(64, 4).tokenize(["keyboard", "is", "gorgeous"])
        for arr in (tok.subword_ids, tok.word_offsets, tok.word_sizes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


def array_bits(tok):
    return [(a.dtype, a.tobytes()) for a in (tok.subword_ids, tok.word_offsets, tok.word_sizes)]


def tiny_params():
    """Hand-set parameters with embed_dim = hidden_dim = 2."""
    params = packed(
        dict(
            embed=np.zeros((8, 2)),
            w_ctx=np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.5, -1.0, 0.0, 2.0, -3.0, 1.0]]),
            b_ctx=np.array([0.1, -0.2]),
            w_attn=np.array([1.0, 0.0]),
            w_proj=np.eye(2),
            b_proj=np.zeros(2),
            w_cls=np.zeros((NUM_CLASSES, 2)),
            b_cls=np.zeros(NUM_CLASSES),
        )
    )
    params.embed[1] = (1.0, 0.0)
    params.embed[2] = (0.0, 1.0)
    return params


class TestWordRepresentations:
    def test_hand_computed_two_words(self):
        # "ab cd": one chunk per word, ids 1 and 2.
        # x_1 = [0,0, e1, e2], x_2 = [e1, e2, 0,0]; h = w_ctx @ x + b_ctx.
        params = tiny_params()
        tok = Tokenization(2, np.array([1, 2]), np.array([0, 1, 2]))
        vecs = word_representations(params, tok)
        assert vecs == pytest.approx(np.array([[9.1, 0.8], [5.1, 2.3]]))

    def test_single_subword_word_equals_contextual_vector(self):
        rng = np.random.default_rng(0)
        config = EncoderConfig(vocab_size=16, embed_dim=3, hidden_dim=4, precision="float64")
        params = EncoderParams.initialize(config, 0)
        tok = Tokenization(3, np.array([5, 9, 2]), np.array([0, 1, 2, 3]))
        vecs = word_representations(params, tok)
        # Words own exactly one chunk each, so the mean is the identity.
        sub = params.embed[tok.subword_ids]
        x = np.zeros((3, 9))
        x[:, 3:6] = sub
        x[1:, :3] = sub[:-1]
        x[:-1, 6:] = sub[1:]
        assert vecs == pytest.approx(x @ params.w_ctx.T + params.b_ctx)

    def test_multi_subword_word_is_mean(self):
        config = EncoderConfig(vocab_size=16, embed_dim=3, hidden_dim=4, precision="float64")
        params = EncoderParams.initialize(config, 1)
        tok_split = Tokenization(1, np.array([4, 4]), np.array([0, 2]))
        vecs = word_representations(params, tok_split)
        # Identical chunks with symmetric context: mean equals either one.
        sub = params.embed[[4, 4]]
        x = np.zeros((2, 9))
        x[:, 3:6] = sub
        x[1:, :3] = sub[:-1]
        x[:-1, 6:] = sub[1:]
        h = x @ params.w_ctx.T + params.b_ctx
        assert vecs[0] == pytest.approx(h.mean(axis=0))


class TestSpanRepresentation:
    def test_singleton_span_attention_is_one(self):
        word_vecs = np.array([[1.0, 2.0], [3.0, 4.0]])
        alpha = attention_weights(word_vecs, Span(1, 1), np.array([0.7, -0.1]))
        assert alpha == pytest.approx([1.0])

    def test_zero_attention_vector_gives_uniform(self):
        word_vecs = np.random.default_rng(0).normal(size=(4, 3))
        alpha = attention_weights(word_vecs, Span(0, 3), np.zeros(3))
        assert alpha == pytest.approx([0.25] * 4)

    def test_log3_zero_logits(self):
        # Logits (ln 3, 0) give weights (0.75, 0.25).
        word_vecs = np.array([[math.log(3.0)], [0.0]])
        alpha = attention_weights(word_vecs, Span(0, 1), np.array([1.0]))
        assert alpha == pytest.approx([0.75, 0.25])

    def test_projection_applied(self):
        params = tiny_params()
        params.w_proj[:] = [[2.0, 0.0], [0.0, 3.0]]
        params.b_proj[:] = [1.0, -1.0]
        word_vecs = np.array([[1.0, 1.0], [1.0, 1.0]])
        rep = span_representation(word_vecs, Span(0, 1), params)
        assert rep == pytest.approx([3.0, 2.0])

    def test_pooled_vector_in_convex_hull(self):
        rng = np.random.default_rng(4)
        config = EncoderConfig(vocab_size=32, embed_dim=3, hidden_dim=5, rep_dim=2, precision="float64")
        params = EncoderParams.initialize(config, 3)
        word_vecs = rng.normal(size=(6, 5))
        for span in (Span(0, 3), Span(2, 5), Span(1, 1)):
            alpha = attention_weights(word_vecs, span, params.w_attn)
            pooled = alpha @ word_vecs[span.start : span.end + 1]
            seg = word_vecs[span.start : span.end + 1]
            assert np.all(pooled >= seg.min(axis=0) - 1e-12)
            assert np.all(pooled <= seg.max(axis=0) + 1e-12)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-6)


class TestClassifySpan:
    def test_zero_classifier_uniform(self):
        params = tiny_params()
        probs = classify_span(np.array([0.3, -0.4]), params)
        assert probs == pytest.approx([1.0 / 16] * 16)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_large_bias_dominates(self):
        params = tiny_params()
        params.b_cls[0] = 10.0
        probs = classify_span(np.array([0.0, 0.0]), params)
        assert probs[0] >= 0.999

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(8)
        params = tiny_params()
        params.w_cls[:] = rng.normal(size=(16, 2))
        rep = rng.normal(size=2)
        base = classify_span(rep, params)
        params.b_cls += 5.0
        shifted = classify_span(rep, params)
        assert base.argmax() == shifted.argmax()
        assert shifted == pytest.approx(base, abs=1e-9)


class TestTagLoss:
    def test_perfect_one_hot(self):
        probs = np.eye(16)[[3, 7]]
        probs = np.clip(probs, 1e-12, 1.0)
        assert tag_loss(probs, np.array([3, 7])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_is_log16(self):
        probs = np.full((5, 16), 1.0 / 16)
        assert tag_loss(probs, np.zeros(5, dtype=int)) == pytest.approx(math.log(16.0))

    def test_hand_arithmetic(self):
        probs = np.full((2, 16), 1e-9)
        probs[0, 2] = 0.5
        probs[1, 5] = 0.25
        expected = (math.log(2.0) + math.log(4.0)) / 2
        assert tag_loss(probs, np.array([2, 5])) == pytest.approx(expected)

    def test_misalignment_rejected(self):
        with pytest.raises(ValueError):
            tag_loss(np.full((2, 16), 1.0 / 16), np.zeros(3, dtype=int))


def packed_words(params, toks):
    """``encode_words`` of a batch: the packed window input and word vectors."""
    return encode_words(params, one_group(toks, 10, params.embed.dtype))


def forward_batch(params, toks, l_max):
    """The packed forward of a batch: its ``SpanBatch``, encode_words, then
    score_spans once, and the log-softmax training applies on top."""
    batch = one_group(toks, l_max, params.embed.dtype)
    spans = score_spans(params, encode_words(params, batch)[1], batch)
    log_probs, probs = log_softmax(spans.logits.copy())
    return batch, spans, log_probs, probs


def random_words(rng, n):
    letters = list("abcdefgh")
    return ["".join(rng.choice(letters, int(rng.integers(1, 8)))) for _ in range(n)]


class TestForwardDeterminism:
    def test_identical_inputs_bitwise_equal(self):
        config = EncoderConfig(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3)
        params = EncoderParams.initialize(config, 7)
        tok = Tokenizer(64, 3).tokenize(["the", "screen", "cracked"])
        _, a_spans, _, a_probs = forward_batch(params, [tok], 5)
        _, b_spans, _, b_probs = forward_batch(params, [tok], 5)
        assert np.array_equal(a_probs, b_probs)
        assert np.array_equal(a_spans.reps, b_spans.reps)

    def test_attention_rows_sum_to_one(self):
        config = EncoderConfig(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3, precision="float64")
        params = EncoderParams.initialize(config, 7)
        tok = Tokenizer(64, 3).tokenize(["a", "bb", "ccc", "dddd", "e"])
        _, spans, _, probs = forward_batch(params, [tok], 3)
        assert spans.alpha.sum(axis=1) == pytest.approx(np.ones(len(spans.alpha)), abs=1e-6)
        assert probs.sum(axis=1) == pytest.approx(np.ones(len(probs)), abs=1e-6)
        assert np.all(probs > 0)


class TestForwardReference:
    """The word encoder against the plain per-sentence reference, bit for
    bit; the packed span stage against it to rounding."""

    L_MAX = 6
    LENGTHS = [1, L_MAX, L_MAX + 1, 35]

    def make(self, seed, precision):
        config = EncoderConfig(
            vocab_size=97, embed_dim=5, hidden_dim=6, rep_dim=4, chunk_size=3, precision=precision
        )
        params = EncoderParams.initialize(config, seed)
        rng = np.random.default_rng(seed)
        # Non-zero attention and biases, so every stage of the pass matters.
        for name in ("b_ctx", "w_attn", "b_proj", "b_cls"):
            block = getattr(params, name)
            block[:] = rng.normal(0.0, 1.0, block.shape)
        return config, params, rng

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_every_field_equal(self, n, precision):
        config, params, rng = self.make(n, precision)
        tok = Tokenizer(config.vocab_size, config.chunk_size).tokenize(random_words(rng, n))
        x, word_vecs = packed_words(params, [tok])
        ref = reference_forward(params, tok, self.L_MAX)
        for name, got in (("x", x), ("word_vecs", word_vecs)):
            want = getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
            assert got.tobytes() == want.tobytes(), name  # signed zeros too

    @pytest.mark.parametrize("order", [LENGTHS, LENGTHS[::-1], [L_MAX + 1, 1, 35, L_MAX]])
    def test_packed_span_fields_match_reference(self, order):
        """In float64, each packed span field equals the per-sentence
        reference within 1e-12 of the block's largest entry. The bits differ:
        a matmul over the packed batch picks other BLAS kernels, and pooling
        runs after the projection instead of before it."""
        config, params, rng = self.make(sum(order), "float64")
        tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
        toks = [tokenizer.tokenize(random_words(rng, n)) for n in order]
        batch, spans, log_probs, probs = forward_batch(params, toks, self.L_MAX)
        refs = [reference_forward(params, tok, self.L_MAX) for tok in toks]
        assert batch.span_counts == [span_count(n, self.L_MAX) for n in order]
        assert batch.width == self.L_MAX
        packed = {"reps": spans.reps, "log_probs": log_probs, "probs": probs}
        for name, got in packed.items():
            want = np.concatenate([getattr(ref, name) for ref in refs])
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        # Each sentence's slots are its reference slots, then masked padding.
        span_lo = word_lo = 0
        alpha_scale = max(np.abs(ref.alpha).max() for ref in refs)
        for ref in refs:
            rows = slice(span_lo, span_lo + len(ref.alpha))
            width = ref.alpha.shape[1]
            assert np.array_equal(batch.pos[rows, :width] - word_lo, ref.pos)
            assert np.array_equal(batch.mask[rows, :width], ref.mask)
            assert not batch.mask[rows, width:].any()
            assert np.abs(spans.alpha[rows, :width] - ref.alpha).max() <= 1e-12 * alpha_scale
            assert spans.alpha[rows, width:].tobytes() == bytes(spans.alpha[rows, width:].nbytes)
            span_lo += len(ref.alpha)
            word_lo += ref.tok.n_words
        ref_probs = np.concatenate([ref.probs for ref in refs])
        assert np.array_equal(probs.argmax(axis=1), ref_probs.argmax(axis=1))
        assert np.array_equal(spans.logits.argmax(axis=1), ref_probs.argmax(axis=1))

    def test_logits_argmax_matches_reference_probs(self):
        """Inference takes the argmax of the logits, skipping the softmax; on
        random parameters and mixed-length batches it picks the class the
        reference probabilities pick."""
        for seed in range(20):
            config, params, rng = self.make(100 + seed, "float64")
            for name, block in params.blocks():
                block[:] = rng.normal(0.0, 2.0, block.shape)
            tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
            lengths = rng.integers(1, 36, int(rng.integers(1, 9)))
            toks = [tokenizer.tokenize(random_words(rng, int(n))) for n in lengths]
            _, spans, _, _ = forward_batch(params, toks, self.L_MAX)
            ref_probs = np.concatenate(
                [reference_forward(params, tok, self.L_MAX).probs for tok in toks]
            )
            assert np.array_equal(spans.logits.argmax(axis=1), ref_probs.argmax(axis=1))

    def test_cached_layout_is_read_only(self):
        for n, l_max in ((4, 3), (2, 5), (7, 7)):
            pos, mask, pairs, pair_starts = _sentence_layout(n, l_max, l_max)
            assert pos.shape == mask.shape == (span_count(n, l_max), l_max)
            assert pairs.shape == (3, mask.sum()) and pair_starts.shape == (n,)
            for arr in (pos, mask, pairs, pair_starts):
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 1
        config = EncoderConfig(vocab_size=64, embed_dim=4, hidden_dim=4, rep_dim=3)
        params = EncoderParams.initialize(config, 7)
        tok = Tokenizer(64, 3).tokenize(["the", "screen", "cracked", "twice"])
        batch, _, _, _ = forward_batch(params, [tok], 3)
        again, _, _, _ = forward_batch(params, [tok], 3)
        ref = reference_forward(params, tok, 3)
        assert np.array_equal(batch.pos, ref.pos) and np.array_equal(again.pos, ref.pos)
        assert np.array_equal(again.mask, ref.mask)


def packed_case(seed, lengths, chunk_size, embed_dim, hidden_dim, precision):
    """Parameters with a random window bias, and a batch of random sentences
    of these lengths; a length of 0 is one one-letter word, one chunk."""
    config = EncoderConfig(
        vocab_size=97, embed_dim=embed_dim, hidden_dim=hidden_dim, rep_dim=3,
        chunk_size=chunk_size, precision=precision,
    )
    params = EncoderParams.initialize(config, seed % 2**16)
    rng = np.random.default_rng(seed)
    params.b_ctx[:] = rng.normal(0.0, 1.0, params.b_ctx.shape)
    tokenizer = Tokenizer(config.vocab_size, chunk_size)
    toks = [tokenizer.tokenize(random_words(rng, n) if n else ["a"]) for n in lengths]
    return config, params, toks


class TestPackedEncoder:
    """``encode_words`` runs the word encoder over a packed batch, the
    window product per sentence; every sentence gets the bytes the
    per-sentence reference gives it."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=9),
        chunk_size=st.integers(1, 5),
        embed_dim=st.integers(1, 39),
        hidden_dim=st.integers(1, 39),
        precision=st.sampled_from(["float32", "float64"]),
    )
    @example(seed=0, lengths=[0], chunk_size=1, embed_dim=1, hidden_dim=1, precision="float32")
    @example(seed=1, lengths=[0, 7, 0, 0], chunk_size=5, embed_dim=3, hidden_dim=5, precision="float32")
    @example(seed=2, lengths=[40], chunk_size=1, embed_dim=39, hidden_dim=37, precision="float64")
    @example(seed=3, lengths=[1] * 9, chunk_size=2, embed_dim=32, hidden_dim=32, precision="float32")
    def test_same_bytes_as_the_reference_per_sentence(
        self, seed, lengths, chunk_size, embed_dim, hidden_dim, precision
    ):
        config, params, toks = packed_case(seed, lengths, chunk_size, embed_dim, hidden_dim, precision)
        x, word_vecs = encode_words(params, one_group(toks, config.l_max, config.dtype))
        refs = [reference_forward(params, tok, config.l_max) for tok in toks]
        for name, got in (("x", x), ("word_vecs", word_vecs)):
            want = np.concatenate([getattr(ref, name) for ref in refs])
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name  # signed zeros too

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_chunk_layout_of_a_batch(self, precision):
        _, _, toks = packed_case(5, [3, 0, 12, 1], 3, 4, 4, "float64")
        batch = one_group(toks, 10, np.dtype(precision))
        sizes = [len(tok.subword_ids) for tok in toks]
        assert sizes[1] == 1
        assert batch.ids.tolist() == [i for tok in toks for i in tok.subword_ids.tolist()]
        assert batch.bounds.tolist() == [0, *np.cumsum(sizes)]
        assert batch.word_starts.tolist() == [
            start + offset
            for tok, start in zip(toks, batch.bounds.tolist())
            for offset in tok.word_offsets[:-1].tolist()
        ]
        assert batch.word_sizes.tolist() == [s for tok in toks for s in tok.word_sizes.tolist()]
        assert batch.word_size_col.dtype == np.dtype(precision)
        assert np.array_equal(batch.word_size_col[:, 0], batch.word_sizes)

    def test_forward_sentence_writes_the_product_into_out(self):
        _, params, [tok] = packed_case(9, [6], 2, 5, 7, "float32")
        x, _ = encode_words(params, one_group([tok], 10, np.float32))
        out = np.full((len(x), 7), np.nan, np.float32)
        assert forward_sentence(params, x, out) is out
        assert out.tobytes() == (x @ params.w_ctx.T).tobytes()

    def test_runs_the_product_once_per_sentence_on_its_rows(self, monkeypatch):
        config, params, toks = packed_case(4, [5, 0, 17], 3, 6, 6, "float32")
        calls = []
        product = encoder_module.forward_sentence
        monkeypatch.setattr(
            encoder_module,
            "forward_sentence",
            lambda params, x, out: calls.append((x.copy(), len(out))) or product(params, x, out),
        )
        x, _ = encode_words(params, one_group(toks, config.l_max, config.dtype))
        bounds = np.cumsum([0] + [len(tok.subword_ids) for tok in toks])
        assert [rows for _, rows in calls] == np.diff(bounds).tolist()
        for (got, _), lo, hi in zip(calls, bounds[:-1], bounds[1:]):
            assert got.tobytes() == x[lo:hi].tobytes()


def pooled_both_ways(seed, lengths, l_max, **dims):
    """``score_spans`` of one group of random sentences of these lengths,
    pooled per span and, with no spans-per-word threshold, by window."""
    config = EncoderConfig(vocab_size=97, chunk_size=3, **dims)
    params = EncoderParams.initialize(config, seed)
    rng = np.random.default_rng(seed)
    params.w_attn[:] = rng.normal(0.0, 1.0, params.w_attn.shape)  # attention far from uniform
    tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
    toks = [tokenizer.tokenize(random_words(rng, n)) for n in lengths]
    per_span_batch = one_group(toks, l_max, config.dtype)
    with mock.patch.object(encoder_module, "WINDOW_SPANS_PER_WORD", 0):
        window_batch = one_group(toks, l_max, config.dtype, windows=True)
    assert per_span_batch.windows is None and window_batch.windows is not None
    _, word_vecs = encode_words(params, per_span_batch)
    per_span = score_spans(params, word_vecs, per_span_batch)
    windows = score_spans(params, word_vecs, window_batch)
    assert np.array_equal(per_span.alpha, windows.alpha)
    return per_span, windows


GROUPS = dict(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    l_max=st.integers(1, 12),
)


class TestWindowPooling:
    """Pooling each start word's spans with one window product, against
    pooling each span over its own gathered window."""

    @settings(max_examples=150, deadline=None)
    @given(**GROUPS)
    @example(seed=0, lengths=[1], l_max=1)
    @example(seed=1, lengths=[40, 1, 12, 13, 11], l_max=12)
    @example(seed=2, lengths=[3, 2, 3], l_max=12)
    def test_float32_reps_are_the_same_bytes(self, seed, lengths, l_max):
        """At the shipped dims (rep_dim 16). The bytes are a property of
        the BLAS kernels, not of the method: on OpenBLAS 0.3.31 a 1-wide
        rep_dim (a dot product against a matrix-vector product) and width 4
        with some other rep_dims sum in another order."""
        per_span, windows = pooled_both_ways(seed, lengths, l_max)
        assert windows.reps.tobytes() == per_span.reps.tobytes()
        assert windows.logits.tobytes() == per_span.logits.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(**GROUPS, rep_dim=st.integers(1, 24))
    def test_float64_reps_within_1e12(self, seed, lengths, l_max, rep_dim):
        per_span, windows = pooled_both_ways(
            seed, lengths, l_max, embed_dim=6, hidden_dim=7, rep_dim=rep_dim, precision="float64"
        )
        np.testing.assert_allclose(windows.reps, per_span.reps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(windows.logits, per_span.logits, rtol=0, atol=1e-12)

    def test_long_groups_pool_by_window_and_shipped_groups_per_span(self, monkeypatch):
        """``predict_tags`` pools a group of 25-35-word sentences by window,
        with the same classes as per-span pooling, and keeps per-span
        pooling on every scoring group of the shipped corpora."""
        corpora = generate_synthetic(default_synth_config(), 7)
        shipped = [s for c in corpora for split in (c.train, c.val, c.test) for s in split]
        rng = np.random.default_rng(0)
        long = [Sentence(tuple(random_words(rng, int(n)))) for n in rng.integers(25, 36, 20)]
        tagger = SpanTagger(vocab_size=256, embed_dim=12, hidden_dim=12, rep_dim=16, seed=0)
        tagger.fit(shipped[:8], epochs=1)

        chosen = []
        score = model_module.score_spans
        monkeypatch.setattr(
            model_module,
            "score_spans",
            lambda params, word_vecs, batch: chosen.append(batch.windows is not None)
            or score(params, word_vecs, batch),
        )
        tagger.predict_tags(shipped)
        assert len(chosen) == -(-len(shipped) // 8) and not any(chosen)
        chosen.clear()
        by_window = tagger.predict_tags(long)
        assert chosen == [True, True, True]
        monkeypatch.setattr(encoder_module, "WINDOW_SPANS_PER_WORD", math.inf)
        per_span = tagger.predict_tags(long)
        assert chosen == [True, True, True, False, False, False]
        for a, b in zip(by_window, per_span):
            assert np.array_equal(a.classes, b.classes)


    def test_rep_dim_1_groups_pool_per_span(self, monkeypatch):
        """At rep_dim 1 the window product sums in another order than the
        per-span products, so ``predict_tags`` pools every group per span: a
        group of 20-35-word sentences gets per-span pooling's reps and
        classes, byte for byte."""
        corpora = generate_synthetic(default_synth_config(), 7)
        rng = np.random.default_rng(1)
        long = [Sentence(tuple(random_words(rng, int(n)))) for n in rng.integers(20, 36, 16)]
        tagger = SpanTagger(vocab_size=256, embed_dim=12, hidden_dim=12, rep_dim=1, seed=0)
        tagger.fit(corpora[0].train[:8], epochs=1)
        assert tagger.params_.w_attn.any()

        scored = []
        score = model_module.score_spans

        def recording(params, word_vecs, batch):
            spans = score(params, word_vecs, batch)
            scored.append((word_vecs, batch, spans))
            return spans

        monkeypatch.setattr(model_module, "score_spans", recording)
        tags = tagger.predict_tags(long)
        assert len(scored) == 2
        lo = 0
        for word_vecs, batch, got in scored:
            group = long[lo : lo + len(batch.span_counts)]
            assert batch.windows is None
            assert len(batch.pos) >= 7 * len(batch.word_sizes)  # the window threshold
            toks = [tagger._tokenizer.tokenize(s.tokens) for s in group]
            want = score(tagger.params_, word_vecs, one_group(toks, 10, np.float32))
            assert got.reps.tobytes() == want.reps.tobytes()
            assert got.logits.tobytes() == want.logits.tobytes()
            classes = np.concatenate([t.classes for t in tags[lo : lo + len(group)]])
            assert np.array_equal(classes, want.logits.argmax(axis=1))
            lo += len(group)


    def test_threshold_at_seven_spans_per_word(self, monkeypatch):
        """At l_max 10 a lone 15-word sentence has 105 spans, 7 per word, and
        pools by window; a 14-word one has 95, 6.8 per word, and pools per
        span. Training plans and rep_dim-1 models never pool by window."""
        rng = np.random.default_rng(2)
        long, short = (Sentence(tuple(random_words(rng, n))) for n in (15, 14))
        assert (span_count(15, 10), span_count(14, 10)) == (105, 95)
        tokenizer = Tokenizer(256, 4)
        tok_long, tok_short = (tokenizer.tokenize(s.tokens) for s in (long, short))
        assert one_group([tok_long], 10, np.float32, windows=True).windows is not None
        assert one_group([tok_short], 10, np.float32, windows=True).windows is None
        assert one_group([tok_long], 10, np.float32).windows is None
        config = EncoderConfig(vocab_size=256)
        plan = plan_from_sentences([tok_long], [np.zeros(105, np.int16)], [np.arange(3)], config, None)
        assert plan.batch.windows is None

        pooled = {"train": [], "score": []}

        def recording(key, score):
            def recorded(params, word_vecs, batch):
                pooled[key].append(batch.windows is not None)
                return score(params, word_vecs, batch)

            return recorded

        monkeypatch.setattr(encoder_module, "score_spans", recording("train", encoder_module.score_spans))
        monkeypatch.setattr(model_module, "score_spans", recording("score", model_module.score_spans))
        for rep_dim, want in ((16, [True, False]), (1, [False, False])):
            tagger = SpanTagger(vocab_size=256, embed_dim=8, hidden_dim=8, rep_dim=rep_dim)
            tagger.fit([long, long, short], epochs=2)
            pooled["score"].clear()
            tagger.predict_tags([long])
            tagger.predict_tags([short])
            assert pooled["score"] == want, rep_dim
        assert len(pooled["train"]) == 4 and not any(pooled["train"])


class TestOptimizers:
    def make(self):
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2, precision="float64")
        params = EncoderParams.initialize(config, 0)
        return params

    def test_sgd_zero_gradient_no_change(self):
        params = self.make()
        before = params.copy()
        stepped = sgd_step(params, self.zero_grads(params), 0.5)
        for (_, a), (_, b) in zip(before.blocks(), stepped.blocks()):
            assert np.array_equal(a, b)

    def test_sgd_zero_lr_no_change(self):
        params = self.make()
        before = params.b_cls.copy()
        grads = self.zero_grads(params)
        grads.b_cls[:] = 1.0
        stepped = sgd_step(params, grads, 0.0)
        assert np.array_equal(stepped.b_cls, before)

    def test_sgd_scalar_update(self):
        """The step lands in the arrays passed in, and they come back."""
        params = self.make()
        before = float(params.b_cls[0])
        blocks = dict(params.blocks())
        grads = self.zero_grads(params)
        grads.b_cls[0] = 2.0
        stepped = sgd_step(params, grads, 0.1)
        assert stepped is params
        assert all(arr is blocks[name] for name, arr in stepped.blocks())
        assert stepped.b_cls[0] == pytest.approx(before - 0.2)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_sgd_compact_bundle_matches_dense_step(self, precision):
        """A bundle of a few touched rows steps those rows as a dense step
        would, and every other row keeps its bits, signed zeros included."""
        config = EncoderConfig(vocab_size=40, embed_dim=4, hidden_dim=5, rep_dim=3, precision=precision)
        params = EncoderParams.initialize(config, 8)
        params.embed[7] = -0.0
        rng = np.random.default_rng(2)
        rows = np.array([0, 3, 4, 19, 39])
        blocks = {name: rng.normal(size=arr.shape).astype(arr.dtype) for name, arr in params.blocks()}
        blocks["embed"] = blocks["embed"][rows]
        grads = packed(blocks, GradientBundle, embed_rows=rows)
        dense = dense_gradients(grads, config.vocab_size)
        want = {name: arr - 0.1 * getattr(dense, name) for name, arr in params.blocks()}
        before = params.embed.copy()
        sgd_step(params, grads, 0.1)
        for name, arr in params.blocks():
            assert arr.tobytes() == want[name].tobytes(), name
        untouched = np.setdiff1d(np.arange(config.vocab_size), rows)
        assert params.embed[untouched].tobytes() == before[untouched].tobytes()

    @staticmethod
    def zero_grads(params):
        """A zero gradient bundle that names every embedding row."""
        blocks = {name: np.zeros_like(arr) for name, arr in params.blocks()}
        return packed(blocks, GradientBundle, embed_rows=np.arange(len(params.embed)))

    def test_adam_first_step_size(self):
        params = self.make()
        grads = self.zero_grads(params)
        grads.b_cls[0] = 2.0
        state = AdamState.zeros(params)
        before = float(params.b_cls[0])
        stepped, state = adam_step(params, grads, state, lr=0.1)
        # First Adam step moves by ~lr regardless of gradient scale.
        assert stepped.b_cls[0] == pytest.approx(before - 0.1, abs=1e-6)
        assert state.step == 1

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_adam_matches_functional_form(self, precision):
        config = EncoderConfig(
            vocab_size=50, embed_dim=4, hidden_dim=5, rep_dim=3, precision=precision
        )
        params = EncoderParams.initialize(config, 3)
        ref_params = params.copy()
        state = AdamState.zeros(params)
        ref_state = AdamState.zeros(params)
        rng = np.random.default_rng(4)
        for step in range(20):
            grads = packed(
                {
                    name: rng.normal(0.0, 10.0 ** rng.integers(-4, 2), arr.shape).astype(arr.dtype)
                    for name, arr in params.blocks()
                },
                GradientBundle,
                embed_rows=np.arange(config.vocab_size),
            )
            grads.embed[rng.random(len(grads.embed)) < 0.5] = 0.0  # untouched rows
            old, blocks = params, dict(params.blocks())
            lr = 0.01 / (1.0 + step / 7)
            params, new_state = adam_step(params, grads, state, lr)
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr)
            assert new_state is state
            assert state.step == ref_state.step == step + 1
            pairs = ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v))
            for holder, ref_holder in pairs:
                for (name, got), (_, want) in zip(holder.blocks(), ref_holder.blocks()):
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), name
            # Updated in place: the parameters and arrays passed in come back.
            assert params is old
            for name, arr in params.blocks():
                assert arr is blocks[name], name

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_adam_touched_rows_match_dense_reference(self, precision):
        """Compact bundles step only the rows seen so far, yet every byte of
        params, m and v equals dense Adam over all rows, which reads each
        bundle spread over the whole table."""
        config = EncoderConfig(
            vocab_size=40, embed_dim=4, hidden_dim=5, rep_dim=3, precision=precision
        )
        dtype = config.dtype
        params = EncoderParams.initialize(config, 8)
        params.embed[7] = -0.0  # never touched: the signed zeros must survive
        ref_params = params.copy()
        state = AdamState.zeros(params)
        ref_state = AdamState.zeros(params)
        rng = np.random.default_rng(9)
        seen = np.zeros(config.vocab_size, dtype=bool)
        for step in range(30):
            blocks = {
                name: rng.normal(0.0, 10.0 ** rng.integers(-4, 2), arr.shape).astype(dtype)
                for name, arr in params.blocks()
            }
            if step in (20, 25, 27):  # hand-built dense bundle: all rows
                grads = packed(blocks, GradientBundle, embed_rows=np.arange(config.vocab_size))
            else:
                rows = np.unique(rng.integers(8, 20, 6))
                if step == 3:
                    rows = np.union1d(rows, [30, 31])  # touched once, never again
                if step == 5:
                    rows = np.union1d(rows, [25])
                embed = blocks["embed"][rows]
                if step == 5:  # a touched row whose gradient is all zeros
                    embed[np.searchsorted(rows, 25)] = np.array([0.0, -0.0, -0.0, 0.0], dtype=dtype)
                blocks["embed"] = embed
                grads = packed(blocks, GradientBundle, embed_rows=rows)
            if step == 4:
                # m of a seen row underflows to zero while v is still decaying.
                state.m.embed[30] = 0.0
                ref_state.m.embed[30] = 0.0
            seen[grads.embed_rows] = True
            lr = 0.01 / (1.0 + step / 7)
            params, _ = adam_step(params, grads, state, lr)
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr)
            assert state.step == ref_state.step == step + 1
            assert np.array_equal(state.seen_rows, seen)
            pairs = ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v))
            for holder, ref_holder in pairs:
                for (name, got), (_, want) in zip(holder.blocks(), ref_holder.blocks()):
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), (step, name)
            if not seen[7]:
                assert params.embed[7].tobytes() == np.full(4, -0.0, dtype).tobytes()
        assert seen.all()

    def test_adam_deterministic(self):
        params = self.make()
        grads = self.zero_grads(params)
        grads.w_proj[:] = 0.3
        a1, _ = adam_step(params.copy(), grads, AdamState.zeros(params), 0.01)
        a2, _ = adam_step(params.copy(), grads, AdamState.zeros(params), 0.01)
        for (_, x), (_, y) in zip(a1.blocks(), a2.blocks()):
            assert x.tobytes() == y.tobytes()


class TestGradientBundleFinite:
    def bundle(self):
        """Zero gradients of a table of 8 rows, of which rows 2 and 5 were
        touched."""
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2)
        params = EncoderParams.initialize(config, 0)
        blocks = {name: np.zeros_like(arr) for name, arr in params.blocks()}
        blocks["embed"] = np.zeros((2, config.embed_dim), config.dtype)
        return packed(blocks, GradientBundle, embed_rows=np.array([2, 5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_touched_embedding_row_names_embed(self, bad):
        grads = self.bundle()
        grads.check_finite()
        grads.embed[1, 1] = bad  # row 5
        with pytest.raises(TrainingDivergedError, match="'embed'"):
            grads.check_finite()

    @pytest.mark.parametrize("name", EncoderParams.DENSE)
    def test_dense_block_names_that_block(self, name):
        grads = self.bundle()
        getattr(grads, name).reshape(-1)[-1] = np.nan
        with pytest.raises(TrainingDivergedError, match=f"'{name}'"):
            grads.check_finite()


class TestParamBookkeeping:
    def test_param_count_formula(self):
        config = EncoderConfig(vocab_size=100, embed_dim=5, hidden_dim=7, rep_dim=3)
        params = EncoderParams.initialize(config, 0)
        expected = 100 * 5 + 7 * 15 + 7 + 7 + 3 * 7 + 3 + 16 * 3 + 16
        assert config.param_count() == expected
        assert params.param_count() == expected
        shapes = config.block_shapes()
        assert tuple(shapes) == EncoderParams.BLOCKS
        assert all(arr.shape == shapes[name] for name, arr in params.blocks())

    def test_flatten_round_trip(self):
        config = EncoderConfig(vocab_size=10, embed_dim=3, hidden_dim=4, rep_dim=2, precision="float64")
        params = EncoderParams.initialize(config, 5)
        rebuilt = with_flat(params, params.flatten())
        for (_, a), (_, b) in zip(params.blocks(), rebuilt.blocks()):
            assert np.array_equal(a, b)


def layout_case(precision):
    """A small model's parameters and the gradient bundle of one batch."""
    config = EncoderConfig(
        vocab_size=19, embed_dim=3, hidden_dim=4, rep_dim=2, chunk_size=2, l_max=3, precision=precision
    )
    params = EncoderParams.initialize(config, 4)
    tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
    toks = [tokenizer.tokenize(words) for words in (["the", "keyboard", "is", "great"], ["ok"])]
    golds = [np.arange(span_count(tok.n_words, config.l_max)) % NUM_CLASSES for tok in toks]
    selections = [np.arange(len(gold)) for gold in golds]
    plan = plan_from_sentences(toks, golds, selections, config, None)
    _, grads, _ = batch_gradients(params, plan, LossWeights(1.0, 0.5, 0.5))
    return config, params, grads


def adam_moments(params, grads):
    state = AdamState.zeros(params)
    adam_step(params, grads, state, 0.1)
    return state


def other_precision(config, params):
    return params.astype(np.float64 if config.precision == "float32" else np.float32)


def reloaded(config, params, path):
    save_params(path, params, config)
    return load_params(path)[0]


# Every producer of EncoderParams, as f(config, params, grads, tmp_path).
LAYOUT_PRODUCERS = {
    "initialize": lambda config, params, grads, tmp_path: params,
    "zeros_like": lambda config, params, grads, tmp_path: EncoderParams.zeros_like(params),
    "copy": lambda config, params, grads, tmp_path: params.copy(),
    "astype": lambda config, params, grads, tmp_path: other_precision(config, params).astype(
        config.dtype
    ),
    "sgd_step": lambda config, params, grads, tmp_path: sgd_step(params, grads, 0.1),
    "adam_step": lambda config, params, grads, tmp_path: adam_step(
        params, grads, AdamState.zeros(params), 0.1
    )[0],
    "adam_zeros_m": lambda config, params, grads, tmp_path: AdamState.zeros(params).m,
    "adam_zeros_v": lambda config, params, grads, tmp_path: AdamState.zeros(params).v,
    "adam_stepped_m": lambda config, params, grads, tmp_path: adam_moments(params, grads).m,
    "adam_stepped_v": lambda config, params, grads, tmp_path: adam_moments(params, grads).v,
    "batch_gradients": lambda config, params, grads, tmp_path: grads,
    "load_params": lambda config, params, grads, tmp_path: reloaded(config, params, tmp_path / "in.ckpt"),
    "packed": lambda config, params, grads, tmp_path: packed(dict(params.blocks())),
}


class TestDenseLayout:
    """Whatever produced them, parameters, gradients and Adam moments hold
    their dense blocks as views of ``dense``, and their checkpoint bytes
    survive a save, load, save."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("producer", LAYOUT_PRODUCERS)
    def test_blocks_are_views_of_dense(self, producer, precision, tmp_path):
        config, params, grads = layout_case(precision)
        holder = LAYOUT_PRODUCERS[producer](config, params, grads, tmp_path)
        # A checkpoint is float32 whatever the model it came from.
        dtype = np.dtype("float32" if producer == "load_params" else precision)
        shapes = config.block_shapes()
        embed_shape = shapes.pop("embed")
        if producer == "batch_gradients":  # the touched rows alone
            embed_shape = (len(grads.embed_rows), config.embed_dim)
        assert holder.embed.dtype == dtype and holder.embed.shape == embed_shape
        dense = holder.dense
        assert dense.dtype == dtype and dense.ndim == 1 and dense.flags.c_contiguous
        start = dense.__array_interface__["data"][0]
        pos = 0
        for name, shape in shapes.items():
            block = getattr(holder, name)
            assert block.shape == shape and block.dtype == dtype, name
            assert np.shares_memory(block, dense), name
            assert block.__array_interface__["data"][0] == start + pos * dtype.itemsize, name
            assert block.flags.c_contiguous, name
            pos += block.size
        assert pos == dense.size

        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_params(first, dense_gradients(holder, config.vocab_size), config)
        save_params(second, load_params(first)[0], config)
        assert first.read_bytes() == second.read_bytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = EncoderConfig(vocab_size=32, embed_dim=4, hidden_dim=5, rep_dim=3, chunk_size=2, l_max=6)
        params = EncoderParams.initialize(config, 9)
        path = tmp_path / "model.ckpt"
        save_params(path, params, config)
        loaded, loaded_config = load_params(path)
        assert loaded_config == config
        for (_, a), (_, b) in zip(params.blocks(), loaded.blocks()):
            assert np.array_equal(a.astype(np.float32), b)

    def test_round_trip_at_each_header_maximum(self, tmp_path):
        """Each header field at its width's maximum: uint32 for vocab_size
        and hash_seed, uint16 for the rest."""
        config = EncoderConfig(
            vocab_size=1,
            embed_dim=65535,
            hidden_dim=1,
            rep_dim=65535,
            chunk_size=65535,
            l_max=65535,
            hash_seed=2**32 - 1,
        )
        config.validate()
        path = tmp_path / "model.ckpt"
        save_params(path, EncoderParams.initialize(config, 0), config)
        assert load_params(path)[1] == config

    @pytest.mark.parametrize(
        "name, value",
        [("vocab_size", 2**32), ("hash_seed", 2**32)]
        + [(name, 2**16) for name in ("embed_dim", "hidden_dim", "rep_dim", "chunk_size", "l_max")],
    )
    def test_value_wider_than_its_header_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=rf"{name} must be in \[\d, {value - 1}\]"):
            EncoderConfig(**{name: value}).validate()

    def test_truncated_rejected(self, tmp_path):
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2)
        path = tmp_path / "model.ckpt"
        save_params(path, EncoderParams.initialize(config, 0), config)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: checkpoint truncated inside"):
            load_params(path)

    @pytest.mark.parametrize("where, block", [("embed", "embed"), ("dense", "b_cls")])
    def test_non_finite_value_rejected_naming_file_and_block(self, tmp_path, where, block):
        """A NaN read from a file is a corrupt checkpoint, not a training
        divergence; the error names the file and the block."""
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2)
        params = EncoderParams.initialize(config, 0)
        getattr(params, where).flat[-1] = np.nan
        path = tmp_path / "model.ckpt"
        save_params(path, params, config)
        message = f"{path}: non-finite parameter in block {block!r}"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_params(path)

    @pytest.mark.parametrize(
        "other",
        [dict(vocab_size=19), dict(rep_dim=15), dict(embed_dim=31, vocab_size=19)],
        ids=["vocab_size", "rep_dim", "embed_dim"],
    )
    def test_blocks_of_another_config_rejected_before_writing(self, tmp_path, other):
        """Parameters whose shapes are not the config's would write a file
        that ``load_params`` cannot read; nothing is written."""
        params = EncoderParams.initialize(EncoderConfig(**other), 0)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="parameter blocks have shapes"):
            save_params(path, params, EncoderConfig())
        assert not path.exists()

    def test_compact_gradient_bundle_rejected_before_writing(self, tmp_path):
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2)
        params = EncoderParams.initialize(config, 0)
        rows = np.array([2, 5])
        bundle = GradientBundle(params.embed[rows], params.dense.copy(), params.dense_shapes, rows)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=r"have shapes \[\(2, 2\), "):
            save_params(path, bundle, config)
        assert not path.exists()

    def test_header_value_out_of_range_rejected_naming_file(self, tmp_path):
        """A header field no config allows is a corrupt checkpoint, not a config error."""
        config = EncoderConfig(vocab_size=8, embed_dim=2, hidden_dim=2, rep_dim=2)
        path = tmp_path / "model.ckpt"
        save_params(path, EncoderParams.initialize(config, 0), config)
        blob = bytearray(path.read_bytes())
        blob[20:22] = bytes(2)  # l_max, which no block's size depends on
        path.write_bytes(bytes(blob))
        message = f"{path}: l_max must be in [1, 65535], got 0"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_params(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"JUNK" + bytes(64))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: bad checkpoint magic$"):
            load_params(path)


class TestOverfitSanity:
    def test_loss_collapses_with_sgd(self):
        """200 plain gradient steps must cut the tag loss below 5% of start."""
        from fedspan.corpus import parse_corpus
        from fedspan.model import SpanTagger

        from conftest import OVERFIT_FIXTURE

        sentences = parse_corpus(OVERFIT_FIXTURE)
        tagger = SpanTagger(optimizer="sgd", learning_rate=0.3, batch_size=5, seed=0)
        tagger.partial_fit(sentences, epochs=1)
        initial = tagger.last_fit_metrics_["tag_loss"]
        for _ in range(199):
            tagger.partial_fit(sentences, epochs=1)
        final = tagger.last_fit_metrics_["tag_loss"]
        assert final < 0.05 * initial, (initial, final)
