"""Analytic gradients against central finite differences (float64)."""

import dataclasses
import math

import numpy as np
import pytest

import fedspan.encoder as encoder_module
import fedspan.model as model_module
from fedspan.encoder import (
    BatchPlan,
    ChunkLayout,
    EncoderConfig,
    EncoderParams,
    LossWeights,
    Tokenizer,
    TrainingDivergedError,
    _element_index,
    _scatter_rows,
    batch_gradients,
    unit_prototypes,
)
from fedspan.model import SpanTagger
from fedspan.prototypes import PrototypeSet
from fedspan.synth import default_synth_config, generate_synthetic
from fedspan.tagging import span_count

from reference_gradients import batch_loss, dense_gradients, reference_batch_gradients, with_flat

FD_STEP = 1e-5
TOLERANCE = 1e-4

WORDS = ["battery", "is", "great", "the", "awful", "lens", "zoom", "keyboard", "a", "ok"]


def random_case(case_seed):
    """One random small configuration: params, batch, selection, prototypes
    (a ``PrototypeSet`` or None) and loss weights."""
    rng = np.random.default_rng(case_seed)
    config = EncoderConfig(
        vocab_size=int(rng.integers(7, 20)),
        embed_dim=int(rng.integers(2, 5)),
        hidden_dim=int(rng.integers(2, 5)),
        rep_dim=int(rng.integers(2, 5)),
        chunk_size=int(rng.integers(2, 4)),
        l_max=int(rng.integers(2, 5)),
        precision="float64",
    )
    params = EncoderParams.initialize(config, int(rng.integers(0, 1000)))
    tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
    toks = []
    golds = []
    selections = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 6))
        tokens = [WORDS[i] for i in rng.integers(0, len(WORDS), n)]
        tok = tokenizer.tokenize(tokens)
        total = span_count(n, config.l_max)
        gold = rng.integers(0, 16, total)
        n_sel = int(rng.integers(0, total + 1))
        sel = np.sort(rng.choice(total, size=n_sel, replace=False))
        toks.append(tok)
        golds.append(gold)
        selections.append(sel)
    if rng.random() < 0.75:
        proto_vecs = rng.normal(size=(16, config.rep_dim))
        present = rng.random(16) < rng.uniform(0.2, 0.9)
        proto_vecs[~present] = 0.0
        protos = PrototypeSet.from_arrays(proto_vecs, present)
        weights = LossWeights(
            proto_weight=float(rng.choice([0.5, 1.0, 2.0])),
            align_weight=float(rng.uniform(0.3, 2.0)),
            sep_weight=float(rng.uniform(0.3, 2.0)),
        )
    else:
        protos = None
        weights = LossWeights(proto_weight=1.0, align_weight=0.002, sep_weight=0.00025)
    return config, params, toks, golds, selections, protos, weights


def plan_of(params, toks, golds, selections, l_max, protos):
    """``BatchPlan.from_sentences`` for ``params``'s embedding table and
    dtype."""
    config = EncoderConfig(
        vocab_size=len(params.embed), embed_dim=params.embed.shape[1], l_max=l_max,
        precision=params.w_proj.dtype.name,
    )
    return BatchPlan.from_sentences(toks, golds, selections, config, protos)


def gradients(params, args):
    """``batch_gradients`` of ``args = (toks, golds, selections, l_max,
    protos, weights)``, planned with ``plan_of``."""
    *batch, weights = args
    return batch_gradients(params, plan_of(params, *batch), weights)


def numeric_gradient(params, plan, weights):
    flat = params.flatten()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        plus = flat.copy()
        plus[i] += FD_STEP
        minus = flat.copy()
        minus[i] -= FD_STEP
        up = batch_loss(with_flat(params, plus), plan, weights)
        down = batch_loss(with_flat(params, minus), plan, weights)
        grad[i] = (up.total - down.total) / (2.0 * FD_STEP)
    return grad


def relative_errors(analytic, numeric):
    # Hybrid denominator: relative where the gradient is sizeable, absolute
    # below 1e-3 so finite-difference noise on near-zero entries cannot
    # dominate while genuine sign/scale errors still show up.
    return np.abs(analytic - numeric) / np.maximum(1e-3, np.maximum(np.abs(analytic), np.abs(numeric)))


def check_case(case_seed):
    config, params, toks, golds, selections, protos, weights = random_case(case_seed)
    plan = plan_of(params, toks, golds, selections, config.l_max, protos)
    breakdown, grads, _ = batch_gradients(params, plan, weights)
    grads = dense_gradients(grads, config.vocab_size)
    numeric = numeric_gradient(params, plan, weights)
    errors = relative_errors(grads.flatten(), numeric)
    # Per-block worst error, for a readable failure message.
    report = {}
    pos = 0
    for name, arr in grads.blocks():
        report[name] = float(errors[pos : pos + arr.size].max()) if arr.size else 0.0
        pos += arr.size
    return breakdown, report


class TestGradientCheck:
    def test_fifty_random_configurations(self):
        worst = 0.0
        for case_seed in range(50):
            _, report = check_case(case_seed)
            case_worst = max(report.values())
            assert case_worst <= TOLERANCE, f"case {case_seed}: {report}"
            worst = max(worst, case_worst)
        assert worst <= TOLERANCE

    def test_zero_proto_weight_matches_tag_only_gradient(self):
        config, params, toks, golds, selections, protos, _ = random_case(123)
        lam0 = LossWeights(proto_weight=0.0, align_weight=1.0, sep_weight=1.0)
        _, with_protos, _ = gradients(params, (toks, golds, selections, config.l_max, protos, lam0))
        _, without, _ = gradients(params, (toks, golds, selections, config.l_max, None, lam0))
        for (_, a), (_, b) in zip(with_protos.blocks(), without.blocks()):
            assert np.array_equal(a, b)

    def test_loss_matches_forward_recomputation(self):
        config, params, toks, golds, selections, protos, weights = random_case(7)
        plan = plan_of(params, toks, golds, selections, config.l_max, protos)
        breakdown, _, _ = batch_gradients(params, plan, weights)
        again = batch_loss(params, plan, weights)
        assert abs(breakdown.total - again.total) <= 1e-10

    def test_perturbation_changes_loss_along_gradient(self):
        config, params, toks, golds, selections, protos, weights = random_case(11)
        plan = plan_of(params, toks, golds, selections, config.l_max, protos)
        breakdown, grads, _ = batch_gradients(params, plan, weights)
        direction = dense_gradients(grads, config.vocab_size).flatten()
        assert np.linalg.norm(direction) > 0
        eps = 1e-6
        moved = with_flat(params, params.flatten() - eps * direction)
        after = batch_loss(moved, plan, weights)
        predicted_drop = eps * float(direction @ direction)
        assert breakdown.total - after.total == pytest.approx(predicted_drop, rel=1e-3)


def assert_matches_reference(params, args):
    """Packed gradients, loss breakdown and BatchReps equal the per-sentence
    reference to 1e-10, relative to the largest entry of each block."""
    breakdown, grads, reps = gradients(params, args)
    grads = dense_gradients(grads, len(params.embed))
    ref_breakdown, ref_grads, ref_reps = reference_batch_gradients(params, *args)
    for field in ("total", "tag", "proto"):
        got, want = getattr(breakdown, field), getattr(ref_breakdown, field)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300), field
    for (name, got), (_, want) in zip(grads.blocks(), ref_grads.blocks()):
        assert got.shape == want.shape and got.dtype == want.dtype, name
        scale = float(np.abs(want).max()) if want.size else 0.0
        assert np.abs(got - want).max(initial=0.0) <= 1e-10 * scale, name
    assert reps.reps.shape == ref_reps.reps.shape
    scale = float(np.abs(ref_reps.reps).max(initial=0.0))
    assert np.abs(reps.reps - ref_reps.reps).max(initial=0.0) <= 1e-10 * scale
    assert np.array_equal(reps.pred_classes, ref_reps.pred_classes)
    assert np.array_equal(reps.gold_classes, ref_reps.gold_classes)


def eight_sentence_case(lengths, l_max=3, empty_selection=False, null_gold=False, protos=True):
    """A float64 batch of len(lengths) sentences with the given word counts."""
    rng = np.random.default_rng(sum(lengths) + 31 * l_max)
    config = EncoderConfig(
        vocab_size=13, embed_dim=3, hidden_dim=4, rep_dim=3, chunk_size=2, l_max=l_max,
        precision="float64",
    )
    params = EncoderParams.initialize(config, 5)
    # Non-zero attention weights so the softmax backward is exercised.
    params.w_attn[:] = rng.normal(size=params.w_attn.shape)
    tokenizer = Tokenizer(config.vocab_size, config.chunk_size)
    toks, golds, selections = [], [], []
    for n in lengths:
        toks.append(tokenizer.tokenize([WORDS[i] for i in rng.integers(0, len(WORDS), n)]))
        total = span_count(n, l_max)
        golds.append(np.zeros(total, dtype=np.int64) if null_gold else rng.integers(0, 16, total))
        if empty_selection:
            selections.append(np.zeros(0, dtype=np.int64))
        else:
            n_sel = int(rng.integers(1, total + 1))
            selections.append(np.sort(rng.choice(total, size=n_sel, replace=False)))
    prototypes = None
    if protos:
        proto_vecs = rng.normal(size=(16, config.rep_dim))
        present = rng.random(16) < 0.6
        present[0] = True
        proto_vecs[~present] = 0.0
        prototypes = PrototypeSet.from_arrays(proto_vecs, present)
    weights = LossWeights(proto_weight=2.0, align_weight=0.7, sep_weight=1.3)
    return params, (toks, golds, selections, l_max, prototypes, weights)


class TestPackedMatchesPerSentence:
    @pytest.mark.parametrize("case_seed", range(50))
    def test_random_configurations(self, case_seed):
        config, params, toks, golds, selections, protos, weights = random_case(case_seed)
        assert_matches_reference(params, (toks, golds, selections, config.l_max, protos, weights))

    @pytest.mark.parametrize(
        "lengths",
        [
            [1] * 8,  # n = 1 everywhere
            [3] * 8,  # n = l_max
            [4, 5, 6, 7, 8, 9, 4, 5],  # n > l_max
            [1, 3, 7, 2, 3, 1, 9, 3],  # mixed, so spans per sentence differ
        ],
    )
    def test_eight_sentence_lengths(self, lengths):
        assert_matches_reference(*eight_sentence_case(lengths))

    def test_empty_selection(self):
        params, args = eight_sentence_case([1, 3, 7, 2, 3, 1, 9, 3], empty_selection=True)
        assert_matches_reference(params, args)
        breakdown, _, reps = gradients(params, args)
        assert breakdown.proto == 0.0 and reps.reps.shape == (0, 3)

    def test_all_null_gold(self):
        assert_matches_reference(*eight_sentence_case([1, 3, 7, 2, 3, 1, 9, 3], null_gold=True))

    def test_no_prototypes(self):
        params, args = eight_sentence_case([1, 3, 7, 2, 3, 1, 9, 3], protos=False)
        assert_matches_reference(params, args)
        assert gradients(params, args)[0].proto == 0.0

    def test_every_selected_span_has_zero_norm(self):
        """With the projection zeroed every span representation is zero: the
        prototype term adds nothing to the loss or the gradients."""
        params, args = eight_sentence_case([1, 3, 7, 2, 3, 1, 9, 3])
        params.w_proj[:] = 0.0
        params.b_proj[:] = 0.0
        assert_matches_reference(params, args)
        breakdown, grads, reps = gradients(params, args)
        assert not reps.reps.any() and breakdown.proto == 0.0
        *batch, weights = args
        tag_only = LossWeights(0.0, weights.align_weight, weights.sep_weight)
        _, without, _ = gradients(params, (*batch, tag_only))
        for (name, a), (_, b) in zip(grads.blocks(), without.blocks()):
            assert a.tobytes() == b.tobytes(), name

    def test_gold_class_is_the_only_present_prototype(self):
        """Only class 3 has a prototype, and some selected spans are of
        class 3: they have no rival class, so no separation term."""
        params, (toks, golds, selections, l_max, _, weights) = eight_sentence_case(
            [1, 3, 7, 2, 3, 1, 9, 3]
        )
        for gold, sel in zip(golds, selections):
            gold[sel[::2]] = 3
        rng = np.random.default_rng(17)
        present = np.arange(16) == 3
        protos = PrototypeSet.from_arrays(rng.normal(size=(16, 3)) * present[:, None], present)
        args = (toks, golds, selections, l_max, protos, weights)
        assert_matches_reference(params, args)
        plan = plan_of(params, toks, golds, selections, l_max, protos)
        assert not plan.rivals.any(axis=1).all() and plan.rivals.any()
        breakdown, grads, _ = batch_gradients(params, plan, weights)
        assert breakdown.proto != 0.0
        grads = dense_gradients(grads, len(params.embed))
        errors = relative_errors(grads.flatten(), numeric_gradient(params, plan, weights))
        assert errors.max() <= TOLERANCE


class TestEmbeddingRows:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("case_seed", range(50))
    def test_rows_and_scatter(self, case_seed, precision, monkeypatch):
        """embed_rows is the batch's sorted unique ids, and grads.embed has
        one row per id, with the bytes of that row of a row-wise np.add.at of
        the same values into the whole table."""
        config, params, toks, golds, selections, protos, weights = random_case(case_seed)
        params = params.astype(precision)
        scattered = []

        def recording(table, index, rows):
            scattered.append((index.copy(), rows.copy()))
            _scatter_rows(table, index, rows)

        monkeypatch.setattr(encoder_module, "_scatter_rows", recording)
        _, grads, _ = gradients(params, (toks, golds, selections, config.l_max, protos, weights))
        ids = np.concatenate([tok.subword_ids for tok in toks])
        assert np.array_equal(grads.embed_rows, np.unique(ids))
        assert grads.embed.shape == (len(grads.embed_rows), config.embed_dim)

        [(index, rows)] = scattered
        positions = np.searchsorted(grads.embed_rows, ids)
        assert np.array_equal(index, _element_index(positions, config.embed_dim))
        want = np.zeros((config.vocab_size, config.embed_dim), np.dtype(precision))
        np.add.at(want, ids, rows)
        assert grads.embed.dtype == want.dtype
        assert grads.embed.tobytes() == want[grads.embed_rows].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_element_scatter_matches_row_scatter(self, dtype):
        rng = np.random.default_rng(3)
        for _ in range(30):
            vocab, width = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            table = rng.normal(size=(vocab, width)).astype(dtype)
            ids = rng.integers(0, vocab, int(rng.integers(0, 300)))
            scale = 10.0 ** rng.integers(-8, 8, (len(ids), 1))
            rows = (rng.normal(size=(len(ids), width)) * scale).astype(dtype)
            want = table.copy()
            np.add.at(want, ids, rows)
            _scatter_rows(table, _element_index(ids, width), rows)
            assert table.tobytes() == want.tobytes()


class TestFlatGradientBuffer:
    """The dense gradient blocks live in one flat buffer, and the touched
    embedding rows in one compact block; the finite check reads both whole.
    ``TestDenseLayout`` checks the views."""

    def bundle(self):
        config, params, toks, golds, selections, protos, weights = random_case(5)
        args = (toks, golds, selections, config.l_max, protos, weights)
        _, grads, _ = gradients(params.astype("float32"), args)
        return grads

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", EncoderParams.BLOCKS)
    def test_non_finite_value_names_its_block(self, name, bad):
        grads = self.bundle()
        grads.check_finite()
        getattr(grads, name).reshape(-1)[-1] = bad
        with pytest.raises(TrainingDivergedError, match=f"non-finite gradient in block '{name}'"):
            grads.check_finite()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_compact_embedding_row_is_checked(self, bad):
        """The bundle holds the touched rows alone, and a non-finite value
        in any of them, the last included, names 'embed'."""
        grads = self.bundle()
        assert len(grads.embed) == len(grads.embed_rows) > 1
        for row in range(len(grads.embed)):
            saved = grads.embed[row, 0]
            grads.embed[row, 0] = bad
            with pytest.raises(TrainingDivergedError, match="non-finite gradient in block 'embed'"):
                grads.check_finite()
            grads.embed[row, 0] = saved
        grads.check_finite()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("touched", [True, False], ids=["touched", "untouched"])
    def test_batch_gradients_checks_touched_rows(self, monkeypatch, bad, touched):
        """A non-finite value scattered into the last touched embedding row
        makes ``batch_gradients`` raise naming 'embed'. An untouched row has
        no place in the bundle: a non-finite parameter there reaches no
        gradient."""
        config, params, toks, golds, selections, protos, weights = random_case(5)
        plan = plan_of(params, toks, golds, selections, config.l_max, protos)
        if touched:

            def poisoned(table, index, rows):
                _scatter_rows(table, index, rows)
                table[-1, 0] = bad

            monkeypatch.setattr(encoder_module, "_scatter_rows", poisoned)
            with pytest.raises(TrainingDivergedError, match="'embed'"):
                batch_gradients(params, plan, weights)
        else:
            untouched = np.setdiff1d(np.arange(config.vocab_size), plan.embed_rows)
            assert len(untouched) > 0
            params.embed[untouched] = bad
            _, grads, _ = batch_gradients(params, plan, weights)
            assert grads.embed.shape == (len(plan.embed_rows), config.embed_dim)


class TestShippedBundle:
    def test_bundle_holds_the_touched_rows_alone(self, monkeypatch):
        """Over one shipped epoch (default model, first shipped corpus,
        batches of 8), each step's bundle has one embedding row per touched
        chunk id, and a batch touches far fewer rows than the table has."""
        bundles = []

        def recording(params, plan, weights):
            result = batch_gradients(params, plan, weights)
            bundles.append((plan, result[1]))
            return result

        monkeypatch.setattr(model_module, "batch_gradients", recording)
        corpus = generate_synthetic(default_synth_config(), 7)[0]
        tagger = SpanTagger().partial_fit(corpus.train)
        config = tagger.config
        assert len(bundles) == math.ceil(len(corpus.train) / config.batch_size)
        for plan, grads in bundles:
            ids = np.concatenate([tok.subword_ids for tok in plan.toks])
            assert np.array_equal(plan.embed_rows, np.unique(ids))
            assert grads.embed_rows is plan.embed_rows
            assert grads.embed.shape == (len(plan.embed_rows), config.embed_dim)
            assert len(plan.embed_rows) < config.vocab_size // 10


class TestBatchArguments:
    def test_misaligned_gold_names_the_counts(self):
        config, params, toks, golds, selections, protos, weights = random_case(5)
        short = [golds[0][:-1], *golds[1:]]
        with pytest.raises(ValueError, match=f"misaligned: {len(golds[0]) - 1} vs {len(golds[0])} spans"):
            plan_of(params, toks, short, selections, config.l_max, protos)

    def test_unaligned_lists_and_empty_batch_rejected(self):
        config, params, toks, golds, selections, *_ = random_case(5)
        with pytest.raises(ValueError, match="aligned"):
            plan_of(params, toks, golds[:-1] if len(golds) > 1 else [], selections, config.l_max, None)
        with pytest.raises(ValueError, match="empty batch"):
            plan_of(params, [], [], [], config.l_max, None)


def assert_same_gradients(got, want):
    """Two ``batch_gradients`` results with the same bytes."""
    (breakdown, grads, reps), (want_breakdown, want_grads, want_reps) = got, want
    for field in ("total", "tag", "proto"):
        assert getattr(breakdown, field) == getattr(want_breakdown, field), field
    for (name, a), (_, b) in zip(grads.blocks(), want_grads.blocks()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert np.array_equal(grads.embed_rows, want_grads.embed_rows)
    for field in ("reps", "pred_classes", "gold_classes"):
        a, b = getattr(reps, field), getattr(want_reps, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


class TestFromSentences:
    """``BatchPlan.from_sentences`` packs per-sentence lists into the plan
    ``BatchPlan.build`` makes of the packed batch."""

    @pytest.mark.parametrize("case_seed", range(50))
    def test_matches_build_on_packed_batch(self, case_seed):
        config, params, toks, golds, selections, protos, weights = random_case(case_seed)
        listed = plan_of(params, toks, golds, selections, config.l_max, protos)
        starts = np.cumsum([0] + [span_count(tok.n_words, config.l_max) for tok in toks])
        sel = np.concatenate([s + start for s, start in zip(selections, starts)])
        packed = BatchPlan.build(
            toks, np.concatenate(golds), sel, config, *unit_prototypes(protos, config.dtype)
        )
        assert listed.toks == packed.toks
        (counts, pos, mask), (want_counts, want_pos, want_mask) = listed.layout, packed.layout
        assert counts == want_counts
        assert np.array_equal(pos, want_pos) and np.array_equal(mask, want_mask)
        for name in (f.name for f in dataclasses.fields(ChunkLayout)):
            got, want = getattr(listed.chunks, name), getattr(packed.chunks, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name in (f.name for f in dataclasses.fields(BatchPlan)):
            if name in ("toks", "layout", "chunks"):
                continue
            got, want = getattr(listed, name), getattr(packed, name)
            if want is None:
                assert got is None, name
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert_same_gradients(
            batch_gradients(params, listed, weights), batch_gradients(params, packed, weights)
        )

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_columns_follow_the_model_dtype(self, precision):
        config, params, toks, golds, selections, _, _ = random_case(3)
        protos = PrototypeSet.from_arrays(np.ones((16, config.rep_dim)), np.ones(16, bool))
        plan = plan_of(params.astype(precision), toks, golds, selections, config.l_max, protos)
        for name in ("span_weight_col", "unit_protos", "gold_protos"):
            assert getattr(plan, name).dtype == np.dtype(precision), name
        assert plan.chunks.word_size_col.dtype == np.dtype(precision)
        assert plan.span_weight.dtype == np.float64

    @pytest.mark.parametrize("case_seed", range(10))
    def test_prototypes_without_a_present_class_are_inactive(self, case_seed):
        """A set with no class present turns the prototype term off, as no
        set does, whatever its rows hold."""
        config, params, toks, golds, selections, _, _ = random_case(case_seed)
        rng = np.random.default_rng(case_seed)
        absent = PrototypeSet.from_arrays(rng.normal(size=(16, config.rep_dim)), np.zeros(16, bool))
        weights = LossWeights(proto_weight=2.0, align_weight=0.7, sep_weight=1.3)
        plan = plan_of(params, toks, golds, selections, config.l_max, absent)
        assert plan.unit_protos is None and plan.rivals is None
        breakdown, grads, _ = batch_gradients(params, plan, weights)
        _, without, _ = gradients(params, (toks, golds, selections, config.l_max, None, weights))
        assert breakdown.proto == 0.0
        for (name, a), (_, b) in zip(grads.blocks(), without.blocks()):
            assert np.array_equal(a, b), name
