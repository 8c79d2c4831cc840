"""Span-tagging triplet extractor with a scikit-learn style surface.

``SpanTagger`` wraps the encoder, the composite-tag supervision and the
prototype bookkeeping behind ``fit`` / ``partial_fit`` / ``predict`` /
``score`` plus ``get_params`` / ``set_params``, so it can slot into generic
tooling and serve as the unit trained on each federated client.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path
from typing import Annotated, Literal, Sequence

import numpy as np

from .corpus import Sentence, Triplet, TripletMetrics, evaluate_triplets, validate_sentence
from .decoding import decode_batch
from .encoder import (
    AdamState,
    BatchPlan,
    ChunkLayout,
    EncoderConfig,
    EncoderParams,
    LossWeights,
    Range,
    Tokenization,
    Tokenizer,
    _gather_batch,
    adam_step,
    batch_gradients,
    encode_words,
    # Called by encode_words; perfbench's tracer patches this binding too.
    forward_sentence,  # noqa: F401
    load_params,
    save_params,
    score_spans,
    sgd_step,
    unit_prototypes,
)
from .prototypes import PrototypeSet, build_local_prototypes, momentum_update
from .tagging import NUM_CLASSES, TagMatrix, derive_gold_tags, span_count

logger = logging.getLogger(__name__)


# Sentences scored per ``score_spans`` call at inference. In float32 a
# sentence's scores can depend on its batch-mates in the last bits, so the
# grouping is fixed rather than read from ``batch_size``, which a checkpoint
# does not store: a loaded model scores as the model that saved it. 8 is the
# default ``batch_size``.
SCORE_GROUP = 8

# A scoring group with at least this many spans per word pools each start
# word's spans with one window product (``_gather_batch(..., windows=True)``).
# That is faster from about 5 spans per word; at 7 (15-word sentences at the
# default l_max) it takes 0.8x the time. The shipped corpora's groups reach
# at most 6.2, so they keep the per-span products. At rep_dim 1 every group
# does: there the window product sums in another order than the per-span
# one, and a group's reps would depend on its length.
WINDOW_SPANS_PER_WORD = 7


class NotFittedError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class TaggerConfig(EncoderConfig):
    """Every ``SpanTagger`` hyperparameter: the encoder's, then training's.

    ``seed`` drives data order and span sampling; ``params_seed`` drives
    weight initialization (kept separate so federated clients can share
    their starting point while seeing data in different orders).
    """

    optimizer: Literal["adam", "sgd"] = "adam"
    learning_rate: Annotated[float, Range(0, open_low=True)] = 0.01
    # lr / (1 + steps/decay); None disables
    lr_decay_steps: Annotated[float | None, Range(0, open_low=True)] = 600.0
    batch_size: Annotated[int, Range(1)] = 8
    # Loss weights. align/sep follow the reference recipe; proto_weight is
    # calibrated up for the 16-dim toy encoder, where a unit overall weight
    # leaves the regularizer numerically inert.
    proto_weight: Annotated[float, Range(0)] = 25.0
    align_weight: Annotated[float, Range(0)] = 0.002
    sep_weight: Annotated[float, Range(0)] = 0.00025
    prototype_momentum: Annotated[float, Range(0, 1)] = 0.9
    null_span_ratio: Annotated[float, Range(0)] = 1.0
    prototype_assignment: Literal["predicted", "gold"] = "predicted"
    seed: Annotated[int | tuple, Range(0)] = 0
    params_seed: Annotated[int, Range(0)] = 0


def validate_sentences(sentences: Sequence[Sentence]) -> None:
    """Input check shared by fit/predict entry points."""
    if len(sentences) == 0:
        raise ValueError("need at least one sentence")
    for i, sentence in enumerate(sentences):
        try:
            validate_sentence(sentence)
        except ValueError as exc:
            raise ValueError(f"sentence {i}: {exc}") from exc


def _check_epochs(epochs: int) -> None:
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")


def select_spans(
    rng: np.random.Generator, gold: np.ndarray, starts: np.ndarray, null_ratio: float
) -> np.ndarray:
    """Mask of the spans feeding the prototype term over an epoch's gold
    classes, sentence i owning ``starts[i]:starts[i+1]``: its labeled spans
    and background spans capped at ``null_ratio`` times as many, picked and
    drawn as by one ``rng.choice(nulls, k, replace=False)`` per sentence.
    numpy shuffles instead of drawing Floyd's picks when a sentence has over
    10,000 background spans and picks more than a fiftieth of them, so it is
    called then.
    """
    selected = gold != 0
    labeled = np.add.reduceat(selected, starts[:-1], dtype=np.int64)
    n = np.diff(starts) - labeled
    k = np.minimum(n, np.rint(null_ratio * labeled)).astype(np.int64)
    picks, lo = [], 0
    for hi in [*np.flatnonzero((n > 10_000) & (k > n // 50)).tolist(), len(k)]:
        picks.append(_floyd_picks(rng, n[lo:hi], k[lo:hi]))
        if hi < len(k):
            picks.append(rng.choice(n[hi], k[hi], replace=False))
        lo = hi + 1
    picks = np.concatenate(picks) + np.repeat(np.cumsum(n) - n, k)
    selected[np.flatnonzero(gold == 0)[picks]] = True
    return selected


def _floyd_picks(rng: np.random.Generator, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``rng.choice(n_i, k_i, replace=False)`` for each i in turn, from one
    draw, each set in any order. numpy draws in [0, j] for j = n-k ... n-1
    (Floyd), then in [0, i] for i = k-1 ... 1 to shuffle, which a set
    ignores. Floyd's rule takes j for a value already picked, which first
    happens at a repeated draw: only sets with one need the loop."""
    n_draws = np.maximum(2 * k - 1, 0)
    step = np.arange(n_draws.sum()) - np.repeat(np.cumsum(n_draws) - n_draws, n_draws)
    n_rep, k_rep = np.repeat(n, n_draws), np.repeat(k, n_draws)
    floyd = step < k_rep
    draws = rng.integers(0, np.where(floyd, n_rep - k_rep + 1 + step, 2 * k_rep - step))
    picks, js = draws[floyd], (n_rep - k_rep + step)[floyd]
    ends = np.cumsum(n)
    keys = np.sort(np.repeat(ends - n, k) + picks)  # distinct across sets
    repeated = np.unique(ends.searchsorted(keys[1:][keys[1:] == keys[:-1]], side="right"))
    first, js, values = np.cumsum(k) - k, js.tolist(), picks.tolist()
    for i in repeated.tolist():
        lo, hi = int(first[i]), int(first[i] + k[i])
        chosen: set[int] = set()
        for j, v in zip(js[lo:hi], values[lo:hi]):
            chosen.add(j if v in chosen else v)
        picks[lo:hi] = list(chosen)
    return picks


class SpanTagger:
    """Trainable span tagger + triplet decoder.

    Takes the ``TaggerConfig`` fields as keyword arguments and keeps them as
    ``config``; they are validated when training or loading initializes the
    model.
    """

    def __init__(self, **params):
        self.config = TaggerConfig(**params)
        self._reset_state()

    # -- scikit-learn protocol -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return dataclasses.asdict(self.config)

    def set_params(self, **params) -> "SpanTagger":
        unknown = set(params) - {f.name for f in dataclasses.fields(TaggerConfig)}
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for SpanTagger")
        self.config = dataclasses.replace(self.config, **params)
        self._reset_state()
        return self

    # -- lifecycle ---------------------------------------------------------------

    def _reset_state(self) -> None:
        self.params_: EncoderParams | None = None
        self.opt_state_: AdamState | None = None
        self.prototypes_: PrototypeSet | None = None
        self.n_steps_ = 0
        self.last_fit_metrics_: dict | None = None
        self._rng = None
        self._tokenizer = None
        self._train_inputs: dict[Sentence, tuple[Tokenization, np.ndarray]] = {}

    @property
    def is_fitted(self) -> bool:
        return self.params_ is not None

    def _initialize(self, params: EncoderParams | None = None) -> None:
        """Fresh training state around ``params``, drawn from ``params_seed``
        when not given."""
        config = self.config
        config.validate()
        if params is None:
            params = EncoderParams.initialize(config, config.params_seed)
        self.params_ = params
        self.opt_state_ = AdamState.zeros(self.params_) if config.optimizer == "adam" else None
        self.prototypes_ = PrototypeSet.from_arrays(
            np.zeros((NUM_CLASSES, config.rep_dim), config.dtype), np.zeros(NUM_CLASSES, bool)
        )
        self.n_steps_ = 0
        self._rng = np.random.default_rng(config.seed)
        self._tokenizer = Tokenizer(config.vocab_size, config.chunk_size, config.hash_seed)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("call fit or partial_fit first")

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        sentences: Sequence[Sentence],
        epochs: int = 5,
        global_prototypes: PrototypeSet | None = None,
    ) -> "SpanTagger":
        """Reinitialize and train; see partial_fit for the incremental variant."""
        _check_epochs(epochs)
        self._reset_state()
        return self.partial_fit(sentences, epochs=epochs, global_prototypes=global_prototypes)

    def partial_fit(
        self,
        sentences: Sequence[Sentence],
        epochs: int = 1,
        global_prototypes: PrototypeSet | None = None,
    ) -> "SpanTagger":
        """Run training epochs, keeping parameters and prototypes across calls.

        The prototype regularizer is active only when ``global_prototypes``
        is given with a class present (from the second federated round
        onward); they are normalized once per call. Local prototypes
        are rebuilt every batch from the selected spans and smoothed with the
        configured momentum.
        """
        _check_epochs(epochs)
        validate_sentences(sentences)
        if not self.is_fitted:
            self._initialize()
        config = self.config
        toks, golds = zip(*map(self._training_inputs, sentences))
        if global_prototypes is not None and global_prototypes.dim != config.rep_dim:
            raise ValueError(
                f"global prototypes have dim {global_prototypes.dim}, model uses {config.rep_dim}"
            )
        protos = unit_prototypes(global_prototypes, config.dtype)
        weights = LossWeights(config.proto_weight, config.align_weight, config.sep_weight)

        loss_sums = np.zeros(3)
        n_batches = 0
        indices = np.arange(len(sentences))
        for _ in range(epochs):
            # Nothing else draws from the generator within an epoch.
            order = self._rng.permutation(indices)
            gold = np.concatenate([golds[i] for i in order])
            starts = np.cumsum([0] + [len(golds[i]) for i in order])
            selected = select_spans(self._rng, gold, starts, config.null_span_ratio)
            for lo in range(0, len(order), config.batch_size):
                hi = min(lo + config.batch_size, len(order))
                spans = slice(starts[lo], starts[hi])
                batch = [toks[i] for i in order[lo:hi]], gold[spans], np.flatnonzero(selected[spans])
                plan = BatchPlan.build(*batch, config, *protos)
                breakdown = self._train_batch(plan, weights)
                loss_sums += (breakdown.total, breakdown.tag, breakdown.proto)
                n_batches += 1
        train, tag, proto = (loss_sums / n_batches).tolist()
        self.last_fit_metrics_ = dict(train_loss=train, tag_loss=tag, proto_loss=proto, batches=n_batches)
        return self

    def _training_inputs(self, sentence: Sentence) -> tuple[Tokenization, np.ndarray]:
        """Tokenization and gold classes of a training sentence, cached. The
        tokenization is the tokenizer's own, which scoring also gets."""
        cached = self._train_inputs.get(sentence)
        if cached is None:
            gold = derive_gold_tags(sentence, self.config.l_max).classes
            gold.setflags(write=False)
            cached = self._tokenizer.tokenize(sentence.tokens), gold
            self._train_inputs[sentence] = cached
        return cached

    def _train_batch(self, plan: BatchPlan, weights: LossWeights):
        config = self.config
        breakdown, grads, batch_reps = batch_gradients(self.params_, plan, weights)
        lr = config.learning_rate
        if config.lr_decay_steps:
            lr = lr / (1.0 + self.n_steps_ / config.lr_decay_steps)
        if config.optimizer == "adam":
            self.params_, self.opt_state_ = adam_step(self.params_, grads, self.opt_state_, lr)
        else:
            self.params_ = sgd_step(self.params_, grads, lr)
        self.n_steps_ += 1

        if len(batch_reps.reps):
            classes = (
                batch_reps.pred_classes
                if config.prototype_assignment == "predicted"
                else batch_reps.gold_classes
            )
            batch_protos = build_local_prototypes(batch_reps.reps, classes)
            self.prototypes_ = momentum_update(
                self.prototypes_, batch_protos, config.prototype_momentum
            )
        return breakdown

    # -- inference -------------------------------------------------------------------

    def predict_tags(self, sentences: Sequence[Sentence]) -> list[TagMatrix]:
        self._require_fitted()
        validate_sentences(sentences)
        # Spans are scored SCORE_GROUP sentences at a time, in call order.
        l_max = self.config.l_max
        pool_by_window = self.config.rep_dim > 1
        dtype = self.params_.embed.dtype
        out = []
        for lo in range(0, len(sentences), SCORE_GROUP):
            group = sentences[lo : lo + SCORE_GROUP]
            toks = [self._tokenizer.tokenize(s.tokens) for s in group]
            word_counts = [tok.n_words for tok in toks]
            n_spans = sum(span_count(n, l_max) for n in word_counts)
            windows = pool_by_window and n_spans >= WINDOW_SPANS_PER_WORD * sum(word_counts)
            layout = _gather_batch(word_counts, l_max, windows)
            _, word_vecs = encode_words(self.params_, ChunkLayout.build(toks, dtype))
            spans = score_spans(self.params_, word_vecs, layout)
            classes = spans.logits.argmax(axis=1).astype(np.int16)
            lo_span = 0
            for sentence, n_spans in zip(group, spans.span_counts):
                part = classes[lo_span : lo_span + n_spans]
                out.append(TagMatrix(len(sentence.tokens), l_max, part))
                lo_span += n_spans
        return out

    def predict(self, sentences: Sequence[Sentence]) -> list[list[Triplet]]:
        return decode_batch(self.predict_tags(sentences))

    def evaluate(self, sentences: Sequence[Sentence]) -> TripletMetrics:
        pred = self.predict(sentences)
        gold = [s.triplets for s in sentences]
        return evaluate_triplets(pred, gold)

    def score(self, sentences: Sequence[Sentence]) -> float:
        """Triplet-level micro F1 on the given sentences."""
        return self.evaluate(sentences).f1

    # -- persistence -------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        self._require_fitted()
        save_params(path, self.params_, self.config)

    @classmethod
    def load(cls, path: str | Path) -> "SpanTagger":
        params, config = load_params(path)
        tagger = cls(**dataclasses.asdict(config))
        tagger._initialize(params)
        return tagger
