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
from typing import Sequence

import numpy as np

from .corpus import Sentence, Triplet, TripletMetrics, evaluate_triplets, validate_sentence
from .decoding import decode_batch
from .encoder import (
    AdamState,
    ConfigError,
    EncoderConfig,
    EncoderParams,
    LossWeights,
    Tokenization,
    Tokenizer,
    adam_step,
    batch_gradients,
    forward_sentence,
    load_params,
    save_params,
    score_spans,
    sgd_step,
)
from .prototypes import PrototypeSet, build_local_prototypes, momentum_update
from .tagging import NUM_CLASSES, TagMatrix, derive_gold_tags

logger = logging.getLogger(__name__)


# Sentences scored per ``score_spans`` call at inference. In float32 a
# sentence's scores can depend on its batch-mates in the last bits, so the
# grouping is fixed rather than read from ``batch_size``, which a checkpoint
# does not store: a loaded model scores as the model that saved it. 8 is the
# default ``batch_size``.
SCORE_GROUP = 8


class NotFittedError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class TaggerConfig(EncoderConfig):
    """Every ``SpanTagger`` hyperparameter: the encoder's, then training's.

    ``seed`` drives data order and span sampling; ``params_seed`` drives
    weight initialization (kept separate so federated clients can share
    their starting point while seeing data in different orders).
    """

    optimizer: str = "adam"
    learning_rate: float = 0.01
    lr_decay_steps: float | None = 600.0  # lr / (1 + steps/decay); None disables
    batch_size: int = 8
    # Loss weights. align/sep follow the reference recipe; proto_weight is
    # calibrated up for the 16-dim toy encoder, where a unit overall weight
    # leaves the regularizer numerically inert.
    proto_weight: float = 25.0
    align_weight: float = 0.002
    sep_weight: float = 0.00025
    prototype_momentum: float = 0.9
    null_span_ratio: float = 1.0
    prototype_assignment: str = "predicted"
    seed: int | tuple = 0
    params_seed: int = 0

    def validate(self) -> None:
        super().validate()
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError("optimizer must be 'adam' or 'sgd'")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.lr_decay_steps is not None and self.lr_decay_steps <= 0:
            raise ConfigError("lr_decay_steps must be > 0 or null")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("proto_weight", "align_weight", "sep_weight", "null_span_ratio"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.prototype_momentum <= 1.0:
            raise ConfigError("prototype_momentum must be in [0, 1]")
        if self.prototype_assignment not in ("predicted", "gold"):
            raise ConfigError("prototype_assignment must be 'predicted' or 'gold'")


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


def split_spans(gold_classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the labeled spans and of the background (class 0) spans,
    as int32: half the memory of a cache of int64 indices, and ``rng.choice``
    draws the same stream for any index dtype."""
    gold_classes = np.asarray(gold_classes)
    return (
        np.flatnonzero(gold_classes != 0).astype(np.int32),
        np.flatnonzero(gold_classes == 0).astype(np.int32),
    )


def select_proto_spans(
    split: tuple[np.ndarray, np.ndarray], rng: np.random.Generator, null_ratio: float
) -> np.ndarray:
    """Spans feeding the prototype term: all labeled spans plus a sample of
    background spans capped at ``null_ratio`` times the labeled count.
    ``split`` is ``split_spans`` of the sentence's gold classes."""
    labeled, nulls = split
    n_null = min(len(nulls), int(round(null_ratio * len(labeled))))
    if n_null > 0:
        sampled = rng.choice(nulls, size=n_null, replace=False)
        return np.sort(np.concatenate([labeled, sampled]))
    return labeled


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
        self._train_inputs: dict[Sentence, tuple[Tokenization, np.ndarray, tuple]] = {}

    @property
    def is_fitted(self) -> bool:
        return self.params_ is not None

    def _initialize(self) -> None:
        config = self.config
        config.validate()
        self.params_ = EncoderParams.initialize(config, config.params_seed)
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
        is given (from the second federated round onward). Local prototypes
        are rebuilt every batch from the selected spans and smoothed with the
        configured momentum.
        """
        _check_epochs(epochs)
        validate_sentences(sentences)
        if not self.is_fitted:
            self._initialize()
        config = self.config
        toks, golds, splits = zip(*map(self._training_inputs, sentences))
        if global_prototypes is not None and global_prototypes.dim != config.rep_dim:
            raise ValueError(
                f"global prototypes have dim {global_prototypes.dim}, model uses {config.rep_dim}"
            )
        proto_vecs = proto_present = None
        if global_prototypes is not None and global_prototypes.present.any():
            proto_vecs, proto_present = global_prototypes.matrix, global_prototypes.present
        weights = LossWeights(config.proto_weight, config.align_weight, config.sep_weight)

        loss_sums = np.zeros(3)
        n_batches = 0
        indices = np.arange(len(sentences))
        for _ in range(epochs):
            order = self._rng.permutation(indices)
            for lo in range(0, len(order), config.batch_size):
                batch_ids = order[lo : lo + config.batch_size]
                breakdown = self._train_batch(
                    [toks[i] for i in batch_ids],
                    [golds[i] for i in batch_ids],
                    [splits[i] for i in batch_ids],
                    proto_vecs,
                    proto_present,
                    weights,
                )
                loss_sums += (breakdown.total, breakdown.tag, breakdown.proto)
                n_batches += 1
        self.last_fit_metrics_ = {
            "train_loss": float(loss_sums[0] / n_batches),
            "tag_loss": float(loss_sums[1] / n_batches),
            "proto_loss": float(loss_sums[2] / n_batches),
            "batches": n_batches,
        }
        return self

    def _training_inputs(self, sentence: Sentence) -> tuple[Tokenization, np.ndarray, tuple]:
        """Tokenization, gold classes and ``split_spans`` of a training
        sentence, cached. The tokenization is the tokenizer's own cached
        object, the one scoring the sentence also gets."""
        cached = self._train_inputs.get(sentence)
        if cached is None:
            gold = derive_gold_tags(sentence, self.config.l_max).classes
            split = split_spans(gold)
            for arr in (gold, *split):
                arr.setflags(write=False)
            cached = self._tokenizer.tokenize(sentence.tokens), gold, split
            self._train_inputs[sentence] = cached
        return cached

    def _train_batch(self, toks, golds, splits, proto_vecs, proto_present, weights):
        config = self.config
        selections = [select_proto_spans(split, self._rng, config.null_span_ratio) for split in splits]
        breakdown, grads, batch_reps = batch_gradients(
            self.params_,
            toks,
            golds,
            selections,
            config.l_max,
            proto_vecs,
            proto_present,
            weights,
        )
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
        out = []
        for lo in range(0, len(sentences), SCORE_GROUP):
            group = sentences[lo : lo + SCORE_GROUP]
            fps = [
                forward_sentence(self.params_, self._tokenizer.tokenize(s.tokens), l_max)
                for s in group
            ]
            spans = score_spans(self.params_, fps, l_max)
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
        tagger._initialize()
        tagger.params_ = params
        return tagger
