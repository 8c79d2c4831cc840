"""Per-sentence reference forms of the training loop.

``SpanTagger.partial_fit`` draws each epoch's span selection in one call
(``fedspan.model.select_spans``) and builds each batch's ``BatchPlan`` from
epoch-wide arrays. This module keeps the loop it replaced, so tests can check
the two bit for bit:

- ``split_spans`` and ``select_proto_spans`` choose one sentence's prototype
  spans with one ``rng.choice`` call, the sampling oracle;
- ``reference_partial_fit`` is the training loop that calls them batch by
  batch, plans each batch from per-sentence gold classes and selections
  with ``plan_from_sentences``, and smooths the local prototypes after
  each step.
"""

import numpy as np

from fedspan.encoder import LossWeights, adam_step, batch_gradients, sgd_step
from fedspan.tagging import derive_gold_tags

from reference_plans import plan_from_sentences
from reference_prototypes import replay_local_prototypes


def split_spans(gold_classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the labeled spans and of the background (class 0) spans,
    as int32."""
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


def reference_partial_fit(tagger, sentences, epochs=1, global_prototypes=None):
    """``tagger.partial_fit`` as a loop that selects spans sentence by
    sentence, batch by batch, and plans each batch from those lists."""
    if not tagger.is_fitted:
        tagger._initialize()
    config = tagger.config
    toks = [tagger._tokenizer.tokenize(s.tokens) for s in sentences]
    golds = [derive_gold_tags(s, config.l_max).classes for s in sentences]
    splits = [split_spans(gold) for gold in golds]
    weights = LossWeights(config.proto_weight, config.align_weight, config.sep_weight)

    loss_sums = np.zeros(3)
    n_batches = 0
    indices = np.arange(len(sentences))
    for _ in range(epochs):
        order = tagger._rng.permutation(indices)
        for lo in range(0, len(order), config.batch_size):
            batch_ids = order[lo : lo + config.batch_size]
            selections = [
                select_proto_spans(splits[i], tagger._rng, config.null_span_ratio)
                for i in batch_ids
            ]
            plan = plan_from_sentences(
                [toks[i] for i in batch_ids],
                [golds[i] for i in batch_ids],
                selections,
                config,
                global_prototypes,
            )
            breakdown, grads, batch_reps = batch_gradients(tagger.params_, plan, weights)
            lr = config.learning_rate
            if config.lr_decay_steps:
                lr = lr / (1.0 + tagger.n_steps_ / config.lr_decay_steps)
            if config.optimizer == "adam":
                tagger.params_, tagger.opt_state_ = adam_step(
                    tagger.params_, grads, tagger.opt_state_, lr
                )
            else:
                tagger.params_ = sgd_step(tagger.params_, grads, lr)
            tagger.n_steps_ += 1
            classes = (
                batch_reps.pred_classes
                if config.prototype_assignment == "predicted"
                else batch_reps.gold_classes
            )
            tagger.prototypes_ = replay_local_prototypes(
                tagger.prototypes_, [(batch_reps.reps, classes)], config.prototype_momentum
            )
            loss_sums += (breakdown.total, breakdown.tag, breakdown.proto)
            n_batches += 1
    tagger.last_fit_metrics_ = {
        "train_loss": float(loss_sums[0] / n_batches),
        "tag_loss": float(loss_sums[1] / n_batches),
        "proto_loss": float(loss_sums[2] / n_batches),
        "batches": n_batches,
    }
    return tagger
