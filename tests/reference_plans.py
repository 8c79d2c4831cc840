"""Per-batch reference form of batch planning.

``BatchPlan.build_epoch`` plans an epoch's batches in a few packed passes
(``BatchPlan.build_pass``), each batch's arrays views of its pass's. This
module keeps the planner it replaced, which packs one batch at a time from
the cached per-sentence layouts, so tests can check the two field by field:

- ``reference_span_batch`` is a training batch's ``SpanBatch``, pooled per
  span;
- ``reference_plan`` is its ``BatchPlan``, with the same arguments as
  ``BatchPlan.build``.
"""

import numpy as np

from fedspan.encoder import BatchPlan, SpanBatch, _element_index
from fedspan.tagging import NUM_CLASSES, enumerate_spans


def offsets(sizes):
    """Start of each part in a concatenation of parts with these sizes."""
    return np.cumsum([0, *sizes[:-1]])


def sentence_layout(n, l_max):
    """One sentence's (S, l_max) word index of each span slot, clipped to
    the sentence, and mask of the slots inside the span; its (span, word)
    pairs by word, as a (3, P) array of slot, span and word; and each
    word's first pair. Built span by span from ``enumerate_spans``."""
    spans = enumerate_spans(n, l_max)
    pos = np.array([[min(span.start + k, n - 1) for k in range(l_max)] for span in spans])
    mask = np.array([[span.start + k <= span.end for k in range(l_max)] for span in spans])
    pairs = sorted(
        (int(pos[s, k]), s, k) for s in range(len(spans)) for k in range(l_max) if mask[s, k]
    )
    pairs = np.array([[k, s, word] for word, s, k in pairs]).T
    pair_starts = np.searchsorted(pairs[2], np.arange(n))
    return pos, mask, pairs, pair_starts


def reference_span_batch(toks, l_max, dtype):
    """The layout of the sentences ``toks``, packed one batch at a time."""
    ids = np.concatenate([tok.subword_ids for tok in toks])
    bounds = np.cumsum([0, *(len(tok.subword_ids) for tok in toks)])
    word_sizes = np.concatenate([tok.word_sizes for tok in toks])
    word_starts = np.cumsum(word_sizes)
    word_starts -= word_sizes
    word_counts = [tok.n_words for tok in toks]
    width = min(l_max, max(word_counts))
    layouts = [sentence_layout(n, l_max) for n in word_counts]
    span_counts = [len(layout[0]) for layout in layouts]
    pos = np.concatenate([layout[0][:, :width] for layout in layouts])
    pos += np.repeat(offsets(word_counts), span_counts)[:, None]
    mask = np.concatenate([layout[1][:, :width] for layout in layouts])
    return SpanBatch(
        ids, bounds, word_starts, word_sizes, word_sizes[:, None].astype(dtype), span_counts, pos, mask
    )


def reference_plan(toks, gold, sel, config, unit_protos, proto_present):
    """``BatchPlan.build`` of one batch, packed on its own."""
    batch = reference_span_batch(toks, config.l_max, config.dtype)
    span_counts, word_counts = batch.span_counts, [tok.n_words for tok in toks]
    layouts = [sentence_layout(n, config.l_max) for n in word_counts]
    pair_counts = [layout[2].shape[1] for layout in layouts]
    pairs = np.concatenate([layout[2] for layout in layouts], axis=1)
    pairs[1:] += np.repeat([offsets(span_counts), offsets(word_counts)], pair_counts, axis=1)
    pairs[0] += pairs[1] * batch.width
    word_starts = np.concatenate([layout[3] for layout in layouts])
    word_starts += np.repeat(offsets(pair_counts), word_counts)
    embed_rows = np.unique(batch.ids)
    gold = gold.astype(np.int64)
    sel = np.asarray(sel, dtype=np.int64)
    sel_gold = gold[sel]
    span_weight = np.repeat(1.0 / (np.array(span_counts) * len(toks)), span_counts)
    rivals = gold_protos = sel_gold_at = None
    if unit_protos is not None:
        n_classes = len(unit_protos)
        rivals = proto_present & (np.arange(n_classes) != sel_gold[:, None])
        gold_protos = unit_protos.take(sel_gold, axis=0)
        sel_gold_at = np.arange(len(sel)) * n_classes + sel_gold
    return BatchPlan(
        batch, np.arange(len(gold)) * NUM_CLASSES + gold, sel, sel_gold,
        span_weight, span_weight[:, None].astype(config.dtype), pairs, word_starts,
        _element_index(np.searchsorted(embed_rows, batch.ids), config.embed_dim), embed_rows,
        unit_protos, rivals, gold_protos, sel_gold_at,
    )
