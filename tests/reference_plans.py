"""Per-batch reference forms of batch packing, and the per-sentence
batch planner.

Training and scoring pack their batches a few at a time
(``fedspan.encoder.packed_passes``), each batch's arrays views of its
pass's. This module keeps the planner that packed one batch at a time
from the per-sentence layouts, so tests can check the two field by field:

- ``reference_span_batch`` is a batch's ``SpanBatch``, pooled per span or,
  with ``windows``, by window when it has enough spans per word;
- ``reference_plan`` is a training batch's ``BatchPlan``, from its packed
  gold classes and selected spans.

``one_group`` and ``plan_from_sentences`` are the production forms of one
batch on its own: its ``SpanBatch`` as every group is packed, and the plan
``BatchPlan.build_epoch`` makes of a batch given sentence by sentence.
"""

import numpy as np

import fedspan.encoder as encoder_module
from fedspan.encoder import BatchPlan, SpanBatch, _element_index, _Packing, unit_prototypes
from fedspan.tagging import NUM_CLASSES, enumerate_spans, span_count


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


def reference_span_batch(toks, l_max, dtype, windows=False):
    """The layout of the sentences ``toks``, packed one batch at a time.
    With ``windows``, a batch of at least ``WINDOW_SPANS_PER_WORD`` spans per
    word also gets its window arrays, built span by span."""
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
    batch = SpanBatch(
        ids, bounds, word_starts, word_sizes, word_sizes[:, None].astype(dtype), span_counts, pos, mask
    )
    if windows and len(pos) >= encoder_module.WINDOW_SPANS_PER_WORD * len(word_sizes):
        # Word i's window is its one-word span's slots; grid row k of word i
        # holds its span of k + 1 words, or its widest; each span's grid slot
        # is row (its start word, its width - 1) of that grid.
        rows, slots = [], []
        for n, first_word, first_span in zip(word_counts, offsets(word_counts), offsets(span_counts)):
            spans = enumerate_spans(n, l_max)
            index = {(span.start, span.end): first_span + s for s, span in enumerate(spans)}
            for i in range(n):
                rows += [index[i, min(i + k, i + l_max - 1, n - 1)] for k in range(width)]
            slots += [(first_word + span.start) * width + span.end - span.start for span in spans]
        batch.grid_rows, batch.grid_slots = np.array(rows), np.array(slots)
        batch.windows = pos[batch.grid_rows[::width]]
    return batch


def one_group(toks, l_max, dtype, windows=False):
    """The ``SpanBatch`` of ``toks`` packed as one group, as training and
    scoring pack every group."""
    return _Packing.of(toks, len(toks), l_max, dtype).batch(0, windows)


def reference_plan(toks, gold, sel, config, unit_protos, proto_present):
    """The ``BatchPlan`` of one batch, packed on its own: ``gold`` and
    ``sel`` over the batch's spans, and the global prototypes as
    ``unit_prototypes`` gives them."""
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


def plan_from_sentences(toks, golds, selections, config, prototypes):
    """The plan ``BatchPlan.build_epoch`` makes of one batch given per
    sentence: one gold class array per sentence (``enumerate_spans`` order)
    and the ascending indices of its spans in the prototype term.
    ``prototypes`` is the global ``PrototypeSet`` or None, read as
    ``unit_prototypes`` in the model's dtype."""
    if not (len(toks) == len(golds) == len(selections)):
        raise ValueError("toks, golds and selections must be aligned")
    if len(toks) == 0:
        raise ValueError("empty batch")
    counts = [(len(g), span_count(tok.n_words, config.l_max)) for g, tok in zip(golds, toks)]
    if misaligned := [(a, b) for a, b in counts if a != b]:
        raise ValueError("gold classes misaligned: %d vs %d spans" % misaligned[0])
    gold = np.concatenate(golds)
    selected = np.zeros(len(gold), bool)
    starts = offsets([len(g) for g in golds])
    selected[np.concatenate([np.asarray(s, np.int64) + start for s, start in zip(selections, starts)])] = True
    protos = unit_prototypes(prototypes, config.dtype)
    [plan] = BatchPlan.build_epoch(toks, gold, selected, len(toks), config, *protos)
    return plan
