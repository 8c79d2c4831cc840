"""Per-sentence references for ``fedspan.encoder``.

The package scores the spans and runs the backward pass once over the whole
packed batch. This module keeps the straightforward form, one sentence at a
time with ``np.add.at`` scatters, as an oracle the packed pass is checked
against. ``reference_forward`` is the forward pass written plainly: fresh
arrays, no cached layouts, the masked gather tensor spelled out and pooling
before the projection. The package's ``encode_words`` must match its
window input and word vectors bit for bit, sentence by sentence;
``score_spans`` matches its span fields to rounding. ``reference_adam_step`` is dense Adam: every row of every block,
every step.

The scalar helpers (``word_representations``, ``attention_weights``,
``span_representation``, ``classify_span``, ``tag_loss``) spell out one
stage for one sentence or span, and ``batch_loss`` is the loss alone, for
finite-difference probes. ``packed`` builds parameters from named blocks,
and ``with_flat`` is the inverse of ``EncoderParams.flatten``, for moving
parameters along a flat direction. ``dense_gradients`` spreads a bundle's
touched embedding rows over the whole table, the form these references and
the finite differences take.
"""

from dataclasses import dataclass

import numpy as np

from fedspan.encoder import (
    BatchReps,
    EncoderParams,
    GradientBundle,
    LossBreakdown,
    Tokenization,
    TrainingDivergedError,
    batch_gradients,
    unit_prototypes,
)
from fedspan.corpus import Span
from fedspan.tagging import span_layout


def word_representations(params: EncoderParams, tok: Tokenization) -> np.ndarray:
    """(n_words, hidden_dim) contextual word vectors.

    Chunk embeddings pass through the window-3 linear layer (zero padding at
    sentence boundaries); each word vector is the mean over its chunks.
    """
    if tok.n_words < 1:
        raise ValueError("empty sentence")
    d_e = params.embed.shape[1]
    sub = params.embed[tok.subword_ids]  # (m, d_e)
    m = sub.shape[0]
    x = np.zeros((m, 3 * d_e), dtype=sub.dtype)
    x[:, d_e : 2 * d_e] = sub
    x[1:, :d_e] = sub[:-1]
    x[:-1, 2 * d_e :] = sub[1:]
    h_sub = x @ params.w_ctx.T + params.b_ctx
    sums = np.add.reduceat(h_sub, tok.word_offsets[:-1], axis=0)
    return sums / tok.word_sizes[:, None].astype(sub.dtype)


def attention_weights(word_vecs: np.ndarray, span: Span, w_attn: np.ndarray) -> np.ndarray:
    """Softmax over the span's per-word attention scores."""
    scores = word_vecs[span.start : span.end + 1] @ w_attn
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def span_representation(word_vecs: np.ndarray, span: Span, params: EncoderParams) -> np.ndarray:
    """(rep_dim,) projected attention-pooled vector for one span."""
    alpha = attention_weights(word_vecs, span, params.w_attn)
    pooled = alpha @ word_vecs[span.start : span.end + 1]
    return params.w_proj @ pooled + params.b_proj


def classify_span(rep: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Probability over the 16 composite tags for one span representation."""
    logits = params.w_cls @ rep + params.b_cls
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def tag_loss(probs: np.ndarray, gold_classes: np.ndarray) -> float:
    """Mean cross-entropy, one probability row per enumerated span."""
    probs = np.asarray(probs)
    gold_classes = np.asarray(gold_classes)
    if probs.ndim != 2 or probs.shape[0] != gold_classes.shape[0]:
        raise ValueError(
            f"need one probability row per span: {probs.shape} vs {gold_classes.shape}"
        )
    picked = probs[np.arange(len(gold_classes)), gold_classes]
    return float(-np.log(picked).mean())


def batch_loss(params, plan, weights):
    """Loss breakdown of ``batch_gradients`` alone, for finite-difference
    probes. It runs the full backward pass and discards the gradients."""
    breakdown, _, _ = batch_gradients(params, plan, weights)
    return breakdown


def packed(blocks, kind=EncoderParams, **extra) -> EncoderParams:
    """A ``kind`` (``EncoderParams`` or ``GradientBundle``, whose
    ``embed_rows`` go in ``extra``) holding copies of the named blocks: the
    dense ones end to end in one new buffer, in ``DENSE`` order."""
    dense = [np.asarray(blocks[name]) for name in EncoderParams.DENSE]
    flat = np.concatenate([block.ravel() for block in dense])
    return kind(np.array(blocks["embed"]), flat, tuple(block.shape for block in dense), **extra)


def dense_gradients(grads: EncoderParams, vocab_size: int) -> EncoderParams:
    """``grads`` with a ``(vocab_size, embed_dim)`` embedding block: a
    ``GradientBundle``'s rows go to their ``embed_rows``, every other row is
    +0. Other gradients are returned as they are."""
    if not isinstance(grads, GradientBundle):
        return grads
    embed = np.zeros((vocab_size, grads.embed.shape[1]), grads.embed.dtype)
    embed[grads.embed_rows] = grads.embed
    return EncoderParams(embed, grads.dense, grads.dense_shapes)


def with_flat(params: EncoderParams, flat: np.ndarray) -> EncoderParams:
    """``params`` with its blocks refilled, in order, from a flat vector."""
    if flat.size != params.param_count():
        raise ValueError("flat vector size does not match parameter shapes")
    flat = flat.astype(params.dense.dtype)
    n_embed = params.embed.size
    return EncoderParams(
        flat[:n_embed].reshape(params.embed.shape), flat[n_embed:], params.dense_shapes
    )


@dataclass(eq=False)
class ReferenceForward:
    """Every activation of one sentence's forward pass."""

    tok: Tokenization
    x: np.ndarray  # (m, 3*embed_dim) windowed chunk embeddings
    word_vecs: np.ndarray  # (n, hidden_dim)
    pos: np.ndarray  # (S, L) gathered word indices (clipped), L = min(l_max, n)
    mask: np.ndarray  # (S, L)
    alpha: np.ndarray  # (S, L) attention, zero outside mask
    pooled: np.ndarray  # (S, hidden_dim)
    reps: np.ndarray  # (S, rep_dim)
    probs: np.ndarray  # (S, NUM_CLASSES)
    log_probs: np.ndarray  # (S, NUM_CLASSES)


def reference_forward(params, tok, l_max):
    """One sentence's share of ``encode_words``, ``score_spans`` and
    the log-softmax, with fresh arrays and no caches."""
    n = tok.n_words
    d_e = params.embed.shape[1]
    sub = params.embed[tok.subword_ids]
    m = sub.shape[0]
    x = np.zeros((m, 3 * d_e), dtype=sub.dtype)
    x[:, d_e : 2 * d_e] = sub
    x[1:, :d_e] = sub[:-1]
    x[:-1, 2 * d_e :] = sub[1:]
    h_sub = x @ params.w_ctx.T + params.b_ctx
    word_sizes = tok.word_sizes[:, None].astype(sub.dtype)
    word_vecs = np.add.reduceat(h_sub, tok.word_offsets[:-1], axis=0) / word_sizes

    starts, ends, _ = span_layout(n, l_max)
    width = min(l_max, n)
    pos_raw = starts[:, None] + np.arange(width)
    mask = pos_raw <= ends[:, None]
    pos = np.minimum(pos_raw, n - 1)

    scores = word_vecs @ params.w_attn  # (n,)
    span_scores = np.where(mask, scores[pos], -np.inf)
    span_scores_max = span_scores.max(axis=1, keepdims=True)
    exp_scores = np.exp(span_scores - span_scores_max)
    alpha = exp_scores / exp_scores.sum(axis=1, keepdims=True)

    gathered = word_vecs[pos] * mask[:, :, None]
    pooled = np.einsum("sl,sld->sd", alpha, gathered)
    reps = pooled @ params.w_proj.T + params.b_proj
    logits = reps @ params.w_cls.T + params.b_cls
    logits_max = logits.max(axis=1, keepdims=True)
    log_norm = logits_max + np.log(np.exp(logits - logits_max).sum(axis=1, keepdims=True))
    log_probs = logits - log_norm
    probs = np.exp(log_probs)
    return ReferenceForward(tok, x, word_vecs, pos, mask, alpha, pooled, reps, probs, log_probs)


def reference_batch_gradients(params, toks, golds, selections, l_max, prototypes, weights):
    """Same contract as ``batch_gradients`` on the plan
    ``plan_from_sentences`` makes of these arguments; each sentence is
    its own pass."""
    if not (len(toks) == len(golds) == len(selections)):
        raise ValueError("toks, golds and selections must be aligned")
    n_sentences = len(toks)
    if n_sentences == 0:
        raise ValueError("empty batch")
    grads = EncoderParams.zeros_like(params)
    d_e = params.embed.shape[1]

    dtype = params.w_proj.dtype
    unit_prot, proto_present = unit_prototypes(prototypes, dtype)
    proto_active = unit_prot is not None and weights.proto_weight != 0.0

    n_selected = int(sum(len(sel) for sel in selections))
    tag_total = 0.0
    proto_total = 0.0
    sel_reps = []
    sel_pred = []
    sel_gold = []

    for tok, gold, sel in zip(toks, golds, selections):
        fp = reference_forward(params, tok, l_max)
        gathered = fp.word_vecs[fp.pos] * fp.mask[:, :, None]
        n_spans = fp.reps.shape[0]
        gold = np.asarray(gold)
        if gold.shape[0] != n_spans:
            raise ValueError(f"gold classes misaligned: {gold.shape[0]} vs {n_spans} spans")
        sel = np.asarray(sel, dtype=np.int64)

        # Span-tag cross-entropy, normalized per sentence then per batch.
        rows = np.arange(n_spans)
        tag_total += float(-fp.log_probs[rows, gold].mean())
        coeff = 1.0 / (n_spans * n_sentences)
        dlogits = fp.probs.copy()
        dlogits[rows, gold] -= 1.0
        dlogits *= coeff

        dreps_extra = np.zeros_like(fp.reps)
        if len(sel):
            z = fp.reps[sel]
            sel_reps.append(z.copy())
            sel_pred.append(fp.probs[sel].argmax(axis=1))
            sel_gold.append(gold[sel])
            if proto_active and n_selected:
                y = gold[sel]
                z_norm = np.linalg.norm(z, axis=1)
                valid = z_norm > 0
                safe_norm = np.where(valid, z_norm, 1.0)
                zhat = z / safe_norm[:, None]
                zhat[~valid] = 0.0
                cos = zhat @ unit_prot.T

                cos_y = cos[np.arange(len(sel)), y]
                align_vals = np.where(valid, -cos_y, 0.0)
                d_align = (cos_y[:, None] * zhat - unit_prot[y]) / safe_norm[:, None]
                d_align[~valid] = 0.0

                other = proto_present[None, :] & (
                    np.arange(unit_prot.shape[0])[None, :] != y[:, None]
                )
                exp_cos = np.where(other, np.exp(cos), 0.0)
                row_sum = exp_cos.sum(axis=1)
                has_other = row_sum > 0
                sep_vals = np.where(valid & has_other, np.log(np.where(has_other, row_sum, 1.0)), 0.0)
                w = exp_cos / np.where(has_other, row_sum, 1.0)[:, None]
                w_dot_cos = (w * cos).sum(axis=1)
                d_sep = (w @ unit_prot - w_dot_cos[:, None] * zhat) / safe_norm[:, None]
                d_sep[~(valid & has_other)] = 0.0

                proto_total += float(
                    weights.align_weight * align_vals.sum() + weights.sep_weight * sep_vals.sum()
                )
                scale = weights.proto_weight / n_selected
                dreps_extra[sel] += scale * (
                    weights.align_weight * d_align + weights.sep_weight * d_sep
                )

        # Classifier block.
        grads.w_cls += dlogits.T @ fp.reps
        grads.b_cls += dlogits.sum(axis=0)
        dreps = dlogits @ params.w_cls + dreps_extra

        # Projection block.
        grads.w_proj += dreps.T @ fp.pooled
        grads.b_proj += dreps.sum(axis=0)
        dpooled = dreps @ params.w_proj

        # Attention pooling: alpha is zero outside the span mask.
        dalpha = np.einsum("sd,sld->sl", dpooled, gathered)
        inner = (fp.alpha * dalpha).sum(axis=1, keepdims=True)
        dscore = fp.alpha * (dalpha - inner)
        grads.w_attn += np.einsum("sl,sld->d", dscore, gathered)
        dword_terms = (
            fp.alpha[:, :, None] * dpooled[:, None, :]
            + dscore[:, :, None] * params.w_attn[None, None, :]
        ) * fp.mask[:, :, None]
        dword = np.zeros_like(fp.word_vecs)
        np.add.at(dword, fp.pos.ravel(), dword_terms.reshape(-1, dword.shape[1]))

        # Word mean over chunks, then the window-3 context layer.
        sizes = tok.word_sizes
        dh_sub = np.repeat(dword / sizes[:, None].astype(dword.dtype), sizes, axis=0)
        grads.w_ctx += dh_sub.T @ fp.x
        grads.b_ctx += dh_sub.sum(axis=0)
        dx = dh_sub @ params.w_ctx
        d_sub = dx[:, d_e : 2 * d_e].copy()
        d_sub[:-1] += dx[1:, :d_e]
        d_sub[1:] += dx[:-1, 2 * d_e :]
        np.add.at(grads.embed, tok.subword_ids, d_sub)

    tag_mean = tag_total / n_sentences
    proto_mean = proto_total / n_selected if (proto_active and n_selected) else 0.0
    total = tag_mean + weights.proto_weight * proto_mean
    if not np.isfinite(total):
        raise TrainingDivergedError("non-finite training loss")
    grads.check_finite("gradient")

    if sel_reps:
        batch_reps = BatchReps(
            np.concatenate(sel_reps), np.concatenate(sel_pred), np.concatenate(sel_gold)
        )
    else:
        rep_dim = params.w_proj.shape[0]
        batch_reps = BatchReps(
            np.zeros((0, rep_dim), dtype=params.w_proj.dtype),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    return LossBreakdown(float(total), float(tag_mean), float(proto_mean)), grads, batch_reps


@dataclass(eq=False)
class ReferenceAdamState:
    step: int
    m: EncoderParams
    v: EncoderParams


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Same arithmetic as ``adam_step`` on all rows, returning fresh moments
    and state. ``state`` may be an ``AdamState`` or a ``ReferenceAdamState``;
    a ``GradientBundle`` is read as its ``dense_gradients``."""
    grads = dense_gradients(grads, len(params.embed))
    t = state.step + 1
    new_params = {}
    new_m = {}
    new_v = {}
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, arr in params.blocks():
        g = getattr(grads, name)
        m = beta1 * getattr(state.m, name) + (1.0 - beta1) * g
        v = beta2 * getattr(state.v, name) + (1.0 - beta2) * g * g
        step = lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        new_params[name] = arr - step.astype(arr.dtype)
        new_m[name] = m
        new_v[name] = v
    new_state = ReferenceAdamState(t, packed(new_m), packed(new_v))
    return packed(new_params), new_state
