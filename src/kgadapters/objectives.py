"""InfoNCE with in-batch negatives, the batch builders of the four knowledge
objectives and of the completion task, and contrastive training of parameter
groups on sampled pairs. The alignment task's batches are EP's, drawn over
the task's training pairs.

Each sampler yields text pairs, whose languages only decide which labels
it picks; `encode_pair_batch` tokenizes them and pools anchors and positives
in one `encoder.encode_pooled` forward pass, so a training step is one
graph. The loss is the softmax form exp(cos/tau): the raw log-ratio
of cosines is undefined for negative similarities, so the temperatured
exponent is used, and every stage trains at tau = TAU (0.05). Negatives for
an anchor are the other positives in the batch.

Samplers are pure in (data, seed): the same seed reproduces the same pair
sequence. The data a sampler draws from (the EP pair universe, the ES
eligible sentences, the ingested TS records) is built once per stage by the
caller, `pipeline.make_sampler`, and passed in. Code-switching draws each
slot's language independently with probability p_cs (P_CS, 0.5, in adapter
training), otherwise the whole item shares one language.

Within one batch the positive-side entities are distinct: a duplicated
entity would put a copy of an anchor's own positive among its negatives,
which at a few hundred entities happens constantly and poisons the loss
(at millions of entities random batches are distinct anyway).

`train_pairs` is the one contrastive trainer: it trains one group prefix of
a copy of the model by feeding InfoNCE over `encode_pair_batch` into
`optim.train`, which holds every parameter outside that prefix `frozen`.
Adapter integration (`train_adapter`) and task finetuning
(`evaluation.finetune_contrastive`) both call it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .adapters import AdaptedEncoder, build_hook
from .autodiff import Tensor
from .data import MLKG, TaggedSentence, Triple, TripleSentence
from .encoder import encode_pooled, mask_span
from .errors import ConfigError
from .optim import TrainHyper, train
from .vocab import SEP, Vocab, tokenize

log = logging.getLogger(__name__)

# the InfoNCE temperature of every training stage and the TP code-switch rate
TAU, P_CS = 0.05, 0.5


def infonce(anchors: Tensor, positives: Tensor, tau: float) -> Tensor:
    """-mean_i log softmax_j(cos(a_i, p_j)/tau) at j=i; negatives are in-batch."""
    if not (np.isfinite(anchors.data).all() and np.isfinite(positives.data).all()):
        raise ad.NumericError("infonce: non-finite representations")
    cos = ad.cosine_rows(anchors, positives)                    # [B,B]
    logp = ad.log_softmax(ad.mul(cos, 1.0 / tau), axis=-1)
    b = anchors.shape[0]
    diag = ad.tsum(ad.mul(logp, Tensor(np.eye(b, dtype=logp.dtype))), axis=-1)    # [B]
    return ad.div(ad.tsum(diag), Tensor(np.asarray(-b, dtype=diag.dtype)))


@dataclass
class PairItem:
    """One sampled anchor/positive text pair before tokenization."""

    anchor_tokens: Sequence[str]
    positive_tokens: Sequence[str]
    anchor_span: tuple[int, int] | None = None      # span pooling if set
    anchor_mask_span: tuple[int, int] | None = None  # masked before encoding


Sampler = Callable[[int, np.random.Generator], list[PairItem]]


# ---------------------------------------------------------------------------
# batch builders
# ---------------------------------------------------------------------------

def ep_pair_universe(mlkg: MLKG, langs: Sequence[str]) -> list[tuple[str, str, str]]:
    """All ordered (entity, lang, lang') label pairs within permitted languages."""
    allowed = list(langs)
    pairs = []
    for eid in sorted(mlkg.entities):
        available = [l for l in allowed if l in mlkg.entities[eid].labels]
        for l1 in available:
            for l2 in available:
                if l1 != l2:
                    pairs.append((eid, l1, l2))
    return pairs


def _distinct_draws(universe_size: int, batch_size: int, key_of,
                    rng: np.random.Generator) -> list[int]:
    """Sample indexes whose keys are pairwise distinct within the batch."""
    picked: list[int] = []
    seen: set = set()
    guard = 0
    limit = max(batch_size * 50, 1000)
    while len(picked) < batch_size and guard < limit:
        guard += 1
        i = int(rng.integers(universe_size))
        key = key_of(i)
        if key in seen:
            continue
        seen.add(key)
        picked.append(i)
    if len(picked) < batch_size:
        raise ConfigError(
            f"could not fill a batch of {batch_size} with distinct entities "
            f"(universe yields only {len(picked)}); lower the batch size")
    return picked


def sample_ep_batch(mlkg: MLKG, universe: Sequence[tuple[str, str, str]],
                    batch_size: int, rng: np.random.Generator) -> list[PairItem]:
    """Uniform over cross-lingual label alignment pairs (bare labels).

    `universe` is `ep_pair_universe(mlkg, langs)`.
    """
    if not universe:
        raise ConfigError("sample_ep_batch: no entity with labels in two permitted languages")
    picked = _distinct_draws(len(universe), batch_size,
                             lambda i: universe[i][0], rng)
    out = []
    for k in picked:
        eid, l1, l2 = universe[k]
        labels = mlkg.entities[eid].labels
        out.append(PairItem(anchor_tokens=labels[l1], positive_tokens=labels[l2]))
    return out


def _query_tokens(subject: tuple[str, ...], relation: tuple[str, ...]) -> list[str]:
    """The completion query "subject label <sep> relation label" as tokens."""
    return [*subject, SEP, *relation]


def _slot_lang(labels: dict[str, tuple[str, ...]], langs: Sequence[str],
               rng: np.random.Generator) -> str:
    available = [l for l in langs if l in labels]
    return available[int(rng.integers(len(available)))]


def sample_tp_batch(mlkg: MLKG, triples: Sequence[Triple], langs: Sequence[str],
                    batch_size: int, p_cs: float, rng: np.random.Generator) -> list[PairItem]:
    """Anchor = subject <sep> relation, positive = object label, code-switched.

    `triples` are a dataset's training triples and `langs` its Sup and ZS-In
    languages. `load_dataset` guarantees that every comp_train record has its
    head, relation and tail labelled in the record's own language, which is
    Sup or ZS-In, so each triple has a language of `langs` common to all
    three slots and every slot has one to switch to.
    """
    if not triples:
        raise ConfigError("sample_tp_batch: no triples")
    picked = _distinct_draws(len(triples), batch_size, lambda i: triples[i].tail, rng)
    out = []
    for i in picked:
        t = triples[i]
        head = mlkg.entities[t.head].labels
        rel = mlkg.relations[t.rel].labels
        tail = mlkg.entities[t.tail].labels
        if rng.random() < p_cs:
            lh, lr, lt = (_slot_lang(labels, langs, rng) for labels in (head, rel, tail))
        else:
            common = [l for l in langs if l in head and l in rel and l in tail]
            lh = lr = lt = common[int(rng.integers(len(common)))]
        out.append(PairItem(
            anchor_tokens=_query_tokens(head[lh], rel[lr]),
            positive_tokens=tail[lt]))
    return out


def sample_completion_batch(mlkg: MLKG, items: Sequence[tuple[str, Triple]],
                            batch_size: int, rng: np.random.Generator) -> list[PairItem]:
    """Anchor = subject <sep> relation, positive = object label, all in the
    item's language: the completion task's pairs.

    `items` are a dataset's (language, triple) completion training items.
    """
    if not items:
        raise ConfigError("sample_completion_batch: no completion training items")
    picked = _distinct_draws(len(items), batch_size, lambda i: items[i][1].tail, rng)
    out = []
    for i in picked:
        lang, t = items[i]
        out.append(PairItem(
            anchor_tokens=_query_tokens(mlkg.entities[t.head].labels[lang],
                                        mlkg.relations[t.rel].labels[lang]),
            positive_tokens=mlkg.entities[t.tail].labels[lang]))
    return out


def es_eligible(c1: Sequence[TaggedSentence], mlkg: MLKG,
                langs: Sequence[str]) -> list[tuple[int, list[str]]]:
    """(sentence index, other permitted languages labelling its entity) per usable sentence."""
    eligible = []
    for idx, r in enumerate(c1):
        if r.lang not in langs:
            continue
        others = [l for l in langs if l != r.lang and l in mlkg.entities[r.entity_id].labels]
        if others:
            eligible.append((idx, others))
    return eligible


def sample_es_batch(c1: Sequence[TaggedSentence], mlkg: MLKG,
                    eligible: Sequence[tuple[int, list[str]]], batch_size: int,
                    rng: np.random.Generator) -> list[PairItem]:
    """Anchor = contextualized entity span, positive = label in another language.

    `eligible` is `es_eligible(c1, mlkg, langs)`.
    """
    if not eligible:
        raise ConfigError("sample_es_batch: no tagged sentence with a cross-lingual label")
    picked = _distinct_draws(len(eligible), batch_size,
                             lambda i: c1[eligible[i][0]].entity_id, rng)
    out = []
    for k in picked:
        idx, others = eligible[k]
        r = c1[idx]
        other = others[int(rng.integers(len(others)))]
        out.append(PairItem(
            anchor_tokens=list(r.tokens), anchor_span=r.span,
            positive_tokens=mlkg.entities[r.entity_id].labels[other]))
    return out


def ts_ingest(c2: Sequence[TripleSentence]) -> list[TripleSentence]:
    """Reject records whose masked sentence would have no unmasked context."""
    kept = []
    for r in c2:
        span_len = r.obj_span[1] - r.obj_span[0] + 1
        if span_len >= len(r.tokens):
            log.warning("ts_ingest: rejecting record equal to its object label")
            continue
        kept.append(r)
    return kept


def sample_ts_batch(pool_records: Sequence[TripleSentence], batch_size: int,
                    rng: np.random.Generator) -> list[PairItem]:
    """Anchor = sentence with the object span masked, positive = object label.

    `pool_records` is `ts_ingest(c2)`.
    """
    if not pool_records:
        raise ConfigError("sample_ts_batch: no usable triple sentences")
    picked = _distinct_draws(len(pool_records), batch_size,
                             lambda i: pool_records[i].triple.tail, rng)
    out = []
    for k in picked:
        r = pool_records[k]
        i, j = r.obj_span
        out.append(PairItem(anchor_tokens=list(r.tokens), anchor_mask_span=(i, j),
                            positive_tokens=list(r.tokens[i:j + 1])))
    return out


# ---------------------------------------------------------------------------
# pair encoding and adapter training
# ---------------------------------------------------------------------------

def _item_to_seq(tokens: Sequence[str], vocab: Vocab, max_len: int,
                 mask_at: tuple[int, int] | None, pool_span: tuple[int, int] | None
                 ) -> list[int]:
    seq = tokenize(tokens, vocab, max_len)
    for what, span in (("mask", mask_at), ("pooling", pool_span)):
        if span is not None and span[1] >= len(seq):
            raise ConfigError(f"{what} span {span} truncated away at max_seq_len={max_len}")
    return seq if mask_at is None else mask_span(seq, mask_at)


def encode_pair_batch(leaves: dict[str, Tensor], adapted: AdaptedEncoder,
                      items: Sequence[PairItem], vocab: Vocab) -> tuple[Tensor, Tensor]:
    """One fused forward over anchors + positives; (anchors, positives), [B,d] each."""
    cfg = adapted.config
    anchor_seqs = [_item_to_seq(it.anchor_tokens, vocab, cfg.max_seq_len,
                                it.anchor_mask_span, it.anchor_span) for it in items]
    positive_seqs = [tokenize(it.positive_tokens, vocab, cfg.max_seq_len) for it in items]
    pooled = encode_pooled(leaves, anchor_seqs + positive_seqs, cfg, build_hook(adapted, leaves),
                           [it.anchor_span for it in items] + [None] * len(items))
    anchors, positives = ad.split(pooled, [len(items)] * 2, axis=0)
    return anchors, positives


def train_pairs(adapted: AdaptedEncoder, prefix: str, sampler: Sampler, vocab: Vocab,
                hyper: TrainHyper, seed: int
                ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """InfoNCE over sampled pairs, training the parameters named `prefix...`
    of a copy of `adapted`; returns (trained copy, loss curve). `adapted`
    itself is left as it was."""
    model = replace(adapted, params=adapted.params.copy())
    rng = np.random.default_rng(seed)

    def loss_at():
        items = sampler(hyper.batch_size, rng)
        return lambda leaves: infonce(*encode_pair_batch(leaves, model, items, vocab), TAU)

    return model, train(model.params, prefix, loss_at, hyper)


def train_adapter(adapted: AdaptedEncoder, sampler: Sampler,
                  vocab: Vocab, hyper: TrainHyper, seed: int
                  ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Stage-2 integration: train a copy of a single-adapter model's one
    adapter, the backbone `frozen` by `optim.train`. A model with no adapter,
    several, or fusion parameters is rejected.
    """
    if adapted.mode != "single":
        raise ConfigError(f"train_adapter needs exactly one adapter and no fusion, "
                          f"got adapters {adapted.kinds} in {adapted.mode!r} mode")
    return train_pairs(adapted, "adapter.", sampler, vocab, hyper, seed)
