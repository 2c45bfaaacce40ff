"""Cosine-retrieval evaluation (KG completion, entity alignment) and the
task-pair samplers and contrastive finetuning used in the last workflow
stages (fusion training and full finetuning). Finetuning is
`objectives.train_pairs`, which runs the one training loop `optim.train`.

Ranking is raw: a query is scored against every entity label of the target
language by cosine similarity, descending, ties broken by ascending entity
id. A gold entity missing from the candidate set counts as rank infinity
(misses every Hit@k, contributes 0 to MRR) and logs a loud warning.
Category aggregates are unweighted means over the category's languages.

This module owns the report format. A `MetricReport` carries its dataset's
language split, which `to_dict` stores and `from_dict` reads back, so
`emit_report` re-renders a stored report into exactly the TSV first written.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .adapters import AdaptedEncoder, build_hook
from .data import LanguageSplit, MLKG, Triple
from .encoder import encode, pad_batch, pool, sentence_pool_weights
from .errors import ConfigError
from .hyper import TrainHyper
from .objectives import PairItem, Sampler, _distinct_draws, train_pairs
from .vocab import SEP, TokenSeq, Vocab, tokenize

log = logging.getLogger(__name__)


@dataclass
class CandidateIndex:
    """All entity-label embeddings of one language, rows ordered by entity id."""

    lang: str
    entity_ids: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.entity_ids) != self.matrix.shape[0]:
            raise ValueError("CandidateIndex rows do not match ids")
        if not self.entity_ids:
            raise ValueError("empty candidate index")


@dataclass
class LanguageResult:
    n: int
    hit1: float
    hitk: float
    mrr: float


CATEGORIES = ("sup", "zs_in", "zs_un")


def _aggregate(rows: list[LanguageResult]) -> LanguageResult:
    """Unweighted mean over languages; no languages gives an all-zero result."""
    if not rows:
        return LanguageResult(n=0, hit1=0.0, hitk=0.0, mrr=0.0)
    return LanguageResult(
        n=sum(r.n for r in rows),
        hit1=float(np.mean([r.hit1 for r in rows])),
        hitk=float(np.mean([r.hitk for r in rows])),
        mrr=float(np.mean([r.mrr for r in rows])))


@dataclass
class MetricReport:
    task: str
    variant: str
    k: int
    per_language: dict[str, LanguageResult] = field(default_factory=dict)
    seed: int = 0
    profile: str = ""
    checkpoint_hash: str = ""
    config_hash: str = ""
    split: LanguageSplit | None = None   # None in reports stored before they kept it

    def category_aggregate(self, category: str) -> LanguageResult:
        return _aggregate([self.per_language[l] for l in getattr(self.split, category)
                           if l in self.per_language])

    def overall(self) -> LanguageResult:
        return _aggregate(list(self.per_language.values()))

    def to_dict(self) -> dict:
        out = {
            "task": self.task, "variant": self.variant, "k": self.k,
            "seed": self.seed, "profile": self.profile,
            "checkpoint_hash": self.checkpoint_hash, "config_hash": self.config_hash,
            "per_language": {l: vars(r) for l, r in sorted(self.per_language.items())},
        }
        if self.split is not None:
            out["split"] = asdict(self.split)
            out["categories"] = {c: vars(self.category_aggregate(c)) for c in CATEGORIES}
        out["overall"] = vars(self.overall())
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        """Inverse of `to_dict`; categories and overall are derived, not read."""
        stored = {k: v for k, v in d.items() if k not in ("categories", "overall")}
        stored["per_language"] = {l: LanguageResult(**r) for l, r in d["per_language"].items()}
        if "split" in d:
            stored["split"] = LanguageSplit(**d["split"])
        return cls(**stored)


def _tsv_row(variant: str, lang: str, category: str, r: LanguageResult) -> str:
    percents = [f"{100.0 * x:.1f}" for x in (r.hit1, r.hitk, r.mrr)]
    return "\t".join([variant, lang, category, str(r.n), *percents])


def report_tsv_rows(report: MetricReport) -> list[str]:
    """Header, one row per language, one per non-empty category, then overall."""
    rows = ["variant\tlanguage\tcategory\tn\thit1\thitk\tmrr"]
    for lang in sorted(report.per_language):
        cat = report.split.category(lang) if report.split is not None else "-"
        rows.append(_tsv_row(report.variant, lang, cat, report.per_language[lang]))
    if report.split is not None:
        for cat in CATEGORIES:
            agg = report.category_aggregate(cat)
            if agg.n:
                rows.append(_tsv_row(report.variant, "all", cat, agg))
    rows.append(_tsv_row(report.variant, "all", "overall", report.overall()))
    return rows


def emit_report(reports: list[MetricReport], fmt: str, path) -> None:
    if not reports:
        raise ConfigError("emit_report: no reports")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [r.to_dict() for r in reports]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    elif fmt == "tsv":
        lines = []
        for i, r in enumerate(reports):
            rows = report_tsv_rows(r)
            lines.extend(rows if i == 0 else rows[1:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# embedding, ranking, metrics
# ---------------------------------------------------------------------------

def _pooled_encodings(adapted: AdaptedEncoder, seqs: Sequence[TokenSeq],
                      batch_size: int = 64) -> np.ndarray:
    """Sentence-pooled encodings (PAD/SEP/MASK excluded), batched, no tape."""
    rows = []
    leaves = ad.make_leaves(adapted.params, grad=False)
    hook = build_hook(adapted, leaves)
    for lo in range(0, len(seqs), batch_size):
        chunk = seqs[lo:lo + batch_size]
        ids, mask = pad_batch(chunk, adapted.config)
        states = encode(leaves, ids, mask, adapted.config, hook)
        weights = sentence_pool_weights(ids, mask)
        rows.append(pool(states.final, weights).data)
    return np.concatenate(rows, axis=0)


def label_seq(text: str, lang: str, vocab: Vocab, max_len: int) -> TokenSeq:
    return tokenize(text, lang, vocab, max_len)


def embed_labels(adapted: AdaptedEncoder, mlkg: MLKG, lang: str,
                 vocab: Vocab, batch_size: int = 64) -> CandidateIndex:
    """Embed every entity's label in one language, ordered by entity id."""
    ids, seqs = [], []
    for eid in sorted(mlkg.entities):
        label = mlkg.entities[eid].labels.get(lang)
        if label is None:
            log.warning("embed_labels: entity %s has no label in %s, excluded", eid, lang)
            continue
        ids.append(eid)
        seqs.append(label_seq(label, lang, vocab, adapted.config.max_seq_len))
    if not ids:
        raise ConfigError(f"no entity has a label in language {lang!r}")
    return CandidateIndex(lang=lang, entity_ids=ids,
                          matrix=_pooled_encodings(adapted, seqs, batch_size))


def rank(query: np.ndarray, index: CandidateIndex) -> list[str]:
    """Entity ids by descending cosine to the query; ties by ascending id."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.matrix.shape[1]:
        raise ValueError(
            f"query dim {q.shape[0]} != index dim {index.matrix.shape[1]}")
    m = index.matrix.astype(np.float64)
    qn = np.linalg.norm(q)
    mn = np.linalg.norm(m, axis=1)
    scores = (m @ q) / np.where(mn * qn == 0.0, 1.0, mn * qn)
    # entity_ids are ascending, so stable sort on -score preserves the tie rule
    order = np.argsort(-scores, kind="stable")
    return [index.entity_ids[i] for i in order]


def gold_rank(ranked_ids: Sequence[str], gold: str) -> float:
    """1-based rank of the gold id, or infinity if absent (with a warning)."""
    try:
        return ranked_ids.index(gold) + 1
    except ValueError:
        log.warning("gold entity %s missing from candidate set: counted as rank inf", gold)
        return math.inf


def hits_at_k(ranks: Sequence[float], k: int) -> float:
    if not ranks:
        raise ValueError("hits_at_k: empty rank list")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def mrr(ranks: Sequence[float]) -> float:
    if not ranks:
        raise ValueError("mrr: empty rank list")
    return sum(0.0 if math.isinf(r) else 1.0 / r for r in ranks) / len(ranks)


def _language_result(ranks: list[float], k: int) -> LanguageResult:
    return LanguageResult(n=len(ranks), hit1=hits_at_k(ranks, 1),
                          hitk=hits_at_k(ranks, k), mrr=mrr(ranks))


# ---------------------------------------------------------------------------
# task evaluation
# ---------------------------------------------------------------------------

def completion_query_seq(mlkg: MLKG, triple: Triple, lang: str, vocab: Vocab,
                         max_len: int) -> TokenSeq:
    """Encode "subject <sep> relation" in one language (never code-switched)."""
    subj = mlkg.entities[triple.head].labels[lang]
    rel = mlkg.relations[triple.rel].labels[lang]
    return tokenize(subj.split() + [SEP] + rel.split(), lang, vocab, max_len)


def eval_completion(adapted: AdaptedEncoder, mlkg: MLKG,
                    test_items: dict[str, list[tuple[str, Triple]]],
                    vocab: Vocab, k: int = 10) -> MetricReport:
    """Rank the gold object among all entities of the query language."""
    max_len = adapted.config.max_seq_len
    return _rank_golds(adapted, mlkg, vocab, "completion", k, {
        lang: [(completion_query_seq(mlkg, t, lang, vocab, max_len), t.tail) for _, t in items]
        for lang, items in test_items.items()})


def eval_alignment(adapted: AdaptedEncoder, mlkg: MLKG,
                   test_pairs: dict[str, list[tuple[str, str, str]]],
                   vocab: Vocab, k: int = 10) -> MetricReport:
    """Retrieve each source-language entity among the target language's labels."""
    max_len = adapted.config.max_seq_len
    return _rank_golds(adapted, mlkg, vocab, "alignment", k, {
        tgt: [(label_seq(mlkg.entities[eid].labels[src], src, vocab, max_len), eid)
              for src, _, eid in pairs]
        for tgt, pairs in test_pairs.items()})


def _rank_golds(adapted: AdaptedEncoder, mlkg: MLKG, vocab: Vocab, task: str, k: int,
                queries: dict[str, list[tuple[TokenSeq, str]]]) -> MetricReport:
    """`queries` maps a language to (query, gold entity id) pairs; each gold is
    ranked among the entity labels of that language, embedded once."""
    report = MetricReport(task=task, variant="", k=k)
    for lang in sorted(queries):
        if not queries[lang]:
            continue
        index = embed_labels(adapted, mlkg, lang, vocab)
        seqs, golds = zip(*queries[lang])
        qmat = _pooled_encodings(adapted, seqs)
        ranks = [gold_rank(rank(q, index), gold) for q, gold in zip(qmat, golds)]
        report.per_language[lang] = _language_result(ranks, k)
    return report


# ---------------------------------------------------------------------------
# task finetuning (workflow stages 3 and 4)
# ---------------------------------------------------------------------------

def completion_item_sampler(mlkg: MLKG, train_items: list[tuple[str, Triple]]) -> Sampler:
    if not train_items:
        raise ConfigError("no completion training items in supervised languages")

    def sampler(batch_size: int, rng: np.random.Generator) -> list[PairItem]:
        picked = _distinct_draws(len(train_items), batch_size,
                                 lambda i: train_items[i][1].tail, rng)
        out = []
        for j in picked:
            lang, t = train_items[j]
            subj = mlkg.entities[t.head].labels[lang]
            rel = mlkg.relations[t.rel].labels[lang]
            out.append(PairItem(
                anchor_tokens=subj.split() + [SEP] + rel.split(), anchor_lang=lang,
                positive_tokens=mlkg.entities[t.tail].labels[lang].split(),
                positive_lang=lang,
                provenance=f"comp:{t.head}:{t.rel}:{t.tail}:{lang}"))
        return out

    return sampler


def alignment_item_sampler(mlkg: MLKG, train_pairs: list[tuple[str, str, str]]) -> Sampler:
    if not train_pairs:
        raise ConfigError("no alignment training pairs in supervised languages")

    def sampler(batch_size: int, rng: np.random.Generator) -> list[PairItem]:
        picked = _distinct_draws(len(train_pairs), batch_size,
                                 lambda i: train_pairs[i][2], rng)
        out = []
        for j in picked:
            src, tgt, eid = train_pairs[j]
            out.append(PairItem(
                anchor_tokens=mlkg.entities[eid].labels[src].split(), anchor_lang=src,
                positive_tokens=mlkg.entities[eid].labels[tgt].split(),
                positive_lang=tgt,
                provenance=f"align:{eid}:{src}->{tgt}"))
        return out

    return sampler


def finetune_contrastive(adapted: AdaptedEncoder, sampler: Sampler, vocab: Vocab,
                         hyper: TrainHyper, train_groups: Sequence[str]
                         ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Train only the given parameter groups of a copy on task pairs with InfoNCE.

    Groups not listed are frozen and checksum-verified by `optim.train`.
    """
    model = replace(adapted, params=adapted.params.copy())
    return model, train_pairs(model, train_groups, sampler, vocab, hyper)
