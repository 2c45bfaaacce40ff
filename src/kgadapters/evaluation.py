"""Cosine-retrieval evaluation (KG completion, entity alignment) and the
contrastive finetuning used in the last workflow stages (fusion training and
full finetuning) on the task-pair samplers of `objectives`. Finetuning is
`objectives.train_pairs` of one group prefix, which runs the one training
loop `optim.train`; every parameter outside the prefix is held by its one
frozen check, `optim.frozen`.

Ranking is raw: a query is scored against every entity label of the target
language by cosine similarity, descending, ties broken by ascending entity
id. A gold entity missing from the candidate set counts as rank infinity
(misses every Hit@k, contributes 0 to MRR) and logs a loud warning.
Queries and labels are pooled by `encoder.encode_pooled`, as in training.
Category aggregates are unweighted means over the category's languages.

This module owns the report format. A `MetricReport` carries its dataset's
language split, which `to_dict` stores and `from_dict` requires, so
`emit_report` re-renders a stored report into exactly the TSV first written.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .adapters import AdaptedEncoder, build_hook
from .data import CATEGORIES, LanguageSplit, MLKG, Triple
from .encoder import encode_pooled
from .errors import ConfigError, DataError, check_fields
from .optim import TrainHyper
from .objectives import Sampler, _query_tokens, train_pairs
from .vocab import Vocab, tokenize

log = logging.getLogger(__name__)

# The real tokens (the packed rows of `encoder.encode`) of one no-tape encode
# of labels or queries: a batch is cut by rows, not by sequences. A row of a
# product of 2 or more rows keeps its bits whatever the row count while the
# product stays within OpenBLAS's small-matrix limit of M*N*K = 1e6, which the
# d_model 64 to bottleneck 8 adapter down-projection leaves from 1954 rows on;
# so every batch of at most that many rows has the bits of 64-label batches.
# 800 timed best among 256 to 1900 for `embed_labels` at 5000 entities, with
# labels of up to 2 and of up to 8 words.
_ENCODE_ROWS = 800


@dataclass
class CandidateIndex:
    """All entity-label embeddings of one language, rows ordered by entity id.

    The float64 copy of the matrix, its row norms and the ids as an object
    array, which `rank` scores and orders with, are computed once here rather
    than once per query.
    """

    entity_ids: list[str]
    matrix: np.ndarray
    matrix64: np.ndarray = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    id_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entity_ids) != self.matrix.shape[0]:
            raise ValueError("CandidateIndex rows do not match ids")
        if not self.entity_ids:
            raise ValueError("empty candidate index")
        self.matrix64 = self.matrix.astype(np.float64)
        self.norms = np.linalg.norm(self.matrix64, axis=1)
        self.id_array = np.array(self.entity_ids, dtype=object)


@dataclass
class LanguageResult:
    n: int
    hit1: float
    hitk: float
    mrr: float

    def __post_init__(self):
        check_fields(self, {"n": 0})


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
    split: LanguageSplit | None = None   # None until `pipeline.evaluate` sets it

    def __post_init__(self):
        check_fields(self, {"k": 1})

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
        """Inverse of `to_dict` of a report with a split, which lists its
        languages; categories and overall are derived, not read."""
        stored = {k: v for k, v in d.items() if k not in ("categories", "overall")}
        stored["per_language"] = {l: LanguageResult(**r) for l, r in d["per_language"].items()}
        if "split" not in d:
            raise DataError(f"report {d['variant']!r} holds no language split: re-run eval")
        stored["split"] = split = LanguageSplit(**d["split"])
        unknown = sorted(set(stored["per_language"]) - set(split.all_langs))
        if unknown:
            raise DataError(f"report {d['variant']!r}: languages {unknown} not in its split")
        return cls(**stored)


def _tsv_row(variant: str, lang: str, category: str, r: LanguageResult) -> str:
    percents = [f"{100.0 * x:.1f}" for x in (r.hit1, r.hitk, r.mrr)]
    return "\t".join([variant, lang, category, str(r.n), *percents])


def report_tsv_rows(report: MetricReport) -> list[str]:
    """Header, one row per language, one per non-empty category, then overall."""
    rows = ["variant\tlanguage\tcategory\tn\thit1\thitk\tmrr"]
    for lang in sorted(report.per_language):
        rows.append(_tsv_row(report.variant, lang, report.split.category(lang),
                             report.per_language[lang]))
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

def _pooled_encodings(adapted: AdaptedEncoder, seqs: Sequence[list[int]]) -> np.ndarray:
    """Sentence-pooled encodings (PAD/SEP/MASK excluded), no tape, in order,
    in batches of at most _ENCODE_ROWS real tokens."""
    leaves = ad.make_leaves(adapted.params)
    hook = build_hook(adapted, leaves)
    cuts, rows = [0], 0
    for i, seq in enumerate(seqs):
        if rows + len(seq) > _ENCODE_ROWS and i > cuts[-1]:
            cuts.append(i)
            rows = 0
        rows += len(seq)
    cuts.append(len(seqs))
    return np.concatenate([encode_pooled(leaves, seqs[lo:hi], adapted.config, hook).data
                           for lo, hi in zip(cuts, cuts[1:])], axis=0)


def label_seq(label: Sequence[str], lang: str, vocab: Vocab, max_len: int) -> list[int]:
    """A label's token ids; `lang` goes unread, and stays because the
    benchmark's oracle (perfbench/oracle.py) passes it."""
    return tokenize(label, vocab, max_len)


def embed_labels(adapted: AdaptedEncoder, mlkg: MLKG, lang: str,
                 vocab: Vocab) -> CandidateIndex:
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
    return CandidateIndex(entity_ids=ids, matrix=_pooled_encodings(adapted, seqs))


def rank(query: np.ndarray, index: CandidateIndex) -> list[str]:
    """Entity ids by descending cosine to the query; ties by ascending id."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.matrix.shape[1]:
        raise ValueError(
            f"query dim {q.shape[0]} != index dim {index.matrix.shape[1]}")
    qn = np.linalg.norm(q)
    mn = index.norms
    scores = (index.matrix64 @ q) / np.where(mn * qn == 0.0, 1.0, mn * qn)
    # entity_ids are ascending, so stable sort on -score preserves the tie rule;
    # the unstable sort is several times faster and gives the same order when
    # the sorted scores strictly decrease (no tie, no NaN)
    order = np.argsort(-scores)
    ordered = scores[order]
    if not (ordered[:-1] > ordered[1:]).all():
        order = np.argsort(-scores, kind="stable")
    return index.id_array[order].tolist()


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
                         max_len: int) -> list[int]:
    """Encode "subject <sep> relation" in one language (never code-switched)."""
    return tokenize(_query_tokens(mlkg.entities[triple.head].labels[lang],
                                  mlkg.relations[triple.rel].labels[lang]),
                    vocab, max_len)


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
                queries: dict[str, list[tuple[list[int], str]]]) -> MetricReport:
    """`queries` maps a language to (query, gold entity id) pairs; each gold is
    ranked among the entity labels of that language, embedded once. The
    queries of every language are encoded in one pass."""
    report = MetricReport(task=task, variant="", k=k)
    langs = [lang for lang in sorted(queries) if queries[lang]]
    if not langs:
        return report
    vectors = iter(_pooled_encodings(adapted, [seq for lang in langs for seq, _ in queries[lang]]))
    for lang in langs:
        index = embed_labels(adapted, mlkg, lang, vocab)
        ranks = [gold_rank(rank(next(vectors), index), gold) for _, gold in queries[lang]]
        report.per_language[lang] = _language_result(ranks, k)
    return report


# ---------------------------------------------------------------------------
# task finetuning (workflow stages 3 and 4)
# ---------------------------------------------------------------------------

def finetune_contrastive(adapted: AdaptedEncoder, sampler: Sampler, vocab: Vocab,
                         hyper: TrainHyper, seed: int, prefix: str
                         ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Train the parameters named `prefix...` of a copy on task pairs with
    InfoNCE; every other parameter is `frozen` by `optim.train`."""
    return train_pairs(adapted, prefix, sampler, vocab, hyper, seed)
