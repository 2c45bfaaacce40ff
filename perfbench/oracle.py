"""Correctness oracle for retrieval, run outside the timed region.

Ranks are recomputed by brute force in float64 from public functions only:
candidates come from `embed_labels`, queries from `encode_seqs` +
`build_hook` + `pool` in the 64-row batches evaluation uses, and the
documented tie rule gives

    rank = #(s > s_gold) + #(s == s_gold and id < gold) + 1.

Any other rank from `rank` + `gold_rank` is an error.
"""

from __future__ import annotations

import math

import numpy as np

from kgadapters import autodiff, evaluation
from kgadapters.adapters import build_hook
from kgadapters.encoder import encode_seqs, pool, sentence_pool_weights

EVAL_BATCH = 64


def query_vectors(model, seqs) -> np.ndarray:
    leaves = autodiff.make_leaves(model.params, grad=False)
    hook = build_hook(model, leaves)
    rows = []
    for lo in range(0, len(seqs), EVAL_BATCH):
        states, ids, mask = encode_seqs(model.params, seqs[lo:lo + EVAL_BATCH],
                                        model.config, hook)
        rows.append(pool(states.final, sentence_pool_weights(ids, mask)).data)
    return np.concatenate(rows, axis=0)


def brute_force_rank(scores: np.ndarray, ids: np.ndarray, gold: str) -> float:
    """Rank of the gold id by the tie rule; inf if it is not a candidate."""
    where = np.flatnonzero(ids == gold)
    if where.size == 0:
        return math.inf
    g = scores[where[0]]
    return int((scores > g).sum() + ((scores == g) & (ids < gold)).sum()) + 1


def _share(ranks, pred) -> float:
    return sum(1 for r in ranks if pred(r)) / len(ranks)


def _mrr(ranks) -> float:
    return sum(0.0 if math.isinf(r) else 1.0 / r for r in ranks) / len(ranks)


def check_language(model, mlkg, vocab, report, task: str, lang: str, items) -> tuple[int, list[str]]:
    """Check one language of a task report; returns (failed operations, problems).

    Every query is re-ranked by brute force and compared with `rank` +
    `gold_rank` on the same vectors (a disagreement fails that query), and
    the report's Hit@1, Hit@k and MRR for the language must be those of the
    brute-force ranks (a mismatch fails the evaluation call).
    """
    max_len = model.config.max_seq_len
    if task == "completion":
        seqs = [evaluation.completion_query_seq(mlkg, t, lang, vocab, max_len) for _, t in items]
        golds = [t.tail for _, t in items]
    else:
        seqs = [evaluation.label_seq(mlkg.entities[eid].labels[src], src, vocab, max_len)
                for src, _, eid in items]
        golds = [eid for _, _, eid in items]
    index = evaluation.embed_labels(model, mlkg, lang, vocab)
    queries = query_vectors(model, seqs)
    cands = index.matrix.astype(np.float64)
    cand_norms = np.linalg.norm(cands, axis=1)
    ids = np.array(index.entity_ids)

    failed, problems, ranks = 0, [], []
    for q, gold in zip(queries, golds):
        q64 = q.astype(np.float64)
        scores = (cands @ q64) / (cand_norms * np.linalg.norm(q64))
        r = brute_force_rank(scores, ids, gold)
        got = evaluation.gold_rank(evaluation.rank(q, index), gold)
        if got != r:
            failed += 1
            problems.append(f"{task}/{lang}: gold {gold} ranked {got}, brute force {r}")
        ranks.append(r)

    want = report.per_language[lang]
    k = report.k
    # the tolerance covers only the order of the float sums, not the ranks
    expected = {"hit1": _share(ranks, lambda r: r <= 1), "hitk": _share(ranks, lambda r: r <= k),
                "mrr": _mrr(ranks)}
    report_problems = [f"{task}/{lang}: report {name}={getattr(want, name)}, brute force {value}"
                       for name, value in expected.items()
                       if abs(getattr(want, name) - value) > 1e-12]
    if want.n != len(items):
        report_problems.append(f"{task}/{lang}: report n={want.n}, expected {len(items)}")
    if report_problems:
        failed += 1
    return failed, problems + report_problems
