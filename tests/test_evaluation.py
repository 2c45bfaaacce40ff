"""Retrieval metrics against hand-computed values and brute-force oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgadapters import evaluation
from kgadapters.adapters import init_fusion, insert_adapters
from kgadapters.data import LanguageSplit
from kgadapters.encoder import EncoderConfig, init_encoder_params
from kgadapters.evaluation import (CandidateIndex, MetricReport, LanguageResult,
                                   embed_labels, eval_alignment, finetune_contrastive,
                                   gold_rank, hits_at_k, label_seq, mrr, rank)
from kgadapters.hyper import TrainHyper
from kgadapters.objectives import alignment_item_sampler
from kgadapters.synthetic import SyntheticConfig, gen_synthetic, vocab_corpus
from kgadapters.vocab import build_vocab


class TestHitsAndMrr:
    def test_hand_counts(self):
        assert hits_at_k([1, 2, 4], 1) == pytest.approx(1 / 3, abs=1e-9)
        assert hits_at_k([1, 2, 4], 2) == pytest.approx(2 / 3, abs=1e-9)
        assert mrr([1, 2, 4]) == pytest.approx(0.58333333333, abs=1e-9)

    def test_all_rank_one(self):
        assert mrr([1, 1, 1]) == 1.0
        assert hits_at_k([1, 1, 1], 1) == 1.0

    def test_k_at_least_max_rank_gives_one(self):
        assert hits_at_k([3, 7, 2], 7) == 1.0

    def test_single_query(self):
        assert mrr([4]) == 0.25

    def test_missing_gold_contributes_zero(self):
        assert mrr([1, math.inf]) == 0.5
        assert hits_at_k([1, math.inf], 1000) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hits_at_k([], 1)
        with pytest.raises(ValueError):
            mrr([])

    def test_hit1_never_exceeds_hitk(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranks = rng.integers(1, 30, size=10).tolist()
            k = int(rng.integers(1, 20))
            assert hits_at_k(ranks, 1) <= hits_at_k(ranks, k)


@st.composite
def tie_heavy_batches(draw):
    """Integer-valued candidates holding a duplicate and a zero row, a batch of
    integer-valued queries, and a gold candidate row per query."""
    d = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    rows = draw(st.lists(vectors, min_size=1, max_size=10))
    rows = draw(st.permutations(rows + [rows[0], [0] * d]))
    queries = draw(st.lists(vectors, min_size=1, max_size=5))
    golds = draw(st.lists(st.integers(0, len(rows) - 1),
                          min_size=len(queries), max_size=len(queries)))
    return np.array(rows, dtype=np.float64), np.array(queries, dtype=np.float64), golds


def make_index(vectors, ids=None):
    m = np.asarray(vectors, dtype=np.float32)
    ids = ids or [f"e{i}" for i in range(m.shape[0])]
    return CandidateIndex(entity_ids=ids, matrix=m)


class TestRank:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4))
        index = make_index(m)
        assert rank(m[3], index)[0] == "e3"

    def test_ties_broken_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        # embed_labels orders an index by ascending entity id
        index = make_index([v, v, [0.0, 1.0]], ids=["e2", "e5", "e9"])
        assert rank(v, index)[:2] == ["e2", "e5"]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n, d = int(rng.integers(2, 40)), int(rng.integers(2, 8))
            m = rng.standard_normal((n, d))
            q = rng.standard_normal(d)
            index = make_index(m)
            scores = [(float(-np.dot(q, row) / (np.linalg.norm(q) * np.linalg.norm(row))),
                       index.entity_ids[i]) for i, row in enumerate(m.astype(np.float64))]
            expected = [eid for _, eid in sorted(scores)]
            assert rank(q, index) == expected

    @settings(max_examples=200, deadline=None, database=None)
    @given(tie_heavy_batches())
    def test_tie_rule_survives_batching(self, batch):
        # integer-valued vectors make every dot product and squared norm exact,
        # so one GEMM for the batch scores each query with rank's bits
        m, queries, golds = batch
        ids = np.array([f"e{i:02d}" for i in range(len(m))])
        index = make_index(m, ids=list(ids))
        norms = np.outer(np.linalg.norm(queries, axis=1), index.norms)
        scores = (queries @ index.matrix64.T) / np.where(norms == 0.0, 1.0, norms)
        for q, s, g in zip(queries, scores, golds):
            count = (s > s[g]).sum() + ((s == s[g]) & (ids < ids[g])).sum() + 1
            assert gold_rank(rank(q, index), ids[g]) == count

    @pytest.mark.parametrize("fault", ["none", "ties", "nan"])
    def test_order_is_the_stable_sort_of_the_scores(self, fault):
        # 300 rows, so numpy's unstable sort is not its insertion sort; ties
        # and NaN scores must take the stable path
        rng = np.random.default_rng(6)
        m = rng.standard_normal((300, 4))
        if fault == "ties":
            m = m[rng.integers(0, 20, size=300)]
        if fault == "nan":
            m[rng.integers(0, 300, size=30)] = np.nan
        index = make_index(m)
        for _ in range(10):
            q = rng.standard_normal(4)
            norms = index.norms * np.linalg.norm(q)
            scores = (index.matrix64 @ q) / np.where(norms == 0.0, 1.0, norms)
            order = np.argsort(-scores, kind="stable")
            assert rank(q, index) == [index.entity_ids[i] for i in order]

    def test_rank_invariant_under_query_rescaling(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 5))
        q = rng.standard_normal(5)
        index = make_index(m)
        assert rank(q, index) == rank(3.7 * q, index)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            CandidateIndex(entity_ids=[], matrix=np.zeros((0, 3)))

    def test_gold_rank_missing_warns(self, caplog):
        with caplog.at_level("WARNING"):
            r = gold_rank(["e0", "e1"], "ghost")
        assert math.isinf(r)
        assert any("missing" in rec.message for rec in caplog.records)

    def test_random_model_mrr_near_analytic_expectation(self):
        # uniform random ranking over n candidates has E[MRR] = H(n)/n
        rng = np.random.default_rng(4)
        n, queries, d = 100, 400, 16
        index = make_index(rng.standard_normal((n, d)))
        expected = sum(1 / r for r in range(1, n + 1)) / n
        ranks = []
        for _ in range(queries):
            q = rng.standard_normal(d)
            gold = index.entity_ids[int(rng.integers(n))]
            ranks.append(gold_rank(rank(q, index), gold))
        assert mrr(ranks) == pytest.approx(expected, abs=0.02)


@pytest.fixture(scope="module")
def bench():
    ds = gen_synthetic(SyntheticConfig(
        languages=4, entities=15, relations=3, triples=40, sentences_per_entity=1,
        vocab_size=12, seed=3, sup=2, zs_in=1, zs_un=1, mlm_sentences_per_lang=15))
    vocab = build_vocab(vocab_corpus(ds))
    config = EncoderConfig(layers=2, d_model=16, n_heads=2, ff_dim=32,
                           max_seq_len=12, vocab_size=len(vocab))
    backbone = init_encoder_params(config, np.random.default_rng(0))
    adapted = insert_adapters(backbone, ["EP"], 4, seed=1, config=config)
    return ds, vocab, adapted


def embed_in_batches(monkeypatch, size, adapted, ds, vocab):
    """`embed_labels` of the base language in batches of `size` labels."""
    monkeypatch.setattr(evaluation, "LABEL_BATCH", size)
    return embed_labels(adapted, ds.mlkg, ds.base_lang, vocab)


class TestEmbedAndEval:
    def test_rows_ordered_by_entity_id_and_deterministic(self, bench):
        ds, vocab, adapted = bench
        idx1 = embed_labels(adapted, ds.mlkg, ds.base_lang, vocab)
        idx2 = embed_labels(adapted, ds.mlkg, ds.base_lang, vocab)
        assert idx1.entity_ids == sorted(ds.mlkg.entities)
        np.testing.assert_array_equal(idx1.matrix, idx2.matrix)

    def test_batched_matches_one_at_a_time_exactly(self, bench, monkeypatch):
        ds, vocab, adapted = bench
        full = embed_in_batches(monkeypatch, 64, adapted, ds, vocab)
        single = embed_in_batches(monkeypatch, 1, adapted, ds, vocab)
        np.testing.assert_array_equal(full.matrix, single.matrix)

    def test_batched_matches_one_at_a_time_at_desk_dims(self, bench, monkeypatch):
        """At d_model 64 a product of one row would take BLAS's matrix-vector
        kernel and round differently, so a one-token label alone in its batch
        must still be encoded through products of two or more rows."""
        ds, vocab, _ = bench
        config = EncoderConfig(layers=2, d_model=64, n_heads=4, ff_dim=128,
                               max_seq_len=12, vocab_size=len(vocab))
        backbone = init_encoder_params(config, np.random.default_rng(0))
        adapted = insert_adapters(backbone, ["EP"], 8, seed=1, config=config)
        lengths = {len(label_seq(e.labels[ds.base_lang], ds.base_lang, vocab, 12).ids)
                   for e in ds.mlkg.entities.values()}
        assert lengths == {1, 2}
        full = embed_in_batches(monkeypatch, 64, adapted, ds, vocab)
        single = embed_in_batches(monkeypatch, 1, adapted, ds, vocab)
        np.testing.assert_array_equal(full.matrix, single.matrix)

    def test_default_batches_keep_the_bits_of_64_label_batches(self, monkeypatch):
        """The default batch of 512 labels at desk dims, fused: 600 labels
        give a full and a partial batch of products of several hundred rows."""
        ds = gen_synthetic(SyntheticConfig(
            languages=3, entities=600, relations=3, triples=40, sentences_per_entity=1,
            vocab_size=12, seed=3, sup=1, zs_in=1, zs_un=1, mlm_sentences_per_lang=15))
        vocab = build_vocab(vocab_corpus(ds))
        config = EncoderConfig(layers=2, d_model=64, n_heads=4, ff_dim=128,
                               max_seq_len=12, vocab_size=len(vocab))
        backbone = init_encoder_params(config, np.random.default_rng(0))
        adapted = insert_adapters(backbone, ["EP", "TP"], 8, seed=1, config=config)
        fused = init_fusion(adapted, 2).with_mode("fusion")
        default = embed_labels(fused, ds.mlkg, ds.base_lang, vocab)
        small = embed_in_batches(monkeypatch, 64, fused, ds, vocab)
        assert len(default.entity_ids) == 600
        np.testing.assert_array_equal(default.matrix, small.matrix)

    def test_missing_label_excluded_with_warning(self, bench, caplog):
        ds, vocab, adapted = bench
        eid = sorted(ds.mlkg.entities)[0]
        del ds.mlkg.entities[eid].labels[ds.base_lang]
        try:
            with caplog.at_level("WARNING"):
                idx = embed_labels(adapted, ds.mlkg, ds.base_lang, vocab)
            assert eid not in idx.entity_ids
            assert any("excluded" in rec.message for rec in caplog.records)
        finally:
            label = ds.mlkg.entities[eid].labels[ds.split.all_langs[1]]
            ds.mlkg.entities[eid].labels[ds.base_lang] = label.rsplit("-", 1)[0]

    def test_evaluation_is_side_effect_free(self, bench):
        ds, vocab, adapted = bench
        before = adapted.params.checksum()
        eval_alignment(adapted, ds.mlkg, ds.align_test, vocab, k=5)
        assert adapted.params.checksum() == before

    def test_single_pair_testset_gives_reciprocal_rank(self, bench):
        ds, vocab, adapted = bench
        tgt = ds.split.all_langs[1]
        pairs = {tgt: ds.align_test[tgt][:1]}
        report = eval_alignment(adapted, ds.mlkg, pairs, vocab, k=5)
        r = report.per_language[tgt]
        assert r.n == 1
        assert r.mrr == pytest.approx(1.0 / round(1.0 / r.mrr)) or r.mrr == 0.0

    def test_finetune_trains_only_requested_groups(self, bench):
        ds, vocab, model = bench
        hyper = TrainHyper(batch_size=6, steps=4, base_lr=1e-3, warmup_steps=2)
        enc_before = model.params.checksum("encoder.")
        ad_before = model.params.checksum("adapter.")
        sampler = alignment_item_sampler(ds.mlkg, ds.align_train)
        trained, curve = finetune_contrastive(model, sampler, vocab, hyper, 5,
                                              train_groups=["adapter.EP."])
        assert trained.params.checksum("encoder.") == enc_before
        assert trained.params.checksum("adapter.") != ad_before
        assert len(curve) == 4

    def test_category_aggregate_is_unweighted_mean(self):
        split = LanguageSplit(sup=["ab", "ac"], zs_in=[], zs_un=[])
        report = MetricReport(task="alignment", variant="x", k=5, split=split)
        report.per_language["ab"] = LanguageResult(n=10, hit1=0.2, hitk=0.4, mrr=0.3)
        report.per_language["ac"] = LanguageResult(n=30, hit1=0.6, hitk=0.8, mrr=0.7)
        agg = report.category_aggregate("sup")
        assert agg.hit1 == pytest.approx(0.4)   # mean, not query-weighted
        assert agg.n == 40

    def test_split_survives_dict_roundtrip(self):
        split = LanguageSplit(sup=["ab"], zs_in=["ac"], zs_un=["ad"])
        report = MetricReport(task="alignment", variant="x", k=5, split=split)
        report.per_language["ac"] = LanguageResult(n=3, hit1=0.0, hitk=1.0, mrr=0.5)
        loaded = MetricReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert loaded.split == split
        assert loaded == report
