"""InfoNCE closed forms and the four contrastive batch builders."""

import math

import numpy as np
import pytest

from kgadapters import autodiff as ad
from kgadapters.adapters import AdaptedEncoder, init_fusion, insert_adapters
from kgadapters.autodiff import Tensor
from kgadapters.data import Labelled, MLKG, TaggedSentence, Triple
from kgadapters.encoder import EncoderConfig, init_encoder_params
from kgadapters.errors import ConfigError
from kgadapters.hyper import TrainHyper
from kgadapters.objectives import (encode_pair_batch,
                                   ep_pair_universe, es_eligible, infonce,
                                   sample_ep_batch, sample_es_batch,
                                   sample_tp_batch, sample_ts_batch,
                                   train_adapter, ts_ingest)
from kgadapters.data import TripleSentence
from kgadapters.synthetic import SyntheticConfig, gen_synthetic, vocab_corpus
from kgadapters.vocab import build_vocab


def batch_from(anchors, positives):
    """(anchors, positives) as float32 tensors, the arguments of infonce."""
    return (Tensor(np.asarray(anchors, dtype=np.float32)),
            Tensor(np.asarray(positives, dtype=np.float32)))


class TestInfonce:
    def test_single_pair_is_exactly_zero(self):
        batch = batch_from([[0.3, 0.4]], [[0.1, 0.9]])
        assert float(infonce(*batch, tau=1.0).data) == 0.0

    def test_b2_closed_form(self):
        batch = batch_from([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        expected = math.log(1 + math.exp(-1))
        assert float(infonce(*batch, tau=1.0).data) == pytest.approx(expected, abs=1e-6)

    def test_loss_decreases_when_off_diagonal_cosine_drops(self):
        def loss_at(x):
            p2 = [x, 0.5, math.sqrt(0.75 - x * x)]
            batch = batch_from([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], p2])
            return float(infonce(*batch, tau=1.0).data)

        assert loss_at(0.1) < loss_at(0.5)

    def test_positive_for_batches_of_two_or_more(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(2, 6))
            batch = batch_from(rng.standard_normal((b, 4)), rng.standard_normal((b, 4)))
            assert float(infonce(*batch, tau=0.5).data) > 0.0

    def test_invariant_under_common_permutation(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3)).astype(np.float32)
        p = rng.standard_normal((5, 3)).astype(np.float32)
        perm = rng.permutation(5)
        l1 = float(infonce(*batch_from(a, p), tau=0.2).data)
        l2 = float(infonce(*batch_from(a[perm], p[perm]), tau=0.2).data)
        assert l1 == pytest.approx(l2, rel=1e-6)

    def test_anchor_rescaling_leaves_loss_unchanged(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 3)).astype(np.float32)
        p = rng.standard_normal((4, 3)).astype(np.float32)
        scaled = a.copy()
        scaled[2] *= 37.5
        l1 = float(infonce(*batch_from(a, p), tau=0.3).data)
        l2 = float(infonce(*batch_from(scaled, p), tau=0.3).data)
        assert l1 == pytest.approx(l2, rel=1e-5)

    def test_non_finite_representations_rejected(self):
        a = np.full((2, 2), np.nan, dtype=np.float32)
        with pytest.raises(FloatingPointError):
            infonce(*batch_from(a, a), tau=1.0)


@pytest.fixture(scope="module")
def dataset():
    return gen_synthetic(SyntheticConfig(
        languages=4, entities=15, relations=3, triples=40, sentences_per_entity=1,
        vocab_size=12, seed=3, sup=2, zs_in=1, zs_un=1, mlm_sentences_per_lang=15))


def label_owners(records) -> dict[str, tuple[str, str]]:
    """label -> (id, language) of entities or relations whose labels are all
    distinct, which recovers what a sampled item was drawn from."""
    owners = {label: (rid, lang) for rid, r in records.items()
              for lang, label in r.labels.items()}
    assert len(owners) == sum(len(r.labels) for r in records.values()), "labels repeat"
    return owners


def tp_languages(mlkg, item) -> tuple[str, str, str]:
    """(head, relation, tail) label languages of a TP item."""
    entities, relations = label_owners(mlkg.entities), label_owners(mlkg.relations)
    sep = item.anchor_tokens.index("<sep>")
    return (entities[" ".join(item.anchor_tokens[:sep])][1],
            relations[" ".join(item.anchor_tokens[sep + 1:])][1],
            entities[" ".join(item.positive_tokens)][1])


class TestSamplers:
    def test_ep_pairs_are_true_alignments(self, dataset):
        rng = np.random.default_rng(0)
        langs = dataset.split.adapter_langs
        items = sample_ep_batch(dataset.mlkg, ep_pair_universe(dataset.mlkg, langs), 10, rng)
        owners = label_owners(dataset.mlkg.entities)
        for it in items:
            eid = owners[" ".join(it.anchor_tokens)][0]
            e = dataset.mlkg.entities[eid]
            assert " ".join(it.anchor_tokens) == e.labels[it.anchor_lang]
            assert " ".join(it.positive_tokens) == e.labels[it.positive_lang]
            assert it.anchor_lang != it.positive_lang
            assert it.anchor_lang in langs and it.positive_lang in langs

    def test_ep_single_label_entities_never_sampled(self):
        mlkg = MLKG(
            entities={"e0": Labelled("e0", {"aa": "one"}),
                      "e1": Labelled("e1", {"aa": "two", "bb": "two-b"})},
            relations={"r0": Labelled("r0", {"aa": "rel"})})
        rng = np.random.default_rng(0)
        universe = ep_pair_universe(mlkg, ["aa", "bb"])
        owners = label_owners(mlkg.entities)
        for _ in range(20):
            items = sample_ep_batch(mlkg, universe, 1, rng)
            assert all(owners[" ".join(it.anchor_tokens)][0] == "e1" for it in items)

    def test_ep_requires_a_multilingual_entity(self):
        mlkg = MLKG(entities={"e0": Labelled("e0", {"aa": "solo"})},
                    relations={"r0": Labelled("r0", {"aa": "rel"})})
        with pytest.raises(ConfigError):
            sample_ep_batch(mlkg, ep_pair_universe(mlkg, ["aa", "bb"]), 4,
                            np.random.default_rng(0))

    def test_ep_fixed_seed_reproducible(self, dataset):
        langs = dataset.split.adapter_langs
        universe = ep_pair_universe(dataset.mlkg, langs)
        a = sample_ep_batch(dataset.mlkg, universe, 8, np.random.default_rng(11))
        b = sample_ep_batch(dataset.mlkg, universe, 8, np.random.default_rng(11))
        assert a == b

    def test_tp_no_code_switch_shares_language(self, dataset):
        langs = dataset.split.adapter_langs
        items = sample_tp_batch(dataset.mlkg, dataset.train_triples, langs, 12,
                                p_cs=0.0, rng=np.random.default_rng(1))
        for it in items:
            lh, lr, lt = tp_languages(dataset.mlkg, it)
            assert lh == lr == lt

    def test_tp_full_code_switch_mixing_rate(self, dataset):
        langs = dataset.split.adapter_langs          # 3 languages
        rng = np.random.default_rng(2)
        items = []
        for _ in range(75):
            items.extend(sample_tp_batch(dataset.mlkg, dataset.train_triples,
                                         langs, 8, p_cs=1.0, rng=rng))
        n = len(items)
        mixed = sum(1 for it in items if len(set(tp_languages(dataset.mlkg, it))) > 1)
        p = 1 - 1 / len(langs) ** 2                  # P(not all three equal)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(mixed / n - p) <= 3 * sigma

    def test_tp_anchor_contains_sep(self, dataset):
        langs = dataset.split.adapter_langs
        items = sample_tp_batch(dataset.mlkg, dataset.train_triples, langs, 4,
                                p_cs=0.0, rng=np.random.default_rng(3))
        assert all("<sep>" in it.anchor_tokens for it in items)

    def test_es_positive_language_differs_from_sentence(self, dataset):
        langs = dataset.split.adapter_langs
        eligible = es_eligible(dataset.c1, dataset.mlkg, langs)
        items = sample_es_batch(dataset.c1, dataset.mlkg, eligible, 10,
                                np.random.default_rng(4))
        for it in items:
            assert it.anchor_span is not None
            assert it.positive_lang != it.anchor_lang

    def test_es_excludes_entities_without_cross_lingual_labels(self):
        mlkg = MLKG(
            entities={"e0": Labelled("e0", {"aa": "only"}),
                      "e1": Labelled("e1", {"aa": "both", "bb": "both-b"})},
            relations={"r0": Labelled("r0", {"aa": "rel"})})
        c1 = [TaggedSentence("aa", ["ctx", "only"], "e0", (1, 1)),
              TaggedSentence("aa", ["ctx", "both"], "e1", (1, 1))]
        eligible = es_eligible(c1, mlkg, ["aa", "bb"])
        assert [idx for idx, _ in eligible] == [1]
        rng = np.random.default_rng(0)
        owners = label_owners(mlkg.entities)
        for _ in range(10):
            items = sample_es_batch(c1, mlkg, eligible, 1, rng)
            assert all(owners[" ".join(it.positive_tokens)][0] == "e1" for it in items)

    def test_ts_masks_object_and_pairs_its_label(self, dataset):
        items = sample_ts_batch(ts_ingest(dataset.c2), dataset.base_lang, 8,
                                np.random.default_rng(5))
        for it in items:
            i, j = it.anchor_mask_span
            assert it.positive_tokens == it.anchor_tokens[i:j + 1]

    def test_ts_ingest_rejects_label_only_sentence(self, dataset):
        t = dataset.mlkg.triples[0]
        label_tokens = dataset.mlkg.entities[t.tail].labels[dataset.base_lang].split()
        degenerate = TripleSentence(tokens=label_tokens, triple=t,
                                    obj_span=(0, len(label_tokens) - 1))
        assert ts_ingest([degenerate]) == []

    def test_ts_fixed_seed_reproducible(self, dataset):
        records = ts_ingest(dataset.c2)
        a = sample_ts_batch(records, dataset.base_lang, 6, np.random.default_rng(6))
        b = sample_ts_batch(records, dataset.base_lang, 6, np.random.default_rng(6))
        assert a == b


@pytest.fixture(scope="module")
def setup(dataset):
    vocab = build_vocab(vocab_corpus(dataset))
    config = EncoderConfig(layers=2, d_model=16, n_heads=2, ff_dim=32,
                           max_seq_len=12, vocab_size=len(vocab))
    backbone = init_encoder_params(config, np.random.default_rng(0))
    adapted = insert_adapters(backbone, ["EP"], 4, seed=1, config=config)
    return dataset, vocab, adapted


def mean_positive_cosine(adapted, items, vocab) -> float:
    """Mean cos(anchor_i, positive_i) under the current parameters, no tape."""
    leaves = ad.make_leaves(adapted.params, grad=False)
    anchors, positives = encode_pair_batch(leaves, adapted, items, vocab)
    return float(np.mean(np.diag(ad.cosine_rows(anchors, positives).data)))


class TestTrainAdapter:
    def sampler(self, ds):
        universe = ep_pair_universe(ds.mlkg, ds.split.adapter_langs)
        return lambda b, rng: sample_ep_batch(ds.mlkg, universe, b, rng)

    def test_backbone_frozen_and_adapter_trained(self, setup):
        ds, vocab, adapted = setup
        hyper = TrainHyper(batch_size=8, steps=10, base_lr=1e-3, warmup_steps=2)
        before_backbone = adapted.params.checksum("encoder.")
        before_ep = adapted.params.checksum("adapter.EP.")
        trained, curve = train_adapter(adapted, self.sampler(ds), vocab, hyper, 4)
        assert trained.params.checksum("encoder.") == before_backbone
        assert adapted.params.checksum("adapter.EP.") == before_ep
        assert trained.params.checksum("adapter.EP.") != before_ep
        assert len(curve) == 10

    def test_positive_cosine_increases_on_seeded_run(self, setup):
        ds, vocab, adapted = setup
        hyper = TrainHyper(batch_size=8, steps=30, base_lr=3e-3, warmup_steps=3)
        probe = self.sampler(ds)(12, np.random.default_rng(99))
        before = mean_positive_cosine(adapted, probe, vocab)
        trained, _ = train_adapter(adapted, self.sampler(ds), vocab, hyper, 4)
        after = mean_positive_cosine(trained, probe, vocab)
        assert after > before

    def test_unknown_kind_rejected(self, setup):
        """Which adapter to train is read from the model: one that holds two
        adapters and no fusion, fusion, or no adapter names none."""
        ds, vocab, adapted = setup
        two = insert_adapters(adapted.params, ["TP"], 4, seed=2, config=adapted.config)
        bare = AdaptedEncoder(adapted.config,
                              init_encoder_params(adapted.config, np.random.default_rng(0)))
        for model in (two, init_fusion(two, seed=3), bare):
            with pytest.raises(ConfigError, match="exactly one adapter"):
                train_adapter(model, self.sampler(ds), vocab,
                              TrainHyper(batch_size=4, steps=1), 0)

    def test_training_depends_only_on_seed(self, setup):
        ds, vocab, adapted = setup
        hyper = TrainHyper(batch_size=4, steps=5, base_lr=1e-3, warmup_steps=2)
        t1, c1 = train_adapter(adapted, self.sampler(ds), vocab, hyper, 12)
        t2, c2 = train_adapter(adapted, self.sampler(ds), vocab, hyper, 12)
        assert t1.params.checksum() == t2.params.checksum()
        assert c1 == c2
