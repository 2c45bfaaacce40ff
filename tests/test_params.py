"""The ParamSet sharing contract: arrays are read-only, `copy` and `merge`
share them, and training a derived model leaves its source as it was."""

import hashlib

import numpy as np
import pytest

from kgadapters import optim
from kgadapters.adapters import init_fusion, insert_adapters
from kgadapters.encoder import EncoderConfig, init_encoder_params
from kgadapters.evaluation import finetune_contrastive
from kgadapters.objectives import ep_pair_universe, sample_ep_batch, train_adapter
from kgadapters.optim import TrainHyper
from kgadapters.params import ParamSet
from kgadapters.pipeline import make_sampler
from kgadapters.synthetic import SyntheticConfig, gen_synthetic, vocab_corpus
from kgadapters.vocab import build_vocab


@pytest.fixture(scope="module")
def setup():
    ds = gen_synthetic(SyntheticConfig(
        languages=4, entities=15, relations=3, triples=40, sentences_per_entity=1,
        vocab_size=12, seed=3, sup=2, zs_in=1, zs_un=1, mlm_sentences_per_lang=15))
    vocab = build_vocab(vocab_corpus(ds))
    config = EncoderConfig(layers=2, d_model=16, n_heads=2, ff_dim=32,
                           max_seq_len=12, vocab_size=len(vocab))
    backbone = init_encoder_params(config, np.random.default_rng(0))
    return ds, vocab, config, backbone


def snapshot(params: ParamSet) -> dict[str, np.ndarray]:
    """A writable copy of every array, to compare against later."""
    return {n: params.get(n).copy() for n in params}


def assert_unchanged(params: ParamSet, before: dict[str, np.ndarray], checksum: str) -> None:
    assert list(params) == list(before)
    for n in params:
        np.testing.assert_array_equal(params.get(n), before[n], strict=True)
    assert params.checksum() == checksum


class TestReadOnly:
    def test_every_array_of_a_fused_model_is_read_only(self, setup):
        _, _, config, backbone = setup
        fused = init_fusion(insert_adapters(backbone, ["EP", "TP"], 4, 1, config), 2)
        assert {n.split(".")[0] for n in fused.params} == {"encoder", "adapter", "fusion"}
        for n in fused.params:
            arr = fused.params.get(n)
            assert not arr.flags.writeable, n
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    def test_add_and_set_data_store_read_only_arrays(self):
        p = ParamSet()
        p.add("w", np.zeros((2, 3), dtype=np.float32))
        p.set_data("w", np.ones((2, 3), dtype=np.float32))
        assert not p.get("w").flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p.get("w")[0, 0] = 2.0
        np.testing.assert_array_equal(p.get("w"), 1.0)

    def test_adam_step_rebinds_to_read_only_arrays(self):
        p = ParamSet()
        p.add("w", np.ones(4, dtype=np.float32))
        old = p.get("w")
        optim.adam_step(p, {"w": np.full(4, 0.5, dtype=np.float32)}, optim.AdamState(), 0.1)
        assert p.get("w") is not old
        assert not p.get("w").flags.writeable
        np.testing.assert_array_equal(old, 1.0)


class TestChecksum:
    GRID = np.arange(24, dtype=np.float32).reshape(4, 6)

    @pytest.mark.parametrize("arr", [GRID, np.asfortranarray(GRID), GRID.T, GRID[:, ::2],
                                     np.zeros((0, 3), dtype=np.float32),
                                     np.float32(2.5).reshape(())],
                             ids=["c_ordered", "f_ordered", "transposed_view", "strided_view",
                                  "empty", "scalar"])
    def test_digest_is_the_one_of_c_ordered_bytes(self, arr):
        """The checksum hashes each array's C-ordered buffer; the digest is
        the one of its `tobytes()` copy, whatever the array's layout."""
        p = ParamSet()
        p.add("a.w", arr)
        p.add("b.w", self.GRID)
        want = hashlib.sha256()
        for name, a in (("a.w", arr), ("b.w", self.GRID)):
            want.update(name.encode())
            want.update(str(a.shape).encode())
            want.update(np.ascontiguousarray(a).tobytes())
        assert p.checksum() == want.hexdigest()
        assert p.checksum("a.") == hashlib.sha256(
            b"a.w" + str(arr.shape).encode() + np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestSharing:
    def test_copy_shares_every_array(self, setup):
        backbone = setup[3]
        twin = backbone.copy()
        assert list(twin) == list(backbone)
        for n in backbone:
            assert np.shares_memory(twin.get(n), backbone.get(n)), n

    def test_copy_is_a_new_mapping(self, setup):
        backbone = setup[3]
        twin = backbone.copy()
        twin.add("extra", np.zeros(2, dtype=np.float32))
        twin.set_data("encoder.ln_f.b", np.ones_like(backbone.get("encoder.ln_f.b")))
        assert "extra" not in list(backbone)
        np.testing.assert_array_equal(backbone.get("encoder.ln_f.b"), 0.0)

    def test_merge_shares_the_arrays_of_its_prefix(self, setup):
        _, _, config, backbone = setup
        adapted = insert_adapters(backbone, ["EP", "TP"], 4, 1, config)
        merged = ParamSet()
        merged.merge(backbone)
        merged.merge(adapted.params, "adapter.EP.")
        assert list(merged) == sorted(backbone.names() + adapted.params.names("adapter.EP."))
        for n in merged:
            assert np.shares_memory(merged.get(n), adapted.params.get(n)), n


class TestDerivedTraining:
    def test_train_adapter_leaves_its_source_unchanged(self, setup):
        ds, vocab, config, backbone = setup
        source = insert_adapters(backbone, ["EP"], 4, 1, config)
        before, checksum = snapshot(source.params), source.params.checksum()
        backbone_before = backbone.checksum()
        universe = ep_pair_universe(ds.mlkg, ds.split.adapter_langs)

        def sampler(b, rng):
            return sample_ep_batch(ds.mlkg, universe, b, rng)

        hyper = TrainHyper(batch_size=8, steps=4, base_lr=1e-2, warmup_steps=1)
        trained, _ = train_adapter(source, sampler, vocab, hyper, 4)
        assert trained.params.checksum("adapter.EP.") != source.params.checksum("adapter.EP.")
        assert_unchanged(source.params, before, checksum)
        assert backbone.checksum() == backbone_before
        # the frozen backbone stays shared with the source after training
        for n in backbone:
            assert np.shares_memory(trained.params.get(n), backbone.get(n)), n

    def test_finetune_of_every_group_leaves_the_fused_source_unchanged(self, setup):
        ds, vocab, config, backbone = setup
        fused = init_fusion(insert_adapters(backbone, ["EP", "TP"], 4, 1, config), 2)
        before, checksum = snapshot(fused.params), fused.params.checksum()
        hyper = TrainHyper(batch_size=6, steps=3, base_lr=1e-2, warmup_steps=1)
        sampler = make_sampler(ds, "alignment")[0]
        trained, _ = finetune_contrastive(fused, sampler, vocab, hyper, 5, prefix="")
        for group in ("encoder.", "adapter.", "fusion."):
            assert trained.params.checksum(group) != fused.params.checksum(group), group
        assert_unchanged(fused.params, before, checksum)
