"""Vocabulary, tokenization, encoder forward and MLM pretraining contracts."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgadapters.autodiff import ShapeError, Tensor
from kgadapters.encoder import (INIT_BLOCK, EncoderConfig, encode_seqs,
                                init_encoder_params, mask_span,
                                mlm_pretrain, pad_batch, pool,
                                span_pool_weights, sentence_pool_weights)
from kgadapters.optim import TrainHyper
from kgadapters.vocab import MASK_ID, SPECIALS, UNK_ID, Vocab, build_vocab, tokenize


class TestVocab:
    def test_frequency_then_lexicographic_order(self):
        v = build_vocab([["a", "a", "b"]])
        assert v.id_to_token == list(SPECIALS) + ["a", "b"]
        v = build_vocab([["c", "b", "<mask>"], ["d", "a", "a", "c", "b"]])
        assert v.id_to_token == list(SPECIALS) + ["a", "b", "c", "d"]

    def test_many_ties_match_a_sort_by_count_then_token(self):
        rng = np.random.default_rng(3)
        corpus = [[f"w{int(i)}" for i in rng.integers(0, 300, rng.integers(0, 8))]
                  for _ in range(400)]
        counts = Counter(t for sent in corpus for t in sent)
        assert build_vocab(corpus).id_to_token == list(SPECIALS) + sorted(
            counts, key=lambda t: (-counts[t], t))

    def test_empty_corpora(self):
        with pytest.raises(ValueError, match="empty corpora"):
            build_vocab([])
        assert build_vocab([[]]).id_to_token == list(SPECIALS)

    def test_same_corpus_twice_identical_bytes(self, tmp_path):
        corpus = [["x", "y", "y"], ["z", "x"]]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        build_vocab(corpus).save(p1)
        build_vocab(corpus).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip(self, tmp_path):
        v = build_vocab([["alpha", "beta"]])
        v.save(tmp_path / "v.txt")
        v2 = Vocab.load(tmp_path / "v.txt")
        assert v2.id_to_token == v.id_to_token


class TestTokenize:
    def setup_method(self):
        self.vocab = build_vocab([["zurich", "is", "nice"]])

    def test_known_tokens(self):
        seq = tokenize("zurich is nice".split(), self.vocab)
        assert len(seq) == 3
        assert all(i >= 4 for i in seq)

    def test_unseen_token_maps_to_unk(self):
        seq = tokenize("zurich is boring".split(), self.vocab)
        assert seq[-1] == UNK_ID

    def test_truncation_at_max_length(self):
        seq = tokenize("zurich is nice is nice is nice".split(), self.vocab, max_len=4)
        assert len(seq) == 4

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            tokenize("   ".split(), self.vocab)
        with pytest.raises(ValueError):
            tokenize([], self.vocab)


class TestMaskSpan:
    def test_whole_span_becomes_single_mask(self):
        seq = [10, 11, 12, 13, 14, 15, 16]
        out = mask_span(seq, (6, 6))
        assert out == [10, 11, 12, 13, 14, 15, MASK_ID]

    def test_single_token_span_preserves_length(self):
        seq = [5, 6, 7]
        assert len(mask_span(seq, (1, 1))) == 3

    def test_three_token_span_shortens_by_two(self):
        seq = [5, 6, 7, 8, 9]
        out = mask_span(seq, (1, 3))
        assert out == [5, MASK_ID, 9]
        assert len(out) == 3

    def test_invalid_span_rejected(self):
        seq = [5, 6]
        with pytest.raises(ValueError):
            mask_span(seq, (1, 2))


def mean_pool(h: np.ndarray, span: tuple[int, int], mask) -> np.ndarray:
    """Span mean of one [T,d] sequence through span_pool_weights and pool."""
    mask = np.asarray(mask, dtype=np.float32).reshape(1, -1)
    return pool(Tensor(h[None]), span_pool_weights([span], mask)).data[0]


class TestMeanPool:
    def test_single_token_span_is_exact(self):
        h = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        out = mean_pool(h, (2, 2), np.ones(4))
        np.testing.assert_array_equal(out, h[2])

    def test_identical_vectors_give_that_vector(self):
        v = np.array([0.5, -0.25, 1.0], dtype=np.float32)
        h = np.tile(v, (4, 1))
        np.testing.assert_allclose(mean_pool(h, (0, 3), np.ones(4)), v, rtol=1e-7)

    def test_hand_mean(self):
        h = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=np.float32)
        np.testing.assert_allclose(mean_pool(h, (0, 1), np.ones(2)), [2.0, 2.0])

    def test_span_touching_pad_rejected(self):
        h = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="PAD"):
            mean_pool(h, (2, 3), np.array([1, 1, 1, 0]))


def tiny_setup(seed=0, vocab_size=20, max_len=8):
    config = EncoderConfig(layers=2, d_model=16, n_heads=2, ff_dim=32,
                           max_seq_len=max_len, vocab_size=vocab_size)
    params = init_encoder_params(config, np.random.default_rng(seed))
    return config, params


class TestInit:
    def test_blocked_draws_match_one_draw_per_table(self):
        """Each normal table, drawn in row blocks, has the bits of one float64
        draw scaled and cast, and leaves the Generator in the same state."""
        d = 16
        rows = INIT_BLOCK // d
        config = EncoderConfig(layers=1, d_model=d, n_heads=2, ff_dim=32,
                               max_seq_len=8, vocab_size=3 * rows + 5)
        assert config.vocab_size * d > 3 * INIT_BLOCK           # several blocks + a remainder
        assert config.max_seq_len * d < INIT_BLOCK               # smaller than a block
        rng = np.random.default_rng(11)
        params = init_encoder_params(config, rng)

        ref = np.random.default_rng(11)
        shapes = {"encoder.emb.tok": (config.vocab_size, d), "encoder.emb.pos": (8, d),
                  **{f"encoder.0.attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")},
                  "encoder.0.ff.w1": (d, 32), "encoder.0.ff.w2": (32, d)}
        for name, shape in shapes.items():
            want = (ref.standard_normal(shape) * 0.02).astype(np.float32)
            np.testing.assert_array_equal(params.get(name), want, strict=True)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestEncode:
    def test_batch_permutation_equivariance_bitwise(self):
        config, params = tiny_setup()
        seqs = [[4, 5, 6], [7, 8], [9, 10, 11, 12]]
        states, _, _ = encode_seqs(params, seqs, config)
        perm = [seqs[2], seqs[0], seqs[1]]
        states_p, _, _ = encode_seqs(params, perm, config)
        np.testing.assert_array_equal(states.final.data[0], states_p.final.data[1])
        np.testing.assert_array_equal(states.final.data[2], states_p.final.data[0])

    def test_padding_invariance_of_span_pooling(self):
        """Alone, the sequence pads to width 8; beside a 9-token one, to 16."""
        config, params = tiny_setup(max_len=16)
        bare = [4, 5, 6]
        longer = list(range(4, 13))
        s1, ids1, m1 = encode_seqs(params, [bare], config)
        s2, ids2, m2 = encode_seqs(params, [bare, longer], config)
        assert (m1.shape[1], m2.shape[1]) == (8, 16)
        w1 = span_pool_weights([(0, 2)], m1)
        w2 = span_pool_weights([(0, 2), (0, 8)], m2)
        np.testing.assert_array_equal(pool(s1.final, w1).data[0], pool(s2.final, w2).data[0])

    def test_single_vs_batched_encoding_identical(self):
        config, params = tiny_setup()
        seqs = [[4, 5, 6], [7, 8, 9]]
        batched, _, _ = encode_seqs(params, seqs, config)
        alone, _, _ = encode_seqs(params, [seqs[1]], config)
        np.testing.assert_array_equal(batched.final.data[1], alone.final.data[0])

    def test_identity_hook_is_bitwise_noop(self):
        config, params = tiny_setup()
        seqs = [[4, 5, 6, 7]]
        plain, _, _ = encode_seqs(params, seqs, config)
        hooked, _, _ = encode_seqs(params, seqs, config, adapter_hook=lambda x, m: x)
        np.testing.assert_array_equal(plain.final.data, hooked.final.data)

    def test_all_layers_available(self):
        config, params = tiny_setup()
        layers = []
        states, _, _ = encode_seqs(params, [[4, 5]], config,
                                   adapter_hook=lambda x, m: layers.append(m) or x)
        assert layers == list(range(config.layers))
        assert states.final.shape == (1, 2, config.d_model)

    @pytest.mark.parametrize("lengths", [[1], [2], [5], [1, 1], [3, 2], [8, 1, 4]])
    def test_adapter_hook_sees_only_real_rows(self, lengths):
        """The hook gets one row per real slot; a batch with a single real
        slot also carries its first PAD slot, so no product has one row."""
        config, params = tiny_setup()
        seqs = [list(range(4, 4 + n)) for n in lengths]
        shapes = []
        states, _, mask = encode_seqs(params, seqs, config,
                                      adapter_hook=lambda x, m: shapes.append(x.shape) or x)
        rows = 2 if sum(lengths) == 1 else sum(lengths)
        assert mask.sum() == sum(lengths)
        assert shapes == [(rows, config.d_model)] * config.layers

    @pytest.mark.parametrize("lengths", [[1], [3, 2], [8, 1, 4]])
    def test_pad_slots_of_final_states_are_zero(self, lengths):
        config, params = tiny_setup()
        seqs = [list(range(4, 4 + n)) for n in lengths]
        states, _, mask = encode_seqs(params, seqs, config)
        final = states.final.data
        assert final.shape == mask.shape + (config.d_model,)
        assert not final[mask == 0].any()
        assert np.abs(final[mask > 0]).sum(axis=-1).min() > 0

    def test_oversize_sequence_rejected(self):
        config, params = tiny_setup(max_len=4)
        with pytest.raises(ValueError, match="max_seq_len"):
            encode_seqs(params, [[4, 5, 6, 7, 8]], config)

    def test_token_id_past_the_table_rejected(self):
        """The token embedding's gather is the one check of an encode's ids."""
        config, params = tiny_setup(vocab_size=20)
        with pytest.raises(ShapeError, match="gather: index out of range"):
            encode_seqs(params, [[4, 20]], config)

    def test_sentence_pool_excludes_specials(self):
        ids = np.array([[4, 3, 5, 0]])          # token, SEP, token, PAD
        mask = np.array([[1, 1, 1, 0]], dtype=np.float32)
        w = sentence_pool_weights(ids, mask)
        np.testing.assert_allclose(w, [[0.5, 0.0, 0.5, 0.0]])

    def test_sentence_pool_rejects_empty_context(self):
        ids = np.array([[2, 0]])                # MASK only
        mask = np.array([[1, 0]], dtype=np.float32)
        with pytest.raises(ValueError, match="empty context"):
            sentence_pool_weights(ids, mask)


class TestMlmPretrain:
    def make_corpus(self):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(30)]
        corpus = []
        for _ in range(40):
            n = int(rng.integers(3, 7))
            corpus.append(("l0", [words[int(rng.integers(0, 30))] for _ in range(n)]))
        return corpus

    def test_loss_decreases_on_seeded_run(self):
        corpus = self.make_corpus()
        vocab = build_vocab([toks for _, toks in corpus])
        config = EncoderConfig(layers=1, d_model=16, n_heads=2, ff_dim=32,
                               max_seq_len=8, vocab_size=len(vocab))
        hyper = TrainHyper(batch_size=8, steps=60, base_lr=3e-3, warmup_steps=10)
        _, curve = mlm_pretrain(corpus, config, hyper, seed=1, vocab=vocab)
        assert curve[-1][2] < curve[0][2]

    def test_fixed_seed_bit_reproducible(self):
        corpus = self.make_corpus()
        vocab = build_vocab([toks for _, toks in corpus])
        config = EncoderConfig(layers=1, d_model=16, n_heads=2, ff_dim=32,
                               max_seq_len=8, vocab_size=len(vocab))
        hyper = TrainHyper(batch_size=8, steps=15, base_lr=3e-3, warmup_steps=10)
        p1, c1 = mlm_pretrain(corpus, config, hyper, seed=7, vocab=vocab)
        p2, c2 = mlm_pretrain(corpus, config, hyper, seed=7, vocab=vocab)
        assert p1.checksum() == p2.checksum()
        assert c1 == c2


class TestPadBatch:
    def test_pads_to_model_length(self):
        """A 3-token batch pads to its bucket of 8, capped at max_seq_len 6; a
        2-token batch pads to the short width 2."""
        config, _ = tiny_setup(max_len=6)
        ids, mask = pad_batch([[4, 5, 6]], config)
        assert ids.shape == (1, 6)
        np.testing.assert_array_equal(ids[0], [4, 5, 6, 0, 0, 0])
        np.testing.assert_array_equal(mask[0], [1, 1, 1, 0, 0, 0])
        ids, mask = pad_batch([[4, 5]], config)
        np.testing.assert_array_equal(ids, [[4, 5]])
        np.testing.assert_array_equal(mask, [[1, 1]])

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 24).flatmap(lambda max_len: st.tuples(
        st.just(max_len),
        st.lists(st.lists(st.integers(4, 99), min_size=1, max_size=max_len),
                 min_size=1, max_size=12))))
    @example((24, [[4], [5, 6]]))                   # width 2
    @example((24, [[4], [5, 6, 7]]))                # width 8
    @example((12, [[4] * 9, [5]]))                  # bucket 16 capped at 12
    @example((1, [[4], [5]]))                       # width 2 capped at 1
    def test_fill_matches_a_per_sequence_loop(self, case):
        """The one-assignment fill gives the arrays of a per-sequence loop at
        the rule's width: 2 for at most 2 tokens, else the bucket of 8,
        capped at max_seq_len."""
        max_len, seqs = case
        config, _ = tiny_setup(max_len=max_len)
        longest = max(map(len, seqs))
        width = min(max_len, 2 if longest <= 2 else -(-longest // 8) * 8)
        want_ids = np.zeros((len(seqs), width), dtype=np.int64)
        want_mask = np.zeros((len(seqs), width), dtype=np.float32)
        for i, seq in enumerate(seqs):
            want_ids[i, :len(seq)] = seq
            want_mask[i, :len(seq)] = 1.0
        ids, mask = pad_batch(seqs, config)
        assert (ids.dtype, mask.dtype) == (np.int64, np.float32)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(mask, want_mask)

    def test_empty_sequence_rejected(self):
        config, _ = tiny_setup()
        with pytest.raises(ValueError, match="empty sequence"):
            pad_batch([[4, 5], []], config)
