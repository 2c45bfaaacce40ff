"""The generator's draws: the integer replay, scalar and in bulk, equals the
Generator it replays, the data files of four more configs keep their bytes,
whatever words a C1 chunk peeks or a block holds, and a config that asks for
more distinct words than exist is rejected at load."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgadapters import cli, pipeline
from kgadapters.errors import ConfigError
from kgadapters import synthetic
from kgadapters.synthetic import (_BLOCK, _DISTINCT_WORDS, _SCALAR_DRAWS, DATASET_FILES,
                                  SyntheticConfig, _bulk_draws, _Replay, gen_synthetic,
                                  save_dataset)

from test_pipeline import micro_config, write_config

# range sizes n = hi - lo: 1 takes no word, 2**31 + 1 rejects about half of
# its words, 2**32 takes each word as it is
SIZES = [1, 2, 3, 14, 50, 2**31 + 1, 2**32]

# each a run of `count` draws of one range, one `integers` call each or
# through one bulk read: (n, lo, count, bulk)
runs = st.tuples(st.sampled_from(SIZES), st.integers(-3, 3), st.integers(1, 700),
                 st.booleans())


def bulk_draws(replay: _Replay, lo: int, n: int, count: int) -> list[int]:
    """`count` draws of range n from one `peek`, the rule applied by
    `_bulk_draws`; a peek whose words run out is made again, twice as long."""
    size = count
    while True:
        values, after = (a.tolist() for a in _bulk_draws(replay.peek(size), n))
        got, p = [], 0
        for _ in range(count):
            got.append(lo + values[p])
            p = after[p]
        if p <= size:
            replay.advance(p)
            return got
        size *= 2


def after_hand_back(rng: np.random.Generator) -> list:
    """What the generator draws next with each call that stays on it."""
    return [rng.random(), rng.permutation(17).tolist(),
            rng.choice(50, size=6, replace=False).tolist(),
            rng.integers(0, 1000, size=3).tolist(), int(rng.integers(2**32))]


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), segments=st.lists(st.lists(runs, max_size=4),
                                                        min_size=1, max_size=4))
@example(seed=1, segments=[[(2**31 + 1, 0, 3 * _BLOCK, False)],
                           [(1, 5, 20, False), (3, -1, 2, False)], []])
@example(seed=2, segments=[[(n, 0, _SCALAR_DRAWS + _BLOCK // 3, False) for n in SIZES]] * 2)
@example(seed=3, segments=[[(2**31 + 1, 1, 3 * _BLOCK, True), (1, 0, 5, True)],
                           [(n, 0, 600, bulk) for n in SIZES for bulk in (True, False)]])
@example(seed=4, segments=[[(14, 0, 3, True), (50, 2, 4, False), (2**32, 0, 2 * _BLOCK, True),
                            (2, 0, _BLOCK, False), (1, -1, 3, True), (3, 0, 9, True)]])
def test_replay_equals_the_generator(seed, segments):
    """Each segment's draws, scalar or from a bulk read, equal one
    `int(rng.integers(lo, hi))` call per draw on a Generator of the same
    seed; after each segment the handed-back Generator draws what that
    Generator draws, with every kind of call."""
    ref = np.random.default_rng(seed)
    replay = _Replay(np.random.default_rng(seed))
    for segment in segments:
        for n, lo, count, bulk in segment:
            want = [int(ref.integers(lo, lo + n)) for _ in range(count)]
            if bulk:
                got = bulk_draws(replay, lo, n, count)
            else:
                got = [replay.integers(n) if lo == 0 else replay.integers(lo, lo + n)
                       for _ in range(count)]
            assert got == want, (n, lo, bulk)
        assert after_hand_back(replay.generator()) == after_hand_back(ref)


def test_a_long_run_reads_several_blocks():
    """A draw rejecting about half its words: 3 blocks' worth of draws reads
    more than 3 blocks, and the hand-back still lands on the Generator's state."""
    replay, ref = _Replay(np.random.default_rng(9)), np.random.default_rng(9)
    reads = []
    real_read = replay._read_block
    replay._read_block = lambda size: reads.append(1) or real_read(size)
    draws = [replay.integers(2**31 + 1) for _ in range(_SCALAR_DRAWS + 3 * _BLOCK)]
    assert draws == [int(ref.integers(2**31 + 1)) for _ in draws]
    assert len(reads) > 3
    assert replay.generator().bit_generator.state == ref.bit_generator.state


def test_a_draw_that_runs_past_its_block_goes_on_in_a_fresh_one(monkeypatch):
    """The first block ends on a word that a draw of range 2**31 + 1 rejects:
    the draw goes on in a block read where the first ends, and every value
    is still the Generator's."""
    n = 2**31 + 1
    words = np.random.default_rng(9).integers(0, 2**32, size=64, dtype=np.uint32)
    after = _bulk_draws(words, n)[1]
    last = next(j for j in range(_SCALAR_DRAWS + 1, len(words)) if after[j] > j + 1)
    monkeypatch.setattr(synthetic, "_BLOCK", last + 1 - _SCALAR_DRAWS)
    replay, ref = _Replay(np.random.default_rng(9)), np.random.default_rng(9)
    starts = []
    real_read = replay._read_block
    replay._read_block = lambda size: (starts.append(replay._rng.bit_generator.state)
                                       or real_read(size))
    # one word a draw of range 2**32, so the draw of range n starts at word `last`
    sizes = [2**32] * last + [n] * 3
    assert [replay.integers(size) for size in sizes] == [int(ref.integers(size))
                                                         for size in sizes]
    past_last = np.random.default_rng(9)
    past_last.integers(0, 2**32, size=last + 1, dtype=np.uint32)
    assert starts[1] == past_last.bit_generator.state
    assert replay.generator().bit_generator.state == ref.bit_generator.state


# SHA-256 of the 12 files save_dataset writes for four configs beyond the
# micro one. The first two were computed with synthetic.py as of 6ea480b,
# which made one rng.integers call per draw, before any draw was replayed;
# the last two as of cfccb86, before C1 read its draws in bulk, and they are
# the bytes one rng.integers call per draw writes too
LARGER_CONFIGS = {
    # 2000 entities: the word, triple and C1 draws cross many blocks
    "entities_2000": dict(entities=2000, seed=1),
    # one-word labels: every label-length draw is a range of one value
    "four_languages_one_word_labels": dict(
        languages=4, sup=2, zs_in=1, zs_un=1, entities=60, relations=4, triples=120,
        vocab_size=20, mlm_sentences_per_lang=60, label_max_words=1, seed=5),
    # one context word: every context draw is a range of one value, which
    # takes no word
    "one_context_word": dict(vocab_size=1),
    # two context words, three-word labels and three sentences an entity
    "four_languages_two_context_words": dict(
        languages=4, sup=2, zs_in=1, zs_un=1, sentences_per_entity=3, label_max_words=3,
        vocab_size=2),
}
LARGER_DATA_SHA256 = {
    "entities_2000": {
        "align_test.tsv":
            "04080f545bc992395f908945364c0e588443d14db5293222e0d4811cce694d82",
        "align_train.tsv":
            "a1a50033d6ccef548ce35850b01a0351cdef320aced0771fb629930c96f11ca3",
        "c1.tsv":
            "70cf1159a05553123039ae8da6e301ed739308b4d00656cc22910938e75d3813",
        "c2.tsv":
            "7350f6201c511fea6d02b078e7ca30929b4cdd5f5523694f001e6da56ae2021e",
        "comp_test.tsv":
            "a1dc3ed3bc20a5df88b97185bdd30f2c96265dc85f6f5c81d537286af9e5078f",
        "comp_train.tsv":
            "b26e658b8089f88db807f265b7816c90db29c2b6814bf63880798c25adbd566d",
        "config.json":
            "41388d3429434ea44e976d14c159e9663ee268cec64dbe960fdd449d8a5d8330",
        "entities.tsv":
            "cf06ab4afde3e83e00966760a8efa2a66f11ab09935ca4ecbe8f0640c7d356cc",
        "mlm.tsv":
            "b1dfbf4d65ed7fa3eb539abed5a908b72b6f920c8c70914860771f9557b6b329",
        "relations.tsv":
            "68f007b15d901f3c80b496ee777eca4ec488c45187b63433b3113790489f7245",
        "split.tsv":
            "18a9ba45a78589badd736b411464b22bdad022761f896f938efe67accbeba86b",
        "triples.tsv":
            "a9de8d1152f35e26a001c26b5a64202f833f72b47e93105d706eec799a176728",
    },
    "four_languages_one_word_labels": {
        "align_test.tsv":
            "04a8db89774ab3d2ab355ee1939dc94a3480bf11b377f4c0e8b29bd5e5de52d3",
        "align_train.tsv":
            "d5ee4560fe81aa4bb5582bf5e0dbf4aba4e432476bcb86fb22d22663231f0371",
        "c1.tsv":
            "2c4d16b02b20eba187d02a257f0544bd3a320fed679e04d3925eca62297e16fe",
        "c2.tsv":
            "b02cfa4a08f6e338fc8f167d7c2833aae0b87c8e6a429d57650817f525a156f8",
        "comp_test.tsv":
            "d36730a986594bd4376b46c4a4de30ed70ccdde4170451502c205b267da0c551",
        "comp_train.tsv":
            "fb7341653440d5b2a8e79e4a6461c0139d4e3bfb49d84b87faeefba8b82ba700",
        "config.json":
            "18a37cf9807f5219eb33c37924dc4d2d99594a4fabbc37912c16b1bb348421b4",
        "entities.tsv":
            "fbdd12789bf54c0115b1d3bb217b42c6bf9ee83773d5f05d81c3dcaf30008f22",
        "mlm.tsv":
            "a78e085fec01cce84630804597d1369695d5054481ba9d1ce65ac443e2190412",
        "relations.tsv":
            "e38399919a4d84fb7ebcbdc3584a88a2e622bb8f56cd73cb4073fd4b94ce0bb1",
        "split.tsv":
            "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
        "triples.tsv":
            "44b39bf711837d2bdc5c1c6c4880f5f146aae9cb544af1e6894bbebfb6383156",
    },
    "one_context_word": {
        "align_test.tsv":
            "f367679d0e867c84a4516145c95c4a3b0fa9ddb4196026eff7a57fa48de8a95c",
        "align_train.tsv":
            "201a93a7e050366fc143572d598ee68b03fad6db1da141fbce60b96c26641a33",
        "c1.tsv":
            "97d3adc8ff7e6c3543f0c3e53ece0d81f1aef65b50cf0e1c4f68d36207c86edc",
        "c2.tsv":
            "cb4574f86d4a2033325c42dac2954611fd3202fa459ab1d21baa5dfb0673ae45",
        "comp_test.tsv":
            "a8b9a5e60ecc14aa93bf80e64db9e7ca590ba82add1632a2f1375dc0a0d98b62",
        "comp_train.tsv":
            "aecb17e823834dcc2b04a1b9b3449322dea8c9c0a62cefad0fc9713ad4e62801",
        "config.json":
            "0cf6f0bce07f0c16c6bf5358595fda6e740f94663f5720570b2cf31787edee7c",
        "entities.tsv":
            "f690e806a793f9189c57c3b7abcc92a5aca2e347a2098e4df65e37e480a1379d",
        "mlm.tsv":
            "b624309e56a16ede9e298367b5c4d019a2572cdf9f135927cbe0b1be7aa7b20b",
        "relations.tsv":
            "fce90d84d46eb611fac90d005d5f341e7119ca9a6bfd3d74d8aecbbc183112a6",
        "split.tsv":
            "18a9ba45a78589badd736b411464b22bdad022761f896f938efe67accbeba86b",
        "triples.tsv":
            "2ff69f57f58ac602d8c163fa847daae68d337b3e1f07476cd772cb8cfc3c4d93",
    },
    "four_languages_two_context_words": {
        "align_test.tsv":
            "202eabd958c7e35c8eb2ff134fca937a4df8463203f626f9120699605d3d7c6f",
        "align_train.tsv":
            "f56d06b56be7c079cfb82ad02f9f673d213cf9b1969bab62b944b004b9ac0f41",
        "c1.tsv":
            "e01af1b0f084aef48cb1d863bc59c1f48e5b866590e767f2977aa27a2bfec5d1",
        "c2.tsv":
            "24274fd12ec08362e8c323c06bcd154019eb6ef34af94fa7cc286f3eb6e51566",
        "comp_test.tsv":
            "dc912b52cbb02992cf1375e4ef89ab76a09042b7064904fe17ed6eb952ccf815",
        "comp_train.tsv":
            "c936f95064536637f57b2dbffa3f3dc950a5e3884dc9042c0c9afe620b212190",
        "config.json":
            "8d4c4b0c281594c61fd8372db42cf0a59d0d06528746f1190d843f955c8346a6",
        "entities.tsv":
            "6b0a9b34ea932cc22744c9111993e00fc656f0c9ec037cda2513c03830d162bd",
        "mlm.tsv":
            "9d37e8131ccb809eea30e1e6628dd8d99f38a4b6444c0f145682a9ccf84bbed6",
        "relations.tsv":
            "4739f2b3d7b962311a1f9cf62625bf468c265b3fe450a00a9df77765eec9f2e4",
        "split.tsv":
            "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
        "triples.tsv":
            "0f07f356f09d549ef020669713d955161910c906ad8879658dad27dd25d97116",
    },
}


@pytest.mark.parametrize("name", sorted(LARGER_CONFIGS))
def test_larger_config_data_files_match_golden(tmp_path, name):
    """The data files of a larger config are the bytes one call per draw
    wrote before the replay (pinned above)."""
    save_dataset(gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name])), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATASET_FILES)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == LARGER_DATA_SHA256[name]


@pytest.mark.parametrize("chunk_words", [1, 6, 7, 50])
@pytest.mark.parametrize("name", ["one_context_word", "four_languages_two_context_words"])
def test_data_files_keep_their_bytes_whatever_a_c1_chunk_peeks(tmp_path, monkeypatch,
                                                               name, chunk_words):
    """A sentence takes 4 to 7 words, or 2 when every context draw is a
    range of one value: chunks of 1 and 6 words leave a sentence that
    outruns its chunk, alone or after others, and 7 and 50 end chunks
    mid-stream; the files are the pinned bytes all the same."""
    monkeypatch.setattr(synthetic, "_CHUNK_WORDS", chunk_words)
    save_dataset(gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name])), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == LARGER_DATA_SHA256[name]


@pytest.mark.parametrize("block_words", [1, 7, 50])
@pytest.mark.parametrize("name", ["one_context_word", "four_languages_two_context_words"])
def test_data_files_keep_their_bytes_whatever_a_block_holds(tmp_path, monkeypatch,
                                                            name, block_words):
    """Blocks of 1, 7 and 50 words end under the scalar draws all the time,
    so many a draw runs past its block or starts past it; the files are the
    pinned bytes all the same."""
    monkeypatch.setattr(synthetic, "_BLOCK", block_words)
    save_dataset(gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name])), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == LARGER_DATA_SHA256[name]


def word_config(vocab_size: int) -> SyntheticConfig:
    """A config asking for 20 * 3 + 4 + vocab_size distinct words."""
    return SyntheticConfig(entities=20, label_max_words=3, relations=4, vocab_size=vocab_size)


def test_config_asking_for_more_words_than_exist_is_rejected():
    """There are 70**2 + 70**3 words of 2 or 3 syllables; a config may ask
    for all of them, and one more is a ConfigError naming the fields."""
    assert _DISTINCT_WORDS == 70**2 + 70**3
    word_config(_DISTINCT_WORDS - 64)
    with pytest.raises(ConfigError) as err:
        word_config(_DISTINCT_WORDS - 63)
    assert str(err.value) == ("entities * label_max_words + relations + vocab_size (347901) "
                              "must be at most 347900, the distinct words of 2 or 3 syllables")


def test_gen_synthetic_with_too_many_words_exits_one_without_generating(
        tmp_path, capsys, monkeypatch):
    """`vocab_size: 400000` once loaded and then never finished drawing words."""
    config = micro_config(tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    write_config(config, cfg)
    raw = json.loads(cfg.read_text(encoding="utf-8"))
    raw["synthetic"]["vocab_size"] = 400000
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    generated = []
    monkeypatch.setattr(pipeline, "gen_synthetic", generated.append)
    assert cli.main(["--config", str(cfg), "gen-synthetic"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: bad config file {cfg}: entities * label_max_words + relations "
                   f"+ vocab_size (400043) must be at most 347900, the distinct words of "
                   f"2 or 3 syllables\n")
    assert generated == []
    assert not (tmp_path / "run").exists()
