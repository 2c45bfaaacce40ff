"""The generator's draws: the integer replay equals the Generator it replays,
the data files of two larger configs keep their bytes, and a config that asks
for more distinct words than exist is rejected at load."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgadapters import cli, pipeline
from kgadapters.errors import ConfigError
from kgadapters.synthetic import (_BLOCK, _DISTINCT_WORDS, _SCALAR_DRAWS, DATASET_FILES,
                                  SyntheticConfig, _Replay, gen_synthetic, save_dataset)

from test_pipeline import micro_config, write_config

# range sizes n = hi - lo: 1 takes no word, 2**31 + 1 rejects about half of
# its words, 2**32 takes each word as it is
SIZES = [1, 2, 3, 14, 50, 2**31 + 1, 2**32]

# each a run of `count` draws of one range: (n, lo, count)
runs = st.tuples(st.sampled_from(SIZES), st.integers(-3, 3), st.integers(1, 700))


def after_hand_back(rng: np.random.Generator) -> list:
    """What the generator draws next with each call that stays on it."""
    return [rng.random(), rng.permutation(17).tolist(),
            rng.choice(50, size=6, replace=False).tolist(),
            rng.integers(0, 1000, size=3).tolist(), int(rng.integers(2**32))]


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), segments=st.lists(st.lists(runs, max_size=4),
                                                        min_size=1, max_size=4))
@example(seed=1, segments=[[(2**31 + 1, 0, 3 * _BLOCK)], [(1, 5, 20), (3, -1, 2)], []])
@example(seed=2, segments=[[(n, 0, _SCALAR_DRAWS + _BLOCK // 3) for n in SIZES]] * 2)
def test_replay_equals_the_generator(seed, segments):
    """Each segment's draws equal one `int(rng.integers(lo, hi))` call per draw
    on a Generator of the same seed; after each segment the handed-back
    Generator draws what that Generator draws, with every kind of call."""
    ref = np.random.default_rng(seed)
    replay = _Replay(np.random.default_rng(seed))
    for segment in segments:
        for n, lo, count in segment:
            for _ in range(count):
                want = int(ref.integers(lo, lo + n))
                got = replay.integers(n) if lo == 0 else replay.integers(lo, lo + n)
                assert got == want, (n, lo)
        assert after_hand_back(replay.generator()) == after_hand_back(ref)


def test_a_long_run_reads_several_blocks():
    """A draw rejecting about half its words: 3 blocks' worth of draws reads
    more than 3 blocks, and the hand-back still lands on the Generator's state."""
    replay, ref = _Replay(np.random.default_rng(9)), np.random.default_rng(9)
    reads = []
    real_read = replay._read_block
    replay._read_block = lambda: reads.append(1) or real_read()
    draws = [replay.integers(2**31 + 1) for _ in range(_SCALAR_DRAWS + 3 * _BLOCK)]
    assert draws == [int(ref.integers(2**31 + 1)) for _ in draws]
    assert len(reads) > 3
    assert replay.generator().bit_generator.state == ref.bit_generator.state


# SHA-256 of the 12 files save_dataset writes for two configs beyond the micro
# one, computed with synthetic.py as of 6ea480b, which made one rng.integers
# call per draw, before any draw was replayed
LARGER_CONFIGS = {
    # 2000 entities: the word, triple and C1 draws cross many blocks
    "entities_2000": dict(entities=2000, seed=1),
    # one-word labels: every label-length draw is a range of one value
    "four_languages_one_word_labels": dict(
        languages=4, sup=2, zs_in=1, zs_un=1, entities=60, relations=4, triples=120,
        vocab_size=20, mlm_sentences_per_lang=60, label_max_words=1, seed=5),
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
}


@pytest.mark.parametrize("name", sorted(LARGER_CONFIGS))
def test_larger_config_data_files_match_golden(tmp_path, name):
    """The data files of a larger config are the bytes one call per draw
    wrote before the replay (pinned above)."""
    save_dataset(gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name])), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATASET_FILES)
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
