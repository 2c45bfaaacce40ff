"""The generator's draws: its words are distinct by construction, the data
files of four more configs keep their bytes, C1 and the MLM corpus hold the
sentences their shapes promise whatever the chunk or the rates, and a config
that asks for more distinct words than exist is rejected at load."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from kgadapters import cli, pipeline
from kgadapters import synthetic
from kgadapters.errors import ConfigError
from kgadapters.synthetic import (_CONSONANTS, _DISTINCT_WORDS, _SYLLABLES, _VOWELS,
                                  DATASET_FILES, SyntheticConfig, _words, gen_synthetic,
                                  save_dataset, transform_word)

from test_pipeline import micro_config, write_config


def test_words_spell_every_word_of_two_or_three_syllables_once():
    """Drawn to the last index, `_words` spells each word of 2 or 3
    syllables exactly once: the index-to-word map is a bijection, so the
    words of one draw without replacement are distinct."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    every = {"".join(w) for k in (2, 3) for w in itertools.product(syllables, repeat=k)}
    words = _words(np.random.default_rng(5), _DISTINCT_WORDS)
    assert len(every) == _DISTINCT_WORDS
    assert len(words) == len(set(words)) and set(words) == every


# SHA-256 of the 12 files save_dataset writes for four configs beyond the
# micro one, pinned when each quantity came to be drawn with one Generator
# call over an array
LARGER_CONFIGS = {
    # 2000 entities: C1 spans several chunks of mentions
    "entities_2000": dict(entities=2000, seed=1),
    # one-word labels: every label-length draw is a range of one value
    "four_languages_one_word_labels": dict(
        languages=4, sup=2, zs_in=1, zs_un=1, entities=60, relations=4, triples=120,
        vocab_size=20, mlm_sentences_per_lang=60, label_max_words=1, seed=5),
    # one context word: every context draw is a range of one value
    "one_context_word": dict(vocab_size=1),
    # two context words, three-word labels and three sentences an entity
    "four_languages_two_context_words": dict(
        languages=4, sup=2, zs_in=1, zs_un=1, sentences_per_entity=3, label_max_words=3,
        vocab_size=2),
}
LARGER_DATA_SHA256 = {
    "entities_2000": {
        "align_test.tsv":
            "1f9e729568a077601cccbd17320e532cd52f525713910dbec7d718f26c30e294",
        "align_train.tsv":
            "4eaa1dd0af532e9ca1af98ece9efcfe27b4ad2c76d3657122280722323ea7b3d",
        "c1.tsv":
            "40df642a9a48a7696c693884c2e1e9f3edb4f1d2db446fe7dd2c759798e2b1e5",
        "c2.tsv":
            "279de280e8f2cd68eb9b3449912e4c72134834e61aedd9ae23d686bc70ea5109",
        "comp_test.tsv":
            "71eaa0ffaeafba112ce7a523d34e3535a886fe465219cc2d1ca11a2fdd23bd38",
        "comp_train.tsv":
            "acdb313ef7454806afdf5726cb85ce0f8a297fa8f8e0626bf37bf5e03568c47b",
        "config.json":
            "41388d3429434ea44e976d14c159e9663ee268cec64dbe960fdd449d8a5d8330",
        "entities.tsv":
            "c4c786bb5f75f7815fda5692529ce71d673a836db39db62fd4aceb4a266ab4e3",
        "mlm.tsv":
            "c277d6c7c6c4f484da8054779384719892881c7fd1e128b1e4df39d2b9ad002a",
        "relations.tsv":
            "c0e2cc3bea52620876a5de1ad09a4f0b673aa32fc178c91e0d3bf9d2a5c5e60f",
        "split.tsv":
            "18a9ba45a78589badd736b411464b22bdad022761f896f938efe67accbeba86b",
        "triples.tsv":
            "da1eb8fcf28ac2a823f4da897d8f65f1891f73729da2c277569467bc76944246",
    },
    "four_languages_one_word_labels": {
        "align_test.tsv":
            "5714014c700ea8a2442d567125cd63f1b434fe6bedbe41f3eb33befe596b46a3",
        "align_train.tsv":
            "788ef64126392b4d1697c4d7192c5ccf07d6d53db6f34f7a8f320820eee3f1ed",
        "c1.tsv":
            "58a1c3df1beab9c28cca6f29ff31ccc22c65918e59d5e4530d5fcf7ce9bb8c60",
        "c2.tsv":
            "27b0508ddab74fc7e43e552b519e672b9b75eaaea2e1404c807e8746f5f7ae4e",
        "comp_test.tsv":
            "5e1a5a6c3eaae35921156e27abd436b75d5b8c952df296e67157b26e411dd23c",
        "comp_train.tsv":
            "14660aa4b277d5826d5a6cb3e2c396f2efa5862993a17293031015ef37276be1",
        "config.json":
            "18a37cf9807f5219eb33c37924dc4d2d99594a4fabbc37912c16b1bb348421b4",
        "entities.tsv":
            "644751e6086eaa9402187218ec82122fc6a83febc4d6ede799bc7a410d763203",
        "mlm.tsv":
            "93d4c1c8a04d401efd54b4a0c941d7c8c5ff89870ee250477bbac38b1deec22b",
        "relations.tsv":
            "68bb82a653e819e518ca2ff827ebfa4620fd669d0f648462839fc71427235f04",
        "split.tsv":
            "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
        "triples.tsv":
            "137e74b658b8bdcdf9c2e08ef47d87547251df476fb2ab9dcf208a4dd6f43b6a",
    },
    "one_context_word": {
        "align_test.tsv":
            "40ff4cf3dee3fc08f4efeab6464d1b844f9a7e323b00af3e08fffd1a2a91944e",
        "align_train.tsv":
            "a189de989b3e1cb0e05907153d612784e68da041f471b90e22c746eee33a780c",
        "c1.tsv":
            "d89d6ff510cc3637c4139f8b0b1974ebb456305632be99135f18df60bd005e72",
        "c2.tsv":
            "76957a8bf4a84fdb1eca9d8a9774ee23c7c3f96aa7403068b9e185f15996a509",
        "comp_test.tsv":
            "75a00353a54e08b9d052d4652cda152e51f8c914d0be808a95d9466f43659418",
        "comp_train.tsv":
            "f8ed3006a5e274db2e98ed2784b69ec7cb508206cfb61e6e618cceb8d89dbeb3",
        "config.json":
            "0cf6f0bce07f0c16c6bf5358595fda6e740f94663f5720570b2cf31787edee7c",
        "entities.tsv":
            "68df433c09b6f092b524510d813fd3170130174ebbdd3fe53a73e15186c60b3c",
        "mlm.tsv":
            "6a8747af6aec28909c684b8d8e16e5ecb461e1bbc68432865573d500e7cff364",
        "relations.tsv":
            "b59e850f68260f477692222150d0cdb8728b959d10b50ecf35af52619d52e6ae",
        "split.tsv":
            "18a9ba45a78589badd736b411464b22bdad022761f896f938efe67accbeba86b",
        "triples.tsv":
            "a4ef16b40f903b22ecd791302369df317cfc48be148d8e89d9d6c5b065794820",
    },
    "four_languages_two_context_words": {
        "align_test.tsv":
            "4c81e7dfe7d60cec7bfae6c75f90cee08d5137803b53693d71213a04c743cfa4",
        "align_train.tsv":
            "2c66b6eacf7a4a8c12f1a80044e65d556fcca669b97ed28acd00c04868de2157",
        "c1.tsv":
            "c18da2ac5d48e4b053e676caf55c55d594c2d782340da7e32db50b3155f77103",
        "c2.tsv":
            "f08b3ec486046f8e41b050ee4662151daada0c4a618b22501411c4fca81178ee",
        "comp_test.tsv":
            "cf5cab7290a3442963e561f40ff8b5a73a24204612c3b9ce2b486f34412072a4",
        "comp_train.tsv":
            "a1cc93e912389571944ac84ae0b0d6f2d8b03a5aabc1b22e67c87e2c6350d457",
        "config.json":
            "8d4c4b0c281594c61fd8372db42cf0a59d0d06528746f1190d843f955c8346a6",
        "entities.tsv":
            "b8b04a6ea843fce213a26f093c76935748601742696e37839d0cba451994c77d",
        "mlm.tsv":
            "1969d77fe4e091d568c9ef3fbea8a13723741f808d0f8a09e5edc68079b7a865",
        "relations.tsv":
            "f686a1172727fbed0a5ecf0459c3bc99a39ebdc84c8d3ee98f9d66b757d07095",
        "split.tsv":
            "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
        "triples.tsv":
            "ad55869f0e5110c31686201db6668aa7555c9749ec8ddf11a92e7f18f33da561",
    },
}


@pytest.mark.parametrize("name", sorted(LARGER_CONFIGS))
def test_larger_config_data_files_match_golden(tmp_path, name):
    """The data files of a larger config keep their pinned bytes."""
    save_dataset(gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name])), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATASET_FILES)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == LARGER_DATA_SHA256[name]


@pytest.mark.parametrize("n", [0, 1, _SYLLABLES ** 2, 10000])
def test_words_are_n_distinct_words_of_two_or_three_syllables(n):
    """Below and across the 2-to-3-syllable boundary, `_words` gives n
    distinct words, each spelled by 2 or 3 consonant-vowel syllables, and
    one seed gives one list."""
    words = _words(np.random.default_rng(11), n)
    assert len(words) == len(set(words)) == n
    spelled = re.compile(f"([{_CONSONANTS}][{_VOWELS}]){{2,3}}")
    assert all(spelled.fullmatch(w) for w in words)
    assert _words(np.random.default_rng(11), n) == words


def label_words(ds) -> set[str]:
    """Every token of every entity and relation label, in every language."""
    return {w for coll in (ds.mlkg.entities, ds.mlkg.relations)
            for rec in coll.values() for label in rec.labels.values() for w in label}


def check_context(tokens: list[str], lang_index: int, labels: set[str]) -> None:
    """Context tokens are no label's and carry their language's rewrite."""
    for w in tokens:
        assert w not in labels
        assert transform_word(w.split("-")[0], lang_index) == w


# files every draw of which comes before C1's
BEFORE_C1 = ("entities.tsv", "relations.tsv", "triples.tsv", "split.tsv", "align_train.tsv",
             "align_test.tsv", "comp_train.tsv", "comp_test.tsv", "c2.tsv")


@pytest.mark.parametrize("chunk", [1, 7, 50, synthetic._CHUNK])
@pytest.mark.parametrize("name", ["one_context_word", "four_languages_two_context_words"])
def test_c1_mentions_every_entity_once_a_sentence_whatever_the_chunk(tmp_path, monkeypatch,
                                                                     name, chunk):
    """Chunks of 1, 7 and 50 mentions end mid-entity and mid-language: C1
    still holds `sentences_per_entity` sentences for each entity and
    adapter language, in entity order, each a lead of 1 to 3 context words,
    the label its span points at, a tail of 1 or 2 and "."; the files drawn
    before C1 keep their pinned bytes."""
    monkeypatch.setattr(synthetic, "_CHUNK", chunk)
    ds = gen_synthetic(SyntheticConfig(**LARGER_CONFIGS[name]))
    langs = ds.split.adapter_langs
    assert [(r.entity_id, r.lang) for r in ds.c1] == [
        (eid, lang) for eid in sorted(ds.mlkg.entities) for lang in langs
        for _ in range(ds.config.sentences_per_entity)]
    labels = label_words(ds)
    contexts = set()
    for r in ds.c1:
        s, e = r.span
        assert r.tokens[s:e + 1] == list(ds.mlkg.entities[r.entity_id].labels[r.lang])
        assert 1 <= s <= 3 and 1 <= len(r.tokens) - e - 2 <= 2 and r.tokens[-1] == "."
        context = r.tokens[:s] + r.tokens[e + 1:-1]
        check_context(context, ds.split.all_langs.index(r.lang), labels)
        contexts.update(w.split("-")[0] for w in context)
    assert len(contexts) <= ds.config.vocab_size
    save_dataset(ds, tmp_path)
    assert {name_: hashlib.sha256((tmp_path / name_).read_bytes()).hexdigest()
            for name_ in BEFORE_C1} == {name_: LARGER_DATA_SHA256[name][name_]
                                        for name_ in BEFORE_C1}


def mlm_shape(ds, lang: str, tokens: list[str], labels: set[str]) -> tuple[str, str | None]:
    """The shape of an MLM sentence and, for a gloss, its entity: a gloss is
    the entity's label, its label in another language, 1 or 2 context words
    and "."; a fact is a training triple's sentence in the base language;
    an entity sentence is 1 to 3 context words, a label, 1 or 2 and "."."""
    langs = ds.split.all_langs
    li = langs.index(lang)
    base = langs[0]
    if lang == base and tokens in [[*ds.mlkg.entities[t.head].labels[base],
                                    *ds.mlkg.relations[t.rel].labels[base],
                                    *ds.mlkg.entities[t.tail].labels[base], "."]
                                   for t in ds.train_triples]:
        return "fact", None
    assert tokens[-1] == "."
    for eid, rec in ds.mlkg.entities.items():
        own = list(rec.labels[lang])
        if tokens[:len(own)] == own:
            rest = tokens[len(own):-1]
            others = langs[1:] if lang == base else [base]
            other = next((list(rec.labels[o]) for o in others
                          if rest[:len(rec.labels[o])] == list(rec.labels[o])), None)
            assert other is not None, f"{lang}: a gloss of {eid} without its other label"
            check_context(rest[len(other):], li, labels)
            assert 1 <= len(rest) - len(other) <= 2
            return "gloss", eid
    for eid, rec in ds.mlkg.entities.items():
        own = list(rec.labels[lang])
        for k in (1, 2, 3):
            if tokens[k:k + len(own)] == own and 1 <= len(tokens) - k - len(own) - 1 <= 2:
                check_context(tokens[:k] + tokens[k + len(own):-1], li, labels)
                return "entity", eid
    raise AssertionError(f"{lang}: no MLM sentence shape fits {tokens}")


@pytest.mark.parametrize("gloss_rate, fact_rate",
                         [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.35), (0.2, 0.8)])
def test_mlm_corpus_sentences_take_their_shapes_at_any_rates(gloss_rate, fact_rate):
    """Rates of 0 and 1 leave a branch with no draws, or the others with
    none: each language still has `mlm_sentences_per_lang` sentences, in
    language order, each a gloss, a fact (base language only) or an entity
    sentence; glosses cycle through the entities in order across
    languages, and the rates' extremes are kept."""
    ds = gen_synthetic(SyntheticConfig(
        languages=4, sup=2, zs_in=1, zs_un=1, entities=20, relations=3, triples=40,
        vocab_size=10, mlm_sentences_per_lang=40, gloss_rate=gloss_rate,
        fact_rate=fact_rate, seed=2))
    langs = ds.split.all_langs
    per_lang = ds.config.mlm_sentences_per_lang
    assert [lang for lang, _ in ds.mlm_corpus] == [lang for lang in langs
                                                   for _ in range(per_lang)]
    labels = label_words(ds)
    shapes = [(lang, *mlm_shape(ds, lang, tokens, labels)) for lang, tokens in ds.mlm_corpus]
    entity_ids = sorted(ds.mlkg.entities)
    glossed = [eid for _, shape, eid in shapes if shape == "gloss"]
    assert glossed == [entity_ids[g % len(entity_ids)] for g in range(len(glossed))]
    assert all(lang == langs[0] for lang, shape, _ in shapes if shape == "fact")
    kinds = {shape for _, shape, _ in shapes}
    if gloss_rate == 1.0:
        assert kinds == {"gloss"}
    if gloss_rate == 0.0:
        assert "gloss" not in kinds
    if fact_rate == 0.0:
        assert "fact" not in kinds
    if gloss_rate + fact_rate >= 1.0:
        assert all(shape != "entity" for lang, shape, _ in shapes if lang == langs[0])


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
