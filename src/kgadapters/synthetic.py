"""Synthetic multilingual KG and corpus generator with exact ground truth,
plus the directory layout used to persist and reload a generated benchmark.

Languages are deterministic bijective transforms of a shared base lexicon:
language k rewrites every content word w to "w-<suffix_k>" (the base
language keeps bare words, digits stay universal). Cross-lingual alignment
ground truth is therefore exact by construction. Relations carry labels in
every language, so code-switching can exercise all three slots of a triple.

Each relation draws its tail entities from a small relation-specific pool
(a type constraint), which makes completion on held-out triples learnable
from the relation identity.

The MLM pretraining corpus covers every language including the unseen
category and mixes three sentence shapes: entity mentions in templated
context, fully realized triples (base language only, mirroring a
monolingual fact corpus), and parenthetical glosses pairing an entity
label with its base-language label, the way real multilingual text glosses
names. Glosses cycle through entities so every entity gets cross-lingual
anchoring. Adapter-training corpora (C1, C2) and task-finetuning files
never contain unseen-category languages: `load_dataset` reads every file
under the rules of data.py's docstring, the zero-shot-unseen one among them.

Every draw comes from one `numpy.random.Generator` seeded with
`config.seed`, one call per quantity and in this order, which fixes the
files byte for byte (`DATA_FILE_SHA256` in tests/test_golden.py and the
larger configs of tests/test_synthetic.py pin them):
1. the entities' label lengths, one `integers` array;
2. every label and context word, one `choice` without replacement
   (`_words`): the entities' label words in entity order, one word a
   relation, then the context words;
3. each relation's tail pool, one `choice` a relation;
4. the triples, three scalar `integers` calls an attempt (relation, tail,
   head);
5. the triple split, then the entity split, one `permutation` each;
6. C1, `_CHUNK` mentions at a time, each chunk drawn by
   `_tagged_sentences`;
7. per language, the MLM corpus: one `random` array picks each sentence's
   shape, then the glosses' other languages (base language only), tail
   lengths and context words, the facts' triples, and the entity
   sentences' entities, whose sentences `_tagged_sentences` draws as it
   draws C1's.

`save_dataset` and `load_dataset` persist a benchmark as one directory whose
files, and their formats, are listed in data.py; every file is read and
written through data.py.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (Labelled, LanguageSplit, MLKG, TaggedSentence,
                   Triple, TripleSentence, assign_language_splits, load_c1,
                   load_c2, load_mlkg, load_split, read_corpus, read_rows,
                   save_c1, save_c2, save_mlkg, save_split, write_corpus,
                   write_rows)
from .errors import ConfigError, DataError, check_fields

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = len(_CONSONANTS) * len(_VOWELS)
_DISTINCT_WORDS = _SYLLABLES ** 2 + _SYLLABLES ** 3
_SUFFIX_SYLLABLES = ["eth", "osk", "ini", "ura", "ave", "ilo", "uns", "ora",
                     "ezi", "alt", "uvo", "ems", "yra", "oqa", "iby", "adz"]


@dataclass
class SyntheticConfig:
    languages: int = 6
    entities: int = 200
    relations: int = 8
    triples: int = 600
    sentences_per_entity: int = 2
    vocab_size: int = 50
    seed: int = 7
    sup: int = 3
    zs_in: int = 2
    zs_un: int = 1
    test_fraction: float = 0.25
    relation_pool_size: int = 6
    mlm_sentences_per_lang: int = 400
    gloss_rate: float = 0.5
    fact_rate: float = 0.35
    label_max_words: int = 2

    def __post_init__(self):
        check_fields(self, {
            "languages": 3, "entities": 10, "relations": 2, "triples": 1,
            "sentences_per_entity": 1, "vocab_size": 1, "seed": 0, "sup": 1, "zs_in": 0,
            "zs_un": 0, "relation_pool_size": 1, "mlm_sentences_per_lang": 1,
            "label_max_words": 1})
        for name in ("gloss_rate", "fact_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.sup + self.zs_in + self.zs_un != self.languages:
            raise ConfigError(f"sup + zs_in + zs_un ({self.sup}+{self.zs_in}+{self.zs_un}) "
                              f"must equal languages ({self.languages})")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0,1)")
        for name, one in (("triples", "triple"), ("entities", "entity")):
            n = getattr(self, name)
            if _test_count(n, self.test_fraction) >= n:
                raise ConfigError(f"{name} ({n}) must leave a training {one} "
                                  f"beside the test split (test_fraction {self.test_fraction})")
        if len(_SUFFIX_SYLLABLES) < self.languages - 1:
            raise ConfigError(f"at most {len(_SUFFIX_SYLLABLES) + 1} languages supported")
        # every label and context word is a distinct word of `_words`,
        # counted here for labels of the longest length
        words = self.entities * self.label_max_words + self.relations + self.vocab_size
        if words > _DISTINCT_WORDS:
            raise ConfigError(f"entities * label_max_words + relations + vocab_size ({words}) "
                              f"must be at most {_DISTINCT_WORDS}, the distinct words of "
                              f"2 or 3 syllables")


@dataclass
class SyntheticDataset:
    config: SyntheticConfig
    split: LanguageSplit
    mlkg: MLKG
    c1: list[TaggedSentence]
    c2: list[TripleSentence]
    mlm_corpus: list[tuple[str, list[str]]]
    align_train: list[tuple[str, str, str]]                    # (src, tgt, entity)
    align_test: dict[str, list[tuple[str, str, str]]]          # tgt lang -> pairs
    comp_train: list[tuple[str, Triple]]                       # (lang, triple)
    comp_test: dict[str, list[tuple[str, Triple]]]             # lang -> items

    @property
    def train_triples(self) -> list[Triple]:
        """The distinct triples of comp_train, in file order."""
        return list(dict.fromkeys(t for _, t in self.comp_train))


def _test_count(n: int, test_fraction: float) -> int:
    """How many of n triples or entities the test split holds out."""
    return max(1, int(round(n * test_fraction)))


def _language_codes(n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(p) for p in itertools.islice(itertools.product(letters, repeat=2), n)]


# C1 mentions one `_tagged_sentences` call draws for: part of the draw
# order, so a change of it changes c1.tsv and every file drawn after it
_CHUNK = 4096


def _words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct words of 2 or 3 syllables, from one draw without
    replacement among the `_DISTINCT_WORDS` of them: index i below
    `_SYLLABLES ** 2` spells its two base-`_SYLLABLES` digits as syllables,
    and `_SYLLABLES ** 2 + j` spells j's three."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = []
    for i in rng.choice(_DISTINCT_WORDS, size=n, replace=False).tolist():
        k, j = (2, i) if i < _SYLLABLES ** 2 else (3, i - _SYLLABLES ** 2)
        words.append("".join(syllables[j // _SYLLABLES ** p % _SYLLABLES]
                             for p in reversed(range(k))))
    return words


def _tagged_sentences(rng: np.random.Generator,
                      mentions: list[tuple[str, str, int, tuple[str, ...]]],
                      context_forms: list[list[str]]) -> list[TaggedSentence]:
    """A sentence for each (entity, language, language index, label tokens)
    of `mentions`: lead length 1..3, that many context words, the label,
    tail length 1..2, that many context words and ".". The draws are three
    arrays: the lead lengths, the tail lengths, and five context words a
    sentence, whose first ones lead and whose last two are the tail's."""
    lead = rng.integers(1, 4, size=len(mentions)).tolist()
    tail = rng.integers(1, 3, size=len(mentions)).tolist()
    forms = np.array(context_forms, dtype=object)          # [language, context word]
    words = forms[np.array([m[2] for m in mentions], dtype=np.intp)[:, None],
                  rng.integers(forms.shape[1], size=(len(mentions), 5))].tolist()
    return [TaggedSentence(lang, [*w[:k], *label, *w[3:3 + j], "."], eid, (k, k + len(label) - 1))
            for (eid, lang, _, label), k, j, w in zip(mentions, lead, tail, words)]


def transform_word(word: str, lang_index: int) -> str:
    """Per-language bijective rewrite; index 0 is the base language, digits pass through."""
    if lang_index == 0 or word.isdigit() or word == ".":
        return word
    return f"{word}-{_SUFFIX_SYLLABLES[lang_index - 1]}"


def _transform(words: list[str], lang_index: int) -> list[str]:
    return [transform_word(w, lang_index) for w in words]


def gen_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Generate the full desk-scale benchmark; byte-stable for a fixed config."""
    rng = np.random.default_rng(config.seed)
    languages = _language_codes(config.languages)
    lang_index = {lang: i for i, lang in enumerate(languages)}
    base = languages[0]
    split = assign_language_splits(languages, config.sup, config.zs_in, config.zs_un)

    lengths = rng.integers(1, config.label_max_words + 1, size=config.entities).tolist()
    drawn = iter(_words(rng, sum(lengths) + config.relations + config.vocab_size))
    entity_words = {f"e{i}": list(itertools.islice(drawn, k)) for i, k in enumerate(lengths)}
    relation_words = {f"r{i}": [next(drawn)] for i in range(config.relations)}
    context_words = list(drawn)

    def multilingual(words: list[str]) -> dict[str, tuple[str, ...]]:
        return {lang: tuple(_transform(words, lang_index[lang])) for lang in languages}

    entities = {eid: Labelled(id=eid, labels=multilingual(ws))
                for eid, ws in entity_words.items()}
    relations = {rid: Labelled(id=rid, labels=multilingual(ws))
                 for rid, ws in relation_words.items()}

    # triples with relation-specific tail pools (type constraint)
    entity_ids = sorted(entities)
    pools = {rid: [entity_ids[j] for j in rng.choice(
        len(entity_ids), size=min(config.relation_pool_size, len(entity_ids)),
        replace=False)] for rid in sorted(relations)}
    triples: list[Triple] = []
    seen_triples: set[Triple] = set()
    attempts = 0
    while len(triples) < config.triples and attempts < config.triples * 50:
        attempts += 1
        rid = f"r{rng.integers(config.relations)}"
        tail = pools[rid][rng.integers(len(pools[rid]))]
        head = entity_ids[rng.integers(len(entity_ids))]
        if head == tail:
            continue
        t = Triple(head, rid, tail)
        if t in seen_triples:
            continue
        seen_triples.add(t)
        triples.append(t)
    if len(triples) < config.triples:
        raise ConfigError("could not generate enough distinct triples; "
                          "increase entities or relation_pool_size")
    mlkg = MLKG(entities=entities, relations=relations, triples=triples)

    # held-out splits: triples for completion, entities for alignment
    order = rng.permutation(len(triples))
    n_test_t = _test_count(len(triples), config.test_fraction)
    test_triples = [triples[i] for i in order[:n_test_t]]
    train_triples = [triples[i] for i in order[n_test_t:]]

    ent_order = rng.permutation(len(entity_ids))
    n_test_e = _test_count(len(entity_ids), config.test_fraction)
    test_entities = [entity_ids[i] for i in ent_order[:n_test_e]]
    train_entities = [entity_ids[i] for i in ent_order[n_test_e:]]

    align_train = [(base, tgt, eid) for tgt in split.sup if tgt != base
                   for eid in train_entities]
    align_test = {tgt: [(base, tgt, eid) for eid in test_entities]
                  for tgt in languages if tgt != base}

    comp_train = [(lang, t) for lang in split.sup for t in train_triples]
    comp_test = {lang: [(lang, t) for t in test_triples] for lang in languages}

    context_forms = [_transform(context_words, li) for li in range(len(languages))]

    # C1: entity mentions in context, adapter-training languages only
    mentions = (mention for eid in entity_ids for lang in split.adapter_langs
                for mention in [(eid, lang, lang_index[lang], entities[eid].labels[lang])]
                * config.sentences_per_entity)
    c1: list[TaggedSentence] = []
    while chunk := list(itertools.islice(mentions, _CHUNK)):
        c1.extend(_tagged_sentences(rng, chunk, context_forms))

    def triple_tokens(t: Triple, lang: str) -> tuple[list[str], tuple[int, int]]:
        h = entities[t.head].labels[lang]
        r = relations[t.rel].labels[lang]
        o = entities[t.tail].labels[lang]
        tokens = [*h, *r, *o, "."]
        span = (len(h) + len(r), len(h) + len(r) + len(o) - 1)
        return tokens, span

    # C2: triple sentences in the base language only, train triples only
    c2: list[TripleSentence] = []
    for t in train_triples:
        tokens, span = triple_tokens(t, base)
        c2.append(TripleSentence(tokens=tokens, triple=t, obj_span=span))

    # MLM corpus: all languages; glosses pin every entity to the base
    # language, fact sentences exist only in the base language
    mlm: list[tuple[str, list[str]]] = []
    glossed = 0
    for li, lang in enumerate(languages):
        u = rng.random(config.mlm_sentences_per_lang)
        gloss = u < config.gloss_rate
        fact = ~gloss & (u < config.gloss_rate + config.fact_rate) & (lang == base)
        sentences: list = [None] * len(u)
        at = np.flatnonzero(gloss).tolist()
        others = (rng.integers(1, len(languages), size=len(at)).tolist() if lang == base
                  else [0] * len(at))
        tail = rng.integers(1, 3, size=len(at)).tolist()
        ctx = rng.integers(config.vocab_size, size=(len(at), 2)).tolist()
        for i, other, k, c in zip(at, others, tail, ctx):
            labels = entities[entity_ids[glossed % len(entity_ids)]].labels
            glossed += 1
            sentences[i] = [*labels[lang], *labels[languages[other]],
                            *[context_forms[li][x] for x in c[:k]], "."]
        at = np.flatnonzero(fact).tolist()
        for i, t in zip(at, rng.integers(len(train_triples), size=len(at)).tolist()):
            sentences[i] = triple_tokens(train_triples[t], lang)[0]
        at = np.flatnonzero(~gloss & ~fact).tolist()
        eids = [entity_ids[e] for e in rng.integers(len(entity_ids), size=len(at)).tolist()]
        entity_mentions = [(eid, lang, li, entities[eid].labels[lang]) for eid in eids]
        for i, sentence in zip(at, _tagged_sentences(rng, entity_mentions, context_forms)):
            sentences[i] = sentence.tokens
        mlm.extend((lang, tokens) for tokens in sentences)

    return SyntheticDataset(
        config=config, split=split, mlkg=mlkg, c1=c1, c2=c2, mlm_corpus=mlm,
        align_train=align_train, align_test=align_test,
        comp_train=comp_train, comp_test=comp_test)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# task file -> its fields, each naming the collection its values must belong
# to, and the (language, entity or relation) field pair of each label its
# query or training pair reads; a gold label may be missing (it ranks inf)
_PAIR = ("lang", "lang", "entity")
_TASK = ("lang", "entity", "relation", "entity")
_TASK_FILES = {"align_train.tsv": (_PAIR, ((0, 2), (1, 2))),
               "align_test.tsv": (_PAIR, ((0, 2),)),
               "comp_train.tsv": (_TASK, ((0, 1), (0, 2), (0, 3))),
               "comp_test.tsv": (_TASK, ((0, 1), (0, 2)))}


# every file save_dataset writes, each named here once: save_dataset writes
# no other file
DATASET_FILES = ("config.json", "entities.tsv", "relations.tsv", "triples.tsv", "c1.tsv",
                 "c2.tsv", "split.tsv", "mlm.tsv", "align_train.tsv", "align_test.tsv",
                 "comp_train.tsv", "comp_test.tsv")


def save_dataset(ds: SyntheticDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = {name: out / name for name in DATASET_FILES}
    path["config.json"].write_text(
        json.dumps(asdict(ds.config), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_mlkg(ds.mlkg, path["entities.tsv"], path["relations.tsv"], path["triples.tsv"])
    save_c1(path["c1.tsv"], ds.c1)
    save_c2(path["c2.tsv"], ds.c2)
    save_split(path["split.tsv"], ds.split)
    write_corpus(path["mlm.tsv"], ds.mlm_corpus)
    write_rows(path["align_train.tsv"], ds.align_train)
    write_rows(path["align_test.tsv"],
               (p for tgt in sorted(ds.align_test) for p in ds.align_test[tgt]))
    write_rows(path["comp_train.tsv"],
               ((lang, t.head, t.rel, t.tail) for lang, t in ds.comp_train))
    write_rows(path["comp_test.tsv"], ((lang, t.head, t.rel, t.tail)
                                       for key in sorted(ds.comp_test)
                                       for lang, t in ds.comp_test[key]))


def _read_task_file(d: Path, name: str, known: dict, zs_un: dict) -> list[list[str]]:
    """Rows of a task file, read by `read_rows`, that have every label their
    query or training pair reads."""
    fields, labels = _TASK_FILES[name]
    rows = []
    for where, row in read_rows(d / name, fields, known, zs_un):
        for at_lang, at_record in labels:
            if row[at_lang] not in known[fields[at_record]][row[at_record]].labels:
                raise DataError(f"{where}: {fields[at_record]} {row[at_record]!r} "
                                f"has no label in {row[at_lang]!r}")
        rows.append(row)
    return rows


def load_dataset(data_dir) -> SyntheticDataset:
    """Reload a generated benchmark from its directory, reading each file once
    under the rules of data.py's docstring; a task record without a label its
    query or training pair reads is a DataError naming file and line too."""
    d = Path(data_dir)
    try:
        config = SyntheticConfig(**json.loads((d / "config.json").read_text(encoding="utf-8")))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{d / 'config.json'}: {exc}") from None
    mlkg = load_mlkg(d / "entities.tsv", d / "relations.tsv", d / "triples.tsv")
    split = load_split(d / "split.tsv")
    known = {"lang": set(split.all_langs), "entity": mlkg.entities, "relation": mlkg.relations}
    # each ZS-Un language's words end as transform_word ends the words of its
    # index among the generated codes, whatever category split.tsv gives it
    codes = _language_codes(len(_SUFFIX_SYLLABLES) + 1)
    zs_un = {lang: transform_word("", codes.index(lang)) if lang in codes else ""
             for lang in split.zs_un}
    align_train = [tuple(f) for f in _read_task_file(d, "align_train.tsv", known, zs_un)]
    align_test: dict[str, list[tuple[str, str, str]]] = {}
    for src, tgt, eid in _read_task_file(d, "align_test.tsv", known, {}):
        align_test.setdefault(tgt, []).append((src, tgt, eid))
    comp_train = [(lang, Triple(h, r, t))
                  for lang, h, r, t in _read_task_file(d, "comp_train.tsv", known, zs_un)]
    comp_test: dict[str, list[tuple[str, Triple]]] = {}
    for lang, h, r, t in _read_task_file(d, "comp_test.tsv", known, {}):
        comp_test.setdefault(lang, []).append((lang, Triple(h, r, t)))
    return SyntheticDataset(
        config=config, split=split, mlkg=mlkg,
        c1=load_c1(d / "c1.tsv", known, zs_un), c2=load_c2(d / "c2.tsv", known, zs_un),
        mlm_corpus=read_corpus(d / "mlm.tsv"),
        align_train=align_train, align_test=align_test,
        comp_train=comp_train, comp_test=comp_test)


def vocab_corpus(ds: SyntheticDataset) -> list[Sequence[str]]:
    """Token lists covering the MLM corpus plus every label in every language,
    so no entity or relation label ever tokenizes to UNK."""
    out = [tokens for _, tokens in ds.mlm_corpus]
    for coll in (ds.mlkg.entities, ds.mlkg.relations):
        for rec in coll.values():
            out.extend(rec.labels.values())
    out.extend(r.tokens for r in ds.c1)
    out.extend(r.tokens for r in ds.c2)
    return out
