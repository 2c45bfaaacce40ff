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
never contain unseen-category languages, and `load_dataset` rejects a data
directory whose files do.

`save_dataset` and `load_dataset` persist a benchmark as one directory whose
files, and their formats, are listed in data.py; every file is read and
written through data.py.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (Labelled, LanguageSplit, MLKG, TaggedSentence,
                   Triple, TripleSentence, assign_language_splits, load_c1,
                   load_c2, load_mlkg, load_split, read_corpus, read_rows,
                   save_c1, save_c2, save_mlkg, save_split, write_corpus,
                   write_rows)
from .errors import ConfigError, DataError, check_number_fields

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
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
        check_number_fields(self)
        if self.entities < 10:
            raise ConfigError("need at least 10 entities")
        if self.relations < 2:
            raise ConfigError("need at least 2 relations")
        if self.languages < 3:
            raise ConfigError("need at least 3 languages")
        for name in ("triples", "sentences_per_entity", "vocab_size", "relation_pool_size",
                     "mlm_sentences_per_lang", "label_max_words"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("gloss_rate", "fact_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.sup + self.zs_in + self.zs_un != self.languages:
            raise ConfigError(
                f"split sizes {self.sup}+{self.zs_in}+{self.zs_un} must equal "
                f"{self.languages} languages")
        if self.sup < 1:
            raise ConfigError("need at least one supervised language")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0,1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, one in (("triples", "triple"), ("entities", "entity")):
            n = getattr(self, name)
            if _test_count(n, self.test_fraction) >= n:
                raise ConfigError(f"{name} ({n}) must leave a training {one} "
                                  f"beside the test split (test_fraction {self.test_fraction})")
        if len(_SUFFIX_SYLLABLES) < self.languages - 1:
            raise ConfigError(f"at most {len(_SUFFIX_SYLLABLES) + 1} languages supported")


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

    @property
    def base_lang(self) -> str:
        return self.split.sup[0]


def _test_count(n: int, test_fraction: float) -> int:
    """How many of n triples or entities the test split holds out."""
    return max(1, int(round(n * test_fraction)))


def _language_codes(n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(p) for p in itertools.islice(itertools.product(letters, repeat=2), n)]


def _make_word(rng: np.random.Generator, taken: set[str]) -> str:
    while True:
        syllables = int(rng.integers(2, 4))
        w = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                    + _VOWELS[int(rng.integers(len(_VOWELS)))]
                    for _ in range(syllables))
        if w not in taken:
            taken.add(w)
            return w


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

    taken: set[str] = set()
    entity_words = {f"e{i}": [_make_word(rng, taken)
                              for _ in range(int(rng.integers(1, config.label_max_words + 1)))]
                    for i in range(config.entities)}
    relation_words = {f"r{i}": [_make_word(rng, taken)] for i in range(config.relations)}
    context_words = [_make_word(rng, taken) for _ in range(config.vocab_size)]

    def multilingual(words: list[str]) -> dict[str, str]:
        return {lang: " ".join(_transform(words, lang_index[lang])) for lang in languages}

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
        rid = f"r{int(rng.integers(config.relations))}"
        tail = pools[rid][int(rng.integers(len(pools[rid])))]
        head = entity_ids[int(rng.integers(len(entity_ids)))]
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

    def ctx(k: int, li: int) -> list[str]:
        return _transform([context_words[int(rng.integers(len(context_words)))]
                           for _ in range(k)], li)

    def entity_sentence(eid: str, lang: str) -> TaggedSentence:
        li = lang_index[lang]
        label_tokens = entities[eid].labels[lang].split()
        lead = ctx(int(rng.integers(1, 4)), li)
        tail_ctx = ctx(int(rng.integers(1, 3)), li)
        tokens = lead + label_tokens + tail_ctx + ["."]
        span = (len(lead), len(lead) + len(label_tokens) - 1)
        return TaggedSentence(lang=lang, tokens=tokens, entity_id=eid, span=span)

    # C1: entity mentions in context, adapter-training languages only
    c1: list[TaggedSentence] = []
    for eid in entity_ids:
        for lang in split.adapter_langs:
            for _ in range(config.sentences_per_entity):
                c1.append(entity_sentence(eid, lang))

    def triple_tokens(t: Triple, lang: str) -> tuple[list[str], tuple[int, int]]:
        li = lang_index[lang]
        h = entities[t.head].labels[lang].split()
        r = relations[t.rel].labels[lang].split()
        o = entities[t.tail].labels[lang].split()
        tokens = h + r + o + ["."]
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
    gloss_cursor = 0
    for lang in languages:
        li = lang_index[lang]
        for _ in range(config.mlm_sentences_per_lang):
            draw = rng.random()
            if draw < config.gloss_rate:
                eid = entity_ids[gloss_cursor % len(entity_ids)]
                gloss_cursor += 1
                if lang == base:
                    others = [l for l in languages if l != base]
                    other = others[int(rng.integers(len(others)))]
                else:
                    other = base
                tokens = (entities[eid].labels[lang].split()
                          + entities[eid].labels[other].split()
                          + ctx(int(rng.integers(1, 3)), li) + ["."])
            elif lang == base and draw < config.gloss_rate + config.fact_rate:
                t = train_triples[int(rng.integers(len(train_triples)))]
                tokens = triple_tokens(t, lang)[0]
            else:
                eid = entity_ids[int(rng.integers(len(entity_ids)))]
                tokens = entity_sentence(eid, lang).tokens
            mlm.append((lang, tokens))

    return SyntheticDataset(
        config=config, split=split, mlkg=mlkg, c1=c1, c2=c2, mlm_corpus=mlm,
        align_train=align_train, align_test=align_test,
        comp_train=comp_train, comp_test=comp_test)


# ---------------------------------------------------------------------------
# persistence; load_dataset enforces ZS-Un absence from training files
# ---------------------------------------------------------------------------

# task file fields: each names the collection its values must belong to
_PAIR = ("lang", "lang", "entity")
_TASK = ("lang", "entity", "relation", "entity")


def save_dataset(ds: SyntheticDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(asdict(ds.config), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_mlkg(ds.mlkg, out / "entities.tsv", out / "relations.tsv", out / "triples.tsv")
    save_c1(out / "c1.tsv", ds.c1)
    save_c2(out / "c2.tsv", ds.c2)
    save_split(out / "split.tsv", ds.split)
    write_corpus(out / "mlm.tsv", ds.mlm_corpus)
    write_rows(out / "align_train.tsv", ds.align_train)
    write_rows(out / "align_test.tsv",
               (p for tgt in sorted(ds.align_test) for p in ds.align_test[tgt]))
    write_rows(out / "comp_train.tsv", ((lang, t.head, t.rel, t.tail) for lang, t in ds.comp_train))
    write_rows(out / "comp_test.tsv", ((lang, t.head, t.rel, t.tail) for key in sorted(ds.comp_test)
                                       for lang, t in ds.comp_test[key]))


def _read_task_file(path, fields: tuple[str, ...], known: dict) -> list[list[str]]:
    """Rows of a task file whose every value belongs to the collection its field names."""
    rows = []
    for where, row in read_rows(path, len(fields), "<TAB>".join(fields)):
        for name, value in zip(fields, row):
            if value not in known[name]:
                raise DataError(f"{where}: unknown {name} {value!r}")
        rows.append(row)
    return rows


def load_dataset(data_dir) -> SyntheticDataset:
    """Reload a generated benchmark from its directory."""
    d = Path(data_dir)
    try:
        config = SyntheticConfig(**json.loads((d / "config.json").read_text(encoding="utf-8")))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{d / 'config.json'}: {exc}") from None
    mlkg = load_mlkg(d / "entities.tsv", d / "relations.tsv", d / "triples.tsv")
    split = load_split(d / "split.tsv")
    known = {"lang": set(split.all_langs), "entity": mlkg.entities, "relation": mlkg.relations}
    align_train = [tuple(f) for f in _read_task_file(d / "align_train.tsv", _PAIR, known)]
    align_test: dict[str, list[tuple[str, str, str]]] = {}
    for src, tgt, eid in _read_task_file(d / "align_test.tsv", _PAIR, known):
        align_test.setdefault(tgt, []).append((src, tgt, eid))
    comp_train = [(lang, Triple(h, r, t))
                  for lang, h, r, t in _read_task_file(d / "comp_train.tsv", _TASK, known)]
    comp_test: dict[str, list[tuple[str, Triple]]] = {}
    for lang, h, r, t in _read_task_file(d / "comp_test.tsv", _TASK, known):
        comp_test.setdefault(lang, []).append((lang, Triple(h, r, t)))
    ds = SyntheticDataset(
        config=config, split=split, mlkg=mlkg,
        c1=load_c1(d / "c1.tsv", mlkg), c2=load_c2(d / "c2.tsv", mlkg),
        mlm_corpus=read_corpus(d / "mlm.tsv"),
        align_train=align_train, align_test=align_test,
        comp_train=comp_train, comp_test=comp_test)
    _check_zs_un_absence(ds, d)
    return ds


def _check_zs_un_absence(ds: SyntheticDataset, d: Path) -> None:
    """Zero-shot-unseen languages never reach adapter training or finetuning.

    A record of c1.tsv, align_train.tsv or comp_train.tsv in a ZS-Un language,
    or a c1.tsv or c2.tsv sentence with a token of one (a token ending in its
    suffix), is a DataError naming the file and line.
    """
    unseen = set(ds.split.zs_un)
    # gen_synthetic gives codes[i] the suffix of language index i, whatever
    # category split.tsv puts it in
    codes = _language_codes(len(_SUFFIX_SYLLABLES) + 1)
    ends = [f"-{_SUFFIX_SYLLABLES[codes.index(lang) - 1]} " for lang in sorted(unseen)
            if lang in codes[1:]]

    def leaks(langs: list[str], sentences: list[list[str]]) -> bool:
        # tokens hold no whitespace, so a token ends with a suffix exactly
        # where the suffix is followed by a space in the joined text
        text = " ".join([" ".join(tokens) for tokens in sentences]) + " "
        return not unseen.isdisjoint(langs) or any(end in text for end in ends)

    # file -> (fields per line, records, the records' languages and sentences)
    files = {
        "c1.tsv": (5, ds.c1, lambda rs: ([r.lang for r in rs], [r.tokens for r in rs])),
        "c2.tsv": (6, ds.c2, lambda rs: ([], [r.tokens for r in rs])),
        "align_train.tsv": (3, ds.align_train, lambda rs: ([l for p in rs for l in p[:2]], [])),
        "comp_train.tsv": (4, ds.comp_train, lambda rs: ([lang for lang, _ in rs], [])),
    }
    for name, (n_fields, records, parts) in files.items():
        if not leaks(*parts(records)):
            continue
        i = next(i for i, r in enumerate(records) if leaks(*parts([r])))
        # the i-th record was read from the i-th non-blank line of its file
        where, _ = next(itertools.islice(read_rows(d / name, n_fields, ""), i, None))
        raise DataError(f"{where}: training record in a zero-shot-unseen language "
                        f"(ZS-Un is {', '.join(sorted(unseen))})")


def vocab_corpus(ds: SyntheticDataset) -> list[list[str]]:
    """Token lists covering the MLM corpus plus every label in every language,
    so no entity or relation label ever tokenizes to UNK."""
    out = [tokens for _, tokens in ds.mlm_corpus]
    for coll in (ds.mlkg.entities, ds.mlkg.relations):
        for rec in coll.values():
            for label in rec.labels.values():
                out.append(label.split())
    out.extend(r.tokens for r in ds.c1)
    out.extend(r.tokens for r in ds.c2)
    return out
