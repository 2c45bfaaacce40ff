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

Every bounded integer the generator draws goes through `_Replay`, which
replays numpy's own rule for `rng.integers(lo, hi)` on blocks of the
Generator's 32-bit words instead of paying for one call per draw; `choice`,
`permutation` and `random` run on the Generator, which
`_Replay.generator()` first puts in the state the single calls would have
left. The rule is written once, in `_bulk_draws`, which decodes a draw of
one range at every word of a block. `_Replay.integers` reads its draws from
that, and C1, most of the draws at 5000 entities, goes further:
`_mention_sentences` peeks a chunk of the next words, decodes it for its
three ranges (lead length, context word, tail length), then walks from
sentence to sentence. Both read the same words in the same order under the
same rule, so the files are the bytes one call per draw wrote, and the
golden pins of the data files (`DATA_FILE_SHA256` in tests/test_golden.py,
and the larger configs of tests/test_synthetic.py) guard them.

`save_dataset` and `load_dataset` persist a benchmark as one directory whose
files, and their formats, are listed in data.py; every file is read and
written through data.py.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

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
        # every label and context word is a distinct word of _make_word's
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


_WORD = 2 ** 32
_BLOCK = 4096               # words a block reads
_SCALAR_DRAWS = 8           # draws after a hand-back made on the Generator itself
_CHUNK_WORDS = 3 * _BLOCK  # words a C1 chunk peeks: about 2k sentences of 5.5 words
_NO_WORDS = np.empty(0, dtype=np.uint32)


class _Replay:
    """`integers(lo, hi)` equal to `int(rng.integers(lo, hi))` for ranges of
    at most 2**32 values, replayed from blocks of the Generator's 32-bit words.

    `rng.integers(0, 2**32, size=k, dtype=np.uint32)` returns exactly the next
    k words of the stream the scalar calls draw from, and `_bulk_draws`
    applies numpy's rule for one scalar call to every word of such a block.
    So `integers` reads its value, and where the next draw starts, at the
    words used so far: each range is decoded once per block, and a draw costs
    two list lookups instead of a call.

    A block reads ahead of the words used. `generator()` hands the Generator
    back in the state the scalar calls would have left: it restores the state
    saved before the current block and redraws the words used of it. Every
    other draw, such as `choice`, `permutation` or `random`, goes through it.
    A block and its hand-back cost about ten scalar calls, so the first
    `_SCALAR_DRAWS` draws after a hand-back are scalar calls, and a short run
    of draws between two hand-backs reads no block.

    `peek(count)` hands out the next `count` words of the same stream as an
    array without using them, and `advance(k)` then uses the first k of them,
    so a caller can decode many draws at once with `_bulk_draws` and the draws
    after it, scalar or bulk, go on from the right word. A peek that needs
    more words than the current block holds hands the Generator back and
    reads a fresh block of at least `count` words. A draw of `integers` that
    finds no accepted word in the rest of the block needs no hand-back: those
    words are rejected whoever draws them, so it goes on in a fresh block read
    where the block ends.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._calls = 0             # scalar calls since the hand-back
        self._saved = None          # the state before the current block
        self._block = _NO_WORDS
        self._draws: dict[int, list[list[int]]] = {}    # range -> the block's `_bulk_draws`
        self._pos = 0               # words used of the current block

    def integers(self, lo: int, hi: int | None = None) -> int:
        if hi is None:
            lo, hi = 0, lo
        if self._calls < _SCALAR_DRAWS:
            self._calls += 1
            return int(self._rng.integers(lo, hi))
        n = hi - lo
        while True:
            if n not in self._draws:
                self._draws[n] = [a.tolist() for a in _bulk_draws(self._block, n)]
            values, after = self._draws[n]
            if after[self._pos] <= len(self._block):
                break
            # every word left rejects the draw, which goes on after the block
            self._read_block(_BLOCK)
        value, self._pos = values[self._pos], after[self._pos]
        return lo + value

    def peek(self, count: int) -> np.ndarray:
        if self._pos + count > len(self._block):
            self.generator()
            self._read_block(max(count, _BLOCK))
        return self._block[self._pos:self._pos + count]

    def advance(self, used: int) -> None:
        self._pos += used

    def _read_block(self, size: int) -> None:
        self._saved = self._rng.bit_generator.state
        self._block = self._rng.integers(0, _WORD, size=size, dtype=np.uint32)
        self._draws, self._pos = {}, 0
        self._calls = _SCALAR_DRAWS     # the draws after it go on from the block

    def generator(self) -> np.random.Generator:
        if self._saved is not None:
            self._rng.bit_generator.state = self._saved
            self._rng.integers(0, _WORD, size=self._pos, dtype=np.uint32)
            self._saved, self._block, self._draws, self._pos = None, _NO_WORDS, {}, 0
        self._calls = 0
        return self._rng


def _bulk_draws(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For a draw of range n (`rng.integers(n)`) starting at each word of
    `words`: its value and where the next draw starts.

    numpy draws such an integer with Lemire's method (arXiv:1805.10941): it
    takes the next word w, m = w * n, rejects the word and takes another
    while m mod 2**32 < (2**32 - n) mod n, and returns m >> 32; a range of
    one value takes no word. Both arrays are indexed by start
    0..len(words)+1, and a draw that finds no accepted word ends past
    len(words), as does every draw after it, so a caller tells a draw or a
    run of draws that ran out of words by where it ends."""
    end = len(words)
    if n == 1:
        return np.zeros(end + 2, dtype=np.int64), np.arange(end + 2)
    m = words.astype(np.uint64) * np.uint64(n)
    accepted = (m & np.uint64(_WORD - 1)) >= (_WORD - n) % n
    # the first accepted word at or after each start, end where there is none
    first = np.minimum.accumulate(np.where(accepted, np.arange(end), end)[::-1])[::-1]
    first = np.append(first, [end, end])
    values = np.append(m >> np.uint64(32), np.uint64(0)).astype(np.int64)
    return values[first], first + 1


def _mention_sentences(draw: _Replay, mentions: Iterator[tuple[str, str, int, list[str]]],
                       count: int, context_forms: list[list[str]]) -> list[TaggedSentence]:
    """A C1 sentence for each of the `count` (entity, language, language
    index, label tokens) of `mentions`, in order: lead length 1..3, that many
    context words, the label, tail length 1..2, that many context words and
    ".". The mentions are read a chunk at a time, so only a chunk's are held.

    The sentences of a chunk take their draws from one `peek` of
    `_CHUNK_WORDS` words, with the words and the rule of one `integers` call
    per draw. For every word a sentence could start at, numpy finds where
    each of its draws starts and where the sentence ends; the walk from
    sentence to sentence is one list lookup each. A sentence that runs past
    the chunk's words starts the next chunk. The values are then read at the
    starts the walk reached, and each sentence's tokens are laid out in a row
    of slots, so one list holds the chunk's tokens in order."""
    forms = np.array(context_forms, dtype=object)          # [language, context word]
    sentences: list[TaggedSentence] = []
    size = _CHUNK_WORDS
    while len(sentences) < count:
        words = draw.peek(size)
        lead_n, lead_at = _bulk_draws(words, 3)
        tail_n, tail_at = _bulk_draws(words, 2)
        ctx, ctx_at = _bulk_draws(words, forms.shape[1])
        # by the sentence's first word: where each context draw starts, used
        # or not, and where the sentence ends
        lead = [lead_at]
        for _ in range(3):
            lead.append(ctx_at[lead[-1]])
        after_lead = np.choose(lead_n, lead[1:])
        tail_n = tail_n[after_lead]
        tail = [tail_at[after_lead]]
        for _ in range(2):
            tail.append(ctx_at[tail[-1]])
        end = np.choose(tail_n, tail[1:]).tolist()
        last = len(words)
        starts, p = [], 0
        for _ in range(count - len(sentences)):
            if end[p] > last:
                break
            starts.append(p)
            p = end[p]
        draw.advance(p)
        if not starts:      # one sentence outruns the words (rejections): peek more
            size *= 2
            continue
        size = _CHUNK_WORDS
        at = np.array(starts, dtype=np.intp)
        chunk = list(itertools.islice(mentions, len(at)))
        lead_len, tail_len = lead_n[at] + 1, tail_n[at] + 1
        label_len = np.array([len(m[3]) for m in chunk], dtype=np.intp)
        # one row of slots per sentence: 3 lead words, the longest label's, 2
        # tail words and "."; the slots it uses, row by row, are the chunk's tokens
        slots = np.empty((len(at), 6 + label_len.max()), dtype=object)
        used = np.ones(slots.shape, dtype=bool)
        lang_at = np.array([m[2] for m in chunk], dtype=np.intp)[:, None]
        slots[:, :3] = forms[lang_at, ctx[np.stack([a[at] for a in lead[:3]], axis=1)]]
        slots[:, -3:-1] = forms[lang_at, ctx[np.stack([a[at] for a in tail[:2]], axis=1)]]
        slots[:, -1] = "."
        used[:, :3] = np.arange(3) < lead_len[:, None]
        used[:, 3:-3] = np.arange(slots.shape[1] - 6) < label_len[:, None]
        used[:, -3:-1] = np.arange(2) < tail_len[:, None]
        slots[:, 3:-3][used[:, 3:-3]] = np.array([t for m in chunk for t in m[3]], dtype=object)
        tokens = slots[used].tolist()
        ends = np.cumsum(used.sum(axis=1)).tolist()
        for (eid, lang, _, label), b, e, k in zip(chunk, [0] + ends, ends, lead_len.tolist()):
            sentences.append(TaggedSentence(lang, tokens[b:e], eid, (k, k + len(label) - 1)))
    return sentences


def _make_word(draw: _Replay, taken: set[str]) -> str:
    """A word of 2 or 3 syllables not in `taken`, which it joins; there are
    `_DISTINCT_WORDS` of them, and `SyntheticConfig` asks for no more."""
    while True:
        syllables = draw.integers(2, 4)
        w = "".join(_CONSONANTS[draw.integers(len(_CONSONANTS))]
                    + _VOWELS[draw.integers(len(_VOWELS))]
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
    draw = _Replay(np.random.default_rng(config.seed))
    languages = _language_codes(config.languages)
    lang_index = {lang: i for i, lang in enumerate(languages)}
    base = languages[0]
    split = assign_language_splits(languages, config.sup, config.zs_in, config.zs_un)

    taken: set[str] = set()
    entity_words = {f"e{i}": [_make_word(draw, taken)
                              for _ in range(draw.integers(1, config.label_max_words + 1))]
                    for i in range(config.entities)}
    relation_words = {f"r{i}": [_make_word(draw, taken)] for i in range(config.relations)}
    context_words = [_make_word(draw, taken) for _ in range(config.vocab_size)]

    def multilingual(words: list[str]) -> dict[str, str]:
        return {lang: " ".join(_transform(words, lang_index[lang])) for lang in languages}

    entities = {eid: Labelled(id=eid, labels=multilingual(ws))
                for eid, ws in entity_words.items()}
    relations = {rid: Labelled(id=rid, labels=multilingual(ws))
                 for rid, ws in relation_words.items()}

    # triples with relation-specific tail pools (type constraint)
    entity_ids = sorted(entities)
    pools = {rid: [entity_ids[j] for j in draw.generator().choice(
        len(entity_ids), size=min(config.relation_pool_size, len(entity_ids)),
        replace=False)] for rid in sorted(relations)}
    triples: list[Triple] = []
    seen_triples: set[Triple] = set()
    attempts = 0
    while len(triples) < config.triples and attempts < config.triples * 50:
        attempts += 1
        rid = f"r{draw.integers(config.relations)}"
        tail = pools[rid][draw.integers(len(pools[rid]))]
        head = entity_ids[draw.integers(len(entity_ids))]
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
    order = draw.generator().permutation(len(triples))
    n_test_t = _test_count(len(triples), config.test_fraction)
    test_triples = [triples[i] for i in order[:n_test_t]]
    train_triples = [triples[i] for i in order[n_test_t:]]

    ent_order = draw.generator().permutation(len(entity_ids))
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

    def ctx(k: int, li: int) -> list[str]:
        forms = context_forms[li]
        return [forms[draw.integers(len(forms))] for _ in range(k)]

    def entity_sentence(eid: str, lang: str) -> TaggedSentence:
        li = lang_index[lang]
        label_tokens = entities[eid].labels[lang].split()
        lead = ctx(draw.integers(1, 4), li)
        tail_ctx = ctx(draw.integers(1, 3), li)
        tokens = lead + label_tokens + tail_ctx + ["."]
        span = (len(lead), len(lead) + len(label_tokens) - 1)
        return TaggedSentence(lang=lang, tokens=tokens, entity_id=eid, span=span)

    # C1: entity mentions in context, adapter-training languages only; each
    # label is split once for all of its sentences
    c1 = _mention_sentences(draw, (
        mention for eid in entity_ids for lang in split.adapter_langs
        for mention in [(eid, lang, lang_index[lang], entities[eid].labels[lang].split())]
        * config.sentences_per_entity),
        len(entity_ids) * len(split.adapter_langs) * config.sentences_per_entity, context_forms)

    def triple_tokens(t: Triple, lang: str) -> tuple[list[str], tuple[int, int]]:
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
            u = draw.generator().random()
            if u < config.gloss_rate:
                eid = entity_ids[gloss_cursor % len(entity_ids)]
                gloss_cursor += 1
                if lang == base:
                    others = [l for l in languages if l != base]
                    other = others[draw.integers(len(others))]
                else:
                    other = base
                tokens = (entities[eid].labels[lang].split()
                          + entities[eid].labels[other].split()
                          + ctx(draw.integers(1, 3), li) + ["."])
            elif lang == base and u < config.gloss_rate + config.fact_rate:
                t = train_triples[draw.integers(len(train_triples))]
                tokens = triple_tokens(t, lang)[0]
            else:
                eid = entity_ids[draw.integers(len(entity_ids))]
                tokens = entity_sentence(eid, lang).tokens
            mlm.append((lang, tokens))

    return SyntheticDataset(
        config=config, split=split, mlkg=mlkg, c1=c1, c2=c2, mlm_corpus=mlm,
        align_train=align_train, align_test=align_test,
        comp_train=comp_train, comp_test=comp_test)


# ---------------------------------------------------------------------------
# persistence; load_dataset enforces ZS-Un absence from training files
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


def _read_task_file(d: Path, name: str, known: dict) -> list[list[str]]:
    """Rows of a task file whose every value belongs to the collection its
    field names and that have every label their query or training pair reads."""
    fields, labels = _TASK_FILES[name]
    rows = []
    for where, row in read_rows(d / name, len(fields), "<TAB>".join(fields)):
        for field, value in zip(fields, row):
            if value not in known[field]:
                raise DataError(f"{where}: unknown {field} {value!r}")
        for at_lang, at_record in labels:
            if row[at_lang] not in known[fields[at_record]][row[at_record]].labels:
                raise DataError(f"{where}: {fields[at_record]} {row[at_record]!r} "
                                f"has no label in {row[at_lang]!r}")
        rows.append(row)
    return rows


def load_dataset(data_dir) -> SyntheticDataset:
    """Reload a generated benchmark from its directory; a task record without a
    label its query or training pair reads is a DataError naming file and line."""
    d = Path(data_dir)
    try:
        config = SyntheticConfig(**json.loads((d / "config.json").read_text(encoding="utf-8")))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{d / 'config.json'}: {exc}") from None
    mlkg = load_mlkg(d / "entities.tsv", d / "relations.tsv", d / "triples.tsv")
    split = load_split(d / "split.tsv")
    known = {"lang": set(split.all_langs), "entity": mlkg.entities, "relation": mlkg.relations}
    align_train = [tuple(f) for f in _read_task_file(d, "align_train.tsv", known)]
    align_test: dict[str, list[tuple[str, str, str]]] = {}
    for src, tgt, eid in _read_task_file(d, "align_test.tsv", known):
        align_test.setdefault(tgt, []).append((src, tgt, eid))
    comp_train = [(lang, Triple(h, r, t))
                  for lang, h, r, t in _read_task_file(d, "comp_train.tsv", known)]
    comp_test: dict[str, list[tuple[str, Triple]]] = {}
    for lang, h, r, t in _read_task_file(d, "comp_test.tsv", known):
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
