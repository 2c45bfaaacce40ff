"""Multilingual KG data model and the format of every file in a benchmark's
data directory.

Every file is UTF-8. The .tsv files hold one TAB-separated record per line
(blank lines are skipped); `read_rows` reads and `write_rows` writes every one
of them, and a malformed line is a DataError naming its file and line. Tokens
are joined by single spaces; token spans are 0-based and inclusive.

  entities.tsv / relations.tsv     id TAB lang=label|lang=label|...
  triples.tsv                      head TAB rel TAB tail
  c1.tsv                           lang TAB entity_id TAB start TAB end TAB tokens
  c2.tsv                           head TAB rel TAB tail TAB start TAB end TAB tokens
  split.tsv                        category TAB language   (sup, zs_in or zs_un;
                                   at least one sup)
  mlm.tsv                          lang TAB tokens
  align_train.tsv / align_test.tsv src_lang TAB tgt_lang TAB entity_id
  comp_train.tsv / comp_test.tsv   lang TAB head TAB rel TAB tail
  config.json                      the SyntheticConfig fields as one JSON object
  vocab.txt                        one token per line in id order, the four
                                   special tokens first (see vocab.Vocab)

A label is a tuple of tokens everywhere in the program: this module alone
turns label text into tokens (`_parse_labels`) and back (`save_mlkg`), and a
file joins a label's tokens with single spaces, as it joins any tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, check_fields

CATEGORIES = ("sup", "zs_in", "zs_un")


@dataclass
class Labelled:
    """An entity or a relation: an id and its label (token tuple) in each language."""

    id: str
    labels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.labels:
            raise DataError(f"{self.id!r} has no labels")
        for lang, label in self.labels.items():
            if type(label) is not tuple:
                raise DataError(f"{self.id!r} has a label in {lang!r} that is not "
                                f"a token tuple: {label!r}")
            if not label:
                raise DataError(f"{self.id!r} has a label with no tokens in {lang!r}")


@dataclass(frozen=True)
class Triple:
    head: str
    rel: str
    tail: str


@dataclass
class TaggedSentence:
    """C1 record: an entity mention with its token span inside a sentence."""

    lang: str
    tokens: list[str]
    entity_id: str
    span: tuple[int, int]


@dataclass
class TripleSentence:
    """C2 record: a sentence realizing a triple, with the object span marked."""

    tokens: list[str]
    triple: Triple
    obj_span: tuple[int, int]


@dataclass
class LanguageSplit:
    sup: list[str]
    zs_in: list[str]
    zs_un: list[str]

    def __post_init__(self):
        check_fields(self, {})
        cats = [set(self.sup), set(self.zs_in), set(self.zs_un)]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = cats[i] & cats[j]
                if overlap:
                    raise DataError(f"language categories overlap on {sorted(overlap)}")

    @property
    def adapter_langs(self) -> list[str]:
        """Languages usable in adapter training (Sup plus ZS-In)."""
        return list(self.sup) + list(self.zs_in)

    @property
    def all_langs(self) -> list[str]:
        return list(self.sup) + list(self.zs_in) + list(self.zs_un)

    def category(self, lang: str) -> str:
        if lang in self.sup:
            return "sup"
        if lang in self.zs_in:
            return "zs_in"
        if lang in self.zs_un:
            return "zs_un"
        raise KeyError(lang)


@dataclass
class MLKG:
    entities: dict[str, Labelled] = field(default_factory=dict)
    relations: dict[str, Labelled] = field(default_factory=dict)
    triples: list[Triple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def read_rows(path, n_fields: int, what: str) -> Iterator[tuple[str, list[str]]]:
    """Yield (f"{path}:{lineno}", fields) for every non-blank line of a TSV file.

    A line without exactly n_fields TAB-separated fields is a DataError that
    names its location and the expected fields, `what`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    prefix = f"{path}:"         # formatted once: a location is built for every line
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataError(f"{prefix}{lineno}: expected {what}, got {len(fields)} fields")
        yield prefix + str(lineno), fields


def write_rows(path, rows: Iterable[Sequence[str]]) -> None:
    """Write each row as one line of TAB-joined fields."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


def _parse_labels(payload: str) -> dict[str, tuple[str, ...]]:
    """lang=label pairs joined by "|", each label's tokens by spaces."""
    labels = {}
    for part in payload.split("|"):
        if "=" not in part:
            raise DataError(f"malformed lang=label pair {part!r}")
        lang, label = part.split("=", 1)
        if lang in labels:
            raise DataError(f"duplicate language {lang!r}")
        labels[lang] = tuple(label.split())
    return labels


def _read_labelled(path) -> dict[str, Labelled]:
    out = {}
    for where, (rid, payload) in read_rows(path, 2, "id<TAB>labels"):
        if rid in out:
            raise DataError(f"{where}: duplicate id {rid!r}")
        try:
            out[rid] = Labelled(id=rid, labels=_parse_labels(payload))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return out


def _span(where: str, start: str, end: str, tokens: list[str]) -> tuple[int, int]:
    """Parse a 0-based inclusive token span and check that it lies in the sentence."""
    try:
        span = (int(start), int(end))
    except ValueError:
        raise DataError(f"{where}: span {start!r}..{end!r} is not two integers") from None
    if not 0 <= span[0] <= span[1] < len(tokens):
        raise DataError(f"{where}: span {span} out of bounds")
    return span


def load_mlkg(entities_path, relations_path, triples_path) -> MLKG:
    """Load and referentially validate a multilingual KG from three files."""
    entities = _read_labelled(entities_path)
    relations = _read_labelled(relations_path)
    triples = []
    for where, (h, r, t) in read_rows(triples_path, 3, "head<TAB>rel<TAB>tail"):
        if h not in entities:
            raise DataError(f"{where}: unknown head entity {h!r}")
        if t not in entities:
            raise DataError(f"{where}: unknown tail entity {t!r}")
        if r not in relations:
            raise DataError(f"{where}: unknown relation {r!r}")
        triples.append(Triple(h, r, t))
    return MLKG(entities=entities, relations=relations, triples=triples)


def save_mlkg(mlkg: MLKG, entities_path, relations_path, triples_path) -> None:
    for records, path in ((mlkg.entities, entities_path), (mlkg.relations, relations_path)):
        write_rows(path, ((rid, "|".join(f"{lang}={' '.join(label)}" for lang, label
                                         in sorted(records[rid].labels.items())))
                          for rid in sorted(records)))
    write_rows(triples_path, ((t.head, t.rel, t.tail) for t in mlkg.triples))


def load_c1(path, mlkg: MLKG) -> list[TaggedSentence]:
    out = []
    for where, (lang, eid, start, end, text) in read_rows(
            path, 5, "lang<TAB>entity<TAB>start<TAB>end<TAB>tokens"):
        tokens = text.split()
        if eid not in mlkg.entities:
            raise DataError(f"{where}: unknown entity {eid!r}")
        span = _span(where, start, end, tokens)
        label = mlkg.entities[eid].labels.get(lang)
        if label is None or tuple(tokens[span[0]:span[1] + 1]) != label:
            raise DataError(f"{where}: span does not match label of {eid!r} in {lang!r}")
        out.append(TaggedSentence(lang=lang, tokens=tokens, entity_id=eid, span=span))
    return out


def save_c1(path, records: Iterable[TaggedSentence]) -> None:
    write_rows(path, ((r.lang, r.entity_id, str(r.span[0]), str(r.span[1]), " ".join(r.tokens))
                      for r in records))


def load_c2(path, mlkg: MLKG) -> list[TripleSentence]:
    out = []
    for where, (h, r, t, start, end, text) in read_rows(
            path, 6, "head<TAB>rel<TAB>tail<TAB>start<TAB>end<TAB>tokens"):
        tokens = text.split()
        if h not in mlkg.entities or t not in mlkg.entities or r not in mlkg.relations:
            raise DataError(f"{where}: triple does not resolve")
        span = _span(where, start, end, tokens)
        if tuple(tokens[span[0]:span[1] + 1]) not in mlkg.entities[t].labels.values():
            raise DataError(f"{where}: object span does not match any label of {t!r}")
        if span[1] - span[0] + 1 >= len(tokens):
            raise DataError(f"{where}: sentence is only the object label (empty context)")
        out.append(TripleSentence(tokens=tokens, triple=Triple(h, r, t), obj_span=span))
    return out


def save_c2(path, records: Iterable[TripleSentence]) -> None:
    write_rows(path, ((r.triple.head, r.triple.rel, r.triple.tail, str(r.obj_span[0]),
                       str(r.obj_span[1]), " ".join(r.tokens)) for r in records))


def load_split(path) -> LanguageSplit:
    cats: dict[str, list[str]] = {cat: [] for cat in CATEGORIES}
    for where, (cat, lang) in read_rows(path, 2, "category<TAB>language"):
        if cat not in cats:
            raise DataError(f"{where}: unknown category {cat!r} (have {CATEGORIES})")
        cats[cat].append(lang)
    if not cats["sup"]:
        raise DataError(f"{path}: no supervised (sup) language")
    try:
        return LanguageSplit(**cats)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_split(path, split: LanguageSplit) -> None:
    write_rows(path, ((cat, lang) for cat in CATEGORIES for lang in getattr(split, cat)))


def read_corpus(path) -> list[tuple[str, list[str]]]:
    """Read a lang<TAB>tokens file into (lang, tokens) records; a line without
    tokens, or a file without records, is a DataError naming where."""
    records = []
    for where, (lang, text) in read_rows(path, 2, "lang<TAB>tokens"):
        tokens = text.split()
        if not tokens:
            raise DataError(f"{where}: sentence without tokens")
        records.append((lang, tokens))
    if not records:
        raise DataError(f"{path}: no sentence")
    return records


def write_corpus(path, records: Iterable[tuple[str, Sequence[str]]]) -> None:
    write_rows(path, ((lang, " ".join(tokens)) for lang, tokens in records))


def assign_language_splits(languages: Sequence[str], sup: int, zs_in: int,
                           zs_un: int) -> LanguageSplit:
    """Deterministic category assignment in the given language order; the
    sizes are non-negative, as `SyntheticConfig` checks."""
    if sup + zs_in + zs_un > len(languages):
        raise DataError(
            f"category sizes {sup}+{zs_in}+{zs_un} exceed {len(languages)} languages")
    langs = list(languages)
    return LanguageSplit(sup=langs[:sup], zs_in=langs[sup:sup + zs_in],
                         zs_un=langs[sup + zs_in:sup + zs_in + zs_un])
