"""Multilingual KG data model, line-delimited file formats, and the
preprocessing filters applied before adapter training.

File formats (all UTF-8, TAB-separated, token positions 0-based inclusive):
  entities.tsv / relations.tsv   id TAB lang=label|lang=label|...
  triples.tsv                    head TAB rel TAB tail
  c1.tsv                         lang TAB entity_id TAB start TAB end TAB tokens
  c2.tsv                         head TAB rel TAB tail TAB start TAB end TAB tokens
  split.tsv                      category TAB language
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError


@dataclass
class Entity:
    id: str
    labels: dict[str, str]

    def __post_init__(self):
        if not self.labels:
            raise DataError(f"entity {self.id!r} has no labels")
        if any(not v for v in self.labels.values()):
            raise DataError(f"entity {self.id!r} has an empty label")


@dataclass
class Relation:
    id: str
    labels: dict[str, str]

    def __post_init__(self):
        if not self.labels:
            raise DataError(f"relation {self.id!r} has no labels")


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
    entities: dict[str, Entity] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)
    triples: list[Triple] = field(default_factory=list)

    def stats(self) -> dict[str, int]:
        """Table-style corpus statistics: entities, alignment pairs, triples, relations."""
        pairs = sum(n * (n - 1) // 2 for n in
                    (len(e.labels) for e in self.entities.values()))
        return {"entities": len(self.entities), "alignment_pairs": pairs,
                "triples": len(self.triples), "relations": len(self.relations)}

    def validate(self) -> None:
        for t in self.triples:
            if t.head not in self.entities or t.tail not in self.entities:
                raise DataError(f"triple {t} references unknown entity")
            if t.rel not in self.relations:
                raise DataError(f"triple {t} references unknown relation")


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def _parse_labels(payload: str, path, lineno: int) -> dict[str, str]:
    labels = {}
    for part in payload.split("|"):
        if "=" not in part:
            raise DataError(f"{path}:{lineno}: malformed lang=label pair {part!r}")
        lang, label = part.split("=", 1)
        if lang in labels:
            raise DataError(f"{path}:{lineno}: duplicate language {lang!r}")
        labels[lang] = label
    return labels


def _read_labelled(path, cls) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected id<TAB>labels, got {len(fields)} fields")
        rid, payload = fields
        if rid in out:
            raise DataError(f"{path}:{lineno}: duplicate id {rid!r}")
        out[rid] = cls(id=rid, labels=_parse_labels(payload, path, lineno))
    return out


def load_mlkg(entities_path, relations_path, triples_path) -> MLKG:
    """Load and referentially validate a multilingual KG from three files."""
    entities = _read_labelled(entities_path, Entity)
    relations = _read_labelled(relations_path, Relation)
    triples = []
    for lineno, line in enumerate(Path(triples_path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{triples_path}:{lineno}: expected head<TAB>rel<TAB>tail")
        h, r, t = fields
        if h not in entities:
            raise DataError(f"{triples_path}:{lineno}: unknown head entity {h!r}")
        if t not in entities:
            raise DataError(f"{triples_path}:{lineno}: unknown tail entity {t!r}")
        if r not in relations:
            raise DataError(f"{triples_path}:{lineno}: unknown relation {r!r}")
        triples.append(Triple(h, r, t))
    return MLKG(entities=entities, relations=relations, triples=triples)


def save_mlkg(mlkg: MLKG, entities_path, relations_path, triples_path) -> None:
    def dump(records: dict, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rid in sorted(records):
                labels = records[rid].labels
                payload = "|".join(f"{lang}={labels[lang]}" for lang in sorted(labels))
                fh.write(f"{rid}\t{payload}\n")

    dump(mlkg.entities, entities_path)
    dump(mlkg.relations, relations_path)
    with open(triples_path, "w", encoding="utf-8") as fh:
        for t in mlkg.triples:
            fh.write(f"{t.head}\t{t.rel}\t{t.tail}\n")


def load_c1(path, mlkg: MLKG) -> list[TaggedSentence]:
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        lang, eid, start, end, text = fields
        tokens = text.split()
        span = (int(start), int(end))
        if eid not in mlkg.entities:
            raise DataError(f"{path}:{lineno}: unknown entity {eid!r}")
        if not (0 <= span[0] <= span[1] < len(tokens)):
            raise DataError(f"{path}:{lineno}: span {span} out of bounds")
        label = mlkg.entities[eid].labels.get(lang)
        if label is None or tokens[span[0]:span[1] + 1] != label.split():
            raise DataError(f"{path}:{lineno}: span does not match label of {eid!r} in {lang!r}")
        out.append(TaggedSentence(lang=lang, tokens=tokens, entity_id=eid, span=span))
    return out


def save_c1(path, records: Iterable[TaggedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(f"{r.lang}\t{r.entity_id}\t{r.span[0]}\t{r.span[1]}\t{' '.join(r.tokens)}\n")


def load_c2(path, mlkg: MLKG) -> list[TripleSentence]:
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        h, r, t, start, end, text = fields
        tokens = text.split()
        span = (int(start), int(end))
        triple = Triple(h, r, t)
        if h not in mlkg.entities or t not in mlkg.entities or r not in mlkg.relations:
            raise DataError(f"{path}:{lineno}: triple does not resolve")
        if not (0 <= span[0] <= span[1] < len(tokens)):
            raise DataError(f"{path}:{lineno}: span {span} out of bounds")
        span_text = " ".join(tokens[span[0]:span[1] + 1])
        if span_text not in mlkg.entities[t].labels.values():
            raise DataError(f"{path}:{lineno}: object span does not match any label of {t!r}")
        if span[1] - span[0] + 1 >= len(tokens):
            raise DataError(f"{path}:{lineno}: sentence is only the object label (empty context)")
        out.append(TripleSentence(tokens=tokens, triple=triple, obj_span=span))
    return out


def save_c2(path, records: Iterable[TripleSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            t = r.triple
            fh.write(f"{t.head}\t{t.rel}\t{t.tail}\t{r.obj_span[0]}\t{r.obj_span[1]}"
                     f"\t{' '.join(r.tokens)}\n")


def load_split(path) -> LanguageSplit:
    cats: dict[str, list[str]] = {"sup": [], "zs_in": [], "zs_un": []}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or fields[0] not in cats:
            raise DataError(f"{path}:{lineno}: expected category<TAB>language")
        cats[fields[0]].append(fields[1])
    return LanguageSplit(sup=cats["sup"], zs_in=cats["zs_in"], zs_un=cats["zs_un"])


def save_split(path, split: LanguageSplit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cat, langs in (("sup", split.sup), ("zs_in", split.zs_in), ("zs_un", split.zs_un)):
            for lang in langs:
                fh.write(f"{cat}\t{lang}\n")


# ---------------------------------------------------------------------------
# preprocessing filters
# ---------------------------------------------------------------------------

def filter_entities(mlkg: MLKG, min_labels: int = 10) -> MLKG:
    """Keep entities with strictly more than min_labels multilingual labels.

    Triples are re-filtered so both endpoints survive.
    """
    kept = {eid: e for eid, e in mlkg.entities.items() if len(e.labels) > min_labels}
    return MLKG(entities=kept, relations=dict(mlkg.relations),
                triples=filter_triples(mlkg, set(kept)))


def filter_triples(mlkg: MLKG, surviving: set[str]) -> list[Triple]:
    """Triples whose head and tail are both in the surviving entity set."""
    return [t for t in mlkg.triples if t.head in surviving and t.tail in surviving]


def filter_descriptions(c1: Sequence[TaggedSentence], min_langs: int = 2) -> list[TaggedSentence]:
    """Keep an entity's tagged sentences only if it is described in >= min_langs languages."""
    langs_per_entity: dict[str, set[str]] = {}
    for r in c1:
        langs_per_entity.setdefault(r.entity_id, set()).add(r.lang)
    return [r for r in c1 if len(langs_per_entity[r.entity_id]) >= min_langs]


def assign_language_splits(languages: Sequence[str], sup: int, zs_in: int,
                           zs_un: int) -> LanguageSplit:
    """Deterministic category assignment in the given language order."""
    if sup + zs_in + zs_un > len(languages):
        raise DataError(
            f"category sizes {sup}+{zs_in}+{zs_un} exceed {len(languages)} languages")
    if min(sup, zs_in, zs_un) < 0:
        raise DataError("category sizes must be non-negative")
    langs = list(languages)
    return LanguageSplit(sup=langs[:sup], zs_in=langs[sup:sup + zs_in],
                         zs_un=langs[sup + zs_in:sup + zs_in + zs_un])
