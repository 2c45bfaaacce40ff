"""Whitespace tokenization over a shared multilingual vocabulary."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

PAD, UNK, MASK, SEP = "<pad>", "<unk>", "<mask>", "<sep>"
SPECIALS = (PAD, UNK, MASK, SEP)


class Vocab:
    """Dense token -> id mapping with the four specials at ids 0..3."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != SPECIALS:
            raise ValueError("vocab must start with the special tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @property
    def unk_id(self) -> int:
        return 1

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


def build_vocab(corpora: Iterable[Sequence[str]], min_freq: int = 1) -> Vocab:
    """Count tokens over tokenized sentences; order by frequency desc, then token."""
    counts: Counter = Counter()
    empty = True
    for sent in corpora:
        empty = False
        counts.update(sent)
    if empty:
        raise ValueError("build_vocab: empty corpora")
    kept = sorted((t for t, c in counts.items() if c >= min_freq and t not in SPECIALS),
                  key=lambda t: (-counts[t], t))
    return Vocab(list(SPECIALS) + kept)


@dataclass
class TokenSeq:
    """Token ids with language tag and attention mask (0 marks PAD)."""

    ids: list[int]
    lang: str
    mask: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.mask:
            self.mask = [1] * len(self.ids)
        if len(self.mask) != len(self.ids):
            raise ValueError("TokenSeq: ids and mask lengths differ")

    def __len__(self) -> int:
        return len(self.ids)


def tokenize(text: str | Sequence[str], lang: str, vocab: Vocab,
             max_len: int | None = None) -> TokenSeq:
    """Map whitespace-split text (or already split tokens) to ids.

    OOV tokens map to UNK; the sequence is truncated at max_len.
    """
    tokens = text.split() if isinstance(text, str) else text
    if not tokens:
        raise ValueError("tokenize: empty text")
    return TokenSeq(ids=[vocab.id(t) for t in tokens][:max_len], lang=lang)


def read_corpus(path) -> list[tuple[str, list[str]]]:
    """Read a lang<TAB>sentence file into (lang, tokens) records."""
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{lineno}: missing lang<TAB> prefix")
        lang, text = line.split("\t", 1)
        out.append((lang, text.split()))
    return out


def write_corpus(path, records: Iterable[tuple[str, Sequence[str]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lang, tokens in records:
            fh.write(f"{lang}\t{' '.join(tokens)}\n")
