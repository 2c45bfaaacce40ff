"""Whitespace tokenization over a shared multilingual vocabulary.

A token sequence is a plain list of ids. No id carries a language: the
encoder takes no language embedding, as mBERT and XLM-R take none, so a
language only decides which label text gets tokenized. The four special
tokens hold ids 0..3, and this module is the one place that says so.
"""

from __future__ import annotations

import itertools
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError

PAD, UNK, MASK, SEP = "<pad>", "<unk>", "<mask>", "<sep>"
SPECIALS = (PAD, UNK, MASK, SEP)
PAD_ID, UNK_ID, MASK_ID, SEP_ID = range(len(SPECIALS))


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

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        try:
            return cls(Path(path).read_text(encoding="utf-8").splitlines())
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None


def build_vocab(corpora: Iterable[Sequence[str]]) -> Vocab:
    """Count tokens over tokenized sentences; order by frequency desc, then token."""
    corpora = list(corpora)
    if not corpora:
        raise ValueError("build_vocab: empty corpora")
    counts = Counter(itertools.chain.from_iterable(corpora))
    kept = sorted(t for t in counts if t not in SPECIALS)
    kept.sort(key=counts.__getitem__, reverse=True)     # stable: ties stay by token
    return Vocab(list(SPECIALS) + kept)


def tokenize(tokens: Sequence[str], vocab: Vocab, max_len: int | None = None) -> list[int]:
    """Map tokens to ids; OOV tokens map to UNK and the ids are cut at max_len."""
    if not tokens:
        raise ValueError("tokenize: empty text")
    return [vocab.id(t) for t in tokens][:max_len]
