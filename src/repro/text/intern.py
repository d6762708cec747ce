"""Token interning: dense int32 ids for the similarity kernels.

Intersecting ``frozenset[str]`` token sets pays string hashing on every
probe. A :class:`Vocabulary` maps each distinct token to a dense ``int32``
id exactly once; the :class:`~repro.runtime.cache.TokenCache` turns each
distinct cell into ``array('i')`` id arrays and a ``frozenset[int]``,
which the batch kernels in :mod:`repro.similarity.batch` intersect over
identity-hashed ints.

Ids are assigned in first-intern order. The token cache interns in the
tokenizer's emission order, so ids depend on interning history but never
on the string hash seed. Kernel results must only ever depend on id
*consistency* (equal tokens get equal ids within one vocabulary), never
on id values; the parity tests assert exactly that by permuting
interning order.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

#: Typecode used for all id arrays (C int: 32 bits on every supported
#: platform; a vocabulary outgrowing it is not a realistic corpus).
ID_TYPECODE = "i"


def id_array(ids: Iterable[int]) -> "array[int]":
    """An ``array('i')`` over *ids* (a compact id buffer)."""
    return array(ID_TYPECODE, ids)


class Vocabulary:
    """A bijective token <-> dense-id map shared across tables.

    One vocabulary must span every table participating in a comparison:
    ids are only comparable within the vocabulary that assigned them.
    The :class:`~repro.runtime.cache.TokenCache` owns one and interns both
    sides of every blocker/feature recipe through it.
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def intern(self, token: str) -> int:
        """The id of *token*, assigning the next dense id on first sight."""
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def intern_all(self, tokens: Iterable[str]) -> "array[int]":
        """Ids of *tokens* in iteration order (duplicates preserved)."""
        intern = self.intern
        return array(ID_TYPECODE, (intern(t) for t in tokens))

    def id_of(self, token: str) -> int | None:
        """The id of *token*, or ``None`` when it was never interned."""
        return self._ids.get(token)

    def token_of(self, tid: int) -> str:
        """The token a dense id stands for."""
        return self._tokens[tid]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Tokens for an id sequence (inverse of :meth:`intern_all`)."""
        tokens = self._tokens
        return [tokens[tid] for tid in ids]

    def tokens(self) -> list[str]:
        """All interned tokens, indexed by id (a fresh list)."""
        return list(self._tokens)
