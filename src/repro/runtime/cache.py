"""Shared tokenization/normalization memo-cache.

Section 7 runs three blockers over the *same* title columns, and
down-sampling tokenizes them again: four full passes of
``tokenizer(normalizer(value))`` over identical inputs. :class:`TokenCache`
memoizes the per-column token sets keyed on
``(attr, tokenizer, normalizer)``, so a column is tokenized once per
distinct recipe no matter how many blockers ask.

On top of the string token sets the cache also owns a
:class:`~repro.text.intern.Vocabulary` and memoizes *interned* columns —
per-row sorted ``array('i')`` id arrays (and bag-order variants for
hybrid measures) — which is what the token blockers and the batch
kernels in :mod:`repro.similarity.batch` consume. A column is therefore tokenized
once per recipe and interned once per recipe, no matter how many
blockers and features ask.

Tables are held through a :class:`weakref.WeakKeyDictionary`, so cached
columns die with their table. Caching assumes the idiom the
:class:`~repro.table.table.Table` engine documents — columns are not
mutated in place (mutating methods return new tables) — a table whose
cell lists are edited behind the cache's back must be :meth:`clear`-ed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from ..table import Table
from ..table.column import is_missing
from ..text.intern import Vocabulary, id_array
from ..text.tokenizers import Tokenizer

Normalizer = Callable[[Any], Any]
#: One cached column: per-row token sets, ``None`` where the cell (or its
#: normalized form) is missing.
ColumnTokens = tuple["frozenset[str] | None", ...]


def lowercase(value: Any) -> str:
    """``str(value).lower()`` as a stable, cache-keyable normalizer.

    Case-insensitive (``_ci``) features lower-case the stringified cell
    before tokenizing; routing that through a module-level function keeps
    the ``(attr, tokenizer, normalizer)`` cache key identical across
    calls (a fresh lambda per call would never hit).
    """
    return str(value).lower()


@dataclass(frozen=True)
class InternedTokens:
    """One cell's interned token set.

    ``sorted`` holds the sorted unique ids (the CSR wire form);
    ``probe`` preserves the *iteration order of the underlying frozenset*,
    which is the order the overlap-coefficient blocker probes in, as ids.
    ``ids`` holds the same ids as a
    ``frozenset[int]`` for the blockers' verification step: CPython's
    C-level set intersection over small ints beats any Python-level merge
    loop, and the counts it yields are the same integers.
    """

    sorted: "Any"  # array('i'), sorted unique
    probe: "Any"  # array('i'), frozenset iteration order
    ids: "frozenset[int]"  # same ids, for C-speed intersection counts

    def __len__(self) -> int:
        return len(self.sorted)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counts of a :class:`TokenCache` (column-level)."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses


class TokenCache:
    """Memo-cache of tokenized columns, shared across blockers."""

    def __init__(self) -> None:
        self._tables: "weakref.WeakKeyDictionary[Table, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self.vocabulary = Vocabulary()
        self.hits = 0
        self.misses = 0

    def column_tokens(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> ColumnTokens:
        """Token sets for every row of ``table[attr]`` (cached).

        The returned tuple is aligned with row indices; missing cells (and
        cells a normalizer maps to missing) are ``None``.
        """
        per_table = self._tables.setdefault(table, {})
        key = (attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        out: list[frozenset[str] | None] = []
        for value in table[attr]:
            if is_missing(value):
                out.append(None)
                continue
            if normalizer is not None:
                value = normalizer(value)
                if is_missing(value):
                    out.append(None)
                    continue
            out.append(frozenset(tokenizer(str(value))))
        column = tuple(out)
        per_table[key] = column
        return column

    # ------------------------------------------------------------------
    # interned columns (the kernel substrate)
    # ------------------------------------------------------------------
    def column_token_ids(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> tuple["InternedTokens | None", ...]:
        """Interned token sets for every row of ``table[attr]`` (cached).

        Derived from (and aligned with) :meth:`column_tokens`: ``None``
        where that column is ``None``, an :class:`InternedTokens` entry
        otherwise. Rows whose cells hold *equal* token sets share one
        entry object, so chunk pickling ships each distinct cell once and
        identity-keyed memo tables collapse repeated cells.
        """
        per_table = self._tables.setdefault(table, {})
        key = ("ids", attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        intern = self.vocabulary.intern
        distinct: dict[frozenset, InternedTokens] = {}
        out: list[InternedTokens | None] = []
        for tokens in self.column_tokens(table, attr, tokenizer, normalizer):
            if tokens is None:
                out.append(None)
                continue
            entry = distinct.get(tokens)
            if entry is None:
                probe = id_array(intern(t) for t in tokens)
                entry = InternedTokens(id_array(sorted(probe)), probe, frozenset(probe))
                distinct[tokens] = entry
            out.append(entry)
        column = tuple(out)
        per_table[key] = column
        return column

    def column_token_bag_ids(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> tuple["Any | None", ...]:
        """Interned token *bags* (duplicates kept, tokenizer order) per row.

        Hybrid measures like Monge-Elkan average over the token bag in
        emission order, so they need the raw tokenizer output, not the
        set. Equal cells share one id array object (see
        :meth:`column_token_ids` for why that matters).
        """
        per_table = self._tables.setdefault(table, {})
        key = ("bag_ids", attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        intern_all = self.vocabulary.intern_all
        distinct: dict[str, Any] = {}
        out: list[Any | None] = []
        for value in table[attr]:
            if is_missing(value):
                out.append(None)
                continue
            if normalizer is not None:
                value = normalizer(value)
                if is_missing(value):
                    out.append(None)
                    continue
            text = str(value)
            ids = distinct.get(text)
            if ids is None:
                ids = distinct[text] = intern_all(tokenizer(text))
            out.append(ids)
        column = tuple(out)
        per_table[key] = column
        return column

    def token_ids_by_id(
        self,
        table: Table,
        attr: str,
        key_col: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> dict[Any, InternedTokens]:
        """``{record id: interned tokens}`` for non-missing, non-empty cells.

        Rows whose value is missing or tokenizes to nothing are absent;
        dict order is row order. A fresh dict is built per call (callers
        may mutate it); only the underlying entries are shared.
        """
        entries = self.column_token_ids(table, attr, tokenizer, normalizer)
        return {
            rid: entry
            for rid, entry in zip(table[key_col], entries)
            if entry is not None and len(entry)
        }

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses)

    def clear(self) -> None:
        self._tables = weakref.WeakKeyDictionary()
        self.vocabulary = Vocabulary()
        self.hits = 0
        self.misses = 0


#: Process-wide default cache; blockers fall back to this when no explicit
#: cache is passed, which is what lets independent blocker calls share work.
_DEFAULT_CACHE = TokenCache()


def get_default_cache() -> TokenCache:
    """The shared process-wide :class:`TokenCache`."""
    return _DEFAULT_CACHE
