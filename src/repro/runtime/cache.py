"""Shared tokenization/normalization memo-cache.

Section 7 runs three blockers over the *same* title columns,
down-sampling and the blocking debugger tokenize them again, and the
Section-9 features tokenize them once more. :class:`TokenCache` gives each
``(table, attr, tokenizer, normalizer)`` recipe one tokenization pass, so
a column is tokenized once per recipe no matter how many stages ask.
Equal columns share that pass: a recipe whose normalized texts equal,
in order, those of a column the same tokenizer already turned into
entries for a live table gets that column back (Section 10 hands the
Figure-10 workflow the same USDA table twice, as two tables).

That pass yields one :class:`InternedTokens` entry per distinct
normalized text: its token bag, its unique probe order and its id set,
all over the ids of the cache's :class:`~repro.text.intern.Vocabulary`.
Tokens are interned in the tokenizer's emission order, so every id, and
every order built from them, is a function of the inputs alone and not of
the process's string hash seed. Blocking, extraction, down-sampling and
the blocking debugger all read these entries; the batch kernels in
:mod:`repro.similarity.batch` score their id sets.

The cache also holds the session's Jaro-Winkler table
(:class:`PairScoreTable`): Monge-Elkan's inner similarity per ordered pair
of interned token ids, so a token pair is scored once per session however
many columns, requests and patches need it. Ids are only
meaningful within the vocabulary that assigned them, so :meth:`TokenCache.clear`
drops the table together with the vocabulary.

Tables are held through a :class:`weakref.WeakKeyDictionary`, so cached
columns die with their table; the map that finds equal columns holds
them weakly too, so a column shared by several tables dies with the last
of them, and a session that outlives its tables retains none of their
texts or entries. Caching assumes the idiom the
:class:`~repro.table.table.Table` engine documents — columns are not
mutated in place (mutating methods return new tables) — a table whose
cell lists are edited behind the cache's back must be :meth:`clear`-ed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..table import Table
from ..table.column import is_missing
from ..text.intern import Vocabulary, id_array
from ..text.tokenizers import Tokenizer

Normalizer = Callable[[Any], Any]


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
    """One distinct cell text, tokenized and interned once.

    ``bag`` holds the ids in the tokenizer's emission order, repeats
    kept (Monge-Elkan's input). ``probe`` holds the unique ids in
    first-occurrence order, the order the overlap-coefficient blocker
    probes in. ``ids`` holds the same ids as a ``frozenset[int]`` for the
    intersection counts: CPython's C-level set intersection over small
    ints beats any Python-level merge loop, and the counts it yields are
    the same integers the string sets give.
    """

    bag: "Any"  # array('i'), emission order, repeats kept
    probe: "Any"  # array('i'), unique, first-occurrence order
    ids: "frozenset[int]"  # same ids, for C-speed intersection counts

    def __len__(self) -> int:
        return len(self.probe)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counts of a :class:`TokenCache` (column-level).

    A miss is one tokenization pass. A request the table already holds
    is a hit, and so is one served by an equal column of another table or
    recipe (same tokenizer, same normalized texts): nothing is tokenized
    for it.
    """

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses


#: Entry bound of a session's Jaro-Winkler table: 16 MiB of keys and
#: values. A cold full-scale Figure-10 run fills about 98,000 entries, so
#: a long-lived service holds ten such runs' distinct pairs before one
#: eviction; only the merge of the tail (below) ever copies that much.
JW_TABLE_BOUND = 1 << 20

#: Entries a table keeps in its small sorted tail before merging them into
#: the main arrays. An add copies the tail (at most 128 KiB), not the
#: table: with 10^6 entries held, an add of a dozen keys took 3.3 ms when
#: it copied both main arrays and 0.03 ms with the tail (2-CPU x86-64
#: host), against a ``match()`` p50 near 1 ms.
TAIL_BOUND = 1 << 13


def pack_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One int64 key per ordered pair of non-negative int32 ids."""
    return (left.astype(np.int64) << 32) | right.astype(np.int64)


def _empty() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


def _merge(held: tuple, keys: np.ndarray, values: np.ndarray) -> tuple:
    """*held* sorted ``(keys, values)`` with new sorted *keys* merged in."""
    at = np.searchsorted(held[0], keys)
    return np.insert(held[0], at, keys), np.insert(held[1], at, values)


class PairScoreTable:
    """A bounded memo of a pure score over ordered id pairs.

    Keys are :func:`pack_pairs` int64s held sorted, values float64s beside
    them (16 bytes an entry, where a tuple-keyed dict spends well over
    100), in two runs: the main arrays and a tail of at most
    :data:`TAIL_BOUND` entries that new keys are merged into, merged in
    turn into the main arrays when it outgrows its bound. Lookups are one
    ``searchsorted`` per run per batch of keys. Adding entries that would
    pass :data:`JW_TABLE_BOUND` drops the whole table first and counts one
    eviction; :attr:`hits`, :attr:`misses` and :attr:`evictions` count
    over the table's life.
    """

    def __init__(self) -> None:
        self.bound = JW_TABLE_BOUND
        self.tail_bound = TAIL_BOUND
        self._main = _empty()
        self._tail = _empty()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._main[0]) + len(self._tail[0])

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, found)`` for sorted unique int64 *keys*; ``values``
        is unset where ``found`` is False. Counts hits and misses."""
        values = np.empty(len(keys))
        found = np.zeros(len(keys), dtype=bool)
        for held, held_values in (self._main, self._tail):
            at = np.searchsorted(held, keys)
            hit = at < len(held)
            hit[hit] = held[at[hit]] == keys[hit]
            values[hit] = held_values[at[hit]]
            found |= hit
        hits = int(found.sum())
        self.hits += hits
        self.misses += len(keys) - hits
        return values, found

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert sorted unique *keys* that :meth:`find` reported missing."""
        if len(self) + len(keys) > self.bound:
            self._main = self._tail = _empty()
            self.evictions += 1
            keys, values = keys[: self.bound], values[: self.bound]
        self._tail = _merge(self._tail, keys, values)
        if len(self._tail[0]) > self.tail_bound:
            self._main = _merge(self._main, *self._tail)
            self._tail = _empty()


class _Column:
    """One tokenized column, held by every table whose recipe it serves.

    A tuple cannot be weakly referenced, so the session's sharing map
    refers to this holder instead: the holder, and with it the map entry,
    dies with the last table that holds it.
    """

    __slots__ = ("entries", "__weakref__")

    def __init__(self, entries: tuple) -> None:
        self.entries = entries


class _ColumnRef(weakref.ref):
    """A weak reference to a :class:`_Column` that knows its map key
    (``weakref.KeyedRef`` without its Python-level constructor)."""

    __slots__ = ("key",)


class TokenCache:
    """Memo-cache of tokenized columns, shared across blockers."""

    def __init__(self) -> None:
        self.clear()

    def column_token_ids(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> tuple["InternedTokens | None", ...]:
        """Interned tokens for every row of ``table[attr]`` (cached).

        The returned tuple is aligned with row indices: ``None`` where the
        cell (or its normalized form) is missing, an
        :class:`InternedTokens` entry otherwise. Each distinct text
        ``str(normalizer(cell))`` is tokenized once, and rows with equal
        texts share one entry object, so identity-keyed memo tables
        collapse repeated cells. A column whose texts equal those of a
        column already tokenized by *tokenizer*, for any live table, is
        that column: same tuple, same entries, counted as a hit.
        """
        per_table = self._tables.setdefault(table, {})
        recipe = (attr, tokenizer, normalizer)
        held = per_table.get(recipe)
        if held is not None:
            self.hits += 1
            return held.entries
        texts: list[str | None] = []
        for value in table[attr]:
            if is_missing(value):
                texts.append(None)
                continue
            if normalizer is not None:
                value = normalizer(value)
                if is_missing(value):
                    texts.append(None)
                    continue
            texts.append(str(value))
        key = (tokenizer, tuple(texts))
        ref = self._shared.get(key)
        held = ref() if ref is not None else None
        if held is None:
            self.misses += 1
            held = _Column(self._tokenize(texts, tokenizer))
            ref = self._shared[key] = _ColumnRef(held, self._forget)
            ref.key = key
        else:
            self.hits += 1
        per_table[recipe] = held
        return held.entries

    def _tokenize(
        self, texts: list[str | None], tokenizer: Tokenizer
    ) -> tuple["InternedTokens | None", ...]:
        """One pass: each distinct text tokenized and interned once."""
        intern_all = self.vocabulary.intern_all
        by_text: dict[str, InternedTokens] = {}
        out: list[InternedTokens | None] = []
        for text in texts:
            if text is None:
                out.append(None)
                continue
            entry = by_text.get(text)
            if entry is None:
                bag = intern_all(tokenizer(text))
                entry = by_text[text] = InternedTokens(
                    bag, id_array(dict.fromkeys(bag)), frozenset(bag)
                )
            out.append(entry)
        return tuple(out)

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
        self._tables: "weakref.WeakKeyDictionary[Table, dict]" = (
            weakref.WeakKeyDictionary()
        )
        #: ``(tokenizer, texts)`` -> weak ref to the :class:`_Column` that
        #: tokenized them; an entry leaves when its column dies.
        shared: "dict[tuple, _ColumnRef]" = {}
        self._shared = shared

        def forget(ref: _ColumnRef) -> None:
            if shared.get(ref.key) is ref:
                del shared[ref.key]

        self._forget = forget
        self.vocabulary = Vocabulary()
        #: Jaro-Winkler per ordered pair of :attr:`vocabulary` ids; it is
        #: dropped with the vocabulary whose ids key it.
        self.jw_scores = PairScoreTable()
        self.hits = 0
        self.misses = 0


#: Process-wide default cache; blockers fall back to this when no explicit
#: cache is passed, which is what lets independent blocker calls share work.
_DEFAULT_CACHE = TokenCache()


def get_default_cache() -> TokenCache:
    """The shared process-wide :class:`TokenCache`."""
    return _DEFAULT_CACHE
