"""Equal-column sharing in the token cache, pinned against a per-cell
reference.

:class:`ReferenceTokenCache` is the token cache as it was before equal
columns of different tables shared one tokenization: every
``(table, attr, tokenizer, normalizer)`` recipe is tokenized on its own,
cell by cell, into a vocabulary of its own. Random call sequences over
several tables, some with equal columns, must decode to the same bags,
probes and id sets in both caches and leave the same vocabulary.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.runtime import TokenCache
from repro.runtime.cache import InternedTokens, lowercase
from repro.table import Table
from repro.table.column import is_missing
from repro.text import normalize_title, qgram, whitespace
from repro.text.intern import Vocabulary, id_array

TOKENIZERS = (whitespace, qgram(3))
NORMALIZERS = (None, lowercase, normalize_title)

CELLS = (
    "Corn Blight", "corn blight", "CORN  blight", "soil water", "Soil Water",
    "wheat", "", "   ", None, float("nan"), 1, 1.0, True, "1", "1.0",
)


class ReferenceTokenCache:
    """One tokenization per recipe, per cell, with no sharing."""

    def __init__(self) -> None:
        self.vocabulary = Vocabulary()
        # the table is held with its columns so that its id stays unique
        self._columns: dict[tuple, tuple[Table, tuple]] = {}

    def column_token_ids(self, table, attr, tokenizer, normalizer=None):
        key = (id(table), attr, tokenizer, normalizer)
        held = self._columns.get(key)
        if held is not None:
            return held[1]
        intern_all = self.vocabulary.intern_all
        by_text: dict[str, InternedTokens] = {}
        out: list[InternedTokens | None] = []
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
            entry = by_text.get(text)
            if entry is None:
                bag = intern_all(tokenizer(text))
                entry = by_text[text] = InternedTokens(
                    bag, id_array(dict.fromkeys(bag)), frozenset(bag)
                )
            out.append(entry)
        column = tuple(out)
        self._columns[key] = (table, column)
        return column


def _decoded(vocabulary, column):
    """Per row: ``None``, or the decoded (bag, probe, id set)."""
    return [
        None
        if entry is None
        else (
            vocabulary.decode(entry.bag),
            vocabulary.decode(entry.probe),
            {vocabulary.token_of(tid) for tid in entry.ids},
        )
        for entry in column
    ]


ONES = (1, 1.0, True, "1")


def _tables(rng: random.Random) -> list[Table]:
    """Five tables over one row count; the second copies the first's
    columns (as equal lists, not the same lists), the third repeats the
    first's ``a`` under another name, and the last draws from values
    that compare equal but stringify apart."""
    n = rng.randint(1, 12)
    a = [rng.choice(CELLS) for _ in range(n)]
    b = [rng.choice(CELLS) for _ in range(n)]
    ids = list(range(n))
    return [
        Table({"id": ids, "a": a, "b": b}, name="T0"),
        Table({"id": ids, "a": list(a), "b": list(b)}, name="T1"),
        Table({"id": ids, "a": [rng.choice(CELLS) for _ in ids], "b": list(a)},
              name="T2"),
        Table({"id": ids, "a": [rng.choice(CELLS) for _ in ids],
               "b": [rng.choice(CELLS) for _ in ids]}, name="T3"),
        Table({"id": ids, "a": [rng.choice(ONES) for _ in ids],
               "b": [rng.choice(ONES) for _ in ids]}, name="T4"),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_random_call_sequences_match_the_reference(seed):
    rng = random.Random(seed)
    tables = _tables(rng)
    cache, reference = TokenCache(), ReferenceTokenCache()
    for _ in range(rng.randint(1, 30)):
        table = rng.choice(tables)
        attr = rng.choice(("a", "b"))
        tokenizer = rng.choice(TOKENIZERS)
        normalizer = rng.choice(NORMALIZERS)
        got = cache.column_token_ids(table, attr, tokenizer, normalizer)
        want = reference.column_token_ids(table, attr, tokenizer, normalizer)
        assert len(got) == len(table)
        assert _decoded(cache.vocabulary, got) == _decoded(
            reference.vocabulary, want
        )
        assert cache.vocabulary.tokens() == reference.vocabulary.tokens()
    # equal texts under one tokenizer are one column, whatever the table
    # or attribute that holds them
    for tokenizer in TOKENIZERS:
        first = cache.column_token_ids(tables[0], "a", tokenizer)
        assert cache.column_token_ids(tables[1], "a", tokenizer) is first
        assert cache.column_token_ids(tables[2], "b", tokenizer) is first


def test_texts_key_not_values():
    # 1, 1.0 and True compare equal to each other but stringify apart
    cache = TokenCache()
    numbers = Table({"id": [1, 2, 3], "t": [1, 1.0, True]}, name="N")
    strings = Table({"id": [1, 2, 3], "t": ["1", "1", "1"]}, name="S")
    ints = Table({"id": [1, 2, 3], "t": [1, 1, 1]}, name="I")
    got = cache.column_token_ids(numbers, "t", whitespace)
    other = cache.column_token_ids(strings, "t", whitespace)
    assert other is not got
    decode = cache.vocabulary.decode
    assert [decode(e.bag) for e in got] == [["1"], ["1.0"], ["True"]]
    assert [decode(e.bag) for e in other] == [["1"], ["1"], ["1"]]
    assert cache.stats().misses == 2 and cache.stats().hits == 0
    # [1, 1, 1] == [1, 1.0, True] as values; its texts equal the strings'
    assert cache.column_token_ids(ints, "t", whitespace) is other


def test_map_holds_nothing_once_the_tables_die():
    cache = TokenCache()
    cells = ["corn blight", "soil water"]
    left = Table({"id": [1, 2], "t": cells}, name="L")
    right = Table({"id": [1, 2], "t": list(cells)}, name="R")
    cache.column_token_ids(left, "t", whitespace)
    cache.column_token_ids(right, "t", whitespace)
    assert cache.stats().misses == 1
    del left, right
    gc.collect()
    fresh = Table({"id": [1, 2], "t": list(cells)}, name="F")
    cache.column_token_ids(fresh, "t", whitespace)
    assert cache.stats().misses == 2
    # the surviving table keeps its column: one live entry in the map
    assert len(cache._shared) == 1


def test_column_outlives_one_of_its_tables():
    cache = TokenCache()
    cells = ["corn blight", "soil water"]
    left = Table({"id": [1, 2], "t": cells}, name="L")
    right = Table({"id": [1, 2], "t": list(cells)}, name="R")
    first = cache.column_token_ids(left, "t", whitespace)
    assert cache.column_token_ids(right, "t", whitespace) is first
    del left
    gc.collect()
    later = Table({"id": [1, 2], "t": list(cells)}, name="F")
    assert cache.column_token_ids(later, "t", whitespace) is first
    assert cache.stats().misses == 1 and cache.stats().hits == 2
