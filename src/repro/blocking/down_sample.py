"""Magellan-style down-sampling of large input tables.

PyMatcher's how-to guide prescribes ``down_sample`` before development on
large inputs: naive independent random samples of A and B would share
almost no matching pairs, so the command instead samples B randomly and
then picks the A records most *likely to match* the B sample — those
sharing tokens with it, found via an inverted index. The result is a
development-sized table pair that still contains matches to find.

(The case study's tables were small enough to skip this, but any user
pointing the toolkit at full-size data needs it — and our synthetic
employees/vendor tables at ``aux_scale=1.0`` would too.)

Tokenization reuses the session's token cache (the same
``(attr, whitespace, normalize_title)`` recipe the title blockers use, so
a prior blocking pass makes down-sampling's A-side scan free).
Down-sampling implements the stage-operator protocol
with ``cache_kind = None``: its ``rng`` input has no stable fingerprint,
so it is uncacheable by design and never touches the artifact store.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import BlockingError
from ..runtime.context import EngineSession, StageOperator, resolve_session
from ..runtime.instrument import count, stage
from ..table import Table
from ..text.normalize import normalize_title
from ..text.tokenizers import whitespace


def _table_row_tokens(
    table: Table, attrs: Sequence[str], cache
) -> list[set[int]]:
    """Per-row union of interned normalized word tokens over *attrs*
    (cached). One vocabulary interns both tables, so the shared-token
    counts are the integers the string sets would give."""
    columns = [
        cache.column_token_ids(table, attr, whitespace, normalize_title)
        for attr in attrs
    ]
    rows: list[set[int]] = []
    for i in range(table.num_rows):
        tokens: set[int] = set()
        for column in columns:
            entry = column[i]
            if entry is not None:
                tokens.update(entry.ids)
        rows.append(tokens)
    return rows


class DownSampleStage(StageOperator):
    """Stage operator for :func:`down_sample`.

    ``trace_name``/``cache_kind`` stay ``None``: the body opens its own
    ``tokenize``/``score`` stages (as it always has), and the random
    generator makes the output unfingerprintable, so the store is never
    consulted.
    """

    def __init__(
        self,
        table_a: Table,
        table_b: Table,
        attrs: Sequence[str],
        b_size: int,
        a_size: int,
        rng: np.random.Generator,
    ) -> None:
        self.table_a = table_a
        self.table_b = table_b
        self.attrs = attrs
        self.b_size = b_size
        self.a_size = a_size
        self.rng = rng

    def label(self) -> str:
        return f"down_sample:{self.table_a.name or 'A'}|{self.table_b.name or 'B'}"

    def compute(self, session: EngineSession) -> tuple[Table, Table]:
        table_a, table_b, attrs = self.table_a, self.table_b, self.attrs
        if self.b_size < 1 or self.a_size < 1:
            raise BlockingError("down_sample sizes must be >= 1")
        for attr in attrs:
            if attr not in table_a or attr not in table_b:
                raise BlockingError(f"attribute {attr!r} must exist in both tables")
        b_size = min(self.b_size, table_b.num_rows)
        a_size = min(self.a_size, table_a.num_rows)
        b_indices = [
            int(i)
            for i in self.rng.choice(table_b.num_rows, size=b_size, replace=False)
        ]
        sampled_b = table_b.take(b_indices, name=f"{table_b.name}_sample")

        instrumentation = session.instrumentation
        cache = session.token_cache
        with stage(instrumentation, "tokenize"):
            # the B sample's token universe
            b_tokens: set[int] = set()
            for tokens in _table_row_tokens(sampled_b, attrs, cache):
                b_tokens.update(tokens)
            a_row_tokens = _table_row_tokens(table_a, attrs, cache)

        with stage(instrumentation, "score"):
            shared_counts = np.array(
                [len(tokens & b_tokens) for tokens in a_row_tokens], dtype=int
            )
            count(instrumentation, "a_rows_scored", len(a_row_tokens))
        order = np.argsort(-shared_counts, kind="stable")
        keep = [int(i) for i in order[:a_size]]
        keep.sort()
        sampled_a = table_a.take(keep, name=f"{table_a.name}_sample")
        return sampled_a, sampled_b


def down_sample(
    table_a: Table,
    table_b: Table,
    attrs: Sequence[str],
    b_size: int,
    a_size: int,
    rng: np.random.Generator,
    *,
    session: EngineSession | None = None,
) -> tuple[Table, Table]:
    """Down-sample (A, B) to roughly (*a_size*, *b_size*) rows.

    B is sampled uniformly; A keeps the records sharing the most tokens
    (over *attrs*, word-tokenized and normalized) with the B sample,
    breaking ties toward earlier rows. A records sharing no tokens are
    only used to pad up to *a_size* when too few candidates exist.
    """
    return resolve_session(session).run_stage(
        DownSampleStage(table_a, table_b, attrs, b_size, a_size, rng)
    )
