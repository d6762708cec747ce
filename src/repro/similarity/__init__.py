"""String, set, hybrid and numeric similarity measures.

:mod:`~repro.similarity.batch` holds the batch kernels the hot loops
route through: the set measures over interned-id frozensets and the
character measures over code-point arrays. Each returns bit-identical
values to its string reference here.
"""

from . import batch
from .extra import TfIdfCosine, affine_gap, bag_distance, bag_similarity
from .hybrid import SoftTfIdf, monge_elkan
from .numeric import (
    absolute_difference,
    exact_match,
    extract_year,
    relative_difference,
    year_gap,
    years_within,
)
from .sequence import (
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    needleman_wunsch,
    smith_waterman,
)
from .set_based import (
    cosine_bag,
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)

__all__ = [
    "SoftTfIdf",
    "TfIdfCosine",
    "affine_gap",
    "bag_distance",
    "bag_similarity",
    "absolute_difference",
    "batch",
    "cosine_bag",
    "cosine_set",
    "dice",
    "exact_match",
    "extract_year",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan",
    "needleman_wunsch",
    "overlap_coefficient",
    "overlap_size",
    "relative_difference",
    "smith_waterman",
    "year_gap",
    "years_within",
]
