"""Vector space model: sparse vectors, dictionaries, similarity, local indexes."""

from .sparse import SparseVector, Corpus
from .dictionary import Dictionary, DictionaryFullError
from .similarity import (
    cosine_similarity,
    angle_between,
    is_similar,
    rank_by_cosine,
    top_k_items,
    matches_all_keywords,
)
from .index import LocalVsmIndex, Ranking, ScoredItem
from .lsi import LsiIndex

__all__ = [
    "SparseVector",
    "Corpus",
    "Dictionary",
    "DictionaryFullError",
    "cosine_similarity",
    "angle_between",
    "is_similar",
    "rank_by_cosine",
    "top_k_items",
    "matches_all_keywords",
    "LocalVsmIndex",
    "Ranking",
    "ScoredItem",
    "LsiIndex",
]
