"""Vector space model: sparse vectors, dictionaries, local indexes."""

from .sparse import SparseVector, Corpus
from .dictionary import Dictionary, DictionaryFullError
from .index import LocalVsmIndex, Ranking, ScoredItem

__all__ = [
    "SparseVector",
    "Corpus",
    "Dictionary",
    "DictionaryFullError",
    "LocalVsmIndex",
    "Ranking",
    "ScoredItem",
]
