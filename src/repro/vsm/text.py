"""Text front end: from raw documents to publishable keyword vectors.

The paper works with pre-extracted keyword sets; a downstream user of
this library usually starts from text.  This module provides the
standard pipeline — tokenise, normalise, stop-word filter, TF-IDF
weight — targeting a (universal) :class:`~repro.vsm.dictionary.Dictionary`
so documents become :class:`~repro.vsm.sparse.SparseVector` items ready
for :meth:`Meteorograph.publish` (``vector.indices``, ``vector.values``).

Deliberately dependency-free (regex tokeniser, no stemming library);
the tokenizer is pluggable for anything fancier.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .dictionary import Dictionary, DictionaryFullError
from .sparse import Corpus, SparseVector

__all__ = ["tokenize", "DEFAULT_STOPWORDS", "TextVectorizer"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")

#: A compact English stop list — enough to keep glue words out of the
#: keyword space without pretending to be a full NLP stack.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have if in into is it its of on
    or that the their there these they this to was we were will with not no can
    our your you i he she his her them then than so such very more most over
    under between about after before during each which who whom what when where
    why how all any both few other some own same s t don should now""".split()
)


def tokenize(text: str, *, min_length: int = 2) -> list[str]:
    """Lower-case word tokens (hyphen/apostrophe compounds kept whole)."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= min_length]


@dataclass
class TextVectorizer:
    """Stateful document → vector pipeline over a shared dictionary.

    Usage::

        vec = TextVectorizer(Dictionary.universal(50_000))
        vec.fit(corpus_of_strings)           # learns document frequencies
        v = vec.vector("peer to peer overlay routing")

    ``fit`` is optional: without it, weights fall back to plain term
    frequency.  Unknown words at :meth:`vector` time are ignored when
    the dictionary is full (universal mode) or registered on the fly
    otherwise — mirroring §3.7's fixed-dictionary contract.
    """

    dictionary: Dictionary
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    tokenizer: Callable[[str], list[str]] = tokenize
    sublinear_tf: bool = True
    _doc_freq: Counter = field(default_factory=Counter)
    _n_docs: int = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, documents: Iterable[str]) -> "TextVectorizer":
        """Learn document frequencies (for IDF) and register vocabulary."""
        for doc in documents:
            terms = self._terms(doc, register=True)
            self._n_docs += 1
            for term_id in set(terms):
                self._doc_freq[term_id] += 1
        return self

    @property
    def n_documents(self) -> int:
        return self._n_docs

    def idf(self, term_id: int) -> float:
        """Smoothed inverse document frequency; 1.0 before fitting."""
        if self._n_docs == 0:
            return 1.0
        df = self._doc_freq.get(term_id, 0)
        return 1.0 + math.log((1.0 + self._n_docs) / (1.0 + df))

    # -- transformation --------------------------------------------------------

    def _terms(self, document: str, *, register: bool) -> list[int]:
        out: list[int] = []
        for tok in self.tokenizer(document):
            if tok in self.stopwords:
                continue
            if register:
                try:
                    out.append(self.dictionary.register(tok))
                    continue
                except DictionaryFullError:
                    pass  # fall through to lookup-only
            if tok in self.dictionary:
                out.append(self.dictionary.id_of(tok))
        return out

    def vector(self, document: str, *, register: bool = True) -> SparseVector:
        """TF-IDF vector of one document in the dictionary's space."""
        counts = Counter(self._terms(document, register=register))
        if not counts:
            return SparseVector(
                np.empty(0, dtype=np.int64), np.empty(0), self.dictionary.dim
            )
        pairs = []
        for term_id, tf in counts.items():
            tf_w = 1.0 + math.log(tf) if self.sublinear_tf else float(tf)
            pairs.append((term_id, tf_w * self.idf(term_id)))
        return SparseVector.from_pairs(pairs, self.dictionary.dim)

    def corpus(self, documents: Sequence[str], *, register: bool = True) -> Corpus:
        """Vectorise a document collection into a publishable corpus."""
        vectors = [self.vector(d, register=register) for d in documents]
        # Zero vectors (all-stopword documents) are kept as empty rows so
        # item ids still align with document indices.
        dim = self.dictionary.dim
        baskets = [v.indices for v in vectors]
        weights = [v.values for v in vectors]
        return Corpus.from_baskets(baskets, dim, weights)

    def query(self, text: str) -> SparseVector:
        """A query vector: lookup-only, never grows the dictionary."""
        return self.vector(text, register=False)
