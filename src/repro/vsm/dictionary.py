"""Keyword dictionaries (§3.7).

The naive vector space model re-dimensions whenever a novel keyword
appears, forcing every published item to be republished.  Meteorograph
avoids that by fixing the vector space to a *universal* dictionary up
front: the dimension ``m`` is the dictionary capacity, and keyword ids
are stable forever.

:class:`Dictionary` supports both modes:

* growable (``capacity=None``) — a research convenience; ``dim`` tracks
  the number of registered words, and code that caches angles must
  listen to :attr:`generation`;
* universal (``capacity=m``) — the paper's deployment mode; ``dim`` is
  pinned at ``m`` and registration beyond capacity fails.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

__all__ = ["Dictionary", "DictionaryFullError"]


class DictionaryFullError(RuntimeError):
    """Raised when registering a word into a full universal dictionary."""


class Dictionary:
    """Bidirectional keyword ↔ id mapping.

    >>> d = Dictionary.universal(4)
    >>> d.register("p2p")
    0
    >>> d.dim
    4
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []
        #: Bumped whenever ``dim`` changes (growable mode only).  Angle
        #: caches key on this to notice re-dimensioning.
        self.generation = 0

    @classmethod
    def universal(cls, capacity: int) -> "Dictionary":
        """A fixed-dimension dictionary — the §3.7 no-republish mode."""
        return cls(capacity=capacity)

    @classmethod
    def from_words(cls, words: Iterable[str], capacity: Optional[int] = None) -> "Dictionary":
        d = cls(capacity=capacity)
        for w in words:
            d.register(w)
        return d

    # -- properties --------------------------------------------------------

    @property
    def is_universal(self) -> bool:
        return self._capacity is not None

    @property
    def dim(self) -> int:
        """The vector-space dimension ``m``."""
        if self._capacity is not None:
            return self._capacity
        return max(1, len(self._id_to_word))

    @property
    def n_registered(self) -> int:
        return len(self._id_to_word)

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_word)

    # -- registration -----------------------------------------------------------

    def register(self, word: str) -> int:
        """Return the word's id, assigning a fresh one on first sight."""
        if not word:
            raise ValueError("cannot register an empty keyword")
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        if self._capacity is not None and len(self._id_to_word) >= self._capacity:
            raise DictionaryFullError(
                f"universal dictionary full (capacity {self._capacity})"
            )
        new_id = len(self._id_to_word)
        self._word_to_id[word] = new_id
        self._id_to_word.append(word)
        if self._capacity is None:
            self.generation += 1
        return new_id

    # -- lookup ---------------------------------------------------------------------

    def id_of(self, word: str) -> int:
        try:
            return self._word_to_id[word]
        except KeyError:
            raise KeyError(f"unknown keyword {word!r}") from None

    def word_of(self, keyword_id: int) -> str:
        if not 0 <= keyword_id < len(self._id_to_word):
            raise KeyError(f"no keyword with id {keyword_id}")
        return self._id_to_word[keyword_id]

    def ids_of(self, words: Iterable[str]) -> list[int]:
        return [self.id_of(w) for w in words]
