"""Prefix routing tables (the Tornado/Pastry m-way-tree mechanism).

A node's table has one row per key digit: row ``r`` holds, for every
digit value ``d``, some node whose ID shares the first ``r`` digits with
the owner and whose next digit is ``d``.  Forwarding a key to the row-
``r`` entry for the key's digit extends the shared prefix by one digit,
which shrinks the remaining numeric distance by a factor of ``2**b``
per hop — the O(log N) bound the paper leans on.

Rows are materialised lazily from the (possibly stale) membership ring
and memoised per table.  Laziness matters at simulator scale: a full
table build is O(N · rows · 2^b) binary searches, while queries only
ever touch the rows on their paths.  ``TornadoOverlay`` reads a row once
per membership epoch, when it compiles the row with the owner's leaf set
into the sorted candidate ring its route kernel bisects
(:mod:`repro.overlay.tornado`), and keeps that ring instead of the table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .idspace import KeySpace, SortedKeyRing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

__all__ = ["DigitCodec", "PrefixRoutingTable"]

#: Chooses a table entry among a block's candidate node ids (for the
#: owner given first).  Default: the first candidate in key order;
#: proximity-aware overlays plug in a latency-nearest selector.
EntrySelector = Callable[[int, list[int]], Optional[int]]


class DigitCodec:
    """Fixed-width base-``2**digit_bits`` digit view of keys."""

    def __init__(self, space: KeySpace, digit_bits: int) -> None:
        if digit_bits < 1:
            raise ValueError(f"digit_bits must be >= 1, got {digit_bits}")
        self.space = space
        self.digit_bits = digit_bits
        self.radix = 1 << digit_bits
        nbits = (space.modulus - 1).bit_length()
        self.num_digits = -(-nbits // digit_bits)  # ceil division
        self.key_bits = self.num_digits * digit_bits

    def digit(self, key: int, row: int) -> int:
        """The ``row``-th most significant digit of ``key``."""
        if not 0 <= row < self.num_digits:
            raise IndexError(f"row {row} out of range [0,{self.num_digits})")
        shift = (self.num_digits - 1 - row) * self.digit_bits
        return (key >> shift) & (self.radix - 1)

    def shared_prefix_len(self, a: int, b: int) -> int:
        """Number of leading digits ``a`` and ``b`` share.

        O(1): the first differing digit is located from the highest set
        bit of ``a ^ b`` within the ``key_bits``-wide frame (this runs
        once per routing hop, so the old per-digit scan was ~num_digits
        Python calls on the route kernel's critical path).
        """
        x = a ^ b
        if x == 0:
            return self.num_digits
        return (self.key_bits - x.bit_length()) // self.digit_bits

    def prefix_interval(self, key: int, prefix_len: int, digit: int) -> tuple[int, int]:
        """Half-open key interval of IDs sharing ``key``'s first
        ``prefix_len`` digits and having ``digit`` next.

        The interval never wraps: prefixes partition ``[0, 2^key_bits)``
        into aligned blocks.
        """
        if not 0 <= prefix_len < self.num_digits:
            raise IndexError(f"prefix_len {prefix_len} out of range")
        if not 0 <= digit < self.radix:
            raise ValueError(f"digit {digit} out of range [0,{self.radix})")
        block_shift = (self.num_digits - 1 - prefix_len) * self.digit_bits
        prefix_mask = ~((1 << (block_shift + self.digit_bits)) - 1)
        lo = (key & prefix_mask) | (digit << block_shift)
        hi = lo + (1 << block_shift)
        return lo, hi


class PrefixRoutingTable:
    """Lazy per-node routing table over a membership ring.

    The entry for (row, digit) is the *first node in key order* inside
    the digit's key block — deterministic, so two runs with the same
    seed route identically.  Entries may reference dead nodes; liveness
    is the forwarding loop's concern (stale-table semantics, needed for
    the §4.3 failure study).
    """

    #: Candidates enumerated per block when a selector is installed —
    #: Pastry-style "pick the proximally best of a few", not a scan.
    CANDIDATE_LIMIT = 8

    def __init__(
        self,
        owner_id: int,
        codec: DigitCodec,
        ring: SortedKeyRing,
        selector: Optional[EntrySelector] = None,
        *,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.owner_id = owner_id
        self.codec = codec
        self._ring = ring
        self._selector = selector
        self._obs = obs
        self._rows: dict[int, list[Optional[int]]] = {}

    def rebind(self, ring: SortedKeyRing) -> None:
        """Point the table at a different membership view and forget memos."""
        self._ring = ring
        self._rows.clear()

    def invalidate(self) -> None:
        self._rows.clear()

    def row(self, r: int) -> list[Optional[int]]:
        """Materialise (or fetch memoised) row ``r``."""
        cached = self._rows.get(r)
        if cached is not None:
            return cached
        entries: list[Optional[int]] = []
        for d in range(self.codec.radix):
            lo, hi = self.codec.prefix_interval(self.owner_id, r, d)
            if self._ring.range_count(lo, hi) == 0:
                entries.append(None)
            elif self._selector is None:
                entries.append(self._ring.successor(lo))
            else:
                cands = self._ring.range_keys(lo, hi, limit=self.CANDIDATE_LIMIT)
                entries.append(self._selector(self.owner_id, cands))
        self._rows[r] = entries
        if self._obs is not None and self._obs.enabled:
            # Lazy materialisation is the table's core cost trade; count
            # it so `stats` can show how much of the table queries touch.
            self._obs.metrics.counter("routing.rows_built")
        return entries

    def entry(self, r: int, digit: int) -> Optional[int]:
        return self.row(r)[digit]

    def populated_rows(self) -> int:
        """How many rows have been materialised (introspection/tests)."""
        return len(self._rows)
