"""Prefix routing tables (the Tornado/Pastry m-way-tree mechanism).

A node's table has one row per key digit: row ``r`` holds, for every
digit value ``d``, some node whose ID shares the first ``r`` digits with
the owner and whose next digit is ``d``.  Forwarding a key to the row-
``r`` entry for the key's digit extends the shared prefix by one digit,
which shrinks the remaining numeric distance by a factor of ``2**b``
per hop — the O(log N) bound the paper leans on.

No table is ever held: :func:`prefix_row` materialises one row from the
(possibly stale) membership ring on demand.  Laziness matters at
simulator scale: a full table build is O(N · rows · 2^b) binary
searches, while queries only ever touch the rows on their paths.
``TornadoOverlay`` builds a row once per membership epoch, when it
compiles the row with the owner's leaf set into the sorted candidate
ring its route kernel bisects (:mod:`repro.overlay.tornado`), and keeps
that ring instead of the row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .idspace import KeySpace, SortedKeyRing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

__all__ = ["DigitCodec", "prefix_row"]

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


#: Candidates enumerated per block when a selector is installed —
#: Pastry-style "pick the proximally best of a few", not a scan.
CANDIDATE_LIMIT = 8


def prefix_row(
    owner: int,
    r: int,
    codec: DigitCodec,
    view: SortedKeyRing,
    selector: Optional[EntrySelector] = None,
    obs: Optional["Observability"] = None,
) -> list[Optional[int]]:
    """Row ``r`` of ``owner``'s routing table over the membership ``view``.

    The entry for digit ``d`` is the *first node in key order* inside
    the digit's key block — deterministic, so two runs with the same
    seed route identically — or, with a ``selector``, its pick among the
    block's first :data:`CANDIDATE_LIMIT` nodes; ``None`` marks an empty
    block.  Entries may reference dead nodes; liveness is the forwarding
    loop's concern (stale-table semantics, needed for the §4.3 failure
    study).
    """
    entries: list[Optional[int]] = []
    for d in range(codec.radix):
        lo, hi = codec.prefix_interval(owner, r, d)
        if view.range_count(lo, hi) == 0:
            entries.append(None)
        elif selector is None:
            entries.append(view.successor(lo))
        else:
            cands = view.range_keys(lo, hi, limit=CANDIDATE_LIMIT)
            entries.append(selector(owner, cands))
    if obs is not None and obs.enabled:
        # Lazy materialisation is the table's core cost trade; count it
        # so `stats` can show how much of the table queries touch.
        obs.metrics.counter("routing.rows_built")
    return entries
