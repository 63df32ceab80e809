"""Unit tests for digit codecs and prefix routing rows."""

import pytest

from repro.overlay.idspace import KeySpace, SortedKeyRing
from repro.overlay.routing import CANDIDATE_LIMIT, DigitCodec, prefix_row
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network

SPACE = KeySpace(1 << 16)


class TestDigitCodec:
    def test_dimensions(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        assert codec.radix == 16
        assert codec.num_digits == 4  # 16 bits / 4

    def test_uneven_bits_round_up(self):
        codec = DigitCodec(KeySpace(1 << 10), digit_bits=4)
        assert codec.num_digits == 3  # ceil(10/4)

    def test_digit_extraction(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        key = 0xABCD
        assert [codec.digit(key, r) for r in range(4)] == [0xA, 0xB, 0xC, 0xD]

    def test_digit_bounds(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        with pytest.raises(IndexError):
            codec.digit(0, 4)

    def test_shared_prefix_len(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        assert codec.shared_prefix_len(0xABCD, 0xABCE) == 3
        assert codec.shared_prefix_len(0xABCD, 0xABCD) == 4
        assert codec.shared_prefix_len(0xABCD, 0x1BCD) == 0

    def test_prefix_interval(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        lo, hi = codec.prefix_interval(0xABCD, 1, 0x7)
        # first digit A fixed, second digit 7: [0xA700, 0xA800)
        assert (lo, hi) == (0xA700, 0xA800)

    def test_prefix_interval_partitions_space(self):
        codec = DigitCodec(SPACE, digit_bits=4)
        covered = 0
        for d in range(16):
            lo, hi = codec.prefix_interval(0x1234, 0, d)
            covered += hi - lo
        assert covered == SPACE.modulus

    def test_invalid_digit_bits(self):
        with pytest.raises(ValueError):
            DigitCodec(SPACE, digit_bits=0)


class TestPrefixRoutingTable:
    def test_entry_shares_prefix(self):
        ring = SortedKeyRing(SPACE, [0x1000, 0x1F00, 0x2400, 0x9999])
        row0 = prefix_row(0x1000, 0, DigitCodec(SPACE, 4), ring)
        # digit 2 at row 0 -> some member starting with 0x2
        assert row0[0x2] == 0x2400
        assert row0[0x9] == 0x9999
        assert row0[0x3] is None

    # The route kernel's candidate set is the *compiled ring* of a
    # (node, row): the row's entries, the owner and its leaf set, sorted
    # (the scan-order list it replaced is the oracle in
    # test_route_oracle.py).

    def overlay(self, members):
        overlay = TornadoOverlay(SPACE, Network(), digit_bits=4, leaf_set_size=1)
        overlay.add_nodes((nid, None) for nid in members)
        return overlay

    def test_next_hop_primary_extends_prefix(self):
        members = [0x1000, 0x1200, 0x1250, 0x9000]
        ov = self.overlay(members)
        row = ov.codec.shared_prefix_len(0x1000, 0x1234)
        ring = ov._compile_ring(0x1000, row)
        # The row's entry for the key's next digit is a member, and it
        # shares 2 digits (0x12..) with the key.
        primary = ov._row(0x1000, row)[ov.codec.digit(0x1234, row)]
        assert primary in (0x1200, 0x1250) and primary in ring
        assert ov.codec.shared_prefix_len(primary, 0x1234) >= 2
        # ... and the first hop goes to a node that extends the prefix.
        assert ov.codec.shared_prefix_len(ov.route(0x1000, 0x1234).path[1], 0x1234) >= 2

    def test_compiled_ring_holds_owner_once(self):
        ov = self.overlay([0x1000, 0x1800, 0x9000])
        # Row 1 of 0x1000 holds the owner in its own digit block and
        # 0x1800; the leaf set adds 0x9000 and 0x1800 again.
        ring = ov._compile_ring(0x1000, 1)
        assert ring == (0x1000, 0x1800, 0x9000)
        # The owner is the arg-min baseline: a key it is closest to stops there.
        assert ov.route(0x1000, 0x1001).path == [0x1000]

    def test_compiled_ring_is_leaf_set_and_self_when_owner_is_key(self):
        ov = self.overlay([0x1000, 0x1800, 0x5000, 0x9000])
        res = ov.route(0x1000, 0x1000)  # key == owner selects row num_digits
        assert res.path == [0x1000] and res.succeeded
        ring = ov._rings[ov.codec.num_digits][0x1000]
        assert ring == tuple(sorted(ov.leaf_set(0x1000) + [0x1000])) == (0x1000, 0x1800, 0x9000)


class TestEntrySelector:
    def test_selector_chooses_among_block_candidates(self):
        codec = DigitCodec(SPACE, 4)
        ring = SortedKeyRing(SPACE, [0x1000, 0x2100, 0x2200, 0x2300])
        picked = []

        def selector(owner, candidates):
            picked.append((owner, list(candidates)))
            return candidates[-1]  # deliberately not the first

        row = prefix_row(0x1000, 0, codec, ring, selector)
        assert row[0x2] == 0x2300  # selector's choice, not successor(lo)
        owner, cands = picked[[p[1] for p in picked].index([0x2100, 0x2200, 0x2300])]
        assert owner == 0x1000

    def test_selector_candidate_limit(self):
        codec = DigitCodec(SPACE, 4)
        members = [0x2000 + i for i in range(30)]  # one dense block
        ring = SortedKeyRing(SPACE, [0x1000] + members)
        sizes = []

        def selector(owner, candidates):
            sizes.append(len(candidates))
            return candidates[0]

        prefix_row(0x1000, 0, codec, ring, selector)
        assert max(sizes) <= CANDIDATE_LIMIT

    def test_without_selector_first_in_block(self):
        codec = DigitCodec(SPACE, 4)
        ring = SortedKeyRing(SPACE, [0x1000, 0x2100, 0x2900])
        assert prefix_row(0x1000, 0, codec, ring)[0x2] == 0x2100
