"""Structured P2P overlays over a one-dimensional hash key space."""

from .idspace import KeySpace, SortedKeyRing, PAPER_MODULUS, DEFAULT_BITS
from .base import Overlay, RouteResult, RoutingError
from .routing import DigitCodec, prefix_row
from .tornado import TornadoOverlay
from .chord import ChordOverlay
from .membership import Bootstrap, JoinResult

__all__ = [
    "KeySpace",
    "SortedKeyRing",
    "PAPER_MODULUS",
    "DEFAULT_BITS",
    "Overlay",
    "RouteResult",
    "RoutingError",
    "DigitCodec",
    "prefix_row",
    "TornadoOverlay",
    "ChordOverlay",
    "Bootstrap",
    "JoinResult",
]
