"""splitmix64: the one counter-based hash behind every seeded draw.

Link-fault verdicts (:mod:`repro.sim.linkfaults`), retry jitter
(:mod:`repro.maint.retry`) and half-open breaker probes
(:mod:`repro.overload.breaker`) hash ``(seed, counter, …)`` with it
instead of keeping RNG state, and :mod:`repro.lsh.bands` mixes its
per-band generator seeds with it, so two runs with the same seed draw
bit-identical sequences.
"""

from __future__ import annotations

__all__ = ["splitmix64"]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step of ``x`` (taken mod 2^64)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)
