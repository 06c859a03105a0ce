"""Counter-based splittable random streams.

Streams are Philox generators keyed by ``(seed, stream_id)``: identical keys
replay identical draw sequences, distinct keys give statistically independent
streams (the counter-based construction needs no jump-ahead bookkeeping).
Sub-streams for trials, shards and roles derive a fresh ``stream_id`` by
hashing the parent key together with a tag tuple, so concurrent runs never
share draws.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_stream_id(seed: int, stream_id: int, tags: tuple) -> int:
    """Stable 64-bit hash of a parent key and a tag tuple."""
    h = hashlib.blake2b(digest_size=8)
    for part in (seed, stream_id, *tags):
        if isinstance(part, str):
            h.update(b"s:" + part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            h.update(b"i:" + (int(part) & _MASK64).to_bytes(8, "little"))
        else:
            raise TypeError(f"stream tags must be int or str, got {type(part)!r}")
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Single-owner random stream.

    A stream must not be shared between concurrent consumers; derive children
    with :meth:`child` instead. The underlying numpy ``Generator`` is exposed
    as ``gen``; ``vertex_draws`` counts the vertex releases drawn from it. The
    count is taken in :func:`~dpsimplex.simplex.vertex_uniforms`, which every
    release goes through: the vertex kernel's tape and ``release_rows`` alike
    (a child starts at 0).
    """

    __slots__ = ("seed", "stream_id", "gen", "vertex_draws")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))
        self.vertex_draws = 0

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream; same tags always give the same child."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, tags))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
