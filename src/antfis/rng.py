"""Deterministic seeding helpers.

mix_seed derives child seeds by SplitMix64 mixing; the split and fuzzy
c-means seed numpy's default generator (PCG64) with one. The optimizer's
archive and ant draws come from counter-based Philox streams addressed
by (seed, path), not advanced (substream, substreams), so they are the
same whether consumers run sequentially or in parallel.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """One round of the SplitMix64 mixing function (returns a 64-bit int)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, *path: int) -> int:
    """Derive a child seed from a root seed and an integer path.

    The same (seed, path) always yields the same child; distinct paths
    yield independent-looking children. Used to give every pipeline
    stage and every sweep cell its own reproducible stream.
    """
    acc = splitmix64(seed & _MASK64)
    for part in path:
        acc = splitmix64(acc ^ (part & _MASK64))
    return acc


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator addressed by (seed, path) coordinates."""
    key = np.array([seed & _MASK64, mix_seed(seed, *path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, *path: int,
               count: int) -> Iterator[np.random.Generator]:
    """substream(seed, *path, i) for i = 0 .. count-1, in turn.

    One Philox generator is re-keyed for each i instead of building count
    of them, which costs several times more. A yielded generator is
    therefore only valid until the next one is requested: draw from it
    before advancing the iterator.
    """
    prefix = mix_seed(seed, *path)
    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed below
    for i in range(count):
        key = [seed & _MASK64, splitmix64(prefix ^ (i & _MASK64))]
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array(key, dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        yield rng
