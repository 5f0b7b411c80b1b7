"""Counter-based, path-addressed random streams.

Every stochastic site in the package (mask sampling, vertex sampling,
multipliers, weight init, data generation, ...) draws from its own
``RngStream`` addressed by ``(seed, path)``.  Two streams constructed with
the same seed and path produce bit-identical draw sequences; streams with
different paths under one seed are statistically independent.  This makes
each site reproducible in isolation, regardless of how many draws other
sites consume.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["RngStream"]


@functools.lru_cache(maxsize=1024)
def _hash_label(label: str) -> int:
    # blake2s, not hash(): stable across processes and platforms.
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _label_to_int(label) -> int:
    """Map a path label (int or str) to a stable uint32.

    An int outside ``[0, 2**32)`` is refused: ``SeedSequence`` splits a
    larger int into 32-bit words, so ``("step", 2**32 + 5)`` would address
    the same stream as ``("step", 5, 1)``.
    """
    if isinstance(label, (int, np.integer)):
        if not 0 <= label < 2**32:
            raise ValueError(f"path labels must lie in [0, 2**32), got {label}")
        return int(label)
    if isinstance(label, str):
        return _hash_label(label)
    raise TypeError(f"path label must be int or str, got {type(label).__name__}")


class RngStream:
    """One independently addressable random stream.

    The stream is backed by a Philox counter-based bit generator keyed by
    ``(seed, path)`` through :class:`numpy.random.SeedSequence`.  Draws are
    stateful within one instance; re-constructing the same ``(seed, path)``
    replays the same sequence from the start.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(_label_to_int(p) for p in path)
        self._gen = None

    def child(self, *labels) -> "RngStream":
        """Derive an independent stream addressed by an extended path.

        Only the new labels are mapped; ``self.path`` already holds ints.
        """
        stream = object.__new__(RngStream)
        stream.seed = self.seed
        stream.path = self.path + tuple(map(_label_to_int, labels))
        stream._gen = None
        return stream

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def uniform(self, size=None, low=0.0, high=1.0) -> np.ndarray:
        return self.generator.uniform(low, high, size=size)

    def normal(self, size=None, scale=1.0) -> np.ndarray:
        return self.generator.normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"
