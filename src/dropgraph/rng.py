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

import hashlib

import numpy as np

__all__ = ["RngStream"]


def _label_to_int(label) -> int:
    """Map a path label (int or str) to a stable uint32."""
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"path labels must be nonnegative, got {label}")
        return int(label)
    if isinstance(label, str):
        # blake2s, not hash(): stable across processes and platforms.
        digest = hashlib.blake2s(label.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "little")
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
        """Derive an independent stream addressed by an extended path."""
        return RngStream(self.seed, self.path + tuple(labels))

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
