"""Reproducible random-number streams.

Every stochastic component of the model (workload generators, disk
rotational latency, think times) draws from its own named child stream of
a single root seed, so adding a new consumer never perturbs the draws seen
by existing ones.  This is what keeps the benchmark figures stable from
run to run and across machines.

Lives in ``repro.util`` (not ``repro.sim``) because the protocol layer --
RPC retry jitter, the rt smoke workload -- needs seeded streams on either
substrate.
"""

from __future__ import annotations

import typing as _t

import numpy as np


class StreamRNG:
    """A seeded RNG that can be split into independent named streams.

    Parameters
    ----------
    seed:
        Root seed, or another :class:`StreamRNG` / ``numpy`` seed sequence
        to derive from.

    Example
    -------
    >>> root = StreamRNG(42)
    >>> a = root.stream("disk")
    >>> b = root.stream("workload", 3)
    >>> a.uniform(0, 1) != b.uniform(0, 1)
    True
    """

    def __init__(
        self, seed: _t.Union[int, np.random.SeedSequence, "StreamRNG"] = 0
    ) -> None:
        if isinstance(seed, StreamRNG):
            self._seq = seed._seq
        elif isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def stream(self, *key: _t.Union[str, int]) -> "StreamRNG":
        """Derive an independent child stream identified by ``key``.

        The same ``(seed, key)`` pair always produces the same stream.
        """
        material = [_hash_token(token) for token in key]
        child = np.random.SeedSequence(
            entropy=self._seq.entropy,
            spawn_key=tuple(self._seq.spawn_key) + tuple(material),
        )
        return StreamRNG(child)

    # -- draws --------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def normal(self, mean: float, std: float) -> float:
        return float(self._gen.normal(mean, std))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._gen.lognormal(mean, sigma))

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto draw with minimum ``scale`` (heavy-tailed file sizes)."""
        return float(scale * (1.0 + self._gen.pareto(shape)))

    def choice(self, seq: _t.Sequence[_t.Any]) -> _t.Any:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def weighted_choice(
        self, items: _t.Sequence[_t.Any], weights: _t.Sequence[float]
    ) -> _t.Any:
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        idx = int(self._gen.choice(len(items), p=w / total))
        return items[idx]

    def shuffle(self, seq: _t.List[_t.Any]) -> None:
        self._gen.shuffle(seq)  # type: ignore[arg-type]

    def random(self) -> float:
        return float(self._gen.random())

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorised draws."""
        return self._gen


def _hash_token(token: _t.Union[str, int]) -> int:
    """Map a stream-key token to a stable 32-bit integer."""
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFF
    # Stable across processes (unlike built-in hash of str).
    acc = 2166136261
    for byte in str(token).encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc
