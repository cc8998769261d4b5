"""Shared primitives: discrete distributions, labeled samples, seeded RNG splitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MASS_TOL = 1e-12


def child_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an integer path.

    The same (root_seed, path) pair always yields the same stream; distinct
    paths give statistically independent streams (SeedSequence spawn keys).
    This is the single seed-splitting rule used throughout the package.
    """
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability distribution over opaque identifiers.

    ``support`` is an ordered tuple of distinct identifiers. ``probs`` holds
    one weight per identifier, nonnegative, summing to one within 1e-9.
    """

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if len(self.support) != len(probs):
            raise ValueError("support and probs must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support identifiers must be distinct")
        if np.any(probs < -MASS_TOL):
            raise ValueError("negative mass")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {probs.sum()}, expected 1")

    @classmethod
    def from_counts(cls, support: Sequence, counts: Sequence[int]) -> "DiscreteDistribution":
        counts = np.asarray(counts, dtype=np.int64)
        denom = int(counts.sum())
        if denom <= 0:
            raise ValueError("counts must have positive total")
        return cls(tuple(support), counts / denom)

    @classmethod
    def from_probs(cls, support: Sequence, probs: Sequence[float]) -> "DiscreteDistribution":
        return cls(tuple(support), np.asarray(probs, dtype=float))

    @classmethod
    def uniform(cls, support: Sequence) -> "DiscreteDistribution":
        n = len(support)
        return cls(tuple(support), np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class LabeledSample:
    """An i.i.d. sample of (x, y) pairs, in the order its sampler returns them."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs))
        object.__setattr__(self, "ys", np.asarray(self.ys))
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")

    def __len__(self) -> int:
        return len(self.xs)
