"""Shared primitives: distributions over 0..N-1 and seeded RNG splitting."""

from __future__ import annotations

from dataclasses import dataclass

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
    """A probability distribution over 0..N-1, given by its probability vector.

    ``probs`` is a nonempty 1-D vector of nonnegative masses summing to one
    within 1e-9 (so none is NaN or infinite); entry i is the mass of element i.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if np.any(probs < -MASS_TOL):
            raise ValueError("negative mass")
        if not abs(float(probs.sum()) - 1.0) <= 1e-9:
            raise ValueError(f"masses sum to {probs.sum()}, expected 1")

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return len(self.probs)
