"""Tolerant distribution identity testing.

Given a fully described reference distribution and i.i.d. samples from an
unknown source, decide between "source is within the inner radius of the
reference in total variation" and "source is farther than the outer radius".
Behavior in the gap between the radii is unconstrained. Both verification
protocols in this package consume the tester as a black box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IdentityTestConfig:
    """Parameters of one tolerant identity test's decision.

    ``epsilon`` is the outer rejection radius. The inner acceptance radius
    defaults to epsilon/sqrt(n) and can be overridden (the statistical-query
    protocol uses tau / (2 sqrt(atoms))). The sample budget is
    ``required_samples``.
    """

    n: int
    epsilon: float
    inner_radius: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("support size n must be >= 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.inner_radius is not None and not 0.0 < self.inner_radius < self.epsilon:
            raise ValueError("inner_radius must lie in (0, epsilon)")

    @property
    def inner(self) -> float:
        return self.inner_radius if self.inner_radius is not None else self.epsilon / math.sqrt(self.n)


@dataclass(frozen=True)
class TestVerdict:
    accept: bool
    statistic: float
    samples_used: int


def required_samples(n: int, epsilon: float, delta: float, C: float = 4.0) -> int:
    """The tester's sample budget at confidence 1 - delta on n atoms:
    ceil(C * sqrt(n) * log(2/delta) / epsilon^2)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not C > 0:
        raise ValueError("C must be positive")
    return math.ceil(C * math.sqrt(n) * math.log(2.0 / delta) / epsilon**2)


def _statistic(counts: np.ndarray, ref: np.ndarray, m: int, n: int) -> float:
    """Chi-square-style statistic sum(((N_i - m*p_i)^2 - N_i) / max(p_i, 1/n))."""
    denom = np.maximum(ref, 1.0 / n)
    dev = counts - m * ref
    return float(((dev * dev - counts) / denom).sum())


def _threshold(ref: np.ndarray, m: int, cfg: IdentityTestConfig) -> float:
    """Decision threshold, midway between the statistic's expectations under
    an evenly spread total-variation shift at the inner and outer radii."""
    denom = np.maximum(ref, 1.0 / cfg.n)
    spread = float((1.0 / denom).sum()) / cfg.n**2
    t_in, t_out = cfg.inner, cfg.epsilon
    mean_sq = 2.0 * (t_in**2 + t_out**2)
    bias = float((ref * ref / denom).sum())
    return m * m * mean_sq * spread - m * bias


def test_from_counts(ref: np.ndarray, counts: np.ndarray, cfg: IdentityTestConfig) -> TestVerdict:
    """Run the tester on the occupancy counts of one i.i.d. sample.

    Any observed mass on a reference atom of weight zero rejects outright.
    """
    ref = np.asarray(ref, dtype=float)
    counts = np.asarray(counts)
    m = int(counts.sum())
    if np.any(counts[ref == 0.0] > 0):
        return TestVerdict(accept=False, statistic=math.inf, samples_used=m)
    stat = _statistic(counts, ref, m, cfg.n)
    return TestVerdict(accept=stat < _threshold(ref, m, cfg), statistic=stat, samples_used=m)
