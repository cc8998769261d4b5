"""Tolerant distribution identity testing.

Given a fully described reference distribution and i.i.d. samples from an
unknown source, decide between "source is within the inner radius of the
reference in total variation" and "source is farther than the outer radius".
Behavior in the gap between the radii is unconstrained. The tester reads only
the reference, the sample's counts and the two radii, which each protocol's
config keeps in 0 < inner < outer < 1. Both verification protocols test and
refuse a prover's claim only through ``tested_claim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution
from .harness import ProtocolViolation


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


def test_from_counts(ref: np.ndarray, counts: np.ndarray, outer: float, inner: float) -> TestVerdict:
    """Run the tester of ``ref`` on n = len(ref) atoms, at radii ``outer``
    and ``inner``, on the occupancy counts of one i.i.d. sample.

    The statistic is sum(((N_i - m*p_i)^2 - N_i) / max(p_i, 1/n)). The
    threshold m^2 mean_sq spread - m bias lies midway between its
    expectations under an evenly spread total-variation shift at the inner
    and outer radii. The verdict tests stat + m bias < m^2 mean_sq spread:
    the rounded difference can equal a statistic below it (both are -1 at
    m = 1 on one atom). Any observed mass on a reference atom of weight zero
    rejects outright.
    """
    ref = np.asarray(ref, dtype=float)
    counts = np.asarray(counts)
    m = int(counts.sum())
    if np.any(counts[ref == 0.0] > 0):
        return TestVerdict(accept=False, statistic=math.inf, samples_used=m)
    n = len(ref)
    denom = np.maximum(ref, 1.0 / n)
    dev = counts - m * ref
    stat = float(((dev * dev - counts) / denom).sum())
    spread = float((1.0 / denom).sum()) / n**2
    mean_sq = 2.0 * (inner**2 + outer**2)
    bias = float((ref * ref / denom).sum())
    return TestVerdict(accept=stat + m * bias < m * m * mean_sq * spread, statistic=stat,
                       samples_used=m)


def tested_claim(counts, m: int, own_counts, outer: float, inner: float) -> np.ndarray:
    """The claim ``counts.ravel() / m`` as probabilities, if the tester at ``outer`` and
    ``inner`` accepts it on the verifier's ``own_counts``; else ProtocolViolation."""
    probs = DiscreteDistribution(counts.ravel() / m).probs
    if not test_from_counts(probs, own_counts, outer, inner).accept:
        raise ProtocolViolation("identity tester refused the claim")
    return probs
