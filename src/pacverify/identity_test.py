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

from .core import DiscreteDistribution, child_rng, tv_from_probs


@dataclass(frozen=True)
class IdentityTestConfig:
    """Parameters of one tolerant identity test.

    ``epsilon`` is the outer rejection radius. The inner acceptance radius
    defaults to epsilon/sqrt(n) and can be overridden (the statistical-query
    protocol uses tau / (2 sqrt(atoms))). ``constant_C`` scales the sample
    budget.
    """

    n: int
    epsilon: float
    delta: float
    constant_C: float = 4.0
    inner_radius: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("support size n must be >= 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.constant_C <= 0:
            raise ValueError("constant_C must be positive")
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


def required_samples(cfg: IdentityTestConfig) -> int:
    """Total sample budget: ceil(C * sqrt(n) * log(2/delta) / epsilon^2)."""
    return math.ceil(cfg.constant_C * math.sqrt(cfg.n) * math.log(2.0 / cfg.delta) / cfg.epsilon**2)


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


def planted_shift(probs: np.ndarray, tv: float) -> np.ndarray:
    """A distribution at exactly `tv` total variation from `probs`.

    Moves mass from odd-indexed to even-indexed atoms, spread as evenly as
    the available mass allows. Used by calibration and by tests that plant
    known distances.
    """
    probs = np.asarray(probs, dtype=float)
    if tv == 0.0:
        return probs.copy()
    shifted = probs.copy()
    donors = list(range(1, len(probs), 2))
    receivers = list(range(0, len(probs), 2))
    per = tv / len(donors)
    remaining = tv
    for i in donors:
        take = min(per, shifted[i], remaining)
        shifted[i] -= take
        remaining -= take
    if remaining > 1e-15:
        for i in donors:  # second pass for atoms lighter than the even share
            take = min(shifted[i], remaining)
            shifted[i] -= take
            remaining -= take
            if remaining <= 1e-15:
                break
    if remaining > 1e-12:
        raise ValueError(f"cannot plant TV {tv}: donors too light")
    moved = tv - remaining
    shifted[receivers] += moved / len(receivers)
    achieved = tv_from_probs(probs, shifted)
    if abs(achieved - tv) > 1e-9:
        raise AssertionError(f"planted {achieved}, wanted {tv}")
    return shifted


def accept_rate(cfg: IdentityTestConfig, ref: DiscreteDistribution, source_probs: np.ndarray,
                runs: int, seed: int) -> float:
    """Empirical acceptance rate of the tester over independent runs."""
    m_total = required_samples(cfg)
    accepted = 0
    for run in range(runs):
        counts = child_rng(seed, run).multinomial(m_total, source_probs)
        if test_from_counts(ref.probs, counts, cfg).accept:
            accepted += 1
    return accepted / runs


def calibrate(n: int, epsilon: float, delta: float, runs: int, seed: int,
              c_grid: tuple = (0.5, 1.0, 2.0, 4.0, 8.0)) -> dict:
    """Search the smallest sample-size constant meeting the tester contract.

    For each candidate C, plants TV in {0, inner, eps/2, eps, 2*eps} against
    a uniform reference and measures acceptance rates. A constant passes when
    acceptance is >= 1-delta inside the inner radius, rejection is >= 1-delta
    at and beyond epsilon, and the measured curve is monotone decreasing.
    Returns a JSON-ready report.
    """
    ref = DiscreteDistribution.uniform(tuple(range(n)))
    results = []
    chosen = None
    for c in c_grid:
        cfg = IdentityTestConfig(n=n, epsilon=epsilon, delta=delta, constant_C=c)
        grid = [0.0, cfg.inner, epsilon / 2.0, epsilon, 2.0 * epsilon]
        rates = [accept_rate(cfg, ref, planted_shift(ref.probs, tv), runs, seed) for tv in grid]
        ok = (
            rates[0] >= 1.0 - delta
            and rates[1] >= 1.0 - delta
            and rates[3] <= delta
            and rates[4] <= delta
            and all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
        )
        results.append({
            "constant_C": c,
            "samples": required_samples(cfg),
            "planted_tv": grid,
            "accept_rates": rates,
            "passes": ok,
        })
        if ok and chosen is None:
            chosen = c
    return {
        "n": n,
        "epsilon": epsilon,
        "delta": delta,
        "runs_per_point": runs,
        "seed": seed,
        "repetitions": 1,  # one sample per test; the key keeps the report format
        "grid": results,
        "smallest_passing_C": chosen,
    }
