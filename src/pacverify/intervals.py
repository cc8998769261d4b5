"""Verification of unions of d intervals over [0, 1].

The honest prover partitions [0, 1] into k = 12d/epsilon intervals holding
equal shares of its sample and reports per-interval label frequencies as
exact integer counts. It works band by band: it draws its sample's band
counts, jitters and label draws, and sorts only the jitter of the bands that
hold a cut rank, which gives exactly the claim that sorting the whole sample
(``IntervalPopulation.sample``) and partitioning it
(``honest_prover_partition``) gives from the same draws. The verifier parses
the claim once against the agreed k and m_p (``DiscretizedMessage.from_payload``),
a parse that checks the equal-share identity exactly; it then runs the
tolerant identity tester against the discretized population and outputs the
empirical-risk minimizer over the reported discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import child_rng
from .harness import (
    GarbageProver,
    ProtocolViolation,
    SilentProver,
    parse_counts,
    parse_numbers,
)
from .identity_test import required_samples, test_from_counts


@dataclass(frozen=True)
class UnionOfIntervals:
    """Indicator of at most d closed intervals; overlaps merged on construction."""

    intervals: tuple

    def __post_init__(self):
        ivs = sorted((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not 0.0 <= a <= b <= 1.0:
                raise ValueError(f"invalid interval [{a}, {b}]")
        merged: list = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    def contains(self, xs):
        xs = np.asarray(xs, dtype=float)
        if not self.intervals:
            return np.zeros(xs.shape, dtype=bool)
        starts = np.array([a for a, _ in self.intervals])
        ends = np.array([b for _, b in self.intervals])
        i = np.searchsorted(starts, xs, side="right") - 1
        inside = (i >= 0) & (xs <= ends[np.clip(i, 0, None)])
        return inside


# default band half-width as a fraction of the grid spacing
BAND_FRACTION = 0.25


@dataclass(frozen=True)
class IntervalPopulation:
    """A labeled population over [0, 1] made of narrow uniform bands.

    Each band is uniform on [center - halfwidth, center + halfwidth], carries
    a total mass, and labels its points 1 with probability ``label1``.
    ``halfwidth`` must be positive, so the x-marginal is atomless, which the
    equal-share partition step needs; all losses remain available in closed
    form.
    """

    centers: np.ndarray
    masses: np.ndarray
    label1: np.ndarray
    halfwidth: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        label1 = np.asarray(self.label1, dtype=float)
        if not (len(centers) == len(masses) == len(label1)):
            raise ValueError("centers, masses and label1 must have equal length")
        if np.any(np.diff(centers) <= 0):
            raise ValueError("centers must be strictly increasing")
        if abs(masses.sum() - 1.0) > 1e-9 or np.any(masses < 0):
            raise ValueError("masses must be a probability vector")
        hw = float(self.halfwidth)
        if not hw > 0:
            raise ValueError("halfwidth must be > 0")
        if centers[0] - hw < 0 or centers[-1] + hw > 1:
            raise ValueError("bands must stay inside [0, 1]")
        # on the rounded edges, so that every jittered point of a band sorts
        # at or below every point of the next
        if np.any(centers[:-1] + hw > centers[1:] - hw):
            raise ValueError("bands must be disjoint")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "label1", label1)
        object.__setattr__(self, "halfwidth", hw)

    @classmethod
    def grid_realizable(cls, n_points: int, target: UnionOfIntervals,
                        band_fraction: float = BAND_FRACTION) -> "IntervalPopulation":
        """Uniform mass on an n-point grid, labeled by a target union of intervals."""
        centers = (np.arange(n_points) + 0.5) / n_points
        hw = band_fraction / n_points
        labels = target.contains(centers).astype(float)
        return cls(centers, np.full(n_points, 1.0 / n_points), labels, halfwidth=hw)

    def sample(self, m: int, rng: np.random.Generator) -> tuple:
        """Draw m i.i.d. labeled points, returned sorted by x as (xs, ys).

        Bands are disjoint and ordered and labels are independent of x, so
        sorting the jittered x's keeps each band's points in one block, and
        each sorted position draws its label from its own band. This is the
        point-level reference that ``HonestIntervalProver.build_message``
        reproduces exactly from the same draws without materialising points.
        """
        counts = rng.multinomial(m, self.masses)
        xs = np.sort(np.repeat(self.centers, counts)
                     + rng.uniform(-self.halfwidth, self.halfwidth, size=m))
        ys = (rng.random(m) < np.repeat(self.label1, counts)).astype(np.int64)
        return xs, ys

    def _coverage(self, h: UnionOfIntervals) -> np.ndarray:
        """Fraction of each band covered by h."""
        lo = self.centers - self.halfwidth
        hi = self.centers + self.halfwidth
        frac = np.zeros(len(self.centers))
        for a, b in h.intervals:
            frac += np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
        return np.clip(frac / (2 * self.halfwidth), 0.0, 1.0)

    def loss01(self, h: UnionOfIntervals) -> float:
        """Exact 0-1 population loss of h."""
        f = self._coverage(h)
        return float((self.masses * (f * (1.0 - self.label1) + (1.0 - f) * self.label1)).sum())

    def interval_label_masses(self, boundaries: np.ndarray) -> np.ndarray:
        """Exact pushforward masses (k, 2) under half-open intervals [b_{j-1}, b_j)."""
        boundaries = np.asarray(boundaries, dtype=float)
        a, b = boundaries[:-1, None], boundaries[1:, None]
        # share[j, i]: the fraction of band i's mass inside interval j
        lo, hi = self.centers - self.halfwidth, self.centers + self.halfwidth
        share = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None) / (2 * self.halfwidth)
        ones = self.masses * self.label1
        return np.stack([share @ (self.masses - ones), share @ ones], axis=1)


@dataclass(frozen=True)
class IntervalProtocolConfig:
    """One verified run over k = 12d/epsilon intervals, with budgets derived
    from c_v and c_p.

    The verifier tests the claim on the 2k (interval, label) atoms at outer
    radius epsilon/6 and inner radius epsilon/(6 sqrt(2k)); m_v is exactly
    the tester's budget at (epsilon/6, delta/2) on those atoms, so the
    verifier never tests on fewer samples; m_p follows
    c_p (d^2 log(d/epsilon) + log(1/delta)) / epsilon^4, rounded up to a
    multiple of k.
    """

    d: int
    epsilon: float
    delta: float
    c_v: float
    c_p: float
    m_v: int = field(init=False)
    m_p: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        inv_eps = 1.0 / self.epsilon
        if abs(inv_eps - round(inv_eps)) > 1e-9:
            raise ValueError("1/epsilon must be an integer")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.d < 1 or not (self.c_v > 0 and self.c_p > 0):
            raise ValueError("d must be >= 1, and c_v and c_p positive")
        d, epsilon, k = self.d, self.epsilon, self.k
        m_v = required_samples(2 * k, epsilon / 6.0, self.delta / 2.0, self.c_v)
        base = self.c_p * (d * d * math.log(max(d / epsilon, math.e))
                           + math.log(1.0 / self.delta)) / epsilon**4
        m_p = int(math.ceil(base / k) * k)
        if max(m_v, m_p) >= 2**53:
            raise OverflowError("sample budgets must be below 2**53, where float counts are exact")
        object.__setattr__(self, "m_v", m_v)
        object.__setattr__(self, "m_p", m_p)

    @property
    def k(self) -> int:
        return round(12 * self.d / self.epsilon)

    @property
    def chunk(self) -> int:
        return self.m_p // self.k

    @classmethod
    def default(cls, d: int, epsilon: float, delta: float,
                c_v: float = 2.0, c_p: float = 8.0) -> "IntervalProtocolConfig":
        """The config at c_v = 2 and c_p = 8, fixed values at which acceptance
        criteria 1 and 2 hold."""
        return cls(d=d, epsilon=epsilon, delta=delta, c_v=c_v, c_p=c_p)


@dataclass(frozen=True)
class DiscretizedMessage:
    """The prover's discretization claim: interval cut points and exact counts.

    Provers build it from their own arrays; a received claim goes through
    ``from_payload``, the only place a claim's shape, numbers, total and
    equal shares are checked.
    """

    boundaries: np.ndarray  # k+1 points, 0 = b_0 <= ... <= b_k = 1
    counts: np.ndarray      # (k, 2) integer label counts

    def to_payload(self) -> dict:
        return {
            "boundaries": self.boundaries.tolist(),
            "counts": self.counts.tolist(),
            "denominator": int(self.counts.sum()),
        }

    @classmethod
    def from_payload(cls, payload, k: int, m: int) -> "DiscretizedMessage":
        """Parse an untrusted claim of k intervals over the agreed m sample
        points, each holding the equal share m // k; any defect is a
        ProtocolViolation."""
        counts = parse_counts(payload, (k, 2), m)
        boundaries = parse_numbers(payload.get("boundaries"), (k + 1,))
        if boundaries[0] != 0.0 or boundaries[-1] != 1.0 or np.any(np.diff(boundaries) < 0):
            raise ProtocolViolation("boundaries must increase from 0 to 1")
        if np.any(counts.sum(axis=1) != m // k):
            raise ProtocolViolation("every interval must hold an equal share of the sample")
        return cls(boundaries, counts)


def honest_prover_partition(xs: np.ndarray, ys: np.ndarray, k: int) -> DiscretizedMessage:
    """Equal-share partition of a labeled sample into k intervals.

    Each interval receives exactly m/k sample points as a multiset, split by
    sorted-index rank; cut points sit midway between consecutive distinct
    values, and duplicates spanning a cut share the boundary value (resolved
    downstream by the half-open [a, b) convention). Applied to
    ``IntervalPopulation.sample``, this is the point-level reference that
    ``HonestIntervalProver.build_message`` reproduces exactly.
    """
    m = len(xs)
    if m % k != 0:
        raise ValueError("sample size must be a multiple of k")
    chunk = m // k
    order = np.argsort(xs, kind="stable")
    sx = np.asarray(xs, dtype=float)[order]
    sy = np.asarray(ys, dtype=np.int64)[order]
    left = sx[chunk - 1:m - 1:chunk]
    right = sx[chunk:m:chunk]
    inner = np.where(left < right, 0.5 * (left + right), left)
    boundaries = np.concatenate(([0.0], inner, [1.0]))
    ones = sy.reshape(k, chunk).sum(axis=1)
    counts = np.stack([chunk - ones, ones], axis=1)
    return DiscretizedMessage(boundaries, counts)


def map_to_interval(boundaries: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Interval index of each x under [b_{j-1}, b_j); x = 1.0 joins the last.

    No library path calls it: the verifier draws its counts from the bands'
    exact pushforward masses. It is kept because the benchmark's
    ``intervals.map`` span wraps it.
    """
    inner = np.asarray(boundaries, dtype=float)[1:-1]
    j = np.searchsorted(inner, xs, side="right")
    return np.clip(j, 0, len(inner))


def erm_runs(mass0: np.ndarray, mass1: np.ndarray, d: int) -> tuple[list, float]:
    """Exact minimizer of discrete 0-1 loss over unions of at most d index runs.

    Dynamic program over (position, intervals opened, inside/outside) where
    predicting 1 at position j costs mass0[j] and predicting 0 costs
    mass1[j]. Ties prefer fewer intervals, then lexicographically earliest
    runs. Returns (runs as (start, end) index pairs, minimum loss).
    """
    k = len(mass0)
    # best[u][p]: (loss, intervals still to open) from the current position on,
    # given u intervals opened and the previous position inside (p = 1) or not;
    # choice[j][u][p]: the (b, nu) that attains it at position j. Trying the
    # state switch first and keeping only strictly better candidates prefers
    # switching at exact ties, which yields the lexicographically earliest runs.
    best = [[(0.0, 0), (0.0, 0)] for _ in range(d + 1)]
    choice = [None] * k
    cost = np.stack([mass1, mass0], axis=1).tolist()  # cost[j][b]: predict b at j
    for j in range(k - 1, -1, -1):
        cur = [[None, None] for _ in range(d + 1)]
        choice[j] = [[None, None] for _ in range(d + 1)]
        for u in range(d + 1):
            for p in (0, 1):
                for b in (1 - p, p):
                    nu = u + (b > p)
                    if nu > d:
                        continue
                    tail = best[nu][b]
                    cand = (cost[j][b] + tail[0], nu - u + tail[1])
                    if cur[u][p] is None or cand < cur[u][p]:
                        cur[u][p], choice[j][u][p] = cand, (b, nu)
        best = cur
    inside = np.zeros(k, dtype=bool)
    u = p = 0
    for j in range(k):
        p, u = choice[j][u][p]
        inside[j] = p
    edges = np.flatnonzero(np.diff(inside, prepend=False, append=False))
    return [(int(s), int(e) - 1) for s, e in edges.reshape(-1, 2)], float(best[0][0][0])


def optimal_class_loss(pop: IntervalPopulation, d: int) -> float:
    """Exact optimum of 0-1 loss over unions of <= d intervals for a band population."""
    mass1 = pop.masses * pop.label1
    mass0 = pop.masses - mass1
    _, loss = erm_runs(mass0, mass1, d)
    return loss


# ---------------------------------------------------------------------------
# prover strategies


class HonestIntervalProver:
    """Follows the protocol: equal-share partition of a fresh i.i.d. sample.
    The count-editing adversaries below change only ``edit``."""

    def __init__(self, pop: IntervalPopulation, cfg: IntervalProtocolConfig):
        self.pop = pop
        self.cfg = cfg

    def build_message(self, rng) -> DiscretizedMessage:
        """The equal-share claim of ``honest_prover_partition(*pop.sample(m_p, rng), k)``,
        from the same draws in the same order, read off the bands.

        Sorted position r lies in the band whose cumulative count first
        exceeds r, and takes the label draw r. Its value is the band's center
        plus the band's r-th smallest jitter: bands are disjoint and in order,
        and adding a constant keeps order under rounding. So only the jitter
        blocks of bands holding a cut rank j * chunk - 1 or j * chunk are sorted.
        """
        pop, m, k, chunk = self.pop, self.cfg.m_p, self.cfg.k, self.cfg.chunk
        counts = rng.multinomial(m, pop.masses)
        jitter = rng.uniform(-pop.halfwidth, pop.halfwidth, size=m)
        ones = np.count_nonzero((rng.random(m) < np.repeat(pop.label1, counts)).reshape(k, chunk),
                                axis=1)
        ends = np.cumsum(counts)
        cuts = np.arange(chunk, m, chunk)
        ranks = np.concatenate([cuts - 1, cuts])
        bands = np.searchsorted(ends, ranks, side="right")
        for b in np.unique(bands):
            jitter[ends[b] - counts[b]:ends[b]].sort()
        values = pop.centers[bands] + jitter[ranks]
        left, right = values[:k - 1], values[k - 1:]
        inner = np.where(left < right, 0.5 * (left + right), left)
        boundaries = np.concatenate(([0.0], inner, [1.0]))
        return DiscretizedMessage(boundaries, np.stack([chunk - ones, ones], axis=1))

    def edit(self, counts: np.ndarray) -> np.ndarray:
        """The claimed (k, 2) label counts, given the prover's own."""
        return counts

    def open(self, rng):
        msg = self.build_message(rng)
        return DiscretizedMessage(msg.boundaries, self.edit(msg.counts)).to_payload()


class MassShiftProver(HonestIntervalProver):
    """Starts honest, then swaps label counts in enough intervals to push the
    claimed discretization more than epsilon/6 away in total variation."""

    def edit(self, counts):
        n_flip = math.ceil(self.cfg.k * self.cfg.epsilon / 2.0)
        counts[:n_flip] = counts[:n_flip, ::-1]
        return counts


class LabelSwapProver(HonestIntervalProver):
    """Reports every interval's label counts swapped."""

    def edit(self, counts):
        return counts[:, ::-1]


class WrongBoundaryProver(HonestIntervalProver):
    """Fabricates an equal-width partition with counts claiming all label-1
    mass inside [0, 0.5), making that region look optimal."""

    def open(self, rng):
        k, chunk = self.cfg.k, self.cfg.chunk
        boundaries = np.linspace(0.0, 1.0, k + 1)
        inside = 0.5 * (boundaries[:-1] + boundaries[1:]) < 0.5
        counts = np.where(inside[:, None], [0, chunk], [chunk, 0]).astype(np.int64)
        return DiscretizedMessage(boundaries, counts).to_payload()


INTERVAL_PROVERS = {
    "honest": HonestIntervalProver,
    "mass-shift": MassShiftProver,
    "label-swap": LabelSwapProver,
    "wrong-boundary": WrongBoundaryProver,
    "garbage": lambda pop, cfg: GarbageProver(),
    "silent": lambda pop, cfg: SilentProver(),
}


def make_interval_prover(name: str, pop: IntervalPopulation, cfg: IntervalProtocolConfig):
    if name not in INTERVAL_PROVERS:
        raise ValueError(f"unknown interval prover {name!r}")
    return INTERVAL_PROVERS[name](pop, cfg)


def make_protocol1_verifier(pop: IntervalPopulation, cfg: IntervalProtocolConfig):
    """The intervals verifier, bound to the population it draws its counts from.

    The claim's parse at (k, m_p) refuses unequal shares; the verifier then
    raises ProtocolViolation if the tolerant identity test refuses the claimed
    discretization, and otherwise returns the ERM hypothesis over the claim,
    a list of [start, end] intervals. The tester reads only occupancy counts
    over the (interval, label) atoms, so they are drawn directly:
    Multinomial(m_v, the claimed intervals' masses).
    """
    outer = cfg.epsilon / 6.0
    inner = outer / math.sqrt(2 * cfg.k)

    def verifier(channel, rng):
        msg = DiscretizedMessage.from_payload(channel.initial(), cfg.k, cfg.m_p)
        counts = rng.multinomial(cfg.m_v, pop.interval_label_masses(msg.boundaries).ravel())
        table = msg.counts / cfg.m_p
        if not test_from_counts(table.ravel(), counts, outer, inner).accept:
            raise ProtocolViolation("identity tester refused the claimed discretization")
        runs, _ = erm_runs(table[:, 0], table[:, 1], cfg.d)
        return [[float(msg.boundaries[s]), float(msg.boundaries[e + 1])] for s, e in runs]

    return verifier
