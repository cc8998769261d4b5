"""Verification of unions of d intervals over [0, 1].

The honest prover partitions [0, 1] into k = 12d/epsilon intervals holding
equal shares of its sample and reports per-interval label frequencies as
exact integer counts. The verifier checks the equal-share identity exactly,
runs the tolerant identity tester against the discretized population, and
outputs the empirical-risk minimizer over the reported discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSample, child_rng
from .harness import (
    GarbageProver,
    ProtocolViolation,
    SilentProver,
    VerificationParams,
    VerifierOutcome,
    parse_counts,
    run_interaction,
)
from .identity_test import IdentityTestConfig, required_samples, test_from_counts


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

    def __call__(self, xs):
        return self.contains(xs)

    def contains(self, xs):
        xs = np.asarray(xs, dtype=float)
        if not self.intervals:
            return np.zeros(xs.shape, dtype=bool)
        starts = np.array([a for a, _ in self.intervals])
        ends = np.array([b for _, b in self.intervals])
        i = np.searchsorted(starts, xs, side="right") - 1
        inside = (i >= 0) & (xs <= ends[np.clip(i, 0, None)])
        return inside

    def count(self) -> int:
        return len(self.intervals)

    def to_payload(self) -> list:
        return [[a, b] for a, b in self.intervals]


@dataclass(frozen=True)
class IntervalPopulation:
    """A labeled population over [0, 1] made of narrow uniform bands.

    Each band is uniform on [center - halfwidth, center + halfwidth], carries
    a total mass, and labels its points 1 with probability ``label1``.
    halfwidth = 0 degenerates to point masses. Bands with positive width give
    an atomless x-marginal, which the equal-share partition step needs; all
    losses remain available in closed form.
    """

    centers: np.ndarray
    masses: np.ndarray
    label1: np.ndarray
    halfwidth: float = 0.0

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
        if hw < 0:
            raise ValueError("halfwidth must be >= 0")
        if hw > 0:
            if centers[0] - hw < 0 or centers[-1] + hw > 1:
                raise ValueError("bands must stay inside [0, 1]")
            if np.any(np.diff(centers) < 2 * hw):
                raise ValueError("bands must be disjoint")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "label1", label1)
        object.__setattr__(self, "halfwidth", hw)

    @classmethod
    def grid_realizable(cls, n_points: int, target: UnionOfIntervals,
                        band_fraction: float = 0.25) -> "IntervalPopulation":
        """Uniform mass on an n-point grid, labeled by a target union of intervals."""
        centers = (np.arange(n_points) + 0.5) / n_points
        hw = band_fraction / n_points
        labels = target.contains(centers).astype(float)
        return cls(centers, np.full(n_points, 1.0 / n_points), labels, halfwidth=hw)

    def sample(self, m: int, rng: np.random.Generator) -> LabeledSample:
        """Draw m i.i.d. labeled points, returned sorted by x.

        Bands are disjoint and ordered and labels are independent of x, so
        sorting the jittered x's keeps each band's points in one block, and
        each sorted position draws its label from its own band.
        """
        counts = rng.multinomial(m, self.masses)
        xs = np.repeat(self.centers, counts)
        if self.halfwidth > 0:
            xs = np.sort(xs + rng.uniform(-self.halfwidth, self.halfwidth, size=m))
        ys = (rng.random(m) < np.repeat(self.label1, counts)).astype(np.int64)
        return LabeledSample(xs, ys)

    def _coverage(self, h: UnionOfIntervals) -> np.ndarray:
        """Fraction of each band covered by h."""
        if self.halfwidth == 0.0:
            return h.contains(self.centers).astype(float)
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
        if self.halfwidth == 0.0:
            share = (map_to_interval(boundaries, self.centers) == np.arange(len(a))[:, None]) * 1.0
        else:
            lo, hi = self.centers - self.halfwidth, self.centers + self.halfwidth
            share = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None) / (2 * self.halfwidth)
        ones = self.masses * self.label1
        return np.stack([share @ (self.masses - ones), share @ ones], axis=1)


@dataclass(frozen=True)
class IntervalProtocolConfig:
    d: int
    epsilon: float
    delta: float
    k: int
    m_v: int
    m_p: int
    tester_C: float = 2.0

    def __post_init__(self):
        inv_eps = 1.0 / self.epsilon
        if abs(inv_eps - round(inv_eps)) > 1e-9:
            raise ValueError("1/epsilon must be an integer")
        if self.k != round(12 * self.d * inv_eps):
            raise ValueError("k must equal 12d/epsilon")
        if self.m_p % self.k != 0:
            raise ValueError("m_p must be a multiple of k")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def chunk(self) -> int:
        return self.m_p // self.k

    def tester_config(self) -> IdentityTestConfig:
        return IdentityTestConfig(
            n=2 * self.k,
            epsilon=self.epsilon / 6.0,
            delta=self.delta / 2.0,
            constant_C=self.tester_C,
        )

    @classmethod
    def default(cls, d: int, epsilon: float, delta: float,
                c_v: float = 2.0, c_p: float = 8.0) -> "IntervalProtocolConfig":
        """Sample budgets following the protocol's asymptotic shapes.

        m_v is exactly the tolerant tester's budget at parameters
        (epsilon/6, delta/2) on support 2k; m_p follows
        (d^2 log(d/epsilon) + log(1/delta)) / epsilon^4, rounded up to a
        multiple of k. The constants c_v and c_p come from calibration.
        """
        k = round(12 * d / epsilon)
        tcfg = IdentityTestConfig(n=2 * k, epsilon=epsilon / 6.0, delta=delta / 2.0,
                                  constant_C=c_v)
        m_v = required_samples(tcfg)
        base = c_p * (d * d * math.log(max(d / epsilon, math.e)) + math.log(1.0 / delta)) / epsilon**4
        m_p = int(math.ceil(base / k) * k)
        return cls(d=d, epsilon=epsilon, delta=delta, k=k, m_v=m_v, m_p=m_p, tester_C=c_v)


@dataclass(frozen=True)
class DiscretizedMessage:
    """The prover's discretization claim: interval cut points and exact counts.

    Provers build it from their own arrays; a received claim goes through
    ``from_payload``, which validates it.
    """

    boundaries: np.ndarray  # k+1 points, 0 = b_0 <= ... <= b_k = 1
    counts: np.ndarray      # (k, 2) integer label counts
    denominator: int

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    def reference_probs(self) -> np.ndarray:
        """Claimed atom probabilities in (interval, label) order: (j,0), (j,1), ..."""
        return self.counts.ravel() / self.denominator

    def to_payload(self) -> dict:
        return {
            "boundaries": [float(b) for b in self.boundaries],
            "counts": [[int(c0), int(c1)] for c0, c1 in self.counts],
            "denominator": int(self.denominator),
        }

    @classmethod
    def from_payload(cls, payload) -> "DiscretizedMessage":
        """Parse and validate an untrusted claim; any defect is a ProtocolViolation."""
        if not isinstance(payload, dict):
            raise ProtocolViolation("message must be a JSON object")
        try:
            boundaries = np.asarray(payload.get("boundaries"), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolViolation(f"malformed boundaries: {exc}") from exc
        if boundaries.ndim != 1 or len(boundaries) < 2 or not np.isfinite(boundaries).all():
            raise ProtocolViolation("boundaries must be a list of at least two finite numbers")
        if boundaries[0] != 0.0 or boundaries[-1] != 1.0 or np.any(np.diff(boundaries) < 0):
            raise ProtocolViolation("boundaries must increase from 0 to 1")
        denominator = payload.get("denominator")
        counts = parse_counts(payload.get("counts"), (len(boundaries) - 1, 2), denominator)
        return cls(boundaries, counts, denominator)


def honest_prover_partition(xs: np.ndarray, ys: np.ndarray, k: int) -> DiscretizedMessage:
    """Equal-share partition of a labeled sample into k intervals.

    Each interval receives exactly m/k sample points as a multiset, split by
    sorted-index rank; cut points sit midway between consecutive distinct
    values, and duplicates spanning a cut share the boundary value (resolved
    downstream by the half-open [a, b) convention).
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
    return DiscretizedMessage(boundaries, counts, m)


def map_to_interval(boundaries: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Interval index of each x under [b_{j-1}, b_j); x = 1.0 joins the last."""
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
    if k == 0:
        return [], 0.0
    INF = (math.inf, math.inf)
    # togo[u][p]: best (loss, intervals still to open) from position j given
    # u intervals already opened and previous position inside (p = 1) or not
    togo = [[(0.0, 0.0), (0.0, 0.0)] for _ in range(d + 1)]
    layers = [None] * (k + 1)
    layers[k] = [row[:] for row in togo]
    for j in range(k - 1, -1, -1):
        nxt = layers[j + 1]
        cur = [[INF, INF] for _ in range(d + 1)]
        for u in range(d + 1):
            for p in (0, 1):
                best = INF
                for b in (0, 1):
                    nu = u + (1 if (b == 1 and p == 0) else 0)
                    if nu > d:
                        continue
                    step = mass0[j] if b == 1 else mass1[j]
                    tail = nxt[nu][b]
                    cand = (step + tail[0], (nu - u) + tail[1])
                    if cand < best:
                        best = cand
                cur[u][p] = best
        layers[j] = cur
    total_loss = layers[0][0][0][0]
    # forward reconstruction; at exact ties prefer switching state, which
    # yields the lexicographically earliest run list
    inside = np.zeros(k, dtype=bool)
    u, p = 0, 0
    for j in range(k):
        chosen = None
        for b in (1 - p, p):
            nu = u + (1 if (b == 1 and p == 0) else 0)
            if nu > d:
                continue
            step = mass0[j] if b == 1 else mass1[j]
            tail = layers[j + 1][nu][b]
            cand = (step + tail[0], (nu - u) + tail[1])
            if cand == layers[j][u][p]:
                chosen = (b, nu)
                break
        if chosen is None:  # float asymmetry fallback: take the argmin directly
            options = []
            for b in (1 - p, p):
                nu = u + (1 if (b == 1 and p == 0) else 0)
                if nu > d:
                    continue
                step = mass0[j] if b == 1 else mass1[j]
                tail = layers[j + 1][nu][b]
                options.append(((step + tail[0], (nu - u) + tail[1]), (b, nu)))
            chosen = min(options)[1]
        b, u = chosen[0], chosen[1]
        inside[j] = bool(b)
        p = b
    runs = []
    j = 0
    while j < k:
        if inside[j]:
            start = j
            while j < k and inside[j]:
                j += 1
            runs.append((start, j - 1))
        else:
            j += 1
    return runs, float(total_loss)


def verifier_protocol1(pop: IntervalPopulation, msg: DiscretizedMessage,
                       cfg: IntervalProtocolConfig, rng: np.random.Generator) -> VerifierOutcome:
    """The verifier side of the intervals protocol.

    Rejects on the exact equal-share identity failing, then on the tolerant
    identity test failing against the claimed discretization; otherwise
    outputs the ERM hypothesis over the claim. The tester reads only the
    sample's occupancy counts over the claim's (interval, label) atoms, so
    they are drawn directly: the counts of m_v i.i.d. points are
    Multinomial(m_v, pushforward masses of the claimed intervals).
    """
    if msg.k != cfg.k or msg.denominator != cfg.m_p:
        return VerifierOutcome.reject()
    if np.any(msg.counts.sum(axis=1) != cfg.chunk):
        return VerifierOutcome.reject()

    tcfg = cfg.tester_config()
    if cfg.m_v < required_samples(tcfg):
        raise ValueError(f"verifier budget m_v={cfg.m_v} is below the tester's "
                         f"{required_samples(tcfg)}")

    counts = rng.multinomial(cfg.m_v, pop.interval_label_masses(msg.boundaries).ravel())
    verdict = test_from_counts(msg.reference_probs(), counts, tcfg)
    if not verdict.accept:
        return VerifierOutcome.reject()

    table = msg.counts / cfg.m_p
    runs, _ = erm_runs(table[:, 0], table[:, 1], cfg.d)
    intervals = [[float(msg.boundaries[s]), float(msg.boundaries[e + 1])] for s, e in runs]
    return VerifierOutcome.of(intervals)


def optimal_class_loss(pop: IntervalPopulation, d: int) -> float:
    """Exact optimum of 0-1 loss over unions of <= d intervals for a band population."""
    mass1 = pop.masses * pop.label1
    mass0 = pop.masses - mass1
    _, loss = erm_runs(mass0, mass1, d)
    return loss


# ---------------------------------------------------------------------------
# prover strategies


class HonestIntervalProver:
    """Follows the protocol: equal-share partition of a fresh i.i.d. sample."""

    def __init__(self, pop: IntervalPopulation, cfg: IntervalProtocolConfig):
        self.pop = pop
        self.cfg = cfg

    def build_message(self, rng) -> DiscretizedMessage:
        s_p = self.pop.sample(self.cfg.m_p, rng)
        return honest_prover_partition(s_p.xs, s_p.ys, self.cfg.k)

    def open(self, params, rng):
        return self.build_message(rng).to_payload()

    def respond(self, payload, params, rng):
        return None  # one-shot protocol


class MassShiftProver(HonestIntervalProver):
    """Starts honest, then swaps label counts in enough intervals to push the
    claimed discretization more than epsilon/6 away in total variation."""

    def open(self, params, rng):
        msg = self.build_message(rng)
        n_flip = math.ceil(self.cfg.k * self.cfg.epsilon / 2.0)
        counts = msg.counts.copy()
        counts[:n_flip] = counts[:n_flip, ::-1]
        return DiscretizedMessage(msg.boundaries, counts, msg.denominator).to_payload()


class LabelSwapProver(HonestIntervalProver):
    """Reports every interval's label counts swapped."""

    def open(self, params, rng):
        msg = self.build_message(rng)
        return DiscretizedMessage(msg.boundaries, msg.counts[:, ::-1], msg.denominator).to_payload()


class WrongBoundaryProver:
    """Fabricates an equal-width partition with counts claiming all label-1
    mass inside a region of its choosing, making that region look optimal."""

    def __init__(self, cfg: IntervalProtocolConfig, region: tuple = (0.0, 0.5)):
        self.cfg = cfg
        self.region = region

    def open(self, params, rng):
        k, chunk = self.cfg.k, self.cfg.chunk
        boundaries = np.linspace(0.0, 1.0, k + 1)
        mids = 0.5 * (boundaries[:-1] + boundaries[1:])
        inside = (mids >= self.region[0]) & (mids < self.region[1])
        counts = np.where(inside[:, None], [0, chunk], [chunk, 0]).astype(np.int64)
        return DiscretizedMessage(boundaries, counts, self.cfg.m_p).to_payload()

    def respond(self, payload, params, rng):
        return None


INTERVAL_ADVERSARIES = {
    "mass-shift": MassShiftProver,
    "label-swap": LabelSwapProver,
    "wrong-boundary": WrongBoundaryProver,
}


def make_interval_prover(name: str, pop: IntervalPopulation, cfg: IntervalProtocolConfig):
    if name == "honest":
        return HonestIntervalProver(pop, cfg)
    if name == "wrong-boundary":
        return WrongBoundaryProver(cfg)
    if name in INTERVAL_ADVERSARIES:
        return INTERVAL_ADVERSARIES[name](pop, cfg)
    if name == "garbage":
        return GarbageProver()
    if name == "silent":
        return SilentProver()
    raise ValueError(f"unknown interval prover {name!r}")


def make_protocol1_verifier(pop: IntervalPopulation, cfg: IntervalProtocolConfig):
    """Verifier strategy bound to the population it draws its counts from."""

    def verifier(channel, params, rng):
        msg = DiscretizedMessage.from_payload(channel.initial())
        return verifier_protocol1(pop, msg, cfg, rng)

    return verifier


def protocol1_end_to_end(pop: IntervalPopulation, cfg: IntervalProtocolConfig,
                         seed: int, prover=None):
    """Run one full interaction; returns the transcript."""
    if prover is None:
        prover = HonestIntervalProver(pop, cfg)
    params = VerificationParams(cfg.epsilon, cfg.delta)
    verifier = make_protocol1_verifier(pop, cfg)
    return run_interaction(verifier, prover, params, seed)
