"""Verification of statistical-query algorithms over finite domains.

An SQ algorithm learns by asking batches of indicator queries and receiving
their expectations to within a precision tau. The verifier simulates the
algorithm while outsourcing distribution estimation to an untrusted prover: per
batch it computes the atoms of the sigma-algebra the batch generates, sends the
prover that partition (the atom index of every domain element), receives the
prover's claimed atom distribution, tests it in ``tested_claim`` against its
own (much smaller) sample, and answers the algorithm from the claim. The whole
simulation is repeated and the best output is selected on a holdout sample. A
query batch is an immutable value, validated and stacked once into a read-only
int8 matrix whose shape and bytes are its key; within one verifier run the
partition is computed once per distinct key, since the T simulations of a
deterministic algorithm ask the same batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import DiscreteDistribution, child_rng
from .harness import ProtocolViolation, parse_counts
from .identity_test import required_samples, tested_claim


@dataclass(frozen=True, eq=False)
class Query:
    """An indicator function on a finite domain, given by its value table."""

    values: np.ndarray  # one {0,1} entry per domain element, a read-only int8 copy

    def __post_init__(self):
        raw = np.asarray(self.values)
        # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
        if raw.ndim != 1 or not ((raw == 0) | (raw == 1)).all():
            raise ValueError("query values must be a flat 0/1 table")
        values = raw.astype(np.int8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """A nonempty batch of queries on one domain, an immutable value.

    The rows are stacked once into a read-only (q, N) int8 matrix, and
    ``key``, the matrix's shape and bytes, identifies the batch by content:
    two equal batches built apart share a key (``==`` and ``hash`` go by identity).
    """

    queries: tuple
    key: tuple = field(init=False, repr=False)
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        queries = tuple(self.queries)
        if not queries:
            raise ValueError("batch must be nonempty")
        if len({len(q.values) for q in queries}) != 1:
            raise ValueError("all queries must share one domain")
        m = np.stack([q.values for q in queries])
        m.setflags(write=False)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "key", (m.shape, m.tobytes()))

    def matrix(self) -> np.ndarray:
        return self._matrix


@dataclass(frozen=True)
class AtomPartition:
    """Atoms of the sigma-algebra a query batch generates on a finite domain.

    Two elements share an atom iff every query in the batch agrees on them.
    ``signature`` maps element -> atom index; ``atom_query_values[i, j]`` is
    the (constant) value of query i on atom j, as a float, so every query is
    a union of atoms by construction. Both arrays are read-only.
    """

    signature: np.ndarray
    atom_query_values: np.ndarray

    @property
    def size(self) -> int:
        return self.atom_query_values.shape[1]

    def atom_counts(self, element_counts: np.ndarray) -> np.ndarray:
        """Aggregate per-element occupancy counts into per-atom counts (float
        sums of counts are exact below 2**53, which the config's budget bound
        keeps them within; every atom holds an element)."""
        return np.bincount(self.signature, weights=element_counts).astype(np.int64)


def atoms_of(batch: QueryBatch) -> AtomPartition:
    """Atoms as equivalence classes of the per-element query-signature vectors,
    in lexicographic order of the signatures.

    Each element's column is sorted once as raw bytes (one numpy void item):
    the values are 0/1 int8, so byte order is the row order that
    ``np.unique(matrix.T, axis=0)`` gives, without its field-by-field compares.
    """
    columns = np.ascontiguousarray(batch.matrix().T)
    keys = columns.view(np.dtype((np.void, columns.shape[1]))).ravel()
    _, first, signature = np.unique(keys, return_index=True, return_inverse=True)
    values = columns[first].T.astype(float)
    signature.setflags(write=False)
    values.setflags(write=False)
    return AtomPartition(signature=signature, atom_query_values=values)


def induced_evaluations(ap: AtomPartition, atom_probs: np.ndarray) -> np.ndarray:
    """Query expectations induced by a distribution over the atoms.

    Each query is a union of atoms, so its induced value is the sum of the
    masses of the atoms it contains. When ``atom_probs`` equals the true atom
    distribution this reproduces the exact query expectations.
    """
    return ap.atom_query_values @ atom_probs


def iteration_count(epsilon: float, delta: float) -> int:
    """Number of independent simulations, ceil(8 log(4/delta) / epsilon)."""
    return math.ceil(8.0 * math.log(4.0 / delta) / epsilon)


@dataclass(frozen=True)
class SqProtocolConfig:
    """Bounds for one verified SQ run, with budgets derived from c_v and c_p.

    ``b`` bounds the number of query batches, ``s`` the partition size
    (atom count) of any single batch; the per-batch identity test runs at
    confidence 1 - epsilon*delta/(4b) at ``radii(atoms)``: outer radius tau,
    inner radius tau/(2 sqrt(atoms)). m_v is that test's budget at the worst
    admissible atom count s, m_p ~ s^2 / tau^2 puts the prover's accuracy well
    inside the inner radius, and the holdout is sized for uniform convergence of the T
    candidate losses to epsilon/2.
    """

    tau: float
    b: int
    s: int
    epsilon: float
    delta: float
    c_v: float
    c_p: float
    m_v: int = field(init=False)
    m_v_holdout: int = field(init=False)
    m_p: int = field(init=False)
    # one main sample serves all T simulations; a class constant, since the
    # benchmark's verifier-sample counter reads it
    fresh_samples: ClassVar[bool] = False

    def __post_init__(self):
        for name in ("tau", "epsilon", "delta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.b < 1 or self.s < 1:
            raise ValueError("batch and partition bounds must be >= 1")
        m_v = required_samples(self.s, self.tau, self.epsilon * self.delta / (4.0 * self.b), self.c_v)
        m_hold = math.ceil(2.0 * math.log(16.0 * self.T / self.delta) / self.epsilon**2)
        m_p = math.ceil(self.c_p * self.s * self.s / self.tau**2)
        if min(m_v, m_hold, m_p) < 1:
            raise ValueError("sample budgets must be >= 1")
        if max(m_v, m_hold, m_p) >= 2**53:
            raise OverflowError("sample budgets must be below 2**53, where float counts are exact")
        for name, value in (("m_v", m_v), ("m_v_holdout", m_hold), ("m_p", m_p)):
            object.__setattr__(self, name, value)

    @property
    def T(self) -> int:
        return iteration_count(self.epsilon, self.delta)

    def radii(self, atoms: int) -> tuple[float, float]:
        """The per-batch tester's (outer, inner) radii on ``atoms`` atoms."""
        return self.tau, self.tau / (2.0 * math.sqrt(atoms))

    @classmethod
    def default(cls, tau: float, epsilon: float, delta: float, s: int, b: int = 1,
                c_v: float = 4.0, c_p: float = 16.0) -> "SqProtocolConfig":
        """The config at c_v = 4 and c_p = 16, fixed values at which acceptance
        criterion 6 holds."""
        return cls(tau=tau, b=b, s=s, epsilon=epsilon, delta=delta, c_v=c_v, c_p=c_p)


# ---------------------------------------------------------------------------
# algorithms


class SqAlgorithm:
    """Behavioral contract: a stateful learner driven by query evaluations.

    ``reset(rng)`` starts a fresh transcript with the given internal
    randomness; ``step(evaluations)`` consumes the answers to the previous
    batch (None on the first call) and returns either ("batch", QueryBatch)
    or ("output", hypothesis). Steps must be deterministic given the
    transcript so far and the reset-time randomness.
    """

    def reset(self, rng) -> None:
        raise NotImplementedError

    def step(self, evaluations):
        raise NotImplementedError


class PortfolioAlgorithm(SqAlgorithm):
    """Select the n heaviest-looking items out of N using one query batch.

    The single batch asks the mass of each block of a fixed partition of the
    item set into ``num_blocks`` contiguous blocks (so the batch's atoms are
    exactly the blocks). ``sizes`` holds the block sizes and ``block_of`` the
    block of each item. The output is the n items of highest estimated
    per-item mass, the lower block and then the lower item first at ties.
    The 0-1 loss of the output S on item i is 1 when i is not in S.
    """

    def __init__(self, N: int, n: int, num_blocks: int):
        if 2 * n > N:
            raise ValueError("need 2n <= N")
        if not 1 <= num_blocks <= N:
            raise ValueError("num_blocks must lie in [1, N]")
        self.N = N
        self.n = n
        self.num_blocks = num_blocks
        # contiguous blocks, sizes differing by at most one
        self.sizes = np.diff(np.linspace(0, N, num_blocks + 1).round().astype(int))
        self.block_of = np.repeat(np.arange(num_blocks), self.sizes)
        rows = (np.arange(num_blocks)[:, None] == self.block_of).astype(np.int8)
        self.batch = QueryBatch(tuple(map(Query, rows)))
        self._sent = False

    def reset(self, rng) -> None:
        self._sent = False

    def step(self, evaluations):
        if not self._sent:
            self._sent = True
            return ("batch", self.batch)
        per_item = np.asarray(evaluations, dtype=float) / self.sizes
        # blocks are contiguous, so a stable sort of the items breaks ties by
        # lower block, then lower item
        order = np.argsort(-per_item[self.block_of], kind="stable")
        return ("output", sorted(order[:self.n].tolist()))


def portfolio_population_loss(selection, dist: DiscreteDistribution) -> float:
    """Exact expected loss of a selection S: P[item not in S]."""
    sel = np.asarray(list(selection), dtype=int)
    return 1.0 - float(dist.probs[sel].sum())


# ---------------------------------------------------------------------------
# direct (unverified) simulation


# the most batches an unverified simulation answers before it gives up
MAX_BATCHES = 10_000


def simulate_algorithm(alg: SqAlgorithm, dist: DiscreteDistribution, rng):
    """Run an SQ algorithm to completion, answering every query with its
    exact expectation under ``dist``; returns its output."""
    alg.reset(rng)
    kind, value = alg.step(None)
    batches = 0
    while kind == "batch":
        batches += 1
        if batches > MAX_BATCHES:
            raise RuntimeError("algorithm exceeded the batch cap")
        kind, value = alg.step(value.matrix().astype(float) @ dist.probs)
    return value


def simulation_sample_cost(d: int, tau: float, delta: float) -> int:
    """Samples needed to answer d-atom batches to precision tau directly,
    (d + log(1/delta)) / tau^2, the cost the verified protocol avoids."""
    return math.ceil((d + math.log(1.0 / delta)) / tau**2)


# ---------------------------------------------------------------------------
# the verified protocol


def verifier_iteration(element_counts_v: np.ndarray, alg: SqAlgorithm, channel,
                       cfg: SqProtocolConfig, iteration: int, rng, partitions: dict):
    """Simulate one full run of the algorithm through the prover channel.

    Per batch: look up or compute the atoms, send the prover their partition,
    test its claimed atom distribution in ``tested_claim`` at ``cfg.radii``,
    and feed the claim's induced evaluations back to the algorithm. Returns
    the algorithm's output; raises ProtocolViolation, naming the gate, when
    the algorithm asks more than ``cfg.b`` batches, a batch has more than
    ``cfg.s`` atoms, or the tester refuses a claim.

    ``partitions`` memoises atom partitions by ``batch.key``, the content
    key each batch computes once from its read-only matrix, so a fresh but
    equal batch hits the memo and a repeat lookup hashes no matrix; pass one
    dict to every simulation of a run.
    """
    alg.reset(rng)
    kind, value = alg.step(None)
    t = 0
    while kind == "batch":
        t += 1
        if t > cfg.b:
            raise ProtocolViolation(f"batch bound: the algorithm asked more than {cfg.b} batches")
        batch = value
        ap = partitions.get(batch.key)
        if ap is None:
            ap = partitions[batch.key] = atoms_of(batch)
        if ap.size > cfg.s:
            raise ProtocolViolation(f"partition bound: {ap.size} atoms exceed {cfg.s}")
        reply = channel.ask({
            "iteration": iteration,
            "batch": t,
            "atoms": ap.signature.tolist(),
        })
        claimed = tested_claim(parse_counts(reply, (ap.size,), cfg.m_p), cfg.m_p,
                               ap.atom_counts(element_counts_v), *cfg.radii(ap.size))
        kind, value = alg.step(induced_evaluations(ap, claimed))
    return value


def make_sq_verifier(dist: DiscreteDistribution, alg: SqAlgorithm, cfg: SqProtocolConfig,
                     holdout_loss):
    """Verifier strategy: T independent simulations, then holdout selection.

    Each simulation resets ``alg`` with fresh randomness and runs it to its
    output. ``holdout_loss(hypothesis, element_counts, total)`` scores a
    candidate on the holdout occupancy counts. The main sample is reused
    across all T iterations; the atom partition of each distinct batch is
    computed once per run.
    """

    def verifier(channel, rng):
        element_counts_v = rng.multinomial(cfg.m_v, dist.probs)
        holdout_counts = rng.multinomial(cfg.m_v_holdout, dist.probs)
        partitions: dict = {}
        candidates = [verifier_iteration(element_counts_v, alg, channel, cfg, i, rng, partitions)
                      for i in range(cfg.T)]
        losses = [holdout_loss(h, holdout_counts, cfg.m_v_holdout) for h in candidates]
        return candidates[int(np.argmin(losses))]

    return verifier


def portfolio_holdout_loss(selection, element_counts: np.ndarray, total: int) -> float:
    sel = np.asarray(list(selection), dtype=int)
    return 1.0 - float(element_counts[sel].sum()) / total


# ---------------------------------------------------------------------------
# prover strategies


class HonestSqProver:
    """Draws one sample up front and reports its empirical atom counts,
    aggregated over the atom partition each verifier message carries. The
    adversaries below change only ``edit`` or ``_atom_counts``."""

    def __init__(self, dist: DiscreteDistribution, cfg: SqProtocolConfig):
        self.dist = dist
        self.cfg = cfg
        self._element_counts = None

    def _atom_counts(self, payload, rng) -> np.ndarray:
        if self._element_counts is None:
            self._element_counts = rng.multinomial(self.cfg.m_p, self.dist.probs)
        return np.bincount(payload["atoms"], weights=self._element_counts).astype(np.int64)

    def edit(self, counts: np.ndarray) -> np.ndarray:
        """The claimed atom counts, given the prover's own."""
        return counts

    def respond(self, payload, rng):
        counts = self.edit(self._atom_counts(payload, rng))
        return {"counts": counts.tolist(), "denominator": int(self.cfg.m_p)}


class MassShiftSqProver(HonestSqProver):
    """Moves 2*tau of claimed mass from the heaviest atom to the lightest,
    placing the claim at total variation 2*tau from the honest one."""

    def edit(self, counts):
        if len(counts) >= 2:
            shift = min(int(round(2.0 * self.cfg.tau * self.cfg.m_p)), int(counts.max()))
            counts[int(np.argmax(counts))] -= shift
            counts[int(np.argmin(counts))] += shift
        return counts


class AtomSwapSqProver(HonestSqProver):
    """Swaps the claimed masses of the two heaviest atoms."""

    def edit(self, counts):
        if len(counts) >= 2:
            top = np.argsort(-counts, kind="stable")[:2]
            counts[top[0]], counts[top[1]] = counts[top[1]], counts[top[0]]
        return counts


class StaleSqProver(HonestSqProver):
    """Reports atom frequencies of the uniform distribution regardless of D."""

    def _atom_counts(self, payload, rng):
        n = len(self.dist)
        atom_probs = np.bincount(payload["atoms"], weights=np.full(n, 1.0 / n))
        counts = np.floor(atom_probs * self.cfg.m_p).astype(np.int64)
        counts[0] += self.cfg.m_p - int(counts.sum())
        return counts


SQ_PROVERS = {
    "honest": HonestSqProver,
    "mass-shift": MassShiftSqProver,
    "atom-swap": AtomSwapSqProver,
    "stale": StaleSqProver,
}


def make_sq_prover(name: str, dist: DiscreteDistribution, cfg: SqProtocolConfig):
    if name not in SQ_PROVERS:
        raise ValueError(f"unknown sq prover {name!r}")
    return SQ_PROVERS[name](dist, cfg)


# ---------------------------------------------------------------------------
# experiments


def zipf_distribution(N: int, a: float = 1.0) -> DiscreteDistribution:
    # an exponent far below 0 gives a NaN vector, which DiscreteDistribution refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = 1.0 / np.arange(1, N + 1, dtype=float) ** a
        probs = weights / weights.sum()
    return DiscreteDistribution(probs)


def portfolio_baseline(dist: DiscreteDistribution, N: int, n: int, num_blocks: int) -> float:
    """Exact loss of the algorithm answered with exact query expectations:
    the baseline the verification guarantee compares against."""
    alg = PortfolioAlgorithm(N, n, num_blocks)
    selection = simulate_algorithm(alg, dist, child_rng(0))
    return portfolio_population_loss(selection, dist)
