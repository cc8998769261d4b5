"""Verification of statistical-query algorithms over finite domains.

An SQ algorithm learns by asking batches of indicator queries and receiving
their expectations to within a precision tau. The verifier simulates the
algorithm while outsourcing distribution estimation to an untrusted prover:
per batch it computes the atoms of the sigma-algebra the batch generates,
receives the prover's claimed atom distribution, identity-tests the claim
against its own (much smaller) sample, and answers the algorithm from the
claim. The whole simulation is repeated and the best output is selected on a
holdout sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution, child_rng
from .harness import (
    ProtocolViolation,
    VerificationParams,
    VerifierOutcome,
    parse_counts,
    run_interaction,
)
from .identity_test import IdentityTestConfig, test_from_counts


@dataclass(frozen=True)
class Query:
    """An indicator function on a finite domain, given by its value table."""

    values: np.ndarray  # one {0,1} entry per domain element

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int8)
        if values.ndim != 1 or not np.isin(values, (0, 1)).all():
            raise ValueError("query values must be a flat 0/1 table")
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return self.values[x]


@dataclass(frozen=True)
class QueryBatch:
    queries: tuple

    def __post_init__(self):
        if not self.queries:
            raise ValueError("batch must be nonempty")
        sizes = {len(q.values) for q in self.queries}
        if len(sizes) != 1:
            raise ValueError("all queries must share one domain")
        object.__setattr__(self, "queries", tuple(self.queries))

    def matrix(self) -> np.ndarray:
        return np.stack([q.values for q in self.queries])

    def to_payload(self) -> list:
        return self.matrix().tolist()


@dataclass(frozen=True)
class AtomPartition:
    """Atoms of the sigma-algebra a query batch generates on a finite domain.

    Two elements share an atom iff every query in the batch agrees on them.
    ``signature`` maps element -> atom index; ``atom_query_values[i, j]`` is
    the (constant) value of query i on atom j, so every query is a union of
    atoms by construction.
    """

    signature: np.ndarray
    atom_query_values: np.ndarray

    @property
    def size(self) -> int:
        return self.atom_query_values.shape[1]

    def atom_counts(self, element_counts: np.ndarray) -> np.ndarray:
        """Aggregate per-element occupancy counts into per-atom counts."""
        out = np.zeros(self.size, dtype=np.int64)
        np.add.at(out, self.signature, np.asarray(element_counts, dtype=np.int64))
        return out

    def true_atom_probs(self, dist: DiscreteDistribution) -> np.ndarray:
        out = np.zeros(self.size)
        np.add.at(out, self.signature, dist.probs)
        return out


def atoms_of(batch: QueryBatch) -> AtomPartition:
    """Atoms as equivalence classes of the per-element query-signature vectors.

    Atom order follows numpy's lexicographic unique-row order, which both
    sides of the protocol recompute identically from the batch.
    """
    uniq, inverse = np.unique(batch.matrix().T, axis=0, return_inverse=True)
    return AtomPartition(signature=inverse.ravel(), atom_query_values=uniq.T)


def induced_evaluations(ap: AtomPartition, atom_probs: np.ndarray) -> np.ndarray:
    """Query expectations induced by a distribution over the atoms.

    Each query is a union of atoms, so its induced value is the sum of the
    masses of the atoms it contains. When ``atom_probs`` equals the true atom
    distribution this reproduces the exact query expectations.
    """
    atom_probs = np.asarray(atom_probs, dtype=float)
    if atom_probs.shape != (ap.size,):
        raise ValueError("one probability per atom required")
    return ap.atom_query_values.astype(float) @ atom_probs


def iteration_count(epsilon: float, delta: float) -> int:
    """Number of independent simulations, ceil(8 log(4/delta) / epsilon)."""
    return math.ceil(8.0 * math.log(4.0 / delta) / epsilon)


@dataclass(frozen=True)
class SqProtocolConfig:
    """Budgets and bounds for one verified SQ run.

    ``b`` bounds the number of query batches, ``s`` the partition size
    (atom count) of any single batch; the per-batch identity test runs at
    confidence 1 - epsilon*delta/(4b) with inner radius tau/(2 sqrt(atoms))
    and outer radius tau. ``fresh_samples`` redraws the verifier sample each
    iteration instead of reusing one sample across all of them.
    """

    tau: float
    b: int
    s: int
    epsilon: float
    delta: float
    m_v: int
    m_v_holdout: int
    m_p: int
    tester_C: float = 4.0
    fresh_samples: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.b < 1 or self.s < 1:
            raise ValueError("batch and partition bounds must be >= 1")
        if min(self.m_v, self.m_v_holdout, self.m_p) < 1:
            raise ValueError("sample budgets must be >= 1")

    @property
    def T(self) -> int:
        return iteration_count(self.epsilon, self.delta)

    @property
    def per_test_delta(self) -> float:
        return self.epsilon * self.delta / (4.0 * self.b)

    def tester_config(self, atom_count: int) -> IdentityTestConfig:
        return IdentityTestConfig(
            n=atom_count,
            epsilon=self.tau,
            delta=self.per_test_delta,
            constant_C=self.tester_C,
            inner_radius=self.tau / (2.0 * math.sqrt(atom_count)),
        )

    @classmethod
    def default(cls, tau: float, epsilon: float, delta: float, s: int, b: int = 1,
                c_v: float = 4.0, c_p: float = 16.0) -> "SqProtocolConfig":
        """Budgets at the protocol's asymptotic shapes with calibrated constants.

        m_v ~ sqrt(s) log(1/delta') / tau^2 (the tolerant tester at the worst
        admissible atom count), m_p ~ s^2 / tau^2 (prover accuracy well inside
        the inner radius), and a holdout sized for uniform convergence of the
        T candidate losses to epsilon/2.
        """
        delta_test = epsilon * delta / (4.0 * b)
        m_v = math.ceil(c_v * math.sqrt(s) * math.log(2.0 / delta_test) / tau**2)
        m_p = math.ceil(c_p * s * s / tau**2)
        T = iteration_count(epsilon, delta)
        m_hold = math.ceil(2.0 * math.log(16.0 * T / delta) / epsilon**2)
        return cls(tau=tau, b=b, s=s, epsilon=epsilon, delta=delta,
                   m_v=m_v, m_v_holdout=m_hold, m_p=m_p, tester_C=c_v)


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
    exactly the blocks). Items are then taken greedily from the blocks in
    decreasing order of estimated per-item mass, lowest item index first.
    The 0-1 loss of the output S on item i is 1 when i is not in S.
    """

    def __init__(self, N: int, n: int, num_blocks: int | None = None):
        if 2 * n > N:
            raise ValueError("need 2n <= N")
        if num_blocks is None:
            num_blocks = min(N, 2 * n)
        if not 1 <= num_blocks <= N:
            raise ValueError("num_blocks must lie in [1, N]")
        self.N = N
        self.n = n
        self.num_blocks = num_blocks
        # contiguous blocks, sizes differing by at most one
        edges = np.linspace(0, N, num_blocks + 1).round().astype(int)
        self.blocks = [np.arange(edges[j], edges[j + 1]) for j in range(num_blocks)]
        self._sent = False

    def reset(self, rng) -> None:
        self._sent = False

    def batch(self) -> QueryBatch:
        queries = []
        for block in self.blocks:
            values = np.zeros(self.N, dtype=np.int8)
            values[block] = 1
            queries.append(Query(values))
        return QueryBatch(tuple(queries))

    def step(self, evaluations):
        if not self._sent:
            self._sent = True
            return ("batch", self.batch())
        v = np.asarray(evaluations, dtype=float)
        per_item = v / np.array([len(b) for b in self.blocks])
        order = np.argsort(-per_item, kind="stable")  # ties: lower block first
        chosen: list = []
        for j in order:
            for i in self.blocks[j]:
                if len(chosen) == self.n:
                    break
                chosen.append(int(i))
            if len(chosen) == self.n:
                break
        return ("output", sorted(chosen))


def portfolio_population_loss(selection, dist: DiscreteDistribution) -> float:
    """Exact expected loss of a selection S: P[item not in S]."""
    sel = np.asarray(list(selection), dtype=int)
    return 1.0 - float(dist.probs[sel].sum())


# ---------------------------------------------------------------------------
# SQ oracles for direct (unverified) simulation


class ExactOracle:
    """Answers every query with its exact expectation."""

    def __init__(self, dist: DiscreteDistribution):
        self.probs = dist.probs

    def evaluate_batch(self, batch: QueryBatch) -> np.ndarray:
        return batch.matrix().astype(float) @ self.probs


def simulate_algorithm(alg: SqAlgorithm, oracle, rng, max_batches: int = 10_000):
    """Run an SQ algorithm to completion against an oracle; returns its output."""
    alg.reset(rng)
    kind, value = alg.step(None)
    batches = 0
    while kind == "batch":
        batches += 1
        if batches > max_batches:
            raise RuntimeError("algorithm exceeded the batch cap")
        kind, value = alg.step(oracle.evaluate_batch(value))
    return value


def simulation_sample_cost(d: int, tau: float, delta: float) -> int:
    """Samples needed to answer d-atom batches to precision tau directly,
    (d + log(1/delta)) / tau^2, the cost the verified protocol avoids."""
    return math.ceil((d + math.log(1.0 / delta)) / tau**2)


# ---------------------------------------------------------------------------
# the verified protocol


_REJECT = object()


def verifier_iteration(element_counts_v: np.ndarray, alg: SqAlgorithm, channel,
                       cfg: SqProtocolConfig, iteration: int, rng,
                       instrument=None):
    """Simulate one full run of the algorithm through the prover channel.

    Per batch: recompute the atoms, obtain the prover's claimed atom
    distribution, identity-test it against the verifier sample's atom counts,
    and feed the claim's induced evaluations back to the algorithm. Returns
    the algorithm's output, or the module-level reject sentinel on any bound
    or test failure.
    """
    alg.reset(rng)
    kind, value = alg.step(None)
    t = 0
    while kind == "batch":
        t += 1
        if t > cfg.b:
            return _REJECT
        batch = value
        ap = atoms_of(batch)
        if ap.size > cfg.s:
            return _REJECT
        reply = channel.ask({
            "iteration": iteration,
            "batch": t,
            "queries": batch.to_payload(),
        })
        claimed = _parse_atom_claim(reply, ap.size, cfg.m_p)
        if ap.size >= 2:
            atom_counts = ap.atom_counts(element_counts_v)
            verdict = test_from_counts(claimed.probs, atom_counts, cfg.tester_config(ap.size))
            if not verdict.accept:
                return _REJECT
        evaluations = induced_evaluations(ap, claimed.probs)
        if instrument is not None:
            instrument(batch, ap, claimed, evaluations)
        kind, value = alg.step(evaluations)
    return value


def _parse_atom_claim(reply, atom_count: int, m_p: int) -> DiscreteDistribution:
    if not isinstance(reply, dict):
        raise ProtocolViolation("atom claim must be a JSON object")
    denominator = reply.get("denominator")
    counts = parse_counts(reply.get("counts"), (atom_count,), denominator)
    if denominator != m_p:
        raise ProtocolViolation("atom counts must sum to the agreed denominator")
    return DiscreteDistribution.from_counts(tuple(range(atom_count)), counts)


def make_sq_verifier(dist: DiscreteDistribution, alg_factory, cfg: SqProtocolConfig,
                     holdout_loss, instrument=None):
    """Verifier strategy: T independent simulations, then holdout selection.

    ``holdout_loss(hypothesis, element_counts, total)`` scores a candidate on
    the holdout occupancy counts. The main sample is reused across all T
    iterations unless cfg.fresh_samples is set.
    """

    def verifier(channel, params, rng):
        element_counts_v = rng.multinomial(cfg.m_v, dist.probs)
        holdout_counts = rng.multinomial(cfg.m_v_holdout, dist.probs)
        candidates = []
        for i in range(cfg.T):
            if cfg.fresh_samples and i > 0:
                element_counts_v = rng.multinomial(cfg.m_v, dist.probs)
            result = verifier_iteration(element_counts_v, alg_factory(), channel,
                                        cfg, i, rng, instrument=instrument)
            if result is _REJECT:
                return VerifierOutcome.reject()
            candidates.append(result)
        losses = [holdout_loss(h, holdout_counts, cfg.m_v_holdout) for h in candidates]
        return VerifierOutcome.of(candidates[int(np.argmin(losses))])

    return verifier


def portfolio_holdout_loss(selection, element_counts: np.ndarray, total: int) -> float:
    sel = np.asarray(list(selection), dtype=int)
    return 1.0 - float(element_counts[sel].sum()) / total


# ---------------------------------------------------------------------------
# prover strategies


class HonestSqProver:
    """Draws one sample up front and reports its empirical atom frequencies.

    Atom partitions are recomputed from each received batch exactly as the
    verifier computes them, so atom indices agree by construction.
    """

    def __init__(self, dist: DiscreteDistribution, cfg: SqProtocolConfig):
        self.dist = dist
        self.cfg = cfg
        self._element_counts = None
        self._cache: dict = {}

    def open(self, params, rng):
        return {"ready": True}

    def _atom_counts(self, payload, rng) -> np.ndarray:
        if self._element_counts is None:
            self._element_counts = rng.multinomial(self.cfg.m_p, self.dist.probs)
        mat = np.asarray(payload["queries"], dtype=np.int8)
        key = mat.tobytes()
        if key not in self._cache:
            ap = atoms_of(QueryBatch(tuple(Query(row) for row in mat)))
            self._cache[key] = ap.atom_counts(self._element_counts)
        return self._cache[key]

    def respond(self, payload, params, rng):
        counts = self._atom_counts(payload, rng)
        return {"counts": [int(c) for c in counts], "denominator": int(self.cfg.m_p)}


class MassShiftSqProver(HonestSqProver):
    """Moves 2*tau of claimed mass from the heaviest atom to the lightest,
    placing the claim at total variation 2*tau from the honest one."""

    def respond(self, payload, params, rng):
        counts = self._atom_counts(payload, rng).copy()
        if len(counts) >= 2:
            shift = min(int(round(2.0 * self.cfg.tau * self.cfg.m_p)), int(counts.max()))
            counts[int(np.argmax(counts))] -= shift
            counts[int(np.argmin(counts))] += shift
        return {"counts": [int(c) for c in counts], "denominator": int(self.cfg.m_p)}


class AtomSwapSqProver(HonestSqProver):
    """Swaps the claimed masses of the two heaviest atoms."""

    def respond(self, payload, params, rng):
        counts = self._atom_counts(payload, rng).copy()
        if len(counts) >= 2:
            top = np.argsort(-counts, kind="stable")[:2]
            counts[top[0]], counts[top[1]] = counts[top[1]], counts[top[0]]
        return {"counts": [int(c) for c in counts], "denominator": int(self.cfg.m_p)}


class StaleSqProver:
    """Reports atom frequencies of the uniform distribution regardless of D."""

    def __init__(self, dist: DiscreteDistribution, cfg: SqProtocolConfig):
        self.cfg = cfg
        self.n_elements = len(dist)

    def open(self, params, rng):
        return {"ready": True}

    def respond(self, payload, params, rng):
        mat = np.asarray(payload["queries"], dtype=np.int8)
        ap = atoms_of(QueryBatch(tuple(Query(row) for row in mat)))
        uniform = np.full(self.n_elements, 1.0 / self.n_elements)
        atom_probs = np.zeros(ap.size)
        np.add.at(atom_probs, ap.signature, uniform)
        counts = np.floor(atom_probs * self.cfg.m_p).astype(np.int64)
        counts[0] += self.cfg.m_p - int(counts.sum())
        return {"counts": [int(c) for c in counts], "denominator": int(self.cfg.m_p)}


SQ_ADVERSARIES = {
    "mass-shift": MassShiftSqProver,
    "atom-swap": AtomSwapSqProver,
    "stale": StaleSqProver,
}


def make_sq_prover(name: str, dist: DiscreteDistribution, cfg: SqProtocolConfig):
    if name == "honest":
        return HonestSqProver(dist, cfg)
    if name in SQ_ADVERSARIES:
        return SQ_ADVERSARIES[name](dist, cfg)
    raise ValueError(f"unknown sq prover {name!r}")


# ---------------------------------------------------------------------------
# experiments


def zipf_distribution(N: int, a: float = 1.0) -> DiscreteDistribution:
    weights = 1.0 / np.arange(1, N + 1, dtype=float) ** a
    return DiscreteDistribution.from_probs(tuple(range(N)), weights / weights.sum())


def portfolio_run(dist: DiscreteDistribution, cfg: SqProtocolConfig,
                  N: int, n: int, seed: int, prover_name: str = "honest",
                  num_blocks: int | None = None, instrument=None):
    """One full verified portfolio run; returns the transcript."""
    alg_factory = lambda: PortfolioAlgorithm(N, n, num_blocks)
    verifier = make_sq_verifier(dist, alg_factory, cfg, portfolio_holdout_loss,
                                instrument=instrument)
    prover = make_sq_prover(prover_name, dist, cfg)
    params = VerificationParams(cfg.epsilon, cfg.delta)
    return run_interaction(verifier, prover, params, seed)


def portfolio_baseline(dist: DiscreteDistribution, N: int, n: int,
                       num_blocks: int | None = None) -> float:
    """Exact loss of the algorithm under the exact oracle: the baseline the
    verification guarantee compares against."""
    alg = PortfolioAlgorithm(N, n, num_blocks)
    selection = simulate_algorithm(alg, ExactOracle(dist), child_rng(0))
    return portfolio_population_loss(selection, dist)


def sq_gap_sweep(ds=(4, 16, 64, 256), tau: float = 0.05, epsilon: float = 0.1,
                 delta: float = 0.2, seed: int = 0) -> dict:
    """Measured verifier per-batch cost vs direct-simulation cost across atom counts.

    For each d, runs one honest verified portfolio instance whose single
    batch has exactly d atoms (singleton blocks on a d-item domain) and
    records the verifier samples actually used per batch alongside the
    direct-simulation sample requirement. Reports log-log fitted slopes.
    """
    rows = []
    for d in ds:
        n = max(1, d // 4)
        dist = zipf_distribution(d)
        cfg = SqProtocolConfig.default(tau=tau, epsilon=epsilon, delta=delta, s=d, b=1)
        transcript = portfolio_run(dist, cfg, N=d, n=n, seed=child_rng(seed, d).integers(2**63),
                                   prover_name="honest", num_blocks=d)
        rows.append({
            "d": d,
            "verifier_samples_per_batch": cfg.m_v,
            "simulation_samples": simulation_sample_cost(d, tau, delta),
            "accepted": transcript.outcome.kind == "hypothesis",
        })
    logd = np.log([r["d"] for r in rows])
    slope_v = float(np.polyfit(logd, np.log([r["verifier_samples_per_batch"] for r in rows]), 1)[0])
    slope_s = float(np.polyfit(logd, np.log([r["simulation_samples"] for r in rows]), 1)[0])
    return {
        "tau": tau, "epsilon": epsilon, "delta": delta, "seed": seed,
        "rows": rows,
        "verifier_cost_slope": slope_v,
        "simulation_cost_slope": slope_s,
    }
