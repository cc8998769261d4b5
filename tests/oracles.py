"""Independent reference implementations used to cross-check the package,
and the test-only helpers that plant known distances, measure the tester and
record what the SQ verifier accepted.

The references are deliberately brute-force and written against the problem
statements, not against the library code paths they check.
"""

import math
from itertools import combinations, product

import numpy as np

from pacverify.core import DiscreteDistribution, child_rng
from pacverify.harness import ProtocolViolation, parse_counts
from pacverify.identity_test import required_samples, test_from_counts


def bruteforce_interval_erm(mass0, mass1, d):
    """Minimum 0-1 loss over unions of <= d index runs, by enumerating all
    binary masks with at most d runs of ones. Returns (best_loss, best_mask)."""
    mass0 = np.asarray(mass0, dtype=float)
    mass1 = np.asarray(mass1, dtype=float)
    k = len(mass0)
    best_loss, best_mask = np.inf, None
    for code in range(2 ** k):
        bits = [(code >> j) & 1 for j in range(k)]
        runs = bits[0] + sum(1 for j in range(1, k) if bits[j] == 1 and bits[j - 1] == 0)
        if runs > d:
            continue
        mask = np.array(bits, dtype=bool)
        loss = float(mass0[mask].sum() + mass1[~mask].sum())
        if loss < best_loss - 1e-15:
            best_loss, best_mask = loss, mask
    return best_loss, best_mask


def bruteforce_atoms(query_matrix):
    """Atom count of a 0/1 query matrix by hashing per-element signatures."""
    signatures = {tuple(query_matrix[:, x]) for x in range(query_matrix.shape[1])}
    return len(signatures)


def bruteforce_interval_erm_runs(mass0, mass1, d):
    """The ERM tie rule by enumeration: over all binary masks with at most d
    runs of ones, the minimizer of (loss, run count, run list), with the loss
    summed exactly in Python arithmetic. Returns (runs, loss)."""
    k = len(mass0)
    best = None
    for bits in product((0, 1), repeat=k):
        runs, start = [], None
        for j, bit in enumerate(bits + (0,)):
            if bit and start is None:
                start = j
            elif not bit and start is not None:
                runs.append((start, j - 1))
                start = None
        if len(runs) > d:
            continue
        loss = sum(mass0[j] if bit else mass1[j] for j, bit in enumerate(bits))
        if best is None or (loss, len(runs), runs) < best:
            best = (loss, len(runs), runs)
    return best[2], best[0]


def exact_no_collision(d, t):
    """Birthday-problem survival probability, computed with plain floats."""
    p = 1.0
    for i in range(t):
        p *= (d - i) / d
    return p


def reference_collision_cell(xs, ys):
    """Collision cell of one sample, from the labels each x carries: 0 no
    repeated x, 1 every repeated x keeps one label, 2 some x carries both."""
    labels = {}
    for x, y in zip(xs, ys):
        labels.setdefault(int(x), []).append(int(y))
    repeated = [set(ls) for ls in labels.values() if len(ls) > 1]
    if any(len(ls) > 1 for ls in repeated):
        return 2
    return 1 if repeated else 0


def exact_success_rate(d, t):
    """Exact success of the collision distinguisher at sample size t, scoring
    an undecided verdict 1/2: 1 - E[2^(D - t)] / 2, with D the number of
    distinct values among t uniform draws from d points.

    Under the uniform law all collisions agree with probability 2^(D - t)
    given D (each repeated value needs its extra labels to match); averaging
    the two laws' success leaves only this term. P(D = j) comes from the
    occupancy recursion, one draw at a time."""
    dist = [1.0] + [0.0] * t  # dist[j] = P(j distinct values so far)
    for _ in range(t):
        dist = [dist[j] * j / d + (dist[j - 1] * (d - j + 1) / d if j else 0.0)
                for j in range(t + 1)]
    return 1.0 - sum(p * 2.0 ** (j - t) for j, p in enumerate(dist)) / 2.0


# test-sample size of the reduction: ceil(18^2 * ln 12) = 806
REDUCTION_TEST_SIZE = math.ceil(324 * math.log(12))


def reduction_tester(protocol, d, mixture, seed):
    """Turn a sample-efficient verifier into a point-vs-mixture distinguisher
    over a d-point domain; returns "mixture" or "uniform".

    The realized law D is fixed once: under the mixture a hidden labeling
    function of the d points is drawn and applied by every draw, under the
    uniform law each draw flips its own label coin. ``protocol(draw, rng)``
    runs one verified-learning interaction, where ``draw(t)`` returns t
    labeled points (xs, ys) from D, and returns a hypothesis ``h(xs) ->
    labels`` or None for reject. The tester then takes 806 fresh points from D
    and declares the mixture when the protocol rejected or the hypothesis's
    test loss is at most 1/3: rejection and low loss are both consistent with
    a learnable (function) law, while under the uniform law every hypothesis
    has loss near 1/2.
    """
    rng = np.random.default_rng([seed, 0])
    labels = rng.integers(0, 2, size=d) if mixture else None

    def draw(t):
        xs = rng.integers(0, d, size=t)
        return xs, (rng.integers(0, 2, size=t) if labels is None else labels[xs])

    h = protocol(draw, np.random.default_rng([seed, 1]))
    if h is None:
        return "mixture"
    xs, ys = draw(REDUCTION_TEST_SIZE)
    loss = float((np.asarray(h(xs)) != ys).mean())
    return "mixture" if loss <= 1.0 / 3.0 else "uniform"


def true_atom_probs(ap, dist):
    """True mass of each atom of an AtomPartition: the element masses of
    ``dist`` added atom by atom."""
    out = np.zeros(ap.size)
    np.add.at(out, ap.signature, dist.probs)
    return out


def accepted_batches(counts_v, alg, channel, cfg, iteration, rng, partitions):
    """Run ``sq.verifier_iteration`` with its channel and algorithm wrapped,
    and return one (atom partition, claimed atom probabilities, evaluations
    fed to the algorithm) per batch the verifier accepted, in order. The
    partition is the verifier's own, read from ``partitions`` by batch key;
    the claim is the prover's reply counts over its denominator. A refused
    iteration adds no batch past the last accepted one."""
    from pacverify import sq

    accepted, last = [], {}

    class Channel:
        def ask(self, payload):
            last["reply"] = channel.ask(payload)
            return last["reply"]

    class Algorithm(sq.SqAlgorithm):
        def reset(self, rng):
            alg.reset(rng)

        def step(self, evaluations):
            if evaluations is not None:  # the verifier accepted the last batch
                reply = last["reply"]
                accepted.append((partitions[last["batch"].key],
                                 np.asarray(reply["counts"]) / reply["denominator"],
                                 evaluations))
            kind, value = alg.step(evaluations)
            if kind == "batch":
                last["batch"] = value
            return kind, value

    try:
        sq.verifier_iteration(counts_v, Algorithm(), Channel(), cfg, iteration, rng, partitions)
    except ProtocolViolation:
        pass
    return accepted


def reference_portfolio_blocks(N, num_blocks):
    """The portfolio algorithm's blocks, item lists cut at rounded multiples
    of N / num_blocks."""
    edges = np.linspace(0, N, num_blocks + 1).round().astype(int)
    return [list(range(edges[j], edges[j + 1])) for j in range(num_blocks)]


def reference_portfolio_selection(blocks, evaluations, n):
    """The portfolio algorithm's greedy rule: visit the blocks in decreasing
    order of estimated per-item mass (evaluation / block size), the lower
    block first at ties, and take items from each block in increasing order
    until n are taken. Returns the sorted selection."""
    per_item = [evaluations[j] / len(block) for j, block in enumerate(blocks)]
    order = sorted(range(len(blocks)), key=lambda j: -per_item[j])  # sorted() is stable
    chosen = []
    for j in order:
        for i in blocks[j]:
            if len(chosen) == n:
                break
            chosen.append(i)
        if len(chosen) == n:
            break
    return sorted(chosen)


def bruteforce_vc_intervals(points, d):
    """VC dimension of unions of <= d intervals on a point set: the largest
    subset on which every labeling is realized, by exhaustive search. A
    labeling of sorted points is realized iff its ones form at most d runs."""
    def realizable(labels):
        return labels[0] + sum(1 for a, b in zip(labels, labels[1:]) if b > a) <= d

    best = 0
    for size in range(1, len(points) + 1):
        for subset in combinations(sorted(points), size):
            if all(realizable(labels) for labels in product((0, 1), repeat=size)):
                best = size
                break
    return best


def reference_interval_sample(pop, m, rng):
    """m i.i.d. labeled points of an IntervalPopulation, band by band, then
    shuffled into i.i.d. order. Returns (xs, ys)."""
    counts = rng.multinomial(m, pop.masses)
    xs = np.repeat(pop.centers, counts) + rng.uniform(-pop.halfwidth, pop.halfwidth, size=m)
    ys = np.zeros(m, dtype=np.int64)
    start = 0
    for c, p1 in zip(counts, pop.label1):
        ys[start:start + rng.binomial(c, p1)] = 1
        start += c
    order = rng.permutation(m)
    return xs[order], ys[order]


def reference_interval_label_masses(pop, boundaries):
    """Pushforward masses (k, 2) of an IntervalPopulation onto the
    (interval, label) cells of [b_{j-1}, b_j), its bands cut one interval at
    a time."""
    boundaries = np.asarray(boundaries, dtype=float)
    k = len(boundaries) - 1
    out = np.zeros((k, 2))
    lo = pop.centers - pop.halfwidth
    hi = pop.centers + pop.halfwidth
    for j in range(k):
        a, b = boundaries[j], boundaries[j + 1]
        frac = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None) / (2 * pop.halfwidth)
        out[j, 1] = float((pop.masses * pop.label1 * frac).sum())
        out[j, 0] = float((pop.masses * (1.0 - pop.label1) * frac).sum())
    return out


def reference_verifier_counts(pop, boundaries, m, rng):
    """Occupancy counts over the (interval, label) atoms of m points drawn by
    ``reference_interval_sample``: atom 2j + y for a point in [b_{j-1}, b_j)."""
    xs, ys = reference_interval_sample(pop, m, rng)
    j = np.searchsorted(np.asarray(boundaries, dtype=float)[1:-1], xs, side="right")
    return np.bincount(2 * j + ys, minlength=2 * (len(boundaries) - 1))


def _atoms_from_queries(query_matrix):
    from pacverify.sq import Query, QueryBatch, atoms_of

    mat = np.asarray(query_matrix, dtype=np.int8)
    return atoms_of(QueryBatch(tuple(Query(row) for row in mat)))


def reference_honest_atom_counts(query_matrix, element_counts):
    """The honest SQ prover's atom counts when the verifier sent the query
    matrix: rebuild the batch, recompute its atoms, add the per-element
    counts atom by atom in int64."""
    ap = _atoms_from_queries(query_matrix)
    out = np.zeros(ap.size, dtype=np.int64)
    np.add.at(out, ap.signature, np.asarray(element_counts, dtype=np.int64))
    return out


def reference_stale_atom_counts(query_matrix, m_p):
    """The stale SQ prover's claim from a query-matrix message: uniform atom
    masses summed element by element, floored at denominator m_p, with the
    remainder on atom 0."""
    ap = _atoms_from_queries(query_matrix)
    n = ap.signature.size
    atom_probs = np.zeros(ap.size)
    np.add.at(atom_probs, ap.signature, np.full(n, 1.0 / n))
    counts = np.floor(atom_probs * m_p).astype(np.int64)
    counts[0] += m_p - int(counts.sum())
    return counts


def reference_sq_verifier(dist, alg, cfg, holdout_loss):
    """The SQ verifier without a partition memo: ``atoms_of`` on every batch
    of every one of the T simulations, the main sample reused throughout,
    then holdout selection. Consumes the verifier's randomness in the same
    order as ``make_sq_verifier``."""
    from pacverify import sq

    def simulate(counts_v, channel, iteration, rng):
        alg.reset(rng)
        kind, value = alg.step(None)
        t = 0
        while kind == "batch":
            t += 1
            if t > cfg.b:
                raise ProtocolViolation("batch bound")
            ap = sq.atoms_of(value)
            if ap.size > cfg.s:
                raise ProtocolViolation("partition bound")
            reply = channel.ask({"iteration": iteration, "batch": t,
                                 "atoms": ap.signature.tolist()})
            claimed = DiscreteDistribution(parse_counts(reply, (ap.size,), cfg.m_p) / cfg.m_p)
            verdict = test_from_counts(claimed.probs, ap.atom_counts(counts_v),
                                       cfg.tau, cfg.tau / (2.0 * math.sqrt(ap.size)))
            if not verdict.accept:
                raise ProtocolViolation("identity tester")
            kind, value = alg.step(sq.induced_evaluations(ap, claimed.probs))
        return value

    def verifier(channel, rng):
        counts_v = rng.multinomial(cfg.m_v, dist.probs)
        holdout = rng.multinomial(cfg.m_v_holdout, dist.probs)
        candidates = [simulate(counts_v, channel, i, rng) for i in range(cfg.T)]
        losses = [holdout_loss(h, holdout, cfg.m_v_holdout) for h in candidates]
        return candidates[int(np.argmin(losses))]

    return verifier


def tv_from_probs(p: np.ndarray, q: np.ndarray) -> float:
    """TV between two aligned probability vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def planted_shift(probs: np.ndarray, tv: float) -> np.ndarray:
    """A distribution at exactly `tv` total variation from `probs`.

    Moves mass from odd-indexed to even-indexed atoms, spread as evenly as
    the available mass allows. Used by tests that plant known distances.
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


def accept_rate(outer: float, inner: float, delta: float, ref: DiscreteDistribution,
                source_probs: np.ndarray, runs: int, seed: int) -> float:
    """Empirical acceptance rate of the tester at radii (outer, inner) over
    independent runs, each on the budget for confidence 1 - delta."""
    m_total = required_samples(len(ref), outer, delta)
    accepted = 0
    for run in range(runs):
        counts = child_rng(seed, run).multinomial(m_total, source_probs)
        if test_from_counts(ref.probs, counts, outer, inner).accept:
            accepted += 1
    return accepted / runs
