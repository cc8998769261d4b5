"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute-force and written against the problem
statements, not against the library code paths it checks.
"""

from itertools import combinations, product

import numpy as np


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


def exact_no_collision(d, t):
    """Birthday-problem survival probability, computed with plain floats."""
    p = 1.0
    for i in range(t):
        p *= (d - i) / d
    return p


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
    xs = np.repeat(pop.centers, counts)
    if pop.halfwidth > 0:
        xs = xs + rng.uniform(-pop.halfwidth, pop.halfwidth, size=m)
    ys = np.zeros(m, dtype=np.int64)
    start = 0
    for c, p1 in zip(counts, pop.label1):
        ys[start:start + rng.binomial(c, p1)] = 1
        start += c
    order = rng.permutation(m)
    return xs[order], ys[order]


def reference_interval_label_masses(pop, boundaries):
    """Pushforward masses (k, 2) of an IntervalPopulation onto the
    (interval, label) cells of [b_{j-1}, b_j): point masses placed by
    ``searchsorted``, bands cut one interval at a time."""
    boundaries = np.asarray(boundaries, dtype=float)
    k = len(boundaries) - 1
    out = np.zeros((k, 2))
    if pop.halfwidth == 0.0:
        j = np.searchsorted(boundaries[1:-1], pop.centers, side="right")
        np.add.at(out[:, 1], j, pop.masses * pop.label1)
        np.add.at(out[:, 0], j, pop.masses * (1.0 - pop.label1))
        return out
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
