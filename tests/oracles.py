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
