"""Point-vs-mixture collision experiment behind the square-root sample barrier.

Over a d-point domain, compare the fully random labeling distribution
(uniform over domain x labels) against a mixture that first draws a hidden
labeling function and then labels consistently. Collision-free samples from
the two are identically distributed, so any distinguisher needs repeated
x-values; the birthday bound places that at about sqrt(d) samples. The
module measures the collision distinguisher's success curve at each d and
where it crosses 7/12, and fits how that crossing scales with d.

Each sample is drawn as its key 2x + y, the form the classifier reads. This is
exact in law: a uniform x on [0, d) with an independent fair label bit is a key
uniform on [0, 2d), and the mixture's collision cell reads x alone (key 2x).
"""

from __future__ import annotations

import math

import numpy as np

from .core import child_rng


def _key_dtype(d: int) -> type:
    """Smallest unsigned dtype that holds every key 2x + y, up to 2d - 1."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if 2 * d - 1 <= np.iinfo(t).max)


def _collision_cells(keys: np.ndarray) -> np.ndarray:
    """Row-wise collision classification: 0 no collision, 1 all collisions
    agree, 2 some collision disagrees. keys is a (trials, t) unsigned array
    of packed draws 2x + y; it is sorted in place along each row.

    Sorting puts an x's 0-labels right before its 1-labels, so adjacent keys
    XOR to 0 in an agreeing collision, 1 in a disagreeing one and 2 or more
    across x's; XOR with 1 swaps 0 and 1, and the row min, capped at 2, is 2 - cell.

    The distinguisher's verdict per cell: a repeated x with two labels is
    impossible under a labeling function, so a disagreeing collision means the
    uniform law; an agreeing collision is twice as likely under the mixture (a
    fresh label coin matches with probability 1/2), so it votes mixture; with
    no collision the two laws coincide and the verdict is a coin flip.
    """
    keys.sort(axis=1)
    flips = keys[:, 1:] ^ keys[:, :-1]
    flips ^= 1
    return 2 - flips.min(axis=1, initial=2).astype(np.int8)


def distinguisher_success(d: int, t: int, trials: int, seed: int) -> dict:
    """Monte-Carlo success of the collision distinguisher at sample size t.

    Runs `trials` samples under each law; an undecided verdict scores 1/2
    (the coin-flip rule, optimal on the event where the laws coincide). Also
    reports the empirical total variation between the two laws coarsened to
    the three collision cells, an upper bound on any cell-based advantage.
    """
    dtype = _key_dtype(d)
    # uniform law: a uniform x and a fair label bit make the key 2x + y uniform on [0, 2d)
    keys_u = child_rng(seed, 0).integers(0, 2 * d, size=(trials, t), dtype=dtype)
    # a labelling function never disagrees with itself on a repeated x, so
    # the mixture's collision cell depends on x alone: its key is 2x
    keys_m = child_rng(seed, 1).integers(0, d, size=(trials, t), dtype=dtype)
    keys_m <<= 1
    cells_u, cells_m = _collision_cells(keys_u), _collision_cells(keys_m)
    p_u = np.bincount(cells_u, minlength=3) / trials
    p_m = np.bincount(cells_m, minlength=3) / trials
    # verdict scores: undecided 1/2, agreeing collision -> mixture, disagree -> uniform
    success_u = p_u[0] * 0.5 + p_u[2]
    success_m = p_m[0] * 0.5 + p_m[1]
    return {
        "d": d,
        "t": t,
        "trials": trials,
        "success_rate": float(0.5 * (success_u + success_m)),
        "success_uniform": float(success_u),
        "success_mixture": float(success_m),
        "collision_rate": float(1.0 - 0.5 * (p_u[0] + p_m[0])),
        "no_collision_rate_uniform": float(p_u[0]),
        "no_collision_rate_mixture": float(p_m[0]),
        "tv_estimate": float(0.5 * np.abs(p_u - p_m).sum()),
    }


SUCCESS_TARGET = 7.0 / 12.0

# the multiples of sqrt(d) at which crossing_point measures the success curve
SCAN_FACTORS = (0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.45, 1.75)


def crossing_point(d: int, trials: int, seed: int) -> dict:
    """Sample size at which distinguisher success crosses 7/12, for one d.

    Scans t over SCAN_FACTORS multiples of sqrt(d), monotonizes the measured
    curve, and linearly interpolates the crossing in log t.
    """
    ts = sorted({max(2, math.ceil(f * math.sqrt(d))) for f in SCAN_FACTORS})
    rows = [distinguisher_success(d, t, trials, child_rng(seed, d, t).integers(2**63))
            for t in ts]
    succ = np.maximum.accumulate([r["success_rate"] for r in rows])
    logt = np.log(ts)
    if succ[-1] < SUCCESS_TARGET:
        crossing = float(ts[-1])  # censored; flagged in the report
        censored = True
    elif succ[0] >= SUCCESS_TARGET:
        crossing = float(ts[0])
        censored = True
    else:
        i = int(np.searchsorted(succ, SUCCESS_TARGET))
        w = (SUCCESS_TARGET - succ[i - 1]) / (succ[i] - succ[i - 1])
        crossing = float(np.exp(logt[i - 1] + w * (logt[i] - logt[i - 1])))
        censored = False
    return {"d": d, "rows": rows, "crossing_t": crossing, "censored": censored}


def crossing_experiment(ds, trials: int, seed: int) -> dict:
    """Crossing points across d and the fitted log-log slope (target 1/2)."""
    points = [crossing_point(d, trials, seed) for d in ds]
    slope, intercept = np.polyfit(np.log([p["d"] for p in points]),
                                  np.log([p["crossing_t"] for p in points]), 1)
    return {
        "trials": trials,
        "seed": seed,
        "points": points,
        "crossing_slope": float(slope),
        "crossing_intercept": float(intercept),
    }
