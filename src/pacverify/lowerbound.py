"""Point-vs-mixture collision experiment behind the square-root sample barrier.

Over a d-point domain, compare the fully random labeling distribution
(uniform over domain x labels) against a mixture that first draws a hidden
labeling function and then labels consistently. Collision-free samples from
the two are identically distributed, so any distinguisher needs repeated
x-values; the birthday bound places that at about sqrt(d) samples. The
module measures the collision distinguisher's success curve at each d and
where it crosses 7/12, and fits how that crossing scales with d.
"""

from __future__ import annotations

import math

import numpy as np

from .core import child_rng


def _collision_cells(xs: np.ndarray, ys: np.ndarray | None, d: int) -> np.ndarray:
    """Row-wise collision classification: 0 no collision, 1 all collisions
    agree, 2 some collision disagrees. xs, ys are (trials, t) arrays over a
    d-point domain; ys=None labels every draw 0.

    Each draw packs into the key 2x + y, in the smallest unsigned dtype that
    holds 2d - 1, and each row is sorted once. Sorting puts an x's 0-labels
    right before its 1-labels, so adjacent keys that differ only in the low
    bit are a disagreeing collision and equal adjacent keys an agreeing one.

    The distinguisher's verdict per cell: a repeated x with two labels is
    impossible under a labeling function, so a disagreeing collision means
    the uniform law; an agreeing collision is twice as likely under the
    mixture (a fresh label coin matches with probability 1/2), so it votes
    mixture; with no collision the two laws coincide and the verdict is a
    coin flip.
    """
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if 2 * d - 1 <= np.iinfo(t).max)
    keys = xs.astype(dtype)
    keys <<= 1
    if ys is not None:
        keys |= ys.astype(dtype)
    keys.sort(axis=1)
    diff = keys[:, 1:] ^ keys[:, :-1]
    cells = (diff == 0).any(axis=1).astype(np.int8)
    cells[(diff == 1).any(axis=1)] = 2
    return cells


def distinguisher_success(d: int, t: int, trials: int, seed: int) -> dict:
    """Monte-Carlo success of the collision distinguisher at sample size t.

    Runs `trials` samples under each law; an undecided verdict scores 1/2
    (the coin-flip rule, optimal on the event where the laws coincide). Also
    reports the empirical total variation between the two laws coarsened to
    the three collision cells, an upper bound on any cell-based advantage.
    """
    rng_u = child_rng(seed, 0)
    rng_m = child_rng(seed, 1)
    xs_u = rng_u.integers(0, d, size=(trials, t))
    ys_u = rng_u.integers(0, 2, size=(trials, t))
    xs_m = rng_m.integers(0, d, size=(trials, t))
    cells_u = _collision_cells(xs_u, ys_u, d)
    # a labelling function never disagrees with itself on a repeated x, so
    # the mixture's collision cell depends on xs alone
    cells_m = _collision_cells(xs_m, None, d)
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
