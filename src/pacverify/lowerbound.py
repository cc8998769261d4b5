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

Each trial is one sample path, drawn once at the largest scanned size and read
at its prefixes: size t reads a path's first t draws, which are t i.i.d. draws.
A path's cell at every t follows from two indices, its first draw whose x
already occurred and its first draw whose x already occurred with the other
label, and one row-wise sort per block of paths finds both.
"""

from __future__ import annotations

import math

import numpy as np

from .core import child_rng


def _key_dtype(d: int) -> type:
    """Smallest unsigned dtype that holds every key 2x + y, up to 2d - 1."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if 2 * d - 1 <= np.iinfo(t).max)


# draws per block of sample paths: a block holds BLOCK_ENTRIES // t paths of
# t draws, so its temporaries stay the same size at every d
BLOCK_ENTRIES = 2**14


def _first_collisions(keys: np.ndarray) -> np.ndarray:
    """Per row of a (paths, t) unsigned array of keys 2x + y in draw order,
    the index of its first draw whose x already occurred (row 0 of the
    result) and of its first draw whose x already occurred with the other
    label (row 1); t where there is none.

    One sort per row of the packed key (x, draw index, label) orders the draws
    by x and then by draw index: the draws of one x lie together in the order
    they were drawn, so a draw repeats an earlier x exactly when its left
    neighbour has the same x, and the first draw of an x whose label differs
    from the x's first label is the first one whose label differs from its
    neighbour's. Where the packed key would pass 64 bits, each x is replaced
    by its rank among the block's values first.
    """
    rows, t = keys.shape
    index_bits = (t - 1).bit_length()
    width = int(keys.max(initial=0)).bit_length() + index_bits
    x, label = keys >> 1, keys & 1
    if width > 64:
        # ranks keep every equality and, being below the block's entry
        # count, leave room for the draw index and the label
        x = np.unique(x, return_inverse=True)[1].reshape(rows, t)
    packed = x.astype(np.uint32 if width <= 32 else np.uint64)
    packed <<= index_bits + 1
    packed |= label
    packed |= np.arange(t, dtype=packed.dtype) << 1
    packed.sort(axis=1)
    packed = packed.ravel()
    x = packed >> (index_bits + 1)
    repeat = x[1:] == x[:-1]
    repeat[t - 1::t] = False  # a row's first draw repeats nothing
    hit = np.flatnonzero(repeat) + 1
    row = hit // t
    draw = ((packed[hit] >> 1) & ((1 << index_bits) - 1)).astype(np.intp)
    disagree = ((packed[hit] ^ packed[hit - 1]) & 1).astype(bool)
    first = np.full((2, rows), t, dtype=np.intp)
    np.minimum.at(first[0], row, draw)
    np.minimum.at(first[1], row[disagree], draw[disagree])
    return first


def success_curve(d: int, ts, trials: int, seed: int) -> list:
    """distinguisher_success at each sample size in ts, read from one set of
    sample paths per law.

    Each trial is one path of max(ts) i.i.d. draws, and size t reads its first
    t draws, which are t i.i.d. draws: every row is exact in law, and the rows
    share their paths (common random numbers across t). The paths are drawn
    and scored in blocks of about BLOCK_ENTRIES draws.
    """
    t_max = max(ts)
    dtype = _key_dtype(d)
    block = max(1, BLOCK_ENTRIES // t_max)
    # firsts[law, kind, i]: paths whose first collision (kind 0) or first
    # disagreeing collision (kind 1) is draw i; i = t_max counts paths with none
    firsts = np.zeros((2, 2, t_max + 1), dtype=np.int64)
    # uniform law (0): a uniform x and a fair label bit make the key 2x + y
    # uniform on [0, 2d); mixture (1): a labelling function never disagrees
    # with itself on a repeated x, so the collision cell depends on x alone
    # and the key is 2x
    for law, high in enumerate((2 * d, d)):
        rng = child_rng(seed, law)
        for start in range(0, trials, block):
            keys = rng.integers(0, high, size=(min(block, trials - start), t_max), dtype=dtype)
            keys <<= law
            for kind, index in enumerate(_first_collisions(keys)):
                firsts[law, kind] += np.bincount(index, minlength=t_max + 1)
    rows = []
    for t in ts:
        collided, disagreed = firsts[:, :, :t].sum(axis=2).T
        # p_u, p_m: the rate of each cell, 0 no collision, 1 all collisions
        # agree, 2 some collision disagrees
        p_u, p_m = np.stack([trials - collided, collided - disagreed, disagreed], axis=1) / trials
        # The distinguisher's verdict per cell: a repeated x with two labels
        # is impossible under a labeling function, so a disagreeing collision
        # means the uniform law; an agreeing collision is twice as likely under
        # the mixture (a fresh label coin matches with probability 1/2), so it
        # votes mixture; with no collision the two laws coincide and the
        # verdict is a coin flip, which scores 1/2.
        success_u = p_u[0] * 0.5 + p_u[2]
        success_m = p_m[0] * 0.5 + p_m[1]
        rows.append({
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
        })
    return rows


def distinguisher_success(d: int, t: int, trials: int, seed: int) -> dict:
    """Monte-Carlo success of the collision distinguisher at sample size t.

    Runs `trials` samples under each law; an undecided verdict scores 1/2
    (the coin-flip rule, optimal on the event where the laws coincide). Also
    reports the empirical total variation between the two laws coarsened to
    the three collision cells, an upper bound on any cell-based advantage.
    The one-size case of success_curve.
    """
    return success_curve(d, [t], trials, seed)[0]


SUCCESS_TARGET = 7.0 / 12.0

# the multiples of sqrt(d) at which crossing_point measures the success curve
SCAN_FACTORS = (0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.45, 1.75)


def crossing_point(d: int, trials: int, seed: int) -> dict:
    """Sample size at which distinguisher success crosses 7/12, for one d.

    Scans t over SCAN_FACTORS multiples of sqrt(d), every size read from the
    same sample paths, monotonizes the measured curve, and linearly
    interpolates the crossing in log t.
    """
    ts = sorted({max(2, math.ceil(f * math.sqrt(d))) for f in SCAN_FACTORS})
    rows = success_curve(d, ts, trials, child_rng(seed, d).integers(2**63))
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
