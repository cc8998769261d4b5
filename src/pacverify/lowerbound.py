"""Point-vs-mixture collision experiment behind the square-root sample barrier.

Over a d-point domain, compare the fully random labeling distribution
(uniform over domain x labels) against a mixture that first draws a hidden
labeling function and then labels consistently. Collision-free samples from
the two are identically distributed, so any distinguisher needs repeated
x-values; the birthday bound places that at about sqrt(d) samples. The
module measures the collision distinguisher's success curve at each d and
where it crosses 7/12, and fits how that crossing scales with d.

Each trial is one sample path per law, read at its prefixes: size t reads the
path's first t draws, which are t i.i.d. draws, so every row is exact in law
and the rows of one d share their paths. A path's cell at every t follows from
two stopping times, its first draw whose x already occurred and its first draw
whose x already occurred with the other label, and only these two are drawn,
never the path's points.
"""

from __future__ import annotations

import math

import numpy as np

from .core import child_rng


# sample paths drawn at a time, so per-path temporaries stay small at any
# trial count
BLOCK_PATHS = 2**16


def _collision_times(d: int, t_max: int, trials: int, seed: int):
    """Yields (law, times) for `trials` sample paths of t_max draws under each
    law (0 uniform, 1 mixture), BLOCK_PATHS paths at a time: times[0] is each
    path's first draw whose x already occurred, and times[1] its first draw
    whose x already occurred with the other label; t_max where there is none.

    With q[i] = prod_{r<i} (1 - r/d), the chance that i draws are distinct, a
    path holding D distinct x makes W more new draws before its next repeat,
    P(W >= w) = q[D + w] / q[D]. W >= w exactly when -log q[D + w] <=
    -log q[D] + E for a standard exponential E, so one E and a search of the
    table draw W. Until a path's first disagreement every x it holds carries
    one label, so under the uniform law each repeat's fresh label disagrees
    with probability 1/2, independently; a labelling function never disagrees.
    """
    # -log q[i] for i = 0..t_max, non-decreasing; inf from i = d + 1 on, where
    # the factor r = d is 0
    neg_log_q = np.arange(-1, t_max, dtype=float)
    np.clip(neg_log_q, 0, d, out=neg_log_q)
    neg_log_q /= -d
    with np.errstate(divide="ignore"):
        np.log1p(neg_log_q, out=neg_log_q)
    np.cumsum(neg_log_q, out=neg_log_q)
    np.negative(neg_log_q, out=neg_log_q)

    def distinct_at_repeat(rng, distinct):
        """D + W: the distinct x a path holds when its next draw repeats one;
        t_max if that is past the table."""
        level = neg_log_q[distinct] + rng.standard_exponential(distinct.size)
        return np.searchsorted(neg_log_q, level, side="right") - 1

    for law in (0, 1):
        rng = child_rng(seed, law)
        for start in range(0, trials, BLOCK_PATHS):
            distinct = distinct_at_repeat(rng, np.zeros(min(BLOCK_PATHS, trials - start),
                                                        dtype=np.intp))
            # every draw before the first repeat is new
            times = np.stack([distinct, np.full_like(distinct, t_max)])
            path = np.arange(distinct.size)
            # round r: the live paths' r earlier repeats all agreed, and their
            # next repeat is draw distinct + r; a labelling function never
            # disagrees with itself, so the mixture has no round to play
            for r in range(t_max if law == 0 else 0):
                at = distinct + r
                inside = at < t_max
                path, distinct, at = path[inside], distinct[inside], at[inside]
                if not path.size:
                    break
                disagree = rng.random(path.size) < 0.5
                times[1, path[disagree]] = at[disagree]
                path = path[~disagree]
                distinct = distinct_at_repeat(rng, distinct[~disagree])
            yield law, times


def success_curve(d: int, ts, trials: int, seed: int) -> list:
    """distinguisher_success at each sample size in ts, read from one set of
    sample paths per law.

    Each trial is one path of max(ts) i.i.d. draws, and size t reads its first
    t draws, which are t i.i.d. draws: every row is exact in law, and the rows
    share their paths (common random numbers across t). A path enters only
    through its two collision times, which _collision_times draws directly.
    """
    # below[law, kind, i]: paths whose collision time of that kind is < ts[i]
    below = np.zeros((2, 2, len(ts)), dtype=np.int64)
    for law, times in _collision_times(d, max(ts), trials, seed):
        below[law] += (times[:, None, :] < np.asarray(ts)[:, None]).sum(axis=2)
    rows = []
    for t, (collided, disagreed) in zip(ts, below.transpose(2, 1, 0)):
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
