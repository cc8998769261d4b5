"""Point-vs-mixture experiments behind the square-root sample barrier.

Over a d-point domain, compare the fully random labeling distribution
(uniform over domain x labels) against a mixture that first draws a hidden
labeling function and then labels consistently. Collision-free samples from
the two are identically distributed, so any distinguisher needs repeated
x-values; the birthday bound places that at about sqrt(d) samples. The
module measures the collision distinguisher's success curves and implements
the reduction that turns a sample-efficient verifier into such a
distinguisher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSample, child_rng

UNIFORM = "uniform"
MIXTURE = "function-mixture"
UNDECIDED = "undecided"

# test-sample size of the reduction: ceil(18^2 * ln 12) = 806
REDUCTION_TEST_SIZE = math.ceil(324 * math.log(12))
REDUCTION_LOSS_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class ShatteredInstance:
    """A d-point domain together with which labeling law is in force."""

    d: int
    mode: str  # UNIFORM | MIXTURE

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.mode not in (UNIFORM, MIXTURE):
            raise ValueError(f"unknown mode {self.mode!r}")


def draw_mixture(inst: ShatteredInstance, t: int, rng: np.random.Generator) -> LabeledSample:
    """t labeled draws: label coins per draw (uniform mode) or one hidden
    labeling function applied consistently (mixture mode)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    xs = rng.integers(0, inst.d, size=t)
    if inst.mode == UNIFORM:
        ys = rng.integers(0, 2, size=t)
    else:
        h = rng.integers(0, 2, size=inst.d)
        ys = h[xs]
    return LabeledSample(xs, ys)


def _collision_cells(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise collision classification: 0 no collision, 1 all collisions
    agree, 2 some collision disagrees. xs, ys are (trials, t) arrays."""
    order = np.argsort(xs, axis=1, kind="stable")
    sx = np.take_along_axis(xs, order, axis=1)
    sy = np.take_along_axis(ys, order, axis=1)
    dup = sx[:, 1:] == sx[:, :-1]
    disagree = dup & (sy[:, 1:] != sy[:, :-1])
    cells = np.zeros(xs.shape[0], dtype=np.int8)
    cells[dup.any(axis=1)] = 1
    cells[disagree.any(axis=1)] = 2
    return cells


def collision_distinguisher(sample: LabeledSample) -> str:
    """Verdict from collisions alone.

    A repeated x with two labels is impossible under a labeling function, so
    any disagreeing collision means the uniform law. Each agreeing collision
    is twice as likely under the mixture (a fresh label coin matches with
    probability 1/2), so agreeing collisions vote mixture. No collision
    leaves the two laws identical: undecided.
    """
    cell = int(_collision_cells(np.asarray(sample.xs)[None, :], np.asarray(sample.ys)[None, :])[0])
    return (UNDECIDED, MIXTURE, UNIFORM)[cell]


def no_collision_probability(d: int, t: int) -> float:
    """Exact probability that t uniform draws from d points are all distinct."""
    if t > d:
        return 0.0
    return float(np.prod(1.0 - np.arange(t) / d))


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
    cells_u = _collision_cells(xs_u, ys_u)
    # a labelling function never disagrees with itself on a repeated x, so
    # the mixture's collision cell depends on xs alone
    cells_m = _collision_cells(xs_m, np.zeros_like(xs_m))
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


def crossing_point(d: int, trials: int, seed: int,
                   factors=(0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.45, 1.75)) -> dict:
    """Sample size at which distinguisher success crosses 7/12, for one d.

    Scans t over multiples of sqrt(d), monotonizes the measured curve, and
    linearly interpolates the crossing in log t.
    """
    ts = sorted({max(2, math.ceil(f * math.sqrt(d))) for f in factors})
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


def crossing_experiment(ds=(64, 256, 1024, 4096), trials: int = 3000, seed: int = 0) -> dict:
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


def make_source(inst: ShatteredInstance, rng: np.random.Generator):
    """A persistent sampler for one realized distribution D.

    In mixture mode the hidden labeling function is drawn once and shared by
    every subsequent draw, matching how a single D is handed to both the
    protocol and the follow-up test sample.
    """
    h = rng.integers(0, 2, size=inst.d) if inst.mode == MIXTURE else None

    def draw(t: int) -> LabeledSample:
        xs = rng.integers(0, inst.d, size=t)
        ys = rng.integers(0, 2, size=t) if h is None else h[xs]
        return LabeledSample(xs, ys)

    return draw


def reduction_tester(protocol, inst: ShatteredInstance, seed: int) -> str:
    """Turn a sample-efficient verifier into a point-vs-mixture distinguisher.

    ``protocol(draw, rng)`` runs one verified-learning interaction where
    ``draw(t)`` samples labeled points from the realized D; it returns a
    hypothesis ``h(xs) -> labels`` or None for reject. The tester then takes
    a fresh test sample of 806 points from D and declares the mixture when
    the protocol rejected or the hypothesis's test loss is at most 1/3:
    rejection and low loss are both consistent with a learnable (function)
    law, while under the uniform law every hypothesis has loss near 1/2.
    """
    draw = make_source(inst, child_rng(seed, 0))
    h = protocol(draw, child_rng(seed, 1))
    if h is None:
        return MIXTURE
    test = draw(REDUCTION_TEST_SIZE)
    loss = float((np.asarray(h(test.xs)) != test.ys).mean())
    return MIXTURE if loss <= REDUCTION_LOSS_THRESHOLD else UNIFORM
