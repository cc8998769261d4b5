"""Output checks for the benchmark, written apart from the program.

Every expected value here comes from the problem statement (harmonic sums,
the band layout of the grid population, the birthday product, the sample
budget formulas), never from the library code it checks. Each checker
returns a list of problems; an empty list means the output passed. Plain
Python only, so a numpy change cannot move a check and its subject together.
"""

from __future__ import annotations

import json
import math


def harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def zipf_baseline(N: int, n: int) -> float:
    """Loss 1 - H_n/H_N of the n heaviest items of a zipf(1) law on N items."""
    return 1.0 - harmonic(n) / harmonic(N)


def zipf_selection_loss(selection, N: int) -> float:
    """P[item not in selection] under zipf(1) on N items (items are 0-based)."""
    return 1.0 - math.fsum(1.0 / (i + 1) for i in selection) / harmonic(N)


def check_selection(selection, N: int, n: int) -> list:
    """A portfolio must hold exactly n distinct items of range(N)."""
    if not isinstance(selection, list) or not all(isinstance(i, int) for i in selection):
        return [f"selection is not a list of item ids: {selection!r}"]
    problems = []
    if len(selection) != n:
        problems.append(f"selection holds {len(selection)} items, expected {n}")
    if len(set(selection)) != len(selection):
        problems.append("selection repeats an item")
    if any(not 0 <= i < N for i in selection):
        problems.append(f"selection has an item outside [0, {N})")
    return problems


def grid_bands(n_points: int, target, band_fraction: float) -> list:
    """(lo, hi, mass, label) per band of the grid population: n_points uniform
    bands of half-width band_fraction/n_points, labelled 1 where the band
    center lies in the target union."""
    hw = band_fraction / n_points
    bands = []
    for i in range(n_points):
        c = (i + 0.5) / n_points
        label = 1 if any(a <= c <= b for a, b in target) else 0
        bands.append((c - hw, c + hw, 1.0 / n_points, label))
    return bands


def band_loss(hypothesis, bands) -> float:
    """Exact 0-1 loss of a union of disjoint intervals on uniform bands."""
    total = []
    for lo, hi, mass, label in bands:
        covered = sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in hypothesis)
        frac = min(1.0, covered / (hi - lo))
        total.append(mass * (frac if label == 0 else 1.0 - frac))
    return math.fsum(total)


def check_interval_hypothesis(hypothesis, d: int) -> list:
    """At most d intervals [a, b], each inside [0, 1], sorted and disjoint."""
    if not isinstance(hypothesis, list) or not all(
            isinstance(iv, list) and len(iv) == 2 and all(isinstance(x, (int, float)) for x in iv)
            for iv in hypothesis):
        return [f"hypothesis is not a list of [a, b] pairs: {hypothesis!r}"]
    problems = []
    if len(hypothesis) > d:
        problems.append(f"hypothesis has {len(hypothesis)} intervals, more than d={d}")
    if any(not 0.0 <= a <= b <= 1.0 for a, b in hypothesis):
        problems.append("hypothesis has an interval outside [0, 1] or with a > b")
    if any(hypothesis[i][1] > hypothesis[i + 1][0] for i in range(len(hypothesis) - 1)):
        problems.append("hypothesis intervals are not sorted and disjoint")
    return problems


def interval_verifier_budget(d: int, epsilon: float, delta: float, c_v: float) -> tuple:
    """(k, m_v): k = 12d/epsilon intervals, and the tester budget
    ceil(C sqrt(2k) ln(2/(delta/2)) / (epsilon/6)^2) on support 2k."""
    k = round(12 * d / epsilon)
    m_v = math.ceil(c_v * math.sqrt(2 * k) * math.log(2.0 / (delta / 2.0)) / (epsilon / 6.0) ** 2)
    return k, m_v


def sq_iterations(epsilon: float, delta: float) -> int:
    """T = ceil(8 ln(4/delta) / epsilon) simulations per verified SQ run."""
    return math.ceil(8.0 * math.log(4.0 / delta) / epsilon)


def check_trial(trial: dict, baseline: float, epsilon: float, baseline_tol: float = 0.0) -> list:
    """Report-level checks on one honest trial of run_experiment."""
    problems = []
    if not abs(trial.get("baseline", math.nan) - baseline) <= baseline_tol:
        problems.append(f"baseline {trial.get('baseline')!r}, expected {baseline!r}")
    kind = trial.get("outcome")
    if kind not in ("hypothesis", "reject"):
        return problems + [f"unknown outcome {kind!r}"]
    if kind == "reject":
        if trial.get("classification") != "completeness-failure":
            problems.append(f"reject classified as {trial.get('classification')!r}")
        return problems
    loss = trial.get("hypothesis_loss")
    if not isinstance(loss, float) or not 0.0 <= loss <= 1.0:
        return problems + [f"hypothesis loss {loss!r} is not a probability"]
    if loss < baseline - 1e-12:
        problems.append(f"hypothesis loss {loss} beats the class optimum {baseline}")
    expected = "completeness-success" if loss <= baseline + epsilon else "completeness-failure"
    if trial.get("classification") != expected:
        problems.append(f"classified {trial.get('classification')!r}, loss says {expected!r}")
    return problems


def transcript_lines(text: str):
    """Parsed JSON documents of a transcript, one line at a time (a wide
    transcript is tens of MB; no copy of the whole text is made)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end]
        start = end + 1
        if line.strip():
            yield json.loads(line)


def check_sq_transcript(text: str, T: int, m_p: int) -> tuple:
    """T verifier messages, every prover claim summing to m_p, one outcome.

    Returns (problems, hypothesis or None)."""
    problems = []
    verifier_messages = claims = 0
    outcome = None
    for doc in transcript_lines(text):
        if "outcome" in doc:
            outcome = doc
        elif doc.get("sender") == "verifier":
            verifier_messages += 1
        elif isinstance(doc.get("payload"), dict) and "counts" in doc["payload"]:
            claims += 1
            claim = doc["payload"]
            if claim.get("denominator") != m_p or sum(claim["counts"]) != m_p:
                problems.append(f"prover claim in round {doc.get('round')} does not sum to m_p={m_p}")
    if verifier_messages != T or claims != T:
        problems.append(f"transcript holds {verifier_messages} verifier messages and "
                        f"{claims} prover claims, expected T={T} of each")
    if outcome is None:
        return problems + ["transcript has no outcome line"], None
    return problems, outcome.get("hypothesis")


def check_interval_transcript(text: str, m_p: int, k: int) -> tuple:
    """One equal-share prover claim over k intervals summing to m_p.

    Returns (problems, hypothesis or None)."""
    problems = []
    outcome = None
    claims = 0
    for doc in transcript_lines(text):
        if "outcome" in doc:
            outcome = doc
        elif doc.get("sender") == "prover":
            claims += 1
            counts = doc["payload"]["counts"]
            if len(counts) != k or any(c0 + c1 != m_p // k for c0, c1 in counts):
                problems.append(f"prover claim is not {k} equal shares of m_p={m_p}")
    if claims != 1:
        problems.append(f"transcript holds {claims} prover messages, expected 1")
    if outcome is None:
        return problems + ["transcript has no outcome line"], None
    return problems, outcome.get("hypothesis")


def check_replay(result: dict, expected_trials: int) -> list:
    problems = []
    if result.get("replayed") != expected_trials:
        problems.append(f"replay covered {result.get('replayed')} trials, expected {expected_trials}")
    if result.get("mismatches") != 0:
        problems.append(f"replay found {result.get('mismatches')} mismatches")
    return problems


def no_collision(d: int, t: int) -> float:
    """Exact birthday product prod_{i<t} (1 - i/d)."""
    p = 1.0
    for i in range(t):
        p *= 1.0 - i / d
    return p


def bernstein_radius(p: float, n: int, rates: int, alpha: float) -> float:
    """Deviation s with P[any of `rates` n-trial frequencies is off by >= s] <= alpha,
    from Bernstein's inequality 2 exp(-n s^2 / (2p(1-p) + 2s/3)) and a union bound."""
    L = math.log(2.0 * rates / alpha)
    b = 2.0 * L / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * L * p * (1.0 - p))) / (2.0 * n)


def check_crossing(crossing: dict, alpha: float = 1e-9) -> list:
    """Slope of the sqrt(d) law, no censored point, and every no-collision
    rate within a union-bounded Bernstein radius of the birthday product."""
    problems = []
    slope = crossing.get("crossing_slope")
    if not isinstance(slope, float) or not 0.4 <= slope <= 0.6:
        problems.append(f"crossing slope {slope!r} outside [0.4, 0.6]")
    points = crossing.get("points", [])
    if not points:
        return problems + ["crossing report has no points"]
    censored = [p["d"] for p in points if p.get("censored")]
    if censored:
        problems.append(f"censored crossing at d={censored}")
    rows = [row for p in points for row in p["rows"]]
    rates = 2 * len(rows)
    for row in rows:
        exact = no_collision(row["d"], row["t"])
        radius = bernstein_radius(exact, row["trials"], rates, alpha)
        for key in ("no_collision_rate_uniform", "no_collision_rate_mixture"):
            if abs(row[key] - exact) > radius:
                problems.append(f"{key} {row[key]:.4f} at d={row['d']}, t={row['t']} is "
                                f"off the birthday product {exact:.4f} by more than {radius:.4f}")
    return problems


def allowed_misses(n: int, delta: float, alpha: float = 1e-6) -> int:
    """Largest miss count consistent with success probability >= 1 - delta:
    the smallest c with P[Binomial(n, delta) > c] <= alpha."""
    tail = 1.0
    for c in range(n + 1):
        tail -= math.comb(n, c) * delta**c * (1.0 - delta) ** (n - c)
        if tail <= alpha:
            return c
    return n
