"""Acceptance gate: the protocol-level guarantees at desk scale.

Each criterion prints one PASS/FAIL line directly to the terminal (bypassing
capture) so the verdicts are visible in any log of the run.
"""

import math
import sys
import time

import numpy as np
import pytest
from oracles import (
    accept_rate,
    accepted_batches,
    bruteforce_interval_erm,
    exact_no_collision,
    planted_shift,
    true_atom_probs,
)

from pacverify import cli
from pacverify import intervals as iv
from pacverify import lowerbound as lb
from pacverify import sq
from pacverify.core import DiscreteDistribution, child_rng


_EMIT = None


@pytest.fixture(autouse=True)
def _terminal(capfd):
    """Expose a capture-suspending writer so PASS/FAIL lines reach the log."""
    global _EMIT

    def emit(line: str) -> None:
        with capfd.disabled():
            sys.__stdout__.write(line)
            sys.__stdout__.flush()

    _EMIT = emit
    yield
    _EMIT = None


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}\n"
    if _EMIT is not None:
        _EMIT(line)
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


def slack(target: float, n: int) -> float:
    """Wilson-scale Monte-Carlo slack: 1.96 binomial standard errors at the target."""
    return 1.96 * math.sqrt(target * (1.0 - target) / n)


INTERVALS_SPEC = {
    "protocol": "intervals",
    "distribution": {"kind": "grid", "n_points": 64, "target": [[0.1, 0.3], [0.6, 0.8]]},
    "params": {"d": 2, "epsilon": 0.1, "delta": 0.2},
    "trials": 300,
    "root_seed": 20260823,
    "record_transcripts": False,
}

SQ_SPEC = {
    "protocol": "sq",
    "distribution": {"kind": "zipf"},
    "params": {"tau": 0.05, "epsilon": 0.1, "delta": 0.2, "N": 64, "n": 8},
    "trials": 300,
    "root_seed": 20260823,
    "record_transcripts": False,
}

# the README's gap sweep
GAP_SPEC = {
    "protocol": "sq",
    "params": {"experiment": "gap", "ds": [4, 16, 64, 256], "tau": 0.05,
               "epsilon": 0.1, "delta": 0.2},
    "root_seed": 66,
}


class TestCriterion1IntervalsCompleteness:
    def test_realizable_two_interval_grid(self):
        start = time.monotonic()
        spec = cli.ExperimentSpec.from_doc(INTERVALS_SPEC)
        report = cli.run_experiment(spec)
        elapsed = time.monotonic() - start
        rate = report["rates"]["completeness_success_rate"]
        floor = 0.8 - slack(0.8, 300)
        ok = rate >= floor and elapsed < 300
        _report(1, ok, f"intervals completeness rate {rate:.3f} >= {floor:.3f}, "
                       f"{elapsed:.0f}s < 300s")
        assert rate >= floor
        assert elapsed < 300


class TestCriterion2IntervalsSoundness:
    @pytest.mark.parametrize("adversary", ["mass-shift", "wrong-boundary", "label-swap"])
    def test_malicious_prover_violation_rate(self, adversary):
        spec = cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, adversary=adversary))
        report = cli.run_experiment(spec)
        rate = report["rates"]["soundness_violation_rate"]
        ceiling = 0.2 + slack(0.2, 300)
        ok = rate <= ceiling
        _report(2, ok, f"intervals soundness [{adversary}] violation rate "
                       f"{rate:.3f} <= {ceiling:.3f}")
        assert rate <= ceiling


class TestCriterion3ErmExactness:
    def test_dynamic_program_equals_exhaustive_search(self):
        rng = child_rng(33)
        mismatches = 0
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            mass = rng.random((k, 2))
            mass /= mass.sum()
            _, loss = iv.erm_runs(mass[:, 0], mass[:, 1], d)
            best, _ = bruteforce_interval_erm(mass[:, 0], mass[:, 1], d)
            if abs(loss - best) > 1e-12:
                mismatches += 1
        ok = mismatches == 0
        _report(3, ok, f"ERM vs exhaustive search: {mismatches} mismatches in 1000 instances")
        assert mismatches == 0


class TestCriterion4IdentityTesterContract:
    def test_planted_distances(self):
        # n = 100 atoms, outer radius 0.1 and the inner radius outer / sqrt(n)
        outer, delta = 0.1, 0.1
        inner = outer / math.sqrt(100)
        ref = DiscreteDistribution.uniform(100)
        runs = 500
        floor = (1 - delta) - slack(1 - delta, runs)
        results = []
        for tv in (0.0, inner):
            rate = accept_rate(outer, inner, delta, ref, planted_shift(ref.probs, tv), runs,
                               seed=44)
            results.append((tv, "accept", rate, rate >= floor))
        for tv in (outer, 2 * outer):
            rate = 1.0 - accept_rate(outer, inner, delta, ref, planted_shift(ref.probs, tv), runs,
                                     seed=45)
            results.append((tv, "reject", rate, rate >= floor))
        ok = all(r[3] for r in results)
        detail = ", ".join(f"tv={r[0]:.2f} {r[1]}={r[2]:.3f}" for r in results)
        _report(4, ok, f"identity tester ({detail}) vs floor {floor:.3f}")
        for tv, kind, rate, passed in results:
            assert passed, (tv, kind, rate)


class TestCriterion5OracleChannelInvariant:
    def test_ten_thousand_instrumented_iterations(self):
        dist = sq.zipf_distribution(64)
        cfg = sq.SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16)
        violations = 0
        checked = 0
        iterations = 0
        i = 0
        alg = sq.PortfolioAlgorithm(64, 8, 16)
        partitions: dict = {}
        while iterations < 10_000:
            rng_v = child_rng(55, i, 0)
            rng_p = child_rng(55, i, 1)
            counts_v = rng_v.multinomial(cfg.m_v, dist.probs)
            prover = sq.HonestSqProver(dist, cfg)

            class Channel:
                def ask(self, payload):
                    return prover.respond(payload, rng_p)

            accepted = accepted_batches(counts_v, alg, Channel(), cfg, i, child_rng(55, i, 2),
                                        partitions)
            iterations += 1
            for ap, claimed, evaluations in accepted:
                p = true_atom_probs(ap, dist)
                l1 = float(np.abs(claimed - p).sum())
                err = float(np.abs(evaluations - sq.induced_evaluations(ap, p)).max())
                if l1 <= cfg.tau:
                    checked += 1
                    if err > cfg.tau:
                        violations += 1
            i += 1
        ok = violations == 0 and checked > 0
        _report(5, ok, f"oracle-channel invariant: {violations} violations over "
                       f"{checked} accepted evaluations in {iterations} iterations")
        assert checked > 0
        assert violations == 0


class TestCriterion6SqPortfolio:
    def test_honest_success_rate(self):
        spec = cli.ExperimentSpec.from_doc(SQ_SPEC)
        report = cli.run_experiment(spec)
        rate = report["rates"]["completeness_success_rate"]
        floor = 0.8 - slack(0.8, 300)
        ok = rate >= floor
        _report(6, ok, f"sq portfolio honest success rate {rate:.3f} >= {floor:.3f}")
        assert rate >= floor

    @pytest.mark.parametrize("adversary", ["mass-shift", "atom-swap", "stale"])
    def test_malicious_violation_rate(self, adversary):
        spec = cli.ExperimentSpec.from_doc(dict(SQ_SPEC, adversary=adversary))
        report = cli.run_experiment(spec)
        rate = report["rates"]["soundness_violation_rate"]
        ceiling = 0.2 + slack(0.2, 300)
        ok = rate <= ceiling
        _report(6, ok, f"sq portfolio [{adversary}] violation rate {rate:.3f} <= {ceiling:.3f}")
        assert rate <= ceiling


class TestCriterion7GapScaling:
    def test_verifier_vs_simulation_slopes(self):
        start = time.monotonic()
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(GAP_SPEC))["gap"]
        elapsed = time.monotonic() - start
        sv, ss = report["verifier_cost_slope"], report["simulation_cost_slope"]
        ok = (0.4 <= sv <= 0.6 and 0.9 <= ss <= 1.1
              and all(r["accepted"] for r in report["rows"]) and elapsed < 900)
        _report(7, ok, f"gap scaling: verifier slope {sv:.3f} in [0.4,0.6], "
                       f"simulation slope {ss:.3f} in [0.9,1.1], {elapsed:.0f}s < 900s")
        assert 0.4 <= sv <= 0.6
        assert 0.9 <= ss <= 1.1
        assert elapsed < 900


class TestCriterion8LowerBoundCrossing:
    def test_crossing_slope_and_collision_statistics(self):
        report = lb.crossing_experiment(ds=(64, 256, 1024, 4096), trials=3000, seed=77)
        slope_ok = 0.4 <= report["crossing_slope"] <= 0.6
        collision_ok = True
        details = [f"crossing slope {report['crossing_slope']:.3f}"]
        for d, t in ((64, 4), (256, 8), (1024, 16)):
            r = lb.distinguisher_success(d, t, trials=10_000, seed=78)
            p = exact_no_collision(d, t)
            sigma = math.sqrt(p * (1 - p) / 10_000)
            for emp in (r["no_collision_rate_uniform"], r["no_collision_rate_mixture"]):
                if abs(emp - p) > 3 * sigma:
                    collision_ok = False
            details.append(f"nc({d},{t}) within 3 sigma")
        ok = slope_ok and collision_ok and not any(p_["censored"] for p_ in report["points"])
        _report(8, ok, "; ".join(details))
        assert slope_ok
        assert collision_ok


class TestCriterion9Determinism:
    def test_reports_reproduce_byte_identically(self):
        checks = []
        for doc in (dict(INTERVALS_SPEC, trials=2),
                    dict(SQ_SPEC, trials=2),
                    {"protocol": "lowerbound",
                     "params": {"ds": [64, 256], "trials_per_point": 500},
                     "root_seed": 9}):
            spec = cli.ExperimentSpec.from_doc(doc)
            a = cli.report_json(cli.run_experiment(spec), include_wall_clock=False)
            b = cli.report_json(cli.run_experiment(spec), include_wall_clock=False)
            checks.append(a == b)
        ok = all(checks)
        _report(9, ok, f"byte-identical reruns (minus wall-clock) for "
                       f"{sum(checks)}/{len(checks)} protocols")
        assert all(checks)
